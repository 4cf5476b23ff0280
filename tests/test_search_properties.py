"""Property test of the search's reproducibility: a rerun with the same
seed, on a graph built afresh from the same edges, gives the same
partition, block count and H bit for bit, in both execution modes and from
a cold or a warm start."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sbpart.engine import MCMCConfig, golden_section_search
from sbpart.graph import Partition, build_graph


@st.composite
def _cases(draw):
    """Edges of a small graph with self-loops, isolated nodes and repeated
    edges, an optional warm-start labelling, and an engine seed."""
    n = draw(st.integers(1, 20))
    ids = st.integers(0, n - 1)
    rows = draw(st.lists(st.tuples(ids, ids, st.integers(1, 4)),
                         max_size=60))
    start = draw(st.none() | st.lists(st.integers(0, 3), min_size=n,
                                      max_size=n))
    return n, rows, start, draw(st.integers(0, 2**32 - 1))


@pytest.mark.parametrize("mode", ["sequential", "batch"])
@settings(max_examples=100, deadline=None)
@given(case=_cases())
def test_same_seed_same_partition(mode, case):
    n, rows, start, seed = case
    config = MCMCConfig(rng_seed=seed, execution_mode=mode, max_sweeps=10)
    runs = []
    for _ in range(2):
        initial = None if start is None else Partition(start)
        part, B, H = golden_section_search(build_graph(rows, num_nodes=n),
                                           config, initial_partition=initial)
        runs.append((part.assignment.tolist(), B, repr(H)))
    assert runs[0] == runs[1]
