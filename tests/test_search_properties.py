"""Property tests of the search. Reproducibility: a rerun with the same
seed, on a graph built afresh from the same edges, gives the same
partition, block count and H bit for bit, in both execution modes and from
a cold or a warm start. The walk: its probe trace follows the halve, climb,
golden and polish order of `golden_section_search`."""
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


@st.composite
def _walk_cases(draw):
    """A `_cases()` draw whose warm start may be replaced by one block, and
    a merge reduction rate."""
    n, rows, start, seed = draw(_cases())
    if start is not None and draw(st.booleans()):
        start = [0] * n
    return n, rows, start, seed, draw(st.sampled_from([0.3, 0.5, 0.7, 0.9]))


@pytest.mark.parametrize("mode", ["sequential", "batch"])
@settings(max_examples=100, deadline=None)
@given(case=_walk_cases())
def test_search_walk_probe_order(mode, case):
    """The probe trace follows the walk: halve targets step down by the
    merge rate from B0, climbs (warm only) double from B0 up to N, no
    target is probed twice, and the polish comes last and returns the
    least H of the search."""
    n, rows, start, seed, rate = case
    config = MCMCConfig(rng_seed=seed, execution_mode=mode, max_sweeps=10,
                        merge_reduction_rate=rate)
    trace = []
    initial = None if start is None else Partition(start)
    part, B, H = golden_section_search(build_graph(rows, num_nodes=n), config,
                                       initial_partition=initial, trace=trace)
    B0 = n if start is None else len(set(start))
    halves = [e["target"] for e in trace if e["phase"] == "halve"]
    expected, t = [], B0
    while t > 1 and len(expected) < len(halves):
        t = max(1, int(t * rate))
        expected.append(t)
    assert halves == expected
    climbs = [e["target"] for e in trace if e["phase"] == "climb"]
    assert start is not None or not climbs
    expected, t = [], B0
    for _ in climbs:
        t = min(n, 2 * t)
        expected.append(t)
    assert climbs == expected
    targets = [e["target"] for e in trace if e["phase"] != "polish"]
    assert len(targets) == len(set(targets))
    assert trace[-1]["phase"] == "polish"
    assert all(H <= e["H"] for e in trace)
    assert B == part.num_blocks
