"""Property tests of `description_length`, which reads H from M's sorted
cells, against the dict-walk oracle in `engine_reference`, and of
`Partition.compact`."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sbpart.engine import description_length
from sbpart.graph import Partition, build_graph, recompute_block_matrix

import engine_reference as ref

_settings = settings(max_examples=200, deadline=None)


@st.composite
def _cases(draw):
    """A small graph with self-loops and isolated nodes (E = 0 included),
    and a labelling over B blocks, some of them without nodes."""
    n = draw(st.integers(1, 24))
    ids = st.integers(0, n - 1)
    rows = draw(st.lists(st.tuples(ids, ids, st.integers(1, 1000)),
                         max_size=60))
    B = draw(st.integers(1, 40))
    labels = draw(st.lists(st.integers(0, B - 1), min_size=n, max_size=n))
    return build_graph(rows, num_nodes=n), Partition(labels, B)


@_settings
@given(_cases())
def test_description_length_matches_dict_oracle(case):
    g, p = case
    want = ref.description_length(recompute_block_matrix(g, p), g.num_nodes,
                                  g.total_edge_weight)
    assert description_length(g, p) == pytest.approx(want, rel=1e-12,
                                                     abs=1e-12)


@_settings
@given(_cases(), st.data())
def test_description_length_ignores_block_labels(case, data):
    g, p = case
    perm = np.array(data.draw(st.permutations(range(p.num_blocks))))
    relabelled = Partition(perm[p.assignment], p.num_blocks)
    assert description_length(g, relabelled) == pytest.approx(
        description_length(g, p), rel=1e-12, abs=1e-12)


@_settings
@given(_cases())
def test_compact_is_idempotent(case):
    _, p = case
    once = p.compact()
    twice = once.compact()
    assert twice.num_blocks == once.num_blocks == len(set(p.assignment))
    assert twice.assignment.tobytes() == once.assignment.tobytes()
    # compacting keeps who shares a block with whom
    pairs = set(zip(p.assignment.tolist(), once.assignment.tolist()))
    assert len(pairs) == once.num_blocks
