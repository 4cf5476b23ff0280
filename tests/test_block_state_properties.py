"""Property test of the dict block state: any sequence of node moves
and block merges, both committed by `apply_move` (a merge moves a block
as one node, `block_edge_counts`), leaves M, `d_out`, `d_in` and `d`
equal to a fresh count of the resulting labelling."""
import numpy as np
from hypothesis import given, settings, strategies as st

from sbpart.graph import (NodeTables, Partition, apply_move, block_edge_counts,
                          build_graph, node_block_edge_counts,
                          recompute_block_matrix)


@st.composite
def _cases(draw):
    """A small graph with self-loops, isolated nodes and repeated edges, a
    labelling over B blocks (some empty), and a list of operations: a move
    (node, block) or a merge (block r into block s)."""
    n = draw(st.integers(1, 16))
    ids = st.integers(0, n - 1)
    rows = draw(st.lists(st.tuples(ids, ids, st.integers(1, 4)),
                         max_size=50))
    B = draw(st.integers(1, 6))
    blocks = st.integers(0, B - 1)
    labels = draw(st.lists(blocks, min_size=n, max_size=n))
    ops = draw(st.lists(st.one_of(st.tuples(st.just("move"), ids, blocks),
                                  st.tuples(st.just("merge"), blocks, blocks)),
                        max_size=30))
    return build_graph(rows, num_nodes=n), labels, B, ops


@settings(max_examples=300, deadline=None)
@given(_cases())
def test_moves_and_merges_match_recount(case):
    g, labels, B, ops = case
    a = np.array(labels, dtype=np.int64)
    state = recompute_block_matrix(g, Partition(a, B))
    for op, x, y in ops:
        if op == "move":
            r = int(a[x])
            if r == y:
                continue
            apply_move(state, r, y,
                       node_block_edge_counts(NodeTables(g), a, x))
            a[x] = y
        else:
            if x == y:
                continue
            apply_move(state, x, y, block_edge_counts(state, x))
            a[a == x] = y
        fresh = recompute_block_matrix(g, Partition(a, B))
        assert state.rows == fresh.rows
        assert state.cols == fresh.cols
        for name in ("d_out", "d_in", "d"):
            assert np.array_equal(getattr(state, name), getattr(fresh, name))
