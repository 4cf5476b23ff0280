"""Property tests of the numpy merge-candidate pass and of `merge_blocks`
against the one-candidate-at-a-time oracles in `engine_reference`."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from sbpart.engine import MCMCConfig, description_length, merge_blocks, \
    merge_candidates, merge_delta_S
from sbpart.graph import Partition, block_cells, build_graph, \
    recompute_block_matrix

from conftest import DENSE_STRADDLE
import engine_reference as ref


@st.composite
def _cases(draw):
    """A small graph with self-loops and isolated nodes, and a labelling
    over B blocks, some of them without edges or without nodes (B * B up
    to `_DENSE_CELLS` reads M densely, above it by search; `DENSE_STRADDLE`
    sits on both sides)."""
    n = draw(st.integers(1, 24))
    ids = st.integers(0, n - 1)
    rows = draw(st.lists(st.tuples(ids, ids, st.integers(1, 5)),
                         max_size=60))
    B = draw(st.sampled_from([1, 2, 3, 7, *DENSE_STRADDLE]))
    labels = draw(st.lists(st.integers(0, B - 1), min_size=n, max_size=n))
    return build_graph(rows, num_nodes=n), Partition(labels, B)


@settings(max_examples=200, deadline=None)
@given(_cases(), st.integers(1, 4), st.integers(0, 2**32 - 1),
       st.sampled_from([1.0, 1e-5]))
def test_merge_candidates_match_oracle(case, proposals, seed, skew):
    """skew 1e-5 lifts the coin variates to within about 1e-3 of 1, so
    that a block with edges draws its candidates from the rows of M rather
    than uniformly."""
    g, p = case
    B = p.num_blocks
    state = recompute_block_matrix(g, p)
    U = np.random.default_rng(seed).random((B, proposals, 3))
    U[:, :, 1] **= skew
    want = [(r, s) for r in range(B) for u in U[r]
            for s in [ref.propose_merge_target(state, r, B, *u)] if s != r]
    cell, m = block_cells(g, p.assignment, B)
    r, s, dS = merge_candidates(cell, m, B, U, g.xlogx)
    assert list(zip(r.tolist(), s.tolist())) == want
    oracle = [ref.merge_delta_S(state, x, y) for x, y in want]
    # the three sum the same terms in different orders
    assert dS == pytest.approx(oracle, rel=1e-9, abs=1e-12)
    assert [merge_delta_S(state, x, y) for x, y in want] == \
        pytest.approx(oracle, rel=1e-9, abs=1e-12)


@settings(max_examples=100, deadline=None)
@given(_cases(), st.data())
def test_merge_blocks_properties(case, data):
    g, p = case
    p = p.compact()
    B = p.num_blocks
    # blocks in different components of the block graph merge only through
    # a uniform draw, which may never come; below their count the round
    # can fail by design
    cell, m = block_cells(g, p.assignment, B)
    adj = coo_matrix((m, (cell // B, cell % B)), shape=(B, B))
    floor, _ = connected_components(adj, directed=False)
    target = data.draw(st.integers(floor, B))
    seed = data.draw(st.integers(0, 2**32 - 1))
    config = MCMCConfig(merge_proposals_per_block=data.draw(
        st.integers(1, 10)))
    runs = [merge_blocks(g, p, target, config, np.random.default_rng(seed))
            for _ in range(2)]
    p1, p2 = runs
    assert p1.num_blocks == target
    # each new block is a union of old blocks
    pairs = set(zip(p.assignment.tolist(), p1.assignment.tolist()))
    assert len(pairs) == B
    # H of the merged labelling, from its cells and from the dict oracle
    fresh = recompute_block_matrix(g, p1)
    assert description_length(g, p1) == pytest.approx(
        ref.description_length(fresh, g.num_nodes, g.total_edge_weight),
        rel=1e-12, abs=1e-12)
    # the same seed gives the same result
    assert p1.assignment.tobytes() == p2.assignment.tobytes()
