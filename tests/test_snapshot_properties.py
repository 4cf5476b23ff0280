"""Property tests of the numpy snapshot sweep against the per-node oracle
(one `_evaluate` per node, the kernel the sequential sweep runs), and of
the M cells that the batch sweep carries from one sweep to the next."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sbpart.engine import (MCMCConfig, description_length, mcmc_sweep,
                           snapshot_proposals, _sweep_uniforms)
from sbpart.graph import (Partition, block_cells, build_graph,
                          recompute_block_matrix)

from conftest import DENSE_STRADDLE
from engine_reference import snapshot_outcomes


@st.composite
def _cases(draw):
    """A small graph with self-loops and isolated nodes, a labelling over B
    blocks (B * B up to `_DENSE_CELLS` is read densely, above it by search;
    `DENSE_STRADDLE` sits on both sides), a sweep seed and an inverse
    temperature (1000 overflows exp)."""
    n = draw(st.integers(1, 24))
    ids = st.integers(0, n - 1)
    rows = draw(st.lists(st.tuples(ids, ids, st.integers(1, 5)),
                         max_size=60))
    B = draw(st.sampled_from([1, 2, 3, 7, *DENSE_STRADDLE]))
    labels = draw(st.lists(st.integers(0, B - 1), min_size=n, max_size=n))
    seed = draw(st.integers(0, 2**32 - 1))
    beta = draw(st.sampled_from([0.5, 3.0, 1000.0]))
    return build_graph(rows, num_nodes=n), Partition(labels, B), seed, beta


@settings(max_examples=200, deadline=None)
@given(_cases())
def test_snapshot_proposals_match_per_node_oracle(case):
    g, p, seed, beta = case
    config = MCMCConfig(beta=beta, rng_seed=seed)
    U = _sweep_uniforms(seed, 0, g.num_nodes)
    ref = snapshot_outcomes(g, p.assignment.copy(),
                            recompute_block_matrix(g, p), config, U)
    moving = [o for o in ref if o.proposed_block != o.current_block]
    nodes, proposed, accepted, dS, p_accept = snapshot_proposals(
        g, p.assignment.copy(), p.num_blocks,
        block_cells(g, p.assignment, p.num_blocks), beta, U)
    assert nodes.tolist() == [o.node for o in moving]
    assert proposed.tolist() == [o.proposed_block for o in moving]
    assert accepted.tolist() == [o.accepted for o in moving]
    assert dS.tolist() == [o.delta_S for o in moving]
    assert p_accept == pytest.approx([o.p_accept for o in moving], rel=1e-9)


@settings(max_examples=100, deadline=None)
@given(_cases())
def test_batch_sweeps_carry_cells_and_H(case):
    """Three batch sweeps in a row, each fed the cells the one before it
    returned: each returns `block_cells` of its new labelling and H equal
    bit for bit to `description_length` of it."""
    g, p, seed, beta = case
    config = MCMCConfig(beta=beta, rng_seed=seed, execution_mode="batch")
    B = p.num_blocks
    state = block_cells(g, p.assignment, B)
    h = description_length(g, p)
    for sweep in range(3):
        p, state, h, _ = mcmc_sweep(g, p, state, h, config,
                                    sweep_index=sweep)
        want = block_cells(g, p.assignment, B)
        assert all(np.array_equal(x, y) for x, y in zip(state, want))
        assert h == description_length(g, p)


def test_snapshot_proposals_leave_the_labelling_alone():
    g = build_graph([(0, 1, 2), (1, 2, 1), (2, 2, 3), (3, 0, 1)],
                    num_nodes=6)
    b = np.array([0, 1, 1, 2, 0, 3])
    before = b.copy()
    U = _sweep_uniforms(5, 0, g.num_nodes)
    nodes, *_ = snapshot_proposals(g, b, 4, block_cells(g, b, 4), 3.0, U)
    assert np.array_equal(b, before)
    assert not set(nodes.tolist()) & {4, 5}   # no edges, no proposal
