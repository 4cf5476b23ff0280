"""Property test of the exact sequential sweep against a recount walk.

The sweep keeps M as a live dict state and caches the proposal rows of
M + M^T between moves: a move drops the rows of its blocks r and s and
shifts every other cached row it changes in place (`_shift_row`).
Beside it, a test-side walk replays the same permutation and uniforms,
but recounts M before every node, draws the proposal from the recount
(`engine_reference._draw_from_row`), and scores the move from full
entropies of the recounts before and after it. The two must agree node by
node. Graphs of up to 30 nodes give a stale cached row enough chances to
be read. The sweep's H is the input H plus the accepted moves' dS; it must
stay within rounding of a recount.
"""
import math
from itertools import accumulate
from types import SimpleNamespace
from unittest import mock

import numpy as np
from hypothesis import given, settings, strategies as st

from sbpart import engine
from sbpart.engine import (MCMCConfig, _shift_row, _sweep_permutation,
                           _sweep_uniforms, description_length, mcmc_sweep,
                           run_mcmc)
from sbpart.graph import Partition, build_graph, recompute_block_matrix

from engine_reference import (_draw_from_row, draw_neighbor, entropy_sum,
                              hastings_correction)


@st.composite
def _cases(draw):
    """A small graph with self-loops, isolated nodes and repeated edges, a
    labelling over 1 <= B <= N blocks (some empty), a seed and a sweep."""
    n = draw(st.integers(1, 30))
    ids = st.integers(0, n - 1)
    rows = draw(st.lists(st.tuples(ids, ids, st.integers(1, 4)),
                         max_size=120))
    B = draw(st.integers(1, n))
    labels = draw(st.lists(st.integers(0, B - 1), min_size=n, max_size=n))
    return (build_graph(rows, num_nodes=n), labels, B,
            draw(st.integers(0, 2**32 - 1)), draw(st.integers(0, 5)))


def _walk_step(g, a, B, beta, i, u):
    """Node i's (proposal, accepted, delta_S) against a recount of M."""
    state = recompute_block_matrix(g, Partition(a, B))
    j = draw_neighbor(g, i, u[0])
    blk = int(a[j])
    if u[1] <= B / (int(state.d[blk]) + B):
        s = min(int(u[2] * B), B - 1)
    else:
        s = _draw_from_row(state, blk, u[2])
    r = int(a[i])
    if s == r:
        return s, False, 0.0
    moved = a.copy()
    moved[i] = s
    after = recompute_block_matrix(g, Partition(moved, B))
    dS = entropy_sum(state) - entropy_sum(after)
    combined = {}
    for j, w_out, w_in in g.neighbors(i):
        combined[int(a[j])] = combined.get(int(a[j]), 0) + w_out + w_in
    pf, pb = hastings_correction(i, SimpleNamespace(combined=combined),
                                 state, after, r, s, B)
    try:
        p_accept = min(math.exp(-beta * dS) * pb / pf, 1.0)
    except OverflowError:
        p_accept = 1.0
    return s, u[3] <= p_accept, dS


@settings(max_examples=300, deadline=None)
@given(_cases())
def test_sequential_sweep_matches_recount_walk(case):
    g, labels, B, seed, sweep = case
    config = MCMCConfig(rng_seed=seed)
    a = np.array(labels, dtype=np.int64)
    part = Partition(a.copy(), B)
    state = recompute_block_matrix(g, part)
    H = description_length(g, part)

    seen = []
    original = engine._evaluate

    def recording(*args):
        out = original(*args)
        seen.append((args[6], out))
        return out
    with mock.patch.object(engine, "_evaluate", recording):
        part, state, H_out, _ = mcmc_sweep(g, part, state, H, config,
                                           sweep_index=sweep)

    U = _sweep_uniforms(seed, sweep, g.num_nodes)
    order = [i for i in _sweep_permutation(seed, sweep, g.num_nodes).tolist()
             if g.degree[i]]
    assert [i for i, _ in seen] == order
    for i, (r, s, commit, (dS, *_)) in seen:
        assert r == a[i]
        s_walk, accepted, dS_walk = _walk_step(g, a, B, config.beta, i, U[i])
        assert s == s_walk
        assert (commit is not None) == accepted
        assert abs(dS - dS_walk) <= 1e-9 * max(1.0, abs(dS_walk))
        if accepted:
            a[i] = s
    assert np.array_equal(part.assignment, a)
    fresh = recompute_block_matrix(g, part)
    assert state.rows == fresh.rows and state.cols == fresh.cols
    for name in ("d_out", "d_in", "d"):
        assert np.array_equal(getattr(state, name), getattr(fresh, name))
    net = 0.0
    for _, (_, _, commit, (dS, *_)) in seen:
        if commit is not None:
            net += dS
    assert H_out == H + net
    recount = description_length(g, part)
    assert abs(H_out - recount) <= 1e-9 * max(1.0, abs(recount))


@settings(max_examples=150, deadline=None)
@given(_cases(), st.sampled_from(["sequential", "batch"]),
       st.integers(0, 6))
def test_run_mcmc_returns_the_recounted_H(case, mode, cap):
    """Whatever the sweeps carried (the sequential sum of dS, or the batch
    cells), run_mcmc returns description_length of its partition, bit for
    bit."""
    g, labels, B, seed, sweep = case
    config = MCMCConfig(rng_seed=seed, execution_mode=mode)
    part, H, sweeps = run_mcmc(g, Partition(labels, B), config,
                               sweep_base=sweep, sweep_cap=cap)
    assert sweeps <= cap
    assert H == description_length(g, part)


def _row(weights):
    keys = sorted(t for t, w in weights.items() if w)
    return keys, list(accumulate(weights[t] for t in keys))


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(st.integers(0, 20), st.integers(1, 5), min_size=1),
       st.data())
def test_shift_row_matches_a_rebuilt_row(weights, data):
    """A cached proposal row shifted in place equals the row rebuilt from
    the changed weights: s enters the ids if it was absent, and r leaves
    them when its weight drops to 0."""
    r = data.draw(st.sampled_from(sorted(weights)))
    s = data.draw(st.integers(0, 20).filter(lambda x: x != r))
    k = data.draw(st.integers(1, weights[r]))
    row = _row(weights)
    _shift_row(row, r, s, k)
    after = dict(weights)
    after[r] -= k
    after[s] = after.get(s, 0) + k
    assert row == _row(after)
