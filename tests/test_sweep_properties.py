"""Property tests of the exact sequential sweep against a recount walk.

The sweep keeps M as a live dict state and draws each proposal by walking
row u of M, then column u, in their dict order (`engine._propose`); every
accepted move edits the dicts in place (`apply_move`), so that order
drifts from block id order. Beside it, a test-side walk replays the same
permutation and uniforms: it draws each proposal from a mirror of the
start state that replays the accepted moves through `apply_move` (so it
keeps the sweep's dict order), recounts M before every scored move, and
scores the move from full entropies of the recounts before and after it.
The two must agree node by node. The sweep's H is the input H plus the
accepted moves' dS; it must stay within rounding of a recount.
"""
import math
from itertools import chain
from types import SimpleNamespace
from unittest import mock

import numpy as np
from hypothesis import given, settings, strategies as st

from sbpart import engine
from sbpart.engine import (MCMCConfig, _propose, _sweep_permutation,
                           _sweep_uniforms, description_length, mcmc_sweep,
                           run_mcmc)
from sbpart.graph import (NodeTables, Partition, apply_move, build_graph,
                          node_block_edge_counts, recompute_block_matrix)

from engine_reference import (copy_state, draw_neighbor, entropy_sum,
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


def _walk_proposal(state, a, B, j, u):
    """Node i's proposal, whose drawn neighbour is j: a uniform block, or
    entry floor(u[2] * d) of row a[j] of M, then column a[j], spelled out
    one unit of weight at a time in dict order."""
    blk = int(a[j])
    d = int(state.d[blk])
    if u[1] <= B / (d + B):
        return min(int(u[2] * B), B - 1)
    units = [t for t, w in chain(state.rows[blk].items(),
                                 state.cols[blk].items()) for _ in range(w)]
    return units[int(u[2] * d)]


def _recount_step(g, a, B, beta, i, s, u_accept):
    """(accepted, delta_S) of moving node i to block s, against recounts of
    M before and after the move."""
    state = recompute_block_matrix(g, Partition(a, B))
    moved = a.copy()
    moved[i] = s
    after = recompute_block_matrix(g, Partition(moved, B))
    dS = entropy_sum(state) - entropy_sum(after)
    combined = {}
    for j, w_out, w_in in g.neighbors(i):
        combined[int(a[j])] = combined.get(int(a[j]), 0) + w_out + w_in
    pf, pb = hastings_correction(i, SimpleNamespace(combined=combined),
                                 state, after, int(a[i]), s, B)
    try:
        p_accept = min(math.exp(-beta * dS) * pb / pf, 1.0)
    except OverflowError:
        p_accept = 1.0
    return u_accept <= p_accept, dS


@settings(max_examples=300, deadline=None)
@given(_cases())
def test_sequential_sweep_matches_recount_walk(case):
    g, labels, B, seed, sweep = case
    config = MCMCConfig(rng_seed=seed)
    a = np.array(labels, dtype=np.int64)
    part = Partition(a.copy(), B)
    state = recompute_block_matrix(g, part)
    mirror = copy_state(state)
    H = description_length(g, part)

    calls = []

    def recording(kernel):
        def record(*args):
            out = kernel(*args)
            calls.append((kernel.__name__, args, out))
            return out
        return record
    with mock.patch.object(engine, "_propose", recording(engine._propose)), \
            mock.patch.object(engine, "_evaluate",
                              recording(engine._evaluate)):
        part, state, H_out, _ = mcmc_sweep(g, part, state, H, config,
                                           sweep_index=sweep)

    U = _sweep_uniforms(seed, sweep, g.num_nodes)
    order = [i for i in _sweep_permutation(seed, sweep, g.num_nodes).tolist()
             if g.degree[i]]
    tables = NodeTables(g)
    net = 0.0
    calls = iter(calls)
    for i in order:
        name, (*_, j, u_coin, u_prop), s = next(calls)
        assert name == "_propose"
        assert j == draw_neighbor(g, i, U[i, 0])
        assert (u_coin, u_prop) == (U[i, 1], U[i, 2])
        assert s == _walk_proposal(mirror, a, B, j, U[i])
        r = int(a[i])
        if s == r:
            continue
        name, args, (commit, (dS, *_)) = next(calls)
        assert name == "_evaluate" and args[-3:] == (i, s, U[i, 3])
        accepted, dS_walk = _recount_step(g, a, B, config.beta, i, s,
                                          U[i, 3])
        assert (commit is not None) == accepted
        assert abs(dS - dS_walk) <= 1e-9 * max(1.0, abs(dS_walk))
        if accepted:
            apply_move(mirror, r, s,
                       node_block_edge_counts(tables, a.tolist(), i))
            a[i] = s
            net += dS
    assert next(calls, None) is None
    assert np.array_equal(part.assignment, a)
    fresh = recompute_block_matrix(g, part)
    assert state.rows == fresh.rows and state.cols == fresh.cols
    for name in ("d_out", "d_in", "d"):
        assert np.array_equal(getattr(state, name), getattr(fresh, name))
    assert H_out == H + net
    recount = description_length(g, part)
    assert abs(H_out - recount) <= 1e-9 * max(1.0, abs(recount))


@settings(max_examples=200, deadline=None)
@given(_cases(), st.lists(st.tuples(st.integers(0, 29), st.integers(0, 29)),
                          max_size=40))
def test_dict_walk_sends_each_block_its_row_weight(case, moves):
    """On a state edited by random moves (its dicts no longer by id), the
    walk over row u of M + M^T sends exactly (M + M^T)[u, t] of the d_u
    values floor(u_prop * d_u) = 0 ... d_u - 1 to each block t."""
    g, labels, B, _, _ = case
    a = list(labels)
    state = recompute_block_matrix(g, Partition(a, B))
    tables = NodeTables(g)
    for i, s in moves:
        i, s = i % g.num_nodes, s % B
        if s != a[i]:
            apply_move(state, a[i], s, node_block_edge_counts(tables, a, i))
            a[i] = s
    for u in range(B):
        d = state.d[u]
        if not d:
            continue
        got = {}
        for x in range(d):
            t = _propose([u], state, B, 0, 1.0, (x + 0.5) / d)
            got[t] = got.get(t, 0) + 1
        want = {t: state.rows[u].get(t, 0) + state.cols[u].get(t, 0)
                for t in set(state.rows[u]) | set(state.cols[u])}
        assert got == want


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
