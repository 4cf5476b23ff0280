import math
import os
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import chisquare

from sbpart import engine
from sbpart.engine import (MCMCConfig, description_length,
                           golden_section_search, mcmc_sweep, merge_blocks,
                           merge_candidates, merge_delta_S, run_mcmc,
                           snapshot_proposals, split_partition, warm_start,
                           _sweep_uniforms)
from sbpart.generator import GeneratorConfig, generate
from sbpart.graph import (BlockModelState, NodeTables, Partition, apply_move,
                          block_cells, build_graph, node_block_edge_counts,
                          recompute_block_matrix)

from batch_reference import batch_outcomes
from conftest import random_graph, random_partition
import engine_reference as ref
from engine_reference import (copy_partition, copy_state,
                              delta_log_posterior, entropy_sum,
                              hastings_correction, nodal_update, propose_block,
                              to_dense)


def directed_clique(nodes, offset=0):
    return [(i + offset, j + offset, 1)
            for i in range(nodes) for j in range(nodes) if i != j]


def three_cycle():
    return build_graph([(0, 1, 1), (1, 2, 1), (2, 0, 1)])


# ---------------------------------------------------------------------------
# description length

def test_description_length_one_edge_one_block():
    g = build_graph([(0, 1, 1)])
    h = description_length(g, Partition([0, 0], 1))
    # B=1: h(1) = 2 ln 2, no block-label or posterior terms
    assert h == pytest.approx(2 * math.log(2), abs=1e-12)


def test_description_length_one_edge_two_blocks():
    g = build_graph([(0, 1, 1)])
    h = description_length(g, Partition([0, 1]))
    # E h(4) + 2 ln 2 - S with S = 1 * ln(1 / (1*1)) = 0
    expect = (5 * math.log(5) - 4 * math.log(4)) + 2 * math.log(2)
    assert h == pytest.approx(expect, abs=1e-12)
    assert h == pytest.approx(3.88830647881083, abs=1e-10)


def test_description_length_zero_edges():
    g = build_graph([], num_nodes=7)
    p = Partition([0, 1, 0, 0, 1, 0, 0])
    assert description_length(g, p) == pytest.approx(7 * math.log(2))


def test_description_length_rejects_wrong_length():
    g = three_cycle()
    for labels in ([0, 0], [0, 0, 0, 0]):
        with pytest.raises(ValueError, match="does not match"):
            description_length(g, Partition(labels, 1))


def test_entropy_sum_zero_when_counts_factorize():
    # single self-loop: M = [[1]], d_out = d_in = 1 -> every term ln 1 = 0
    g = build_graph([(0, 0, 1)])
    state = recompute_block_matrix(g, Partition([0], 1))
    assert entropy_sum(state) == pytest.approx(0.0, abs=1e-15)


# ---------------------------------------------------------------------------
# restricted delta-S

def test_delta_log_posterior_three_cycle():
    g = three_cycle()
    p = Partition([0, 0, 1])
    before = recompute_block_matrix(g, p)
    counts = node_block_edge_counts(NodeTables(g), p.assignment, 2)
    after = copy_state(before)
    apply_move(after, 1, 0, counts)
    restricted = delta_log_posterior(before, after, 1, 0)
    full = entropy_sum(before) - entropy_sum(after)
    assert restricted == pytest.approx(full, abs=1e-12)


def test_delta_log_posterior_noop_move_is_zero():
    # moving a node between blocks it has no edges to leaves S's r/s window
    # consistent with the full difference even when the change is zero-ish
    g = build_graph([(0, 1, 1)], num_nodes=4)
    p = Partition([0, 1, 2, 2])
    before = recompute_block_matrix(g, p)
    # node 3 is isolated
    counts = node_block_edge_counts(NodeTables(g), p.assignment, 3)
    after = copy_state(before)
    apply_move(after, 2, 1, counts)
    assert delta_log_posterior(before, after, 2, 1) == pytest.approx(0.0,
                                                                     abs=1e-12)


def test_restricted_delta_matches_full_on_random_moves():
    """200 random moves: windowed delta-S equals the full entropy change."""
    rng = np.random.default_rng(13)
    done = 0
    while done < 200:
        g = random_graph(rng, max_nodes=50, min_nodes=5)
        p = random_partition(rng, g.num_nodes)
        before = recompute_block_matrix(g, p)
        i = int(rng.integers(g.num_nodes))
        r = int(p.assignment[i])
        s = int(rng.integers(p.num_blocks))
        if s == r:
            continue
        counts = node_block_edge_counts(NodeTables(g), p.assignment, i)
        after = copy_state(before)
        apply_move(after, r, s, counts)
        restricted = delta_log_posterior(before, after, r, s)
        full = entropy_sum(before) - entropy_sum(after)
        assert restricted == pytest.approx(full, rel=1e-10, abs=1e-10)
        done += 1


# ---------------------------------------------------------------------------
# proposals

def test_propose_block_single_block():
    g = three_cycle()
    p = Partition([0, 0, 0], 1)
    state = recompute_block_matrix(g, p)
    rng = np.random.default_rng(0)
    for _ in range(20):
        assert propose_block(0, p, state, g, rng) == 0


def test_propose_block_distribution_chain():
    """Path 0->1->2 with singleton blocks: node 0's proposal law is the
    analytic mixture of the uniform and neighbor-multinomial branches."""
    g = build_graph([(0, 1, 1), (1, 2, 1)])
    p = Partition([0, 1, 2])
    state = recompute_block_matrix(g, p)
    # neighbor of node 0 is always node 1 (block 1, degree 2); uniform branch
    # fires w.p. 3/5, else a draw from (M[1,:]+M[:,1])/2 = {0: 1/2, 2: 1/2}
    expected = np.array([3 / 5 / 3 + 2 / 5 / 2, 3 / 5 / 3,
                         3 / 5 / 3 + 2 / 5 / 2])
    rng = np.random.default_rng(42)
    n = 100_000
    counts = np.zeros(3)
    for _ in range(n):
        counts[propose_block(0, p, state, g, rng)] += 1
    _, pvalue = chisquare(counts, expected * n)
    assert pvalue > 0.01


# ---------------------------------------------------------------------------
# Hastings correction

def test_hastings_symmetric_state():
    # M = [[2,1],[1,2]] is symmetric under swapping the blocks, so for a node
    # with one edge into each block the forward and backward sums coincide
    state = BlockModelState([{0: 2, 1: 1}, {0: 1, 1: 2}],
                            [{0: 2, 1: 1}, {0: 1, 1: 2}],
                            [3, 3], [3, 3], [0, 1])
    g = build_graph([(0, 1, 1), (2, 0, 1)], num_nodes=3)
    counts = node_block_edge_counts(NodeTables(g), [1, 0, 1], 0)
    assert counts.combined == {0: 1, 1: 1}
    pf, pb = hastings_correction(0, counts, state, state, 0, 1, 2)
    # t=0: (1+1+1)/8, t=1: (2+2+1)/8 -> pf = 1; mirrored for pb
    assert pf == pytest.approx(1.0, abs=1e-12)
    assert pb == pytest.approx(1.0, abs=1e-12)


def test_hastings_empty_counts():
    state = BlockModelState([{}, {}], [{}, {}], [0, 0], [0, 0], [0, 1])
    g = build_graph([(0, 1, 1)], num_nodes=3)
    counts = node_block_edge_counts(NodeTables(g), [0, 0, 1], 2)
    pf, pb = hastings_correction(2, counts, state, state, 1, 0, 2)
    assert pf == 0.0 and pb == 0.0


def test_hastings_reverse_consistency():
    """For an applied move, the reverse move's forward probability equals the
    original backward probability (nodes without self-loops)."""
    rng = np.random.default_rng(23)
    done = 0
    while done < 100:
        g = random_graph(rng, max_nodes=40, min_nodes=5)
        tables = NodeTables(g)
        p = random_partition(rng, g.num_nodes)
        i = int(rng.integers(g.num_nodes))
        if tables.self_loop[i] or g.degree[i] == 0:
            continue
        r = int(p.assignment[i])
        s = int(rng.integers(p.num_blocks))
        if s == r:
            continue
        B = p.num_blocks
        before = recompute_block_matrix(g, p)
        counts = node_block_edge_counts(tables, p.assignment, i)
        after = copy_state(before)
        apply_move(after, r, s, counts)
        pf, pb = hastings_correction(i, counts, before, after, r, s, B)
        p2 = copy_partition(p)
        p2.assignment[i] = s
        counts_rev = node_block_edge_counts(tables, p2.assignment, i)
        pf_rev, pb_rev = hastings_correction(i, counts_rev, after, before,
                                             s, r, B)
        assert pf_rev == pytest.approx(pb, abs=1e-12)
        assert pb_rev == pytest.approx(pf, abs=1e-12)
        done += 1


# ---------------------------------------------------------------------------
# nodal updates and sweeps

def test_nodal_update_accept_identity_and_state():
    """Every outcome satisfies p_accept = min(exp(-beta dS) pb/pf, 1) from its
    own fields, and the live state matches recomputation afterwards."""
    rng = np.random.default_rng(31)
    config = MCMCConfig(rng_seed=3)
    saw_clamp = False
    for _ in range(30):
        g = random_graph(rng, max_nodes=40, min_nodes=5)
        p = random_partition(rng, g.num_nodes)
        state = recompute_block_matrix(g, p)
        for _ in range(40):
            i = int(rng.integers(g.num_nodes))
            o = nodal_update(i, p, state, g, config, rng)
            if o.proposed_block == o.current_block:
                assert not o.accepted and o.p_accept == 0.0
                continue
            assert o.p_forward > 0.0
            try:
                want = min(math.exp(-config.beta * o.delta_S)
                           * o.p_backward / o.p_forward, 1.0)
            except OverflowError:
                want = 1.0
            assert o.p_accept == pytest.approx(want, rel=1e-12)
            if o.p_accept == 1.0:
                saw_clamp = True
        fresh = recompute_block_matrix(g, p)
        assert np.array_equal(to_dense(state), to_dense(fresh))
        assert np.array_equal(state.d_out, fresh.d_out)
        assert np.array_equal(state.d_in, fresh.d_in)
    assert saw_clamp  # the min(..., 1) clamp is exercised


def test_nodal_update_delta_matches_recompute():
    rng = np.random.default_rng(37)
    config = MCMCConfig(rng_seed=5)
    done = 0
    while done < 100:
        g = random_graph(rng, max_nodes=30, min_nodes=5)
        p = random_partition(rng, g.num_nodes)
        state = recompute_block_matrix(g, p)
        s_before = entropy_sum(state)
        i = int(rng.integers(g.num_nodes))
        o = nodal_update(i, p, state, g, config, rng)
        if not o.accepted:
            continue
        s_after = entropy_sum(recompute_block_matrix(g, p))
        assert o.delta_S == pytest.approx(s_before - s_after,
                                          rel=1e-9, abs=1e-9)
        done += 1


def test_sweep_single_node_noop():
    g = build_graph([], num_nodes=1)
    p = Partition([0], 1)
    state = recompute_block_matrix(g, p)
    config = MCMCConfig()
    p, state, h, accepted = mcmc_sweep(g, p, state,
                                       description_length(g, p), config)
    assert accepted == 0
    assert list(p.assignment) == [0]


@pytest.mark.parametrize("mode", ["sequential", "batch"])
def test_sweep_state_consistency(mode):
    rng = np.random.default_rng(41)
    config = MCMCConfig(execution_mode=mode, rng_seed=7)
    for _ in range(5):
        g = random_graph(rng, max_nodes=40, min_nodes=8)
        p = random_partition(rng, g.num_nodes)
        if mode == "sequential":
            state = recompute_block_matrix(g, p)
        else:
            state = block_cells(g, p.assignment, p.num_blocks)
        p, state, h, _ = mcmc_sweep(g, p, state, description_length(g, p),
                                    config, sweep_index=0)
        fresh = recompute_block_matrix(g, p)
        if mode == "sequential":
            assert np.array_equal(to_dense(state), to_dense(fresh))
        else:
            # the batch sweep returns M's cells of the new labelling, and
            # H read from them
            want = block_cells(g, p.assignment, p.num_blocks)
            assert all(np.array_equal(x, y) for x, y in zip(state, want))
            assert h == description_length(g, p)
        assert h == pytest.approx(ref.description_length(
            fresh, g.num_nodes, g.total_edge_weight), rel=1e-12)


def test_sequential_sweep_keys_are_the_state_block_ids():
    """Python shares no int object above 256: every key of the dict state,
    as counted and after a sweep's moves, is the state's one object for
    its block id."""
    rng = np.random.default_rng(5)
    n, B = 600, 300
    g = build_graph([(int(u), int(v), 1)
                     for u, v in rng.integers(0, n, (3000, 2))], num_nodes=n)
    p = Partition(rng.integers(0, B, n), B)
    state = recompute_block_matrix(g, p)
    ids = state.ids
    assert all(k is ids[k] for m in state.rows + state.cols for k in m)
    p, state, _, accepted = mcmc_sweep(g, p, state, description_length(g, p),
                                       MCMCConfig(rng_seed=2))
    assert accepted > 0
    assert all(k is ids[k] for m in state.rows + state.cols for k in m)
    fresh = recompute_block_matrix(g, p)
    assert state.rows == fresh.rows and state.cols == fresh.cols


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="needs two cores")
def test_snapshot_sweep_worker_processes_agree():
    """The worker count changes nothing: the snapshot sweep is one numpy
    pass in the calling process."""
    rng = np.random.default_rng(61)
    g = random_graph(rng, max_nodes=60, min_nodes=40)
    start = random_partition(rng, g.num_nodes)
    runs = []
    for workers in (1, 2):
        config = MCMCConfig(execution_mode="batch", rng_seed=13,
                            workers=workers)
        p = copy_partition(start)
        p, _, h, accepted = mcmc_sweep(
            g, p, block_cells(g, p.assignment, p.num_blocks),
            description_length(g, p), config, sweep_index=0)
        runs.append((p.assignment, h, accepted))
    (a1, h1, n1), (a2, h2, n2) = runs
    assert n1 > 0
    assert np.array_equal(a1, a2) and h1 == h2 and n1 == n2


def test_snapshot_equals_batch_outcomes():
    rng = np.random.default_rng(43)
    config = MCMCConfig(rng_seed=11)
    g = random_graph(rng, max_nodes=60, min_nodes=20)
    p = random_partition(rng, g.num_nodes)
    U = _sweep_uniforms(config.rng_seed, 0, g.num_nodes)
    nodes, proposed, accepted, dS, p_accept = snapshot_proposals(
        g, p.assignment.copy(), p.num_blocks,
        block_cells(g, p.assignment, p.num_blocks), config.beta, U)
    res = batch_outcomes(g, p.assignment.copy(),
                         recompute_block_matrix(g, p), config, U)
    moving = dict(zip(nodes.tolist(), range(len(nodes))))
    for i in range(g.num_nodes):
        if g.degree[i] == 0:
            continue
        if i not in moving:
            assert res["proposal"][i] == p.assignment[i]
            assert not res["evaluated"][i]
            continue
        k = moving[i]
        assert res["proposal"][i] == proposed[k]
        assert res["accept"][i] == accepted[k]
        assert res["delta_S"][i] == pytest.approx(dS[k], rel=1e-9, abs=1e-12)
        assert res["p_accept"][i] == pytest.approx(p_accept[k], rel=1e-9)


@pytest.mark.parametrize("B", [40, 600])   # M read densely, by search
@pytest.mark.parametrize("entries", [1, 7])
def test_chunk_bounds_change_nothing(monkeypatch, B, entries):
    """The snapshot and merge passes return the same arrays, bit for bit,
    whatever `_CHUNK_ENTRIES` is: each spans several chunks at the default
    and hundreds at 1 or 7 entries."""
    rng = np.random.default_rng(B)
    n = 1500
    g = build_graph(list(zip(*rng.integers(0, n, (2, 12_000)).tolist(),
                             rng.integers(1, 4, 12_000).tolist())),
                    num_nodes=n)
    b = rng.integers(0, B, n)
    cells = block_cells(g, b, B)
    U = _sweep_uniforms(7, 0, n)
    V = rng.random((B, 10, 3))
    chunks = engine._chunks

    def run():
        spans = []

        def counted(size):
            bounds = list(chunks(size))
            spans.append(len(bounds))
            return bounds
        monkeypatch.setattr(engine, "_chunks", counted)
        out = (*snapshot_proposals(g, b, B, cells, 3.0, U),
               *merge_candidates(*cells, B, V))
        return out, spans

    want, spans = run()
    assert len(spans) == 2 and min(spans) >= 3
    monkeypatch.setattr(engine, "_CHUNK_ENTRIES", entries)
    got, spans = run()
    assert min(spans) >= 300
    for x, y in zip(want, got):
        assert x.dtype == y.dtype and x.tobytes() == y.tobytes()


# ---------------------------------------------------------------------------
# merges

def test_merge_to_single_block():
    g = three_cycle()
    p = Partition([0, 0, 1])
    config = MCMCConfig()
    p2 = merge_blocks(g, p, 1, config, np.random.default_rng(0))
    assert p2.num_blocks == 1
    assert to_dense(recompute_block_matrix(g, p2)).tolist() == [[3]]


def test_merge_reunites_split_cliques():
    edges = directed_clique(5) + directed_clique(5, offset=5)
    g = build_graph(edges)
    # each clique split across two blocks; merging to 2 must reunite them
    p = Partition([0, 0, 1, 1, 1, 2, 2, 3, 3, 3])
    p2 = merge_blocks(g, p, 2, MCMCConfig(rng_seed=1),
                      np.random.default_rng(1))
    a = p2.assignment
    assert len(set(a[:5].tolist())) == 1
    assert len(set(a[5:].tolist())) == 1
    assert a[0] != a[5]


def test_merge_delta_matches_full_recompute():
    rng = np.random.default_rng(47)
    done = 0
    while done < 100:
        g = random_graph(rng, max_nodes=40, min_nodes=6)
        p = random_partition(rng, g.num_nodes)
        if p.num_blocks < 2:
            continue
        state = recompute_block_matrix(g, p)
        r, s = rng.choice(p.num_blocks, size=2, replace=False).tolist()
        ds = merge_delta_S(state, int(r), int(s))
        merged = p.assignment.copy()
        merged[merged == r] = s
        after = recompute_block_matrix(g, Partition(merged, p.num_blocks))
        full = entropy_sum(state) - entropy_sum(after)
        assert ds == pytest.approx(full, rel=1e-10, abs=1e-10)
        done += 1


def test_merge_rejects_bad_target():
    g = three_cycle()
    p = Partition([0, 1, 2])
    with pytest.raises(ValueError):
        merge_blocks(g, p, 0, MCMCConfig(), np.random.default_rng(0))
    with pytest.raises(ValueError):
        merge_blocks(g, p, 5, MCMCConfig(), np.random.default_rng(0))


def test_merge_refill_uses_current_groups(monkeypatch):
    """A first round that offers block 0's candidates only: after that
    merge the heap is dry, and the refill's round over the three groups
    left must still reunite the two split cliques."""
    edges = directed_clique(5) + directed_clique(5, offset=5)
    g = build_graph(edges)
    p = Partition([0, 0, 1, 1, 1, 2, 2, 3, 3, 3])
    original = engine.merge_candidates
    rounds = []

    def first_round_block_0(*args):
        r, s, dS = original(*args)
        keep = r == 0 if not rounds else np.ones(len(r), dtype=bool)
        rounds.append(args[2])
        return r[keep], s[keep], dS[keep]
    monkeypatch.setattr(engine, "merge_candidates", first_round_block_0)
    p2 = merge_blocks(g, p, 2, MCMCConfig(rng_seed=1),
                      np.random.default_rng(1))
    assert rounds[:2] == [4, 3]
    a = p2.assignment
    assert len(set(a[:5].tolist())) == 1
    assert len(set(a[5:].tolist())) == 1
    assert a[0] != a[5]


def test_merge_round_without_candidates(monkeypatch):
    """Two blocks joined only to themselves: every proposal draws its own
    block, so the first round has no candidate. A round which draws
    nothing falls back at once: it scores the pair on the state and
    merges, with no second round."""
    g = build_graph([(0, 0, 10**6), (1, 1, 10**6)])
    rounds = []
    original = engine.merge_candidates

    def counted(*args):
        result = original(*args)
        rounds.append(len(result[0]))
        return result
    monkeypatch.setattr(engine, "merge_candidates", counted)
    merged = merge_blocks(g, Partition([0, 1]), 1, MCMCConfig(),
                          np.random.default_rng(0))
    assert merged.num_blocks == 1
    assert rounds == [0]


def test_merge_round_counts_m_once(monkeypatch):
    """Two 10-cliques split into two blocks each, merged down to two: one
    round's heap holds both merges, and that round counts M with
    `block_cells` once, the count that also builds the dict state, and
    scores its candidates with one `merge_candidates` pass."""
    g = build_graph(directed_clique(10) + directed_clique(10, offset=10))
    p = Partition(np.arange(20) // 5)
    calls = []
    for name in ("block_cells", "merge_candidates"):
        def counted(*args, _name=name, _original=getattr(engine, name)):
            calls.append(_name)
            return _original(*args)
        monkeypatch.setattr(engine, name, counted)
    merged = merge_blocks(g, p, 2, MCMCConfig(), np.random.default_rng(0))
    a = merged.assignment
    assert len(set(a[:10].tolist())) == 1 and len(set(a[10:].tolist())) == 1
    assert sorted(calls) == ["block_cells", "merge_candidates"]


@pytest.mark.parametrize("mode", ["sequential", "batch"])
def test_warm_search_merges_blocks_without_shared_edges(mode):
    """Four disjoint 20-node cliques started from {cliques 0, 1} and
    {cliques 2, 3}: the halving to one block must merge two blocks that
    share no edge, which no merge proposal drew at seed 0. The search
    completes and ends no worse than its start."""
    g = build_graph([e for c in range(4)
                     for e in directed_clique(20, offset=20 * c)])
    start = Partition(np.arange(80) // 40, 2)
    trace = []
    part, best_B, best_H = golden_section_search(
        g, MCMCConfig(rng_seed=0, execution_mode=mode),
        initial_partition=start, trace=trace)
    assert any(e["phase"] == "halve" and e["B"] == 1 for e in trace)
    assert len(part) == 80 and part.num_blocks == best_B
    assert best_H <= description_length(g, start) + 1e-9


# ---------------------------------------------------------------------------
# search over B

def test_search_two_cliques():
    g = build_graph(directed_clique(10) + directed_clique(10, offset=10))
    config = MCMCConfig(rng_seed=0, max_sweeps=30)
    part, best_B, best_H = golden_section_search(g, config)
    assert best_B == 2
    a = part.assignment
    assert len(set(a[:10].tolist())) == 1
    assert len(set(a[10:].tolist())) == 1
    assert a[0] != a[10]


def test_search_sequential_huge_weights():
    """Edge weights of 1e12 sum to far more than a table over 0..E could
    hold; the sequential search still runs every probe and reports the
    description length of the partition it returns."""
    heavy = [(i, j, 10**12) for i, j, _ in
             directed_clique(5) + directed_clique(5, offset=5)]
    g = build_graph(heavy + [(0, 5, 1)])
    trace = []
    part, best_B, best_H = golden_section_search(
        g, MCMCConfig(rng_seed=0, max_sweeps=20), trace=trace)
    assert len(trace) > 2 and part.num_blocks == best_B
    assert best_H == description_length(g, part)


def test_search_single_clique():
    g = build_graph(directed_clique(10))
    config = MCMCConfig(rng_seed=0, max_sweeps=30)
    _, best_B, best_H = golden_section_search(g, config)
    assert best_B == 1
    assert best_H == pytest.approx(
        description_length(g, Partition(np.zeros(10, dtype=np.int64), 1)))


def test_search_beats_trivial_block_counts():
    rng = np.random.default_rng(53)
    g = random_graph(rng, max_nodes=40, min_nodes=20)
    config = MCMCConfig(rng_seed=0, max_sweeps=20)
    _, _, best_H = golden_section_search(g, config)
    n = g.num_nodes
    h1 = description_length(g, Partition(np.zeros(n, dtype=np.int64), 1))
    hn = description_length(g, Partition.identity(n))
    assert best_H <= h1 + 1e-9
    assert best_H <= hn + 1e-9


def test_search_deterministic():
    g = build_graph(directed_clique(8) + directed_clique(8, offset=8)
                    + [(0, 8, 1), (9, 1, 1)])
    config = MCMCConfig(rng_seed=5, max_sweeps=20)
    p1, b1, h1 = golden_section_search(g, config)
    p2, b2, h2 = golden_section_search(g, config)
    assert b1 == b2 and h1 == h2
    assert np.array_equal(p1.assignment, p2.assignment)


@pytest.mark.parametrize("seed, iso", [
    pytest.param(seed, iso, id=f"{seed}-iso{iso}" if iso else f"{seed}")
    for iso in (0, 80) for seed in range(10)])
def test_search_climbs_from_underspecified_start(seed, iso):
    """Two disjoint cliques from one block, with `iso` isolated nodes in it
    too: the climb halves the block along its edges, over the nodes that
    have edges, so the first split is near the cliques and H falls."""
    g = build_graph(directed_clique(10) + directed_clique(10, offset=10),
                    num_nodes=20 + iso)
    config = MCMCConfig(rng_seed=seed, max_sweeps=30)
    start = Partition(np.zeros(20 + iso, dtype=np.int64), 1)
    _, best_B, _ = golden_section_search(g, config, initial_partition=start)
    assert best_B == 2


def four_cliques():
    return build_graph([e for c in range(4)
                        for e in directed_clique(10, offset=10 * c)])


def test_warm_search_above_optimum_stays_at_or_below_start():
    """Each clique split in two (B0 = 8, twice the optimum): the search
    relaxes the start, halves from it, and never probes above B0."""
    g = four_cliques()
    start = Partition(np.arange(40) // 5, 8)
    trace = []
    _, best_B, _ = golden_section_search(g, MCMCConfig(rng_seed=0),
                                         initial_partition=start, trace=trace)
    assert best_B == 4
    assert trace[0]["phase"] == "relax" and trace[0]["target"] == 8
    assert trace[-1]["phase"] == "polish"
    assert {e["phase"] for e in trace} <= {"relax", "halve", "golden",
                                           "polish"}
    assert max(max(e["target"], e["B"]) for e in trace) <= 8


def under_split_case():
    """A 4-block graph (N = 120, 1,200 edges) and a start that merges its
    planted blocks in pairs (B0 = 2)."""
    gen = generate(GeneratorConfig(num_nodes=120, num_blocks=4,
                                   target_total_edges=1200,
                                   overlap_ratio=0.05, rng_seed=0))
    return gen.graph, Partition(gen.truth.assignment // 2, 2)


def test_warm_search_under_split_start_climbs():
    """Pairs of planted blocks merged (B0 = 2, half the planted B = 4):
    merging further cannot help, so the search climbs above B0 and ends
    near the cold search."""
    graph, start = under_split_case()
    config = MCMCConfig(rng_seed=0)
    trace = []
    _, best_B, best_H = golden_section_search(
        graph, config, initial_partition=start, trace=trace)
    _, _, cold_H = golden_section_search(graph, config)
    assert [e["phase"] for e in trace[:2]] == ["relax", "halve"]
    assert any(e["phase"] == "climb" and e["target"] > 2 for e in trace)
    assert best_B > 2
    assert best_H <= cold_H * 1.01


@pytest.mark.parametrize("seed", range(6))
def test_warm_search_under_split_start_reaches_cold_optimum(seed):
    """The climb halves each merged pair along its edges, which keeps most
    of each planted block together: the search ends at the planted B and
    the cold search's H."""
    graph, start = under_split_case()
    config = MCMCConfig(rng_seed=seed)
    _, best_B, best_H = golden_section_search(graph, config,
                                              initial_partition=start)
    _, _, cold_H = golden_section_search(graph, config)
    assert best_B == 4
    assert best_H <= cold_H * (1 + 1e-4)


@pytest.mark.parametrize("mode", ["sequential", "batch"])
def test_search_trace_changes_nothing(mode):
    g = four_cliques()
    config = MCMCConfig(rng_seed=3, execution_mode=mode)
    for start in (None, Partition(np.arange(40) // 20, 2)):
        trace = []
        p1, b1, h1 = golden_section_search(g, config, start)
        p2, b2, h2 = golden_section_search(g, config, start, trace=trace)
        assert (b1, h1) == (b2, h2)
        assert p1.assignment.tobytes() == p2.assignment.tobytes()
        assert trace and all(e["sweeps"] >= 1 for e in trace)
        assert sum(e["phase"] == "polish" for e in trace) == 1


@pytest.mark.parametrize("mode, builds", [("sequential", 1), ("batch", 0)])
def test_search_builds_node_tables_once_per_graph(mode, builds):
    """Every sequential probe of a search reads the one NodeTables that the
    graph keeps; the batch sweep never reads them."""
    g = four_cliques()
    config = MCMCConfig(rng_seed=3, execution_mode=mode)
    trace = []
    with mock.patch("sbpart.graph.NodeTables", wraps=NodeTables) as built:
        golden_section_search(g, config, trace=trace)
    assert len(trace) > 1
    assert built.call_count == builds


# ---------------------------------------------------------------------------
# warm starts

def test_warm_start_unchanged_graph():
    g = three_cycle()
    p = Partition([0, 0, 1])
    part = warm_start(p, g)
    assert np.array_equal(part.assignment, p.assignment)
    assert np.array_equal(to_dense(recompute_block_matrix(g, part)),
                          to_dense(recompute_block_matrix(g, p)))


def test_warm_start_new_node_joins_neighbor_block():
    g_old = build_graph([(0, 1, 1), (2, 3, 1)])
    p = Partition([0, 0, 3, 3], 4)
    g_new = build_graph([(0, 1, 1), (2, 3, 1), (4, 3, 2), (4, 0, 1)])
    part = warm_start(p, g_new)
    assert part.assignment[4] == 3   # heavier tie to block 3


def test_warm_start_isolated_new_node_gets_fresh_block():
    p = Partition([0, 0], 1)
    g_new = build_graph([(0, 1, 1)], num_nodes=3)
    part = warm_start(p, g_new)
    assert part.assignment[2] == 1
    assert part.num_blocks == 2


def test_warm_start_tie_goes_to_lowest_id():
    # new node 2 sits between node 0 (block 1) and node 1 (block 0) with
    # equal weights; the table lists out-neighbour 1 before in-neighbour 0
    p = Partition([1, 0])
    g_new = build_graph([(0, 1, 1), (2, 1, 1), (0, 2, 1)])
    part = warm_start(p, g_new)
    assert list(part.assignment[:2]) == [1, 0]
    assert part.assignment[2] == 1


@st.composite
def _split_cases(draw):
    """A small graph whose edges leave some nodes isolated, a labelling
    over B blocks (some may be empty), a target block count and a seed."""
    n = draw(st.integers(1, 30))
    ids = st.integers(0, n - 1)
    rows = draw(st.lists(st.tuples(ids, ids, st.integers(1, 3)),
                         max_size=40))
    B = draw(st.integers(1, 5))
    labels = draw(st.lists(st.integers(0, B - 1), min_size=n, max_size=n))
    return (build_graph(rows, num_nodes=n), Partition(labels, B),
            draw(st.integers(1, 2 * n + 2)), draw(st.integers(0, 2 ** 32)))


@settings(max_examples=300, deadline=None)
@given(_split_cases())
def test_split_partition_refines(case):
    """The one splitter, one split at a time: each split moves half (rounded
    down) of the nodes with edges of a largest block, counted by those
    nodes, to a new block; a node with no edge never moves. A split to
    `target` is that chain of splits, and the same seed gives the same
    labels."""
    g, p, target, seed = case
    linked = g.degree > 0
    out = split_partition(g, p, target, np.random.default_rng(seed))
    again = split_partition(g, p, target, np.random.default_rng(seed))
    assert np.array_equal(out.assignment, again.assignment)
    # the result refines the input, and nodes with no edge keep their block
    source = {}
    for r, s in zip(p.assignment.tolist(), out.assignment.tolist()):
        assert source.setdefault(s, r) == r
    assert np.array_equal(out.assignment[~linked], p.assignment[~linked])
    # B reaches target unless every block has fewer than two nodes with edges
    if out.num_blocks < target:
        assert np.bincount(out.assignment[linked],
                           minlength=out.num_blocks).max(initial=0) < 2
    else:
        assert out.num_blocks == max(target, p.num_blocks)
    rng = np.random.default_rng(seed)
    cur = p
    while cur.num_blocks < out.num_blocks:
        counts = np.bincount(cur.assignment[linked], minlength=cur.num_blocks)
        nxt = split_partition(g, cur, cur.num_blocks + 1, rng)
        moved = nxt.assignment != cur.assignment
        assert nxt.num_blocks == cur.num_blocks + 1
        assert np.array_equal(np.flatnonzero(moved),
                              np.flatnonzero(nxt.assignment == cur.num_blocks))
        from_blocks = set(cur.assignment[moved].tolist())
        assert len(from_blocks) == 1
        r = from_blocks.pop()
        assert counts[r] == counts.max() and moved.sum() == counts[r] // 2
        cur = nxt
    assert np.array_equal(cur.assignment, out.assignment)


# ---------------------------------------------------------------------------
# config validation

def test_config_validation():
    for value in (0, -1.0, float("nan")):
        with pytest.raises(ValueError):
            MCMCConfig(beta=value)
        with pytest.raises(ValueError):
            MCMCConfig(convergence_threshold=value)
    with pytest.raises(ValueError):
        MCMCConfig(merge_reduction_rate=1.0)
    with pytest.raises(ValueError):
        MCMCConfig(execution_mode="turbo")
    with pytest.raises(ValueError):
        MCMCConfig(max_sweeps=0)
    for value in (0, -1):
        with pytest.raises(ValueError):
            MCMCConfig(merge_proposals_per_block=value)
    with pytest.raises(ValueError):
        MCMCConfig(rng_seed=-1)
    # a config only records the worker count; building one starts no process
    for workers in (0, -1, (os.cpu_count() or 1) + 1, 10**6):
        with pytest.raises(ValueError):
            MCMCConfig(workers=workers)
    assert MCMCConfig(workers=os.cpu_count() or 1).workers >= 1


def test_run_mcmc_converges_flag():
    g = build_graph(directed_clique(6))
    p = Partition(np.zeros(6, dtype=np.int64), 1)
    config = MCMCConfig(rng_seed=0, max_sweeps=50)
    p, h, sweeps = run_mcmc(g, p, config)
    # one-block partition of a clique is already optimal; converges quickly
    assert sweeps <= config.max_sweeps
    assert h == pytest.approx(ref.description_length(
        recompute_block_matrix(g, p), 6, g.total_edge_weight))
