"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Expensive artifacts (the five desk-scale recovery runs and their graphs) are
shared across criteria through session-scoped fixtures.
"""
import sys
import time
from itertools import combinations

import numpy as np
import pytest

from sbpart.cli import bench_rows, ratio_vs_log2
from sbpart.engine import (MCMCConfig, golden_section_search,
                           snapshot_proposals, _sweep_uniforms)
from sbpart.generator import (GeneratorConfig, emit_streaming_stages,
                              generate, generate_edges,
                              sample_bounded_powerlaw,
                              sample_degree_corrections,
                              sample_truth_partition)
from sbpart.graph import (NodeTables, Partition, apply_move, block_cells,
                          build_graph, node_block_edge_counts,
                          recompute_block_matrix)
from sbpart.metrics import correctness_report
from sbpart.streaming import StreamingSession, ingest_stage, partition_stage

from conftest import random_graph, random_partition
from engine_reference import (copy_state, delta_log_posterior, entropy_sum,
                              snapshot_outcomes, to_dense)


def _report(num, ok, detail):
    line = f"criterion {num:>2}: {'PASS' if ok else 'FAIL'} — {detail}"
    import conftest
    conftest.ACCEPTANCE_LINES.append(line)
    print(line, file=sys.__stdout__, flush=True)
    assert ok, line


# ---------------------------------------------------------------------------
# shared desk-scale runs (criteria 6, 7, 8)

DESK_SEEDS = [0, 1, 2, 3, 4]


def desk_graph(seed):
    cfg = GeneratorConfig(num_nodes=500, num_blocks=8,
                          target_total_edges=7500, overlap_ratio=0.05,
                          rng_seed=seed)
    return generate(cfg)


def run_and_score(gen, mode, seed):
    config = MCMCConfig(rng_seed=seed, execution_mode=mode)
    part, best_B, best_H = golden_section_search(gen.graph, config)
    rep = correctness_report(gen.truth, part.assignment)
    return {"B": best_B, "H": best_H,
            "precision": rep.pairwise_precision,
            "recall": rep.pairwise_recall}


@pytest.fixture(scope="session")
def desk_graphs():
    return {seed: desk_graph(seed) for seed in DESK_SEEDS}


@pytest.fixture(scope="session")
def sequential_runs(desk_graphs):
    return {seed: run_and_score(desk_graphs[seed], "sequential", seed)
            for seed in DESK_SEEDS}


@pytest.fixture(scope="session")
def parallel_runs(desk_graphs):
    return {seed: run_and_score(desk_graphs[seed], "batch", seed)
            for seed in DESK_SEEDS}


# ---------------------------------------------------------------------------

def test_criterion_1_table1_reproduction(table1):
    t0 = time.perf_counter()
    truth, output = table1
    rep = correctness_report(truth, output)
    elapsed = time.perf_counter() - t0
    ok = (abs(rep.overall_accuracy - 50 / 56) <= 1e-4
          and abs(rep.pairwise_precision - 0.8999) <= 1e-3
          and abs(rep.pairwise_recall - 0.8148) <= 1e-3
          and abs(rep.info_precision - 0.57) <= 0.01
          and abs(rep.info_recall - 0.71) <= 0.01
          and elapsed < 1.0)
    _report(1, ok, f"accuracy={rep.overall_accuracy:.4f} "
            f"pairwise={rep.pairwise_precision:.4f}/"
            f"{rep.pairwise_recall:.4f} info={rep.info_precision:.3f}/"
            f"{rep.info_recall:.3f} in {elapsed:.3f}s")


def test_criterion_2_pairwise_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    mismatches = 0
    for _ in range(500):
        n = int(rng.integers(2, 41))
        truth = rng.integers(0, rng.integers(1, 7), n)
        output = rng.integers(0, rng.integers(1, 7), n)
        cats = correctness_report(truth, output).pair_categories
        c1 = c2 = c3 = c4 = 0
        for i, j in combinations(range(n), 2):
            st = truth[i] == truth[j]
            so = output[i] == output[j]
            if st and so:
                c1 += 1
            elif not st and not so:
                c2 += 1
            elif st:
                c3 += 1
            else:
                c4 += 1
        if (cats["same_same"], cats["diff_diff"], cats["same_diff"],
                cats["diff_same"]) != (c1, c2, c3, c4):
            mismatches += 1
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and elapsed < 30.0
    _report(2, ok, f"500 random pairs, {mismatches} mismatches, "
            f"{elapsed:.1f}s")


def test_criterion_3_incremental_matrix():
    rng = np.random.default_rng(333)
    moves = 0
    bad = 0
    while moves < 1000:
        g = random_graph(rng, max_nodes=40, min_nodes=5)
        p = random_partition(rng, g.num_nodes)
        state = recompute_block_matrix(g, p)
        tables = NodeTables(g)
        for _ in range(20):
            i = int(rng.integers(g.num_nodes))
            r = int(p.assignment[i])
            s = int(rng.integers(p.num_blocks))
            if s == r:
                continue
            counts = node_block_edge_counts(tables, p.assignment, i)
            apply_move(state, r, s, counts)
            p.assignment[i] = s
            moves += 1
        fresh = recompute_block_matrix(g, p)
        if not (np.array_equal(to_dense(state), to_dense(fresh))
                and np.array_equal(state.d_out, fresh.d_out)
                and np.array_equal(state.d_in, fresh.d_in)):
            bad += 1
    ok = bad == 0
    _report(3, ok, f"{moves} incremental moves, {bad} recompute mismatches")


def test_criterion_4_restricted_delta():
    rng = np.random.default_rng(444)
    worst = 0.0
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
        rel = abs(restricted - full) / max(abs(full), 1e-10)
        worst = max(worst, rel)
        done += 1
    ok = worst <= 1e-10
    _report(4, ok, f"200 moves, worst relative error {worst:.2e}")


def test_criterion_5_batch_equivalence():
    rng = np.random.default_rng(555)
    config = MCMCConfig(rng_seed=55)
    mask_mismatch = 0
    worst = 0.0
    for case in range(50):
        n = int(rng.integers(10, 101))
        g = random_graph(rng, max_nodes=n, min_nodes=max(5, n - 1))
        p = random_partition(rng, g.num_nodes)
        state = recompute_block_matrix(g, p)
        U = _sweep_uniforms(config.rng_seed, case, g.num_nodes)
        seq = snapshot_outcomes(g, p.assignment.copy(), state, config, U)
        nodes, proposed, accepted, dS, _ = snapshot_proposals(
            g, p.assignment.copy(), p.num_blocks,
            block_cells(g, p.assignment, p.num_blocks), config.beta, U)
        res = {i: (s, a, x) for i, s, a, x in zip(nodes.tolist(),
                                                   proposed.tolist(),
                                                   accepted.tolist(), dS)}
        moving = [o for o in seq if o.proposed_block != o.current_block]
        # a node that moves on one side only is a mismatch too
        mask_mismatch += len(res.keys() - {o.node for o in moving})
        for o in moving:
            if o.node not in res or res[o.node][0] != o.proposed_block:
                mask_mismatch += 1
                continue
            _, acc, x = res[o.node]
            if acc != o.accepted:
                mask_mismatch += 1
            rel = abs(x - o.delta_S) / max(abs(o.delta_S), 1e-9)
            worst = max(worst, rel)
    ok = mask_mismatch == 0 and worst <= 1e-9
    _report(5, ok, f"50 graphs: {mask_mismatch} accept-mask mismatches, "
            f"worst dS relative gap {worst:.2e}")


def test_criterion_6_desk_scale_recovery(sequential_runs):
    t0 = time.perf_counter()
    good = sum(1 for r in sequential_runs.values()
               if abs(r["B"] - 8) <= 1
               and r["precision"] >= 0.85 and r["recall"] >= 0.85)
    elapsed = time.perf_counter() - t0
    detail = ", ".join(f"seed {s}: B={r['B']} P={r['precision']:.3f} "
                       f"R={r['recall']:.3f}"
                       for s, r in sequential_runs.items())
    ok = good >= 4
    _report(6, ok, f"{good}/5 seeds recovered ({detail})")
    assert elapsed < 300


def test_criterion_7_parallel_quality(sequential_runs, parallel_runs):
    gaps = []
    for seed in DESK_SEEDS:
        sq = sequential_runs[seed]
        pl = parallel_runs[seed]
        gaps.append(max(abs(sq["precision"] - pl["precision"]),
                        abs(sq["recall"] - pl["recall"])))
    worst = max(gaps)
    ok = worst <= 0.05
    _report(7, ok, f"worst pairwise P/R gap sequential vs "
            f"batch: {worst:.4f}")


@pytest.fixture(scope="session")
def desk_streams(desk_graphs):
    """Desk graph 0 streamed in 10 stages of each mode with
    MCMCConfig(rng_seed=0): mode -> (session, the graph of each stage)."""
    gen = desk_graphs[0]
    streams = {}
    for mode in ("edge-emergence", "snowball"):
        sched = emit_streaming_stages(gen, mode, 10, rng_seed=0)
        session = StreamingSession(config=MCMCConfig(rng_seed=0),
                                   truth=gen.truth,
                                   generated_mask=gen.generated_node_mask)
        graphs = []
        for k, batch in enumerate(sched.stages, start=1):
            ingest_stage(session, batch, stage=k)
            partition_stage(session)
            graphs.append(session.graph)
        streams[mode] = session, graphs
    return streams


def test_criterion_8_streaming_consistency(desk_streams, sequential_runs):
    cold_H = sequential_runs[0]["H"]
    session, _ = desk_streams["edge-emergence"]
    rel = (session.last_H - cold_H) / cold_H
    stages_reported = len(session.reports)
    have_correctness = all("correctness" in r for r in session.reports)
    ok = abs(rel) <= 0.01 and stages_reported == 10 and have_correctness
    _report(8, ok, f"final H {session.last_H:.1f} vs cold {cold_H:.1f} "
            f"(gap {rel * 100:+.2f}%), {stages_reported}/10 stage reports")


def test_criterion_8b_snowball_streaming(desk_streams, sequential_runs):
    """Criterion 8 with snowball stages, whose warm starts begin far from
    the final B: the stream must still end at the planted B and cold H."""
    cold_H = sequential_runs[0]["H"]
    session, _ = desk_streams["snowball"]
    rel = (session.last_H - cold_H) / cold_H
    ok = session.last_B == 8 and abs(rel) <= 0.01
    _report("8b", ok, f"snowball: final B={session.last_B}, H "
            f"{session.last_H:.1f} vs cold {cold_H:.1f} (gap "
            f"{rel * 100:+.2f}%)")


def test_criterion_8c_every_stream_stage(desk_streams):
    """Criteria 8 and 8b gate only the final stage. Every stage of both
    modes must be within 5% of a cold search on that stage's graph with
    the same config."""
    gaps = []
    for mode, (session, graphs) in desk_streams.items():
        for report, graph in zip(session.reports, graphs):
            _, _, cold_H = golden_section_search(graph, session.config)
            gaps.append(((report["description_length"] - cold_H) / cold_H,
                         mode, report["stage"]))
    rel, mode, stage = max(gaps)
    _report("8c", rel <= 0.05, f"worst stage H vs cold: {rel * 100:+.2f}% "
            f"({mode}, stage {stage}) over 2 x 10 stages")


def test_criterion_9_complexity_trend():
    config = MCMCConfig(rng_seed=0)
    # the 1k and 10k searches last well under the machine's timing noise,
    # so each is the median of five runs
    rows = bench_rows([1_000, 10_000, 100_000], config, repeats=[5, 5, 1],
                      seed=0)
    ok = True
    details = []
    for row1, row2 in zip(rows, rows[1:]):
        ratio = ratio_vs_log2(row1, row2)
        details.append(f"E {row1[0]}->{row2[0]}: rate decline over the "
                       f"log^2 prediction {ratio:.2f}")
        if not (0.5 <= ratio <= 2.0):
            ok = False
    _report(9, ok, "; ".join(details))


def test_criterion_10_generator_fidelity():
    omega = np.array([[400.0, 100.0, 100.0, 100.0],
                      [100.0, 400.0, 100.0, 100.0],
                      [100.0, 100.0, 400.0, 100.0],
                      [100.0, 100.0, 100.0, 400.0]])
    acc = np.zeros((4, 4))
    for seed in range(100):
        cfg = GeneratorConfig(num_nodes=200, num_blocks=4,
                              interaction_matrix=omega, rng_seed=seed)
        truth = sample_truth_partition(cfg)
        theta = sample_degree_corrections(cfg, truth)
        gen = generate_edges(cfg, truth, theta)
        acc += to_dense(recompute_block_matrix(gen.graph, truth))
    mean = acc / 100
    worst_entry = float(np.max(np.abs(mean - omega) / omega))

    rng = np.random.default_rng(1010)
    upper = 200.0 ** 0.75
    draws = sample_bounded_powerlaw(100_000, -2.5, 1.0, upper, rng)
    xs = np.sort(draws)
    ccdf = 1.0 - np.arange(1, len(xs) + 1) / len(xs)
    keep = (xs > 1.0) & (xs <= np.sqrt(upper)) & (ccdf > 0)
    slope = float(np.polyfit(np.log(xs[keep]), np.log(ccdf[keep]), 1)[0]) - 1.0
    ok = worst_entry <= 0.05 and abs(slope + 2.5) <= 0.2
    _report(10, ok, f"block-matrix mean within {worst_entry * 100:.2f}% of "
            f"target (<=5%), tail exponent {slope:.3f} vs -2.5")
