"""sbpart benchmark: one workload, one fresh process, one JSON result line.

    python3 perfbench/run.py --workload offline-sequential --seed 1 \
        --seconds 20 --trace 0

Run from the root of a checkout; sbpart is imported from its `src/`. The
run repeats whole rounds of the workload (set-up, timed several times, then
every stage) while the next round is due to end within --seconds, and checks
every stage against `oracle.py`. With --trace 0 the last stdout line carries the end-to-end
metrics; with --trace 1 it runs one more, traced, round and carries the
per-layer metrics instead. See README.md for the workloads and metrics.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time

import workloads
from tracer import Tracer

SETUP_REPEATS = 3
RESULTS_DIR = os.path.join("perfbench", "results")  # traced spans go here

END_TO_END_UNITS = {
    "edges_per_s": "edges/s",
    "stage_s_max": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "description_length": "nats",
    "pairwise_precision": "ratio",
    "pairwise_recall": "ratio",
}

# label -> (unit, what to report); "s" is self time, "calls" the call count
TRACED_LAYERS = {
    "graph.build_graph": ("s", "calls"),
    "graph.recompute_block_matrix": ("s", "calls"),
    "engine.mcmc_sweep": ("s", "calls"),
    "engine.merge_blocks": ("s", "calls"),
    "engine.description_length": ("s", "calls"),
    "engine.run_mcmc": ("calls",),
    "engine.golden_section_search": ("s",),
    "engine.warm_start": ("s",),
    "engine.split_partition": ("s",),
    "streaming.ingest_stage": ("s",),
    "streaming.partition_stage": ("s",),
    "metrics.correctness_report": ("s", "calls"),
    "generator.generate": ("s",),
    "generator.emit_streaming_stages": ("s",),
}


def per_layer_units():
    units = {}
    for label, kinds in TRACED_LAYERS.items():
        for kind in kinds:
            units[f"{label}.{kind}"] = "s" if kind == "s" else "count"
    units["engine.mcmc_sweep.accept_ratio"] = "ratio"
    units["engine.merge_blocks.blocks_merged"] = "count"
    units["trace.coverage"] = "ratio"
    units["trace.overhead_s"] = "s"
    return units


class Run:
    """Set-up timings, rounds and check results of one benchmark run."""

    def __init__(self, sb, spec, seed):
        self.sb, self.spec, self.seed = sb, spec, seed
        self.errors, self.failed = [], []
        self.attempted = 0
        self.setup_times = []
        self.rounds = []   # per round: its stage results

    def set_up(self, round_index, repeats):
        """Make one round's inputs `repeats` times, timing each."""
        inputs = None
        for _ in range(repeats):
            gc.collect()
            t0 = time.perf_counter()
            again = workloads.make_inputs(self.sb, self.spec, self.seed,
                                          round_index)
            self.setup_times.append(time.perf_counter() - t0)
            if inputs is None:
                inputs = again
            elif not workloads.same_inputs(inputs, again):
                self.errors.append("set-up is not deterministic")
        if not workloads.batches_cover_graph(inputs):
            self.errors.append("stage batches differ from the generated graph")
        return inputs

    def round(self, round_index, setup_repeats=SETUP_REPEATS):
        """Set up, run and check one round; returns its wall seconds."""
        inputs = self.set_up(round_index, setup_repeats)
        gc.collect()
        results = workloads.run_round(self.sb, self.spec, inputs)
        errors, failed = workloads.check_round(inputs, results)
        self.attempted += len(results)
        self.errors += errors
        self.failed += failed
        seed_of = lambda k: workloads.graph_seed(self.spec, self.seed, k)
        if self.rounds and seed_of(round_index) == seed_of(0) and any(
                a.assignment.tobytes() != b.assignment.tobytes()
                for a, b in zip(self.rounds[0], results)):
            self.errors.append("the same inputs gave another partition")
        self.rounds.append(results)
        return self.setup_times[-1] + round_seconds(results)


def round_seconds(results):
    return sum(r.seconds for r in results)


def end_to_end(run):
    rates = [res[-1].num_edges / round_seconds(res) for res in run.rounds]
    slowest = [max(r.seconds for r in res) for res in run.rounds]
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "edges_per_s": statistics.median(rates),
        "stage_s_max": statistics.median(slowest),
        "peak_rss_mb": peak_kb / 1024.0,
        "setup_s": statistics.median(run.setup_times),
        "description_length": statistics.median(
            res[-1].description_length for res in run.rounds),
        "pairwise_precision": statistics.median(
            res[-1].precision for res in run.rounds),
        "pairwise_recall": statistics.median(
            res[-1].recall for res in run.rounds),
    }


def write_spans(tracer, path):
    """One JSON line per span; times in seconds from the first span."""
    t0 = tracer.spans[0][1] if tracer.spans else 0.0
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as f:
        for label, start, end, parent in tracer.spans:
            f.write(json.dumps({"name": label, "start": start - t0,
                                "end": end - t0, "parent": parent}) + "\n")


def traced_round(run, spans_path):
    """Round 0 again, set up once, under the tracer; per-layer metrics.

    Its partitions must be byte-identical to the untraced round 0's, and
    the overhead is its wall time against that round's. The spans are
    written to `spans_path`.
    """
    untraced = statistics.median(run.setup_times) + round_seconds(
        run.rounds[0])
    with Tracer() as tracer:
        traced_wall = run.round(0, setup_repeats=1)
    metrics = {}
    self_times = tracer.self_times()
    for label, kinds in TRACED_LAYERS.items():
        seconds, calls = self_times.get(label, (0.0, 0))
        for kind in kinds:
            metrics[f"{label}.{kind}"] = seconds if kind == "s" else calls
    counts = tracer.counts
    nodes = counts["engine.mcmc_sweep.nodes"]
    metrics["engine.mcmc_sweep.accept_ratio"] = (
        counts["engine.mcmc_sweep.accepted"] / nodes if nodes else 0.0)
    metrics["engine.merge_blocks.blocks_merged"] = int(
        counts["engine.merge_blocks.blocks_merged"])
    metrics["trace.coverage"] = tracer.root_seconds() / traced_wall
    metrics["trace.overhead_s"] = traced_wall - untraced
    write_spans(tracer, spans_path)
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    try:
        sb = workloads.load_sbpart(root)
    except ImportError as exc:
        print(f"cannot load sbpart: {exc}", file=sys.stderr)
        return 2

    run = Run(sb, workloads.WORKLOADS[args.workload], args.seed)
    start = time.perf_counter()
    # whole rounds only: start another while it is due to end in time
    while True:
        run.round(len(run.rounds))
        spent = time.perf_counter() - start
        if spent * (len(run.rounds) + 1) / len(run.rounds) > args.seconds:
            break

    if args.trace:
        values = traced_round(run, os.path.join(
            root, RESULTS_DIR, f"{args.workload}-seed{args.seed}.spans.jsonl"))
        units = per_layer_units()
    else:
        values = end_to_end(run)
        units = END_TO_END_UNITS
    for line in run.errors + [f"failed: {f}" for f in run.failed]:
        print(line, file=sys.stderr)
    print(json.dumps({
        "correct": not run.errors,
        "attempted": run.attempted,
        "failed": len(run.failed),
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
