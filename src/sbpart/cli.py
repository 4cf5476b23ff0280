"""Command-line interface: generate, partition, evaluate, stream, bench.

`partition` is a one-stage `stream`: it runs `run_stream([edges])` and its
report is that stage's report. Both read --truth and --mask by the same
rules (`_truth_and_mask`), and `evaluate`, `stream` and `bench` write their
output, a file with its manifest or stdout, through one writer (`_emit`).

Exit codes: 0 success, 1 usage error (including a flag value the engine or
generator config rejects), 2 data error.
"""
from __future__ import annotations

import argparse
import math
import statistics
import sys
import time

from . import __version__
from .engine import MCMCConfig, golden_section_search
from .generator import GeneratorConfig, emit_streaming_stages, generate
from .io import (DataError, json_text, read_assignment_tsv, read_edge_tsv,
                 read_mask_tsv, write_assignment_tsv, write_edge_tsv,
                 write_json, write_manifest)
from .metrics import correctness_report
from .streaming import run_stream


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _count(text):
    """A flag value that must be a positive integer."""
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"not a positive integer: {text!r}")
    return int(text)


def _config(cls, **values):
    """Build a config from flag values; a value it rejects is a usage error."""
    try:
        return cls(**values)
    except ValueError as exc:
        print(f"sbpart: error: {exc}", file=sys.stderr)
        raise SystemExit(1) from None


def _args_dict(args):
    return {k: v for k, v in vars(args).items() if k != "func"}


def _truth_and_mask(args):
    """The --truth assignment (nodes 1..its highest id, each listed) and the
    --mask read against its length; None for a flag not given."""
    truth = read_assignment_tsv(args.truth) if args.truth else None
    mask = read_mask_tsv(args.mask, len(truth)) if args.mask else None
    return truth, mask


def _emit(args, text, inputs):
    """Write `text` to -o with its manifest, or to stdout without -o."""
    if not args.output:
        sys.stdout.write(text)
        return
    with open(args.output, "w") as fh:
        fh.write(text)
    write_manifest(f"{args.output}.manifest.json", args.command,
                   _args_dict(args), inputs=inputs, outputs=[args.output])


def _engine_flags(p):
    p.add_argument("--seed", type=int, default=MCMCConfig.rng_seed)
    p.add_argument("--mode", choices=["sequential", "batch"],
                   default=MCMCConfig.execution_mode)
    p.add_argument("--workers", type=int, default=MCMCConfig.workers,
                   help="recorded in reports only; starts no process")
    p.add_argument("--beta", type=float, default=MCMCConfig.beta)
    p.add_argument("--max-sweeps", type=int, default=MCMCConfig.max_sweeps)
    p.add_argument("--threshold", type=float,
                   default=MCMCConfig.convergence_threshold,
                   help="relative convergence threshold on H")
    p.add_argument("--merge-rate", type=float,
                   default=MCMCConfig.merge_reduction_rate)
    p.add_argument("--proposals", type=int,
                   default=MCMCConfig.merge_proposals_per_block,
                   help="merge proposals per block")


def _engine_config(args):
    return _config(MCMCConfig, beta=args.beta, max_sweeps=args.max_sweeps,
                   convergence_threshold=args.threshold,
                   merge_reduction_rate=args.merge_rate,
                   merge_proposals_per_block=args.proposals,
                   rng_seed=args.seed, execution_mode=args.mode,
                   workers=args.workers)


def cmd_generate(args):
    cfg = _config(
        GeneratorConfig,
        num_nodes=args.num_nodes, num_blocks=args.num_blocks,
        powerlaw_exponent=args.exponent,
        block_size_concentration=args.alpha,
        target_total_edges=args.edges, overlap_ratio=args.overlap,
        uniform_degrees=args.uniform_degrees, rng_seed=args.seed)
    gen = generate(cfg)
    stages = []
    if args.stages > 1:
        # built before any file is written, so a count it rejects leaves none
        stages = emit_streaming_stages(gen, args.stream_mode, args.stages,
                                       rng_seed=args.seed).stages
    out = args.output
    outputs = [f"{out}.tsv", f"{out}_truth.tsv"]
    write_edge_tsv(f"{out}.tsv", gen.graph.edge_list())
    write_assignment_tsv(f"{out}_truth.tsv", gen.truth.assignment)
    for k, batch in enumerate(stages, start=1):
        path = f"{out}_stage_{k}.tsv"
        write_edge_tsv(path, sorted(batch))
        outputs.append(path)
    write_manifest(f"{out}_manifest.json", "generate", _args_dict(args),
                   inputs=[], outputs=outputs)
    print(f"wrote {', '.join(outputs)}")
    return 0


def cmd_partition(args):
    config = _engine_config(args)
    edges = read_edge_tsv(args.edges_file)
    if not edges:
        raise DataError(f"{args.edges_file}: no edges")
    truth, mask = _truth_and_mask(args)
    session = run_stream([edges], config=config, truth=truth,
                         generated_mask=mask)
    report = session.reports[0]
    out = args.output
    write_assignment_tsv(f"{out}_partition.tsv", session.partition.assignment)
    write_json(f"{out}_report.json", report)
    write_manifest(f"{out}_manifest.json", "partition", _args_dict(args),
                   inputs=[args.edges_file],
                   outputs=[f"{out}_partition.tsv", f"{out}_report.json"])
    print(f"B*={session.last_B}  H={session.last_H:.4f}  "
          f"elapsed={report['computational']['elapsed_seconds']:.2f}s")
    return 0


def cmd_evaluate(args):
    truth, mask = _truth_and_mask(args)
    output = read_assignment_tsv(args.partition, num_nodes=len(truth))
    report = correctness_report(truth, output, mask).to_dict()
    _emit(args, json_text(report), inputs=[args.truth, args.partition])
    return 0


def cmd_stream(args):
    config = _engine_config(args)
    paths = [f"{args.prefix}_stage_{k}.tsv" for k in range(1, args.stages + 1)]
    batches = [read_edge_tsv(path) for path in paths]
    truth, mask = _truth_and_mask(args)
    session = run_stream(batches, config=config, truth=truth,
                         generated_mask=mask,
                         cold_each_stage=args.cold_each_stage)
    total_elapsed = sum(r["computational"]["elapsed_seconds"]
                        for r in session.reports)
    payload = {
        "stages": session.reports,
        "total": {
            "num_stages": len(session.reports),
            "num_edges": session.graph.total_edge_weight,
            "elapsed_seconds": total_elapsed,
            "final_num_blocks": session.last_B,
            "final_description_length": session.last_H,
        },
    }
    _emit(args, json_text(payload), inputs=paths)
    return 0


def bench_rows(sizes, config, repeats, seed=0):
    """(E, seconds, rate) per requested edge count, the median over that
    size's count of `repeats` (one per size).

    Graphs share a fixed block count and mean degree so that the measured
    trend reflects scaling in E rather than in the model size.
    """
    rows = []
    for target_e, count in zip(sizes, repeats):
        n = max(32, target_e // 20)
        gcfg = GeneratorConfig(num_nodes=n, num_blocks=8,
                               target_total_edges=target_e,
                               overlap_ratio=0.05, rng_seed=seed)
        gen = generate(gcfg)
        times = []
        for _ in range(count):
            t0 = time.perf_counter()
            golden_section_search(gen.graph, config)
            times.append(time.perf_counter() - t0)
        elapsed = statistics.median(times)
        e_actual = gen.graph.total_edge_weight
        rows.append((e_actual, elapsed, e_actual / elapsed))
    return rows


def ratio_vs_log2(row1, row2):
    """Criterion 9's ratio between two `bench_rows` rows: the measured
    decline in rate over the (log E2 / log E1)^2 that O(E log^2 E) predicts."""
    (e1, _, rate1), (e2, _, rate2) = row1, row2
    return rate1 / rate2 / (math.log(e2) / math.log(e1)) ** 2


def cmd_bench(args):
    config = _engine_config(args)
    rows = bench_rows(args.sizes, config, [args.repeats] * len(args.sizes),
                      seed=args.seed)
    many = len(rows) > 1
    lines = ["num_edges\tseconds\trate_edges_per_second"
             + "\tratio_vs_log2" * many]
    for k, (e, sec, rate) in enumerate(rows):
        ratio = f"{ratio_vs_log2(rows[k - 1], rows[k]):.3f}" if k else "NA"
        lines.append(f"{e}\t{sec:.4f}\t{rate:.2f}" + f"\t{ratio}" * many)
    _emit(args, "\n".join(lines) + "\n", inputs=[])
    return 0


def build_parser():
    parser = _Parser(prog="sbpart",
                     description="streaming stochastic block partition")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="generate a DC-SBM graph with truth")
    g.add_argument("-N", "--num-nodes", type=int, required=True)
    g.add_argument("-B", "--num-blocks", type=int, required=True)
    g.add_argument("--edges", type=int, required=True,
                   help="target total edge count E*")
    g.add_argument("--overlap", type=float,
                   default=GeneratorConfig.overlap_ratio,
                   help="expected between-block edge share")
    g.add_argument("--exponent", type=float,
                   default=GeneratorConfig.powerlaw_exponent)
    g.add_argument("--alpha", type=float,
                   default=GeneratorConfig.block_size_concentration,
                   help="Dirichlet concentration for block sizes")
    g.add_argument("--uniform-degrees", action="store_true")
    g.add_argument("--stages", type=_count, default=1)
    g.add_argument("--stream-mode", choices=["edge-emergence", "snowball"],
                   default="edge-emergence")
    g.add_argument("--seed", type=int, default=GeneratorConfig.rng_seed)
    g.add_argument("-o", "--output", required=True)
    g.set_defaults(func=cmd_generate)

    p = sub.add_parser("partition", help="partition an edge TSV")
    p.add_argument("edges_file")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--truth", help="optional truth TSV for evaluation")
    p.add_argument("--mask", help="optional node mask TSV")
    _engine_flags(p)
    p.set_defaults(func=cmd_partition)

    e = sub.add_parser("evaluate", help="score a partition against truth")
    e.add_argument("--truth", required=True)
    e.add_argument("--partition", required=True)
    e.add_argument("--mask")
    e.add_argument("-o", "--output")
    e.set_defaults(func=cmd_evaluate)

    s = sub.add_parser("stream", help="partition staged edge files in order")
    s.add_argument("prefix", help="stage files are <prefix>_stage_<k>.tsv")
    s.add_argument("--stages", type=_count, required=True)
    s.add_argument("--truth")
    s.add_argument("--mask")
    s.add_argument("--cold-each-stage", action="store_true")
    s.add_argument("-o", "--output")
    _engine_flags(s)
    s.set_defaults(func=cmd_stream)

    b = sub.add_parser("bench", help="throughput across graph sizes")
    b.add_argument("--sizes", required=True,
                   type=lambda text: [_count(x) for x in text.split(",")],
                   help="comma-separated edge counts, e.g. 1000,10000")
    b.add_argument("--repeats", type=_count, default=1)
    b.add_argument("-o", "--output")
    _engine_flags(b)
    b.set_defaults(func=cmd_bench)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "mask", None) and not args.truth:
        parser.error("--mask needs --truth")
    try:
        return args.func(args)
    except DataError as exc:
        print(f"sbpart: data error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, FileNotFoundError) as exc:
        print(f"sbpart: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
