"""Per-stage stream check: every stage of a stream against a cold search.

    python3 tools/stream_gaps.py [--root CHECKOUT] [-o OUT.json]

Runs with the sbpart of CHECKOUT (default: this checkout). Desk graphs
0-4 (N = 500, B = 8, 7,500 edges, overlap 0.05, generator seed g) are each
streamed in 10 edge-emergence and 10 snowball stages (stage seed g), in
both execution modes, with MCMCConfig(rng_seed=0, execution_mode=mode).
After each stage a cold search with the same config runs on that stage's
graph. Per stage the JSON (to stdout without -o) holds the stream's B,
repr(H) and pairwise precision/recall, the cold B and repr(H), and the gap
(H - cold H) / cold H in percent. The summary printed at the end gives the
worst stage, the mean gap and the stages above 1%, overall and per stream.
Two checkouts that make the same probes write identical files.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(HERE, os.pardir, "perfbench"))

import workloads  # noqa: E402
from partition_identity import DESK_SEEDS, _desk_graph  # noqa: E402

STREAMS = ("edge-emergence", "snowball")
MODES = ("sequential", "batch")
NUM_STAGES = 10


def stage_rows(sb):
    rows = []
    for g in DESK_SEEDS:
        gen = _desk_graph(sb, g)
        for kind in STREAMS:
            sched = sb.emit_streaming_stages(gen, kind, NUM_STAGES, rng_seed=g)
            for mode in MODES:
                config = sb.MCMCConfig(rng_seed=0, execution_mode=mode)
                session = sb.StreamingSession(
                    config=config, truth=gen.truth,
                    generated_mask=gen.generated_node_mask)
                for stage, batch in enumerate(sched.stages, start=1):
                    sb.ingest_stage(session, batch, stage=stage)
                    sb.partition_stage(session)
                    report = session.reports[-1]
                    _, cold_B, cold_H = sb.golden_section_search(
                        session.graph, config)
                    H = report["description_length"]
                    pr = report.get("correctness", {})
                    rows.append({
                        "desk": g, "stream": kind, "mode": mode,
                        "stage": stage, "B": int(report["num_blocks"]),
                        "H": repr(float(H)),
                        "pairwise_precision": pr.get("pairwise_precision"),
                        "pairwise_recall": pr.get("pairwise_recall"),
                        "cold_B": int(cold_B), "cold_H": repr(float(cold_H)),
                        "gap_pct": 100.0 * (H - cold_H) / cold_H})
    return rows


def _where(r):
    return (f"desk {r['desk']}, {r['stream']}, {r['mode']}, stage "
            f"{r['stage']}: B = {r['B']} against cold {r['cold_B']}")


def summary(rows):
    """Lines naming the worst stage, the mean gap and the stages above 1%,
    overall and then per stream."""
    def line(name, group):
        gaps = [r["gap_pct"] for r in group]
        worst = max(group, key=lambda r: r["gap_pct"])
        return (f"{name}: worst {worst['gap_pct']:+.3f}% ({_where(worst)}), "
                f"mean {sum(gaps) / len(gaps):+.3f}%, "
                f"{sum(x > 1.0 for x in gaps)} of {len(gaps)} above 1%")
    lines = [line("all stages", rows)]
    for g in DESK_SEEDS:
        for kind in STREAMS:
            for mode in MODES:
                group = [r for r in rows if (r["desk"], r["stream"],
                                             r["mode"]) == (g, kind, mode)]
                lines.append(line(f"desk {g} {kind} {mode}", group))
    return lines


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--root", default=os.path.join(HERE, os.pardir),
                   help="checkout whose src/sbpart runs the streams")
    p.add_argument("-o", "--output", help="write the JSON here")
    args = p.parse_args(argv)
    rows = stage_rows(workloads.load_sbpart(args.root))
    text = json.dumps({"rows": rows, "summary": summary(rows)}, indent=1)
    if args.output:
        with open(args.output, "w") as f:
            f.write(text + "\n")
    else:
        print(text)
    # without -o the JSON holds stdout, so the summary goes to stderr
    print("\n".join(summary(rows)),
          file=sys.stdout if args.output else sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
