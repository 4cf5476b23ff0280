"""Cold-search points at growing size, one fresh process per point.

    python3 tools/batch_points.py [--root CHECKOUT] [-o OUT.json]

Runs with the sbpart of CHECKOUT (default: this checkout). Each point is a
cold `golden_section_search` with MCMCConfig(rng_seed=0, execution_mode=
mode) on a `bench_rows`-style graph (N = E/20, B = 8, overlap 0.05,
generator seed 0) of E target edges. The points are 20k, 100k and 1M edges
in batch mode and 20k and 100k edges in sequential mode. Each runs in its
own Python process, so that its peak RSS (`ru_maxrss`, graph
generation included) is its own. Per point the JSON (to stdout without -o)
holds the edge count, the mode, the search's wall time in seconds, the
peak RSS in MB, B and repr(H).
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(HERE, os.pardir, "perfbench"))

import workloads  # noqa: E402

POINTS = ("20000:batch", "100000:batch", "1000000:batch",
          "20000:sequential", "100000:sequential")


def run_point(sb, edges, mode):
    """One cold search in this process: its row of the output."""
    gen = sb.generate(sb.GeneratorConfig(
        num_nodes=max(32, edges // 20), num_blocks=8,
        target_total_edges=edges, overlap_ratio=0.05, rng_seed=0))
    t0 = time.perf_counter()
    _, B, H = sb.golden_section_search(
        gen.graph, sb.MCMCConfig(rng_seed=0, execution_mode=mode))
    seconds = time.perf_counter() - t0
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {"edges": edges, "num_edges": int(gen.graph.total_edge_weight),
            "mode": mode, "search_s": seconds, "peak_rss_mb": rss_mb,
            "B": int(B), "H": repr(float(H))}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--root", default=os.path.join(HERE, os.pardir),
                   help="checkout whose src/sbpart runs the searches")
    p.add_argument("-o", "--output", help="write the JSON here")
    p.add_argument("--point", metavar="EDGES:MODE",
                   help="run one point in this process and print its row "
                        "(a full run starts one child per point this way)")
    args = p.parse_args(argv)
    if args.point:
        edges, mode = args.point.split(":")
        print(json.dumps(run_point(workloads.load_sbpart(args.root),
                                   int(edges), mode)))
        return 0
    rows = []
    for point in POINTS:
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--root", args.root,
             "--point", point],
            check=True, capture_output=True, text=True).stdout
        rows.append(json.loads(out.splitlines()[-1]))
        print(json.dumps(rows[-1]), file=sys.stderr)
    text = json.dumps({"root": os.path.realpath(args.root), "rows": rows},
                      indent=1)
    if args.output:
        with open(args.output, "w") as f:
            f.write(text + "\n")
    else:
        print(text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
