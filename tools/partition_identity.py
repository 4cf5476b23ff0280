"""Partition identity check: the same seed must give the same partition.

    python3 tools/partition_identity.py [--root CHECKOUT] [-o OUT.json]
    python3 tools/partition_identity.py --compare A.json B.json

The first form runs 36 fixed searches with the sbpart of CHECKOUT (default:
this checkout) and writes, per item, the block count B, the first 16 hex
digits of the sha256 of the partition's int64 bytes, the same digest of
the partition renumbered by first appearance (the grouping, whatever its
labels) and repr(H) as JSON (to stdout without -o). The items:

- perfbench's offline-sequential and offline-batch rounds 0-2 at seed 5, and
  every stage of its stream-snowball round (`perfbench/workloads.py`, read
  from this checkout and not modified);
- desk graph 0 (N = 500, B = 8, 7,500 edges, overlap 0.05, generator seed
  0) streamed in 10 edge-emergence stages with MCMCConfig(rng_seed=0);
- cold searches on desk graphs 0-4 in both modes, MCMCConfig(rng_seed=seed).

The second form prints each item that differs between two such files with
what differs: B, the grouping, only the labels of the same grouping, or
only repr(H); when H differs too, both reprs and their relative gap follow.
It exits 1 if any item differs.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(HERE, os.pardir, "perfbench"))

import workloads  # noqa: E402

PERFBENCH_SEED = 5
DESK_SEEDS = range(5)


def _digest(a):
    return hashlib.sha256(a.astype(np.int64).tobytes()).hexdigest()[:16]


def _row(item, assignment, B, H):
    a = np.asarray(assignment)
    # renumber by first appearance: equal for equal groupings
    _, first, inverse = np.unique(a, return_index=True, return_inverse=True)
    rank = np.empty(len(first), dtype=np.int64)
    rank[np.argsort(first)] = np.arange(len(first))
    return {"item": item, "B": int(B), "partition_sha256_16": _digest(a),
            "grouping_sha256_16": _digest(rank[inverse]),
            "H": repr(float(H))}


def _desk_graph(sb, seed):
    return sb.generate(sb.GeneratorConfig(
        num_nodes=500, num_blocks=8, target_total_edges=7500,
        overlap_ratio=0.05, rng_seed=seed))


def identity_rows(sb):
    rows = []
    for name, rounds in (("offline-sequential", range(3)),
                         ("offline-batch", range(3)),
                         ("stream-snowball", range(1))):
        spec = workloads.WORKLOADS[name]
        for k in rounds:
            inputs = workloads.make_inputs(sb, spec, PERFBENCH_SEED, k)
            results = workloads.run_round(sb, spec, inputs)
            if spec.num_stages == 1:
                res = results[0]
                rows.append(_row(f"{name} seed {PERFBENCH_SEED} round {k}",
                                 res.assignment, res.num_blocks,
                                 res.description_length))
                continue
            for stage, res in enumerate(results, start=1):
                rows.append(_row(f"{name} stage {stage}", res.assignment,
                                 res.num_blocks, res.description_length))
    gen = _desk_graph(sb, 0)
    sched = sb.emit_streaming_stages(gen, "edge-emergence", 10, rng_seed=0)
    session = sb.StreamingSession(config=sb.MCMCConfig(rng_seed=0),
                                  truth=gen.truth,
                                  generated_mask=gen.generated_node_mask)
    for stage, batch in enumerate(sched.stages, start=1):
        sb.ingest_stage(session, batch, stage=stage)
        sb.partition_stage(session)
        report = session.reports[-1]
        rows.append(_row(f"desk edge-emergence stage {stage}",
                         session.partition.assignment, report["num_blocks"],
                         report["description_length"]))
    for seed in DESK_SEEDS:
        graph = _desk_graph(sb, seed).graph
        for mode in ("sequential", "batch"):
            part, B, H = sb.golden_section_search(
                graph, sb.MCMCConfig(rng_seed=seed, execution_mode=mode))
            rows.append(_row(f"desk {seed} cold {mode}", part.assignment, B,
                             H))
    return rows


def _difference(x, y):
    """What differs between two rows of one item, or None if nothing; a
    changed H is appended with both reprs and its relative gap."""
    if x is None or y is None:
        return "missing from " + ("A" if x is None else "B")
    if x["B"] != y["B"]:
        what = f"B {x['B']} -> {y['B']}"
    elif x["grouping_sha256_16"] != y["grouping_sha256_16"]:
        what = "grouping"
    elif x["partition_sha256_16"] != y["partition_sha256_16"]:
        what = "labels only (same grouping)"
    elif x["H"] != y["H"]:
        what = "repr(H) only"
    else:
        return None
    if x["H"] != y["H"]:
        a, b = float(x["H"]), float(y["H"])
        gap = abs(b - a) / max(abs(a), abs(b))
        what += f"; H {x['H']} -> {y['H']} (relative gap {gap:.3g})"
    return what


def compare(path_a, path_b):
    """(item, what differs or None) per item of two identity files (an
    item missing from either side differs)."""
    with open(path_a) as fa, open(path_b) as fb:
        a = {r["item"]: r for r in json.load(fa)["rows"]}
        b = {r["item"]: r for r in json.load(fb)["rows"]}
    return [(item, _difference(a.get(item), b.get(item)))
            for item in list(a) + [x for x in b if x not in a]]


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--root", default=os.path.join(HERE, os.pardir),
                   help="checkout whose src/sbpart runs the searches")
    p.add_argument("-o", "--output", help="write the JSON here")
    p.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = p.parse_args(argv)
    if args.compare:
        items = compare(*args.compare)
        differ = [(item, what) for item, what in items if what]
        for item, what in differ:
            print(f"differs: {item}: {what}")
        print(f"{len(differ)} of {len(items)} item(s) differ")
        return 1 if differ else 0
    sb = workloads.load_sbpart(args.root)
    rows = identity_rows(sb)
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
