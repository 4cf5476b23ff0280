"""Alternating benchmark pairs: a base checkout against this one.

    python3 tools/bench_pairs.py --base CHECKOUT [--workload W] [--pairs N]
        [--seconds S] [--seed SEED] [-o OUT.json]

Each pair runs `perfbench/run.py --workload W --seed S --seconds S
--trace 0` once in the base checkout and once in this one, each with its
own `perfbench/run.py` and `src/`, one process at a time. Pair k uses seed
SEED + k, and the base runs first in even pairs, this checkout in odd
ones. Without --workload every workload of this checkout's BENCHMARK.json
runs, one after the other. Per workload and end-to-end metric it prints
each side's median and quartiles, the change in the median, how many
pairs this checkout wins (by the metric's `better` direction in
BENCHMARK.json) and a verdict against the metric's relative `bound`:
`unresolved` when the base runs' interquartile spread over their median is
wider than the bound, else `worse` when the change's median is worse than
the base's by more than the bound, else `within`. Then it prints each
side's failed and attempted operation counts.
-o writes every run's metrics with that summary as JSON.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SIDES = ("base", "change")


def run_once(checkout, workload, seed, seconds):
    """One benchmark run in `checkout`: its result line, or an error."""
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "0"], cwd=checkout, capture_output=True, text=True)
    try:
        return json.loads(proc.stdout.splitlines()[-1])
    except (IndexError, ValueError):
        return {"error": f"exit {proc.returncode}: {proc.stderr[-500:]}"}


def summarize(runs, metrics):
    """Per metric: both sides' medians and quartiles, and the pairs won."""
    ok = [p for p in runs if all("metrics" in p[side] for side in SIDES)]
    out = {side: {"failed": sum(p[side].get("failed", 0) for p in runs),
                  "attempted": sum(p[side].get("attempted", 0) for p in runs),
                  "incorrect": sum(not p[side].get("correct", False)
                                   for p in runs)}
           for side in SIDES}
    out["pairs"] = len(runs)
    if not ok:
        return out
    for spec in metrics:
        name = spec["name"]
        values = {side: [p[side]["metrics"][name]["value"] for p in ok]
                  for side in SIDES}
        sign = 1 if spec["better"] == "higher" else -1
        row = {"better": spec["better"], **values}
        for side in SIDES:
            v = values[side]
            q = statistics.quantiles(v, n=4) if len(v) > 1 else [v[0]] * 3
            row[f"{side}_median"] = statistics.median(v)
            row[f"{side}_quartiles"] = [q[0], q[2]]
        base = row["base_median"]
        row["change_pct"] = (100.0 * (row["change_median"] - base) / base
                             if base else None)
        row["change_wins"] = sum(sign * (c - b) > 0 for b, c in
                                 zip(values["base"], values["change"]))
        row["verdict"] = verdict(row, spec["bound"], sign)
        out[name] = row
    return out


def verdict(row, bound, sign):
    """`unresolved`, `worse` or `within`: the change's median against the
    base's, with the relative bound, when the base's spread resolves it."""
    base = row["base_median"]
    lo, hi = row["base_quartiles"]
    if not base or (hi - lo) / abs(base) > bound:
        return "unresolved"
    if sign * (row["change_median"] - base) / abs(base) < -bound:
        return "worse"
    return "within"


def print_summary(workload, summary):
    print(f"{workload}: {summary['pairs']} pairs")
    for name, row in summary.items():
        if not isinstance(row, dict) or "better" not in row:
            continue
        pct = "n/a" if row["change_pct"] is None else \
            f"{row['change_pct']:+.1f}%"
        print(f"  {name:20s} base {row['base_median']:.6g} "
              f"[{row['base_quartiles'][0]:.6g}, "
              f"{row['base_quartiles'][1]:.6g}]  change "
              f"{row['change_median']:.6g} [{row['change_quartiles'][0]:.6g}, "
              f"{row['change_quartiles'][1]:.6g}]  {pct}, change better in "
              f"{row['change_wins']}/{len(row['base'])} ({row['better']})"
              f"  {row['verdict']}")
    for side in SIDES:
        s = summary[side]
        print(f"  {side}: failed {s['failed']} of {s['attempted']} attempted"
              f", {s['incorrect']} incorrect runs")


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--base", required=True,
                   help="checkout to compare against (e.g. the parent)")
    p.add_argument("--workload", action="append",
                   help="workload to run (repeatable; default: all)")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=35.0)
    p.add_argument("--seed", type=int, default=1,
                   help="seed of the first pair; pair k uses seed + k")
    p.add_argument("-o", "--output", help="write the JSON here")
    args = p.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    checkouts = {"base": os.path.abspath(args.base), "change": ROOT}
    result = {"base": checkouts["base"], "change": checkouts["change"],
              "seconds": args.seconds, "workloads": {}}
    for workload in workloads:
        runs = []
        for k in range(args.pairs):
            seed = args.seed + k
            pair = {"seed": seed, "first": SIDES[k % 2]}
            for side in (SIDES if k % 2 == 0 else SIDES[::-1]):
                pair[side] = run_once(checkouts[side], workload, seed,
                                      args.seconds)
                print(f"{workload} pair {k + 1}/{args.pairs} seed {seed} "
                      f"{side}: " + json.dumps(pair[side].get(
                          "metrics", pair[side]))[:200], file=sys.stderr)
            runs.append(pair)
        summary = summarize(runs, bench["end_to_end"])
        print_summary(workload, summary)
        result["workloads"][workload] = {"runs": runs, "summary": summary}
    if args.output:
        with open(args.output, "w") as f:
            f.write(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
