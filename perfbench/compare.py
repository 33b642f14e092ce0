#!/usr/bin/env python3
"""Compare perfbench results of two builds, metric by metric.

    python3 perfbench/compare.py --base A1.json [A2.json ...] \
                                 --new B1.json [B2.json ...]

Each file is a full result written by run.py
(.bench_build/work/result-<workload>-trace<t>.json); copy it aside after
each run. Every file must come from the same workload and trace mode, and
from the same build and host configuration (SIMD ISA compiled and active,
VNNI compiled and available, build type, compiler, nproc): the comparison
refuses, with exit code 2, to compare results whose configuration differs.

For each metric it prints both medians and quartiles, the change, and, for
the end-to-end metrics, whether the new median is worse than the base
median by more than the bound BENCHMARK.json fixes (exit code 1 if so).
"""
import argparse
import json
import math
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(paths):
    out = []
    for p in paths:
        with open(p) as f:
            out.append(json.load(f))
    return out


def summary(values):
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", nargs="+", required=True)
    ap.add_argument("--new", nargs="+", required=True)
    args = ap.parse_args()
    base, new = load(args.base), load(args.new)

    ref = base[0]
    for r, path in zip(base + new, args.base + args.new):
        if r["config"]["comparable"] != ref["config"]["comparable"]:
            print("refusing to compare: %s was measured on %s, %s on %s" % (
                args.base[0], json.dumps(ref["config"]["comparable"]), path,
                json.dumps(r["config"]["comparable"])), file=sys.stderr)
            return 2
        if (r["workload"], r["trace"]) != (ref["workload"], ref["trace"]):
            print("refusing to compare %s/trace%s with %s/trace%s" % (
                ref["workload"], ref["trace"], r["workload"], r["trace"]),
                file=sys.stderr)
            return 2

    for side, runs in (("base", base), ("new", new)):
        eff = [r["config"]["parallel_efficiency"] for r in runs]
        print("%s: %d run(s), revision %s, measured parallel efficiency "
              "median %.2f" % (side, len(runs), runs[0]["config"]["revision"],
                               statistics.median(eff)))
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    worse_any = False
    print("%-34s %14s %14s %9s" % ("metric", "base median", "new median",
                                   "change"))
    for name in ref["metrics"]:
        b = [r["metrics"][name]["value"] for r in base]
        n = [r["metrics"][name]["value"] for r in new]
        bm, bq1, bq3 = summary(b)
        nm, nq1, nq3 = summary(n)
        if bm:
            change = (nm - bm) / abs(bm)
        else:  # a zero base: any change is unbounded, none is 0%
            change = 0.0 if nm == bm else math.copysign(math.inf, nm - bm)
        verdict = ""
        if name in bounds:
            m = bounds[name]
            worse = change if m["better"] == "lower" else -change
            spread = (bq3 - bq1) / abs(bm) if bm else 0.0
            if worse > m["bound"]:
                verdict = "WORSE beyond bound %.2f" % m["bound"]
                worse_any = True
            elif spread > m["bound"]:
                verdict = "unresolved: base spread %.2f > bound" % spread
        print("%-34s %14.6g %14.6g %+8.1f%%  %s" % (name, bm, nm,
                                                   100 * change, verdict))
    return 1 if worse_any else 0


if __name__ == "__main__":
    sys.exit(main())
