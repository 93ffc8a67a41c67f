#!/usr/bin/env python3
"""Compare hsw_bench results of a parent and a change commit.

    compare.py --parent P1.json ... --change C1.json ...
    compare.py --ledger BEFORE.json AFTER.json

The first form takes N result files (hsw_bench --json) per side, ideally
from runs that alternated parent and change, and prints for every
(workload, end-to-end metric) both sides' median and quartiles, the share
of pairs the change won, and a verdict:

  improved    the change wins at least 9 in 10 pairs (ties count for
              neither) and the medians differ by more than the parent's
              own quartile spread;
  unresolved  the parent's own relative spread exceeds the bound, and not
              every change run beats every parent run;
  regressed   the change median is worse than the parent's by more than
              the metric's bound in BENCHMARK.json;
  unchanged   otherwise: no worse than the bound allows, or, under a
              spread wider than the bound, every change run better than
              every parent run (no worse, but not a gain).

End-to-end metrics that BENCHMARK.json does not gate (no bound) get only
the first verdict, else "not gated".

The second form diffs two traced runs: every per-layer metric side by
side with its ratio, then both ledgers. Both forms refuse results whose
host fingerprints (nproc, CPU model, kernel, compiler) or run settings
differ. Standard library only.
"""
import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK = os.path.join(os.path.dirname(os.path.dirname(HERE)), "BENCHMARK.json")


def load(path):
    with open(path) as f:
        result = json.load(f)
    if result.get("schema") != "hsw_bench/1":
        sys.exit(f"compare.py: {path} is not an hsw_bench result")
    return result


def fingerprint(result):
    prov = result["provenance"]
    return (tuple(sorted(result["host"].items())), result["smoke"], prov["seconds"],
            prov["build_type"])


def refuse_mixed(results):
    prints = {fingerprint(r) for r in results}
    if len(prints) > 1:
        lines = "\n  ".join(repr(p) for p in sorted(prints, key=repr))
        sys.exit("compare.py: refusing to compare results from different hosts or run "
                 "settings:\n  " + lines)


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent, change, better, bound):
    """The choosing-metrics rule for one (workload, metric) pair; `bound`
    is None for an ungated metric. Returns (share of pairs won, verdict).

    Every change run beats every parent run, but the gain (105) is less
    than the parent's quartile spread (150), which is wider than the
    bound: no worse, and not a gain.

    >>> verdict([100, 150, 200, 250, 300], [90, 95, 95, 95, 99], "lower", 0.25)
    (1.0, 'unchanged')
    >>> verdict([100, 150, 200, 250, 300], [90, 95, 95, 95, 400], "lower", 0.25)
    (0.8, 'unresolved')
    >>> verdict([100, 101, 102, 103, 104], [80, 81, 82, 83, 84], "lower", 0.1)
    (1.0, 'improved')
    >>> verdict([100, 101, 102, 103, 104], [120, 121, 122, 123, 124], "lower", 0.1)
    (0.0, 'regressed')
    """
    sign = 1.0 if better == "higher" else -1.0
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    share = wins / len(pairs) if pairs else 0.0
    p1, pm, p3 = quartiles(parent)
    cm = statistics.median(change)
    gain = sign * (cm - pm)
    if share >= 0.9 and gain > (p3 - p1):
        return share, "improved"
    if bound is None:
        return share, "not gated"
    if pm != 0 and (p3 - p1) / abs(pm) > bound:
        all_better = all(sign * (c - p) > 0 for c in change for p in parent)
        return share, "unchanged" if all_better else "unresolved"
    if pm != 0 and -gain / abs(pm) > bound:
        return share, "regressed"
    return share, "unchanged"


def by_workload(results):
    out = {}
    for r in results:
        out.setdefault(r["workload"], []).append(r)
    return out


def compare(parent_files, change_files, benchmark):
    parents = [load(p) for p in parent_files]
    changes = [load(c) for c in change_files]
    refuse_mixed(parents + changes)
    if len(parents) != len(changes):
        print(f"warning: {len(parents)} parent vs {len(changes)} change results; "
              "pairs use the shorter list", file=sys.stderr)
    gated = {m["name"]: m for m in benchmark["end_to_end"]}
    better = {m["name"]: m["better"] for m in benchmark["per_layer"] + benchmark["end_to_end"]}
    parent_by, change_by = by_workload(parents), by_workload(changes)
    header = (f"{'workload':14} {'metric':16} {'parent median [q1, q3]':>34} "
              f"{'change median [q1, q3]':>34} {'won':>5}  verdict")
    print(header)
    worst = 0
    for workload in sorted(set(parent_by) | set(change_by)):
        if workload not in parent_by or workload not in change_by:
            print(f"{workload:14} only on one side; not compared")
            worst = max(worst, 1)
            continue
        for name in parent_by[workload][0]["end_to_end"]:
            pv = [r["end_to_end"][name]["value"] for r in parent_by[workload]
                  if name in r["end_to_end"]]
            cv = [r["end_to_end"][name]["value"] for r in change_by[workload]
                  if name in r["end_to_end"]]
            if not pv or not cv:
                continue
            bound = gated[name]["bound"] if name in gated else None
            share, word = verdict(pv, cv, better.get(name, "lower"), bound)
            p1, pm, p3 = quartiles(pv)
            c1, cm, c3 = quartiles(cv)
            print(f"{workload:14} {name:16} {pm:14.4g} [{p1:.4g}, {p3:.4g}]"
                  f"{'':2} {cm:14.4g} [{c1:.4g}, {c3:.4g}] {share:5.0%}  {word}")
            if word == "regressed":
                worst = max(worst, 1)
    incorrect = [r for r in parents + changes if not r["correct"] or r["failed"]]
    if incorrect:
        print(f"{len(incorrect)} result(s) failed their output checks")
        worst = max(worst, 1)
    return worst


def ledger(before_file, after_file):
    before, after = load(before_file), load(after_file)
    refuse_mixed([before, after])
    if before["workload"] != after["workload"]:
        sys.exit("compare.py: the two ledgers are of different workloads")
    if not (before["traced"] and after["traced"]):
        sys.exit("compare.py: --ledger needs two traced results")
    print(f"{'layer metric':40} {'before':>14} {'after':>14} {'after/before':>12}")
    for name, b in before["layers"].items():
        a = after["layers"].get(name)
        if a is None:
            print(f"{name:40} {b['value']:14.6g} {'-':>14}")
            continue
        ratio = a["value"] / b["value"] if b["value"] else float("nan")
        print(f"{name:40} {b['value']:14.6g} {a['value']:14.6g} {ratio:12.3f}  {b['unit']}")
    for name in after["layers"]:
        if name not in before["layers"]:
            print(f"{name:40} {'-':>14} {after['layers'][name]['value']:14.6g}")
    for title, result in (("before", before), ("after", after)):
        print(f"\nledger ({title}, {result['workload']} seed {result['seed']}):")
        for line in result["ledger"]:
            print("  " + line)
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", nargs="+", help="parent result files")
    parser.add_argument("--change", nargs="+", help="change result files")
    parser.add_argument("--ledger", nargs=2, metavar=("BEFORE", "AFTER"),
                        help="two traced result files to diff")
    args = parser.parse_args()
    if args.ledger:
        return ledger(*args.ledger)
    if not args.parent or not args.change:
        parser.error("give --parent and --change result files, or --ledger A B")
    with open(BENCHMARK) as f:
        benchmark = json.load(f)
    return compare(args.parent, args.change, benchmark)


if __name__ == "__main__":
    sys.exit(main())
