#!/usr/bin/env python3
"""Compares two sets of e2ebench runs, parent against change.

    python3 e2ebench/compare_e2e.py PARENT_DIR CHANGE_DIR
        [--claim WORKLOAD:METRIC ...] [--benchmark BENCHMARK.json]

Each directory holds the results.jsonl that `run.py --out DIR` appends
to. For every (workload, end-to-end metric) pair it prints both medians
and quartiles and a verdict under the metric's direction and bound from
BENCHMARK.json:

  worse      the change's median is worse than the parent's by more than
             the bound (or every change run is worse than every parent run)
  better     the change's median is better by more than the spread of the
             parent's own runs (or every change run beats every parent run)
  unchanged  neither
  unresolved a side's quartile spread is wider than the bound, and the
             runs do not separate completely

A --claim additionally needs the change to win at least 9 of every 10
runs paired in order (run the two sides alternately), ties counting for
neither side. Per-layer metrics of traced runs are listed without a
verdict. Exits 1 if any pair is worse, any claim fails, or the change
failed more checks than the parent.
"""

import argparse
import collections
import json
import pathlib
import statistics
import sys

DEFAULT_BENCHMARK = pathlib.Path(__file__).resolve().parent.parent / \
    "BENCHMARK.json"


def load(directory):
    """{trace: {workload: {metric: [values in run order]}}}, failures."""
    runs = collections.defaultdict(
        lambda: collections.defaultdict(lambda: collections.defaultdict(list)))
    failed = 0
    path = pathlib.Path(directory) / "results.jsonl"
    for line in path.read_text().splitlines():
        if not line.strip():
            continue
        record = json.loads(line)
        failed += record["failed"]
        for name, metric in record["metrics"].items():
            runs[record["trace"]][record["workload"]][name].append(
                metric["value"])
    return runs, failed


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else float("inf")


def better(a, b, direction):
    """True iff value a is better than value b."""
    return a < b if direction == "lower" else a > b


def verdict(parent, change, direction, bound):
    _, p_med, _ = quartiles(parent)
    _, c_med, _ = quartiles(change)
    if all(better(c, p, direction) for c in change for p in parent):
        return "better"
    if all(better(p, c, direction) for c in change for p in parent):
        return "worse"
    if max(spread(parent), spread(change)) > bound:
        return "unresolved"
    worse_by = (c_med - p_med) / abs(p_med)
    if direction == "higher":
        worse_by = -worse_by
    if worse_by > bound:
        return "worse"
    if -worse_by > spread(parent):
        return "better"
    return "unchanged"


def claim_holds(parent, change, direction):
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if better(c, p, direction))
    _, p_med, _ = quartiles(parent)
    _, c_med, _ = quartiles(change)
    q1, _, q3 = quartiles(parent)
    separated = abs(c_med - p_med) > (q3 - q1)
    return wins, len(pairs), wins * 10 >= 9 * len(pairs) and separated


def fmt(values):
    q1, med, q3 = quartiles(values)
    return f"{med:.6g} [{q1:.4g}, {q3:.4g}] n={len(values)}"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--claim", action="append", default=[],
                        metavar="WORKLOAD:METRIC")
    parser.add_argument("--benchmark", type=pathlib.Path,
                        default=DEFAULT_BENCHMARK)
    args = parser.parse_args()

    spec = json.loads(args.benchmark.read_text())
    parent, parent_failed = load(args.parent)
    change, change_failed = load(args.change)
    bad = False

    print(f"{'workload':15} {'metric':16} {'parent median [q1, q3]':32} "
          f"{'change median [q1, q3]':32} {'delta':>8} {'bound':>6}  verdict")
    for workload in sorted(set(parent[0]) | set(change[0])):
        for m in spec["end_to_end"]:
            p = parent[0][workload].get(m["name"])
            c = change[0][workload].get(m["name"])
            if not p or not c:
                print(f"{workload:15} {m['name']:16} missing on one side")
                bad = True
                continue
            v = verdict(p, c, m["better"], m["bound"])
            bad = bad or v == "worse"
            delta = (quartiles(c)[1] - quartiles(p)[1]) / abs(quartiles(p)[1])
            print(f"{workload:15} {m['name']:16} {fmt(p):32} {fmt(c):32} "
                  f"{delta:+8.1%} {m['bound']:6.0%}  {v}")

    directions = {m["name"]: m["better"] for m in spec["end_to_end"]}
    for claim in args.claim:
        workload, _, metric = claim.partition(":")
        p = parent[0][workload].get(metric)
        c = change[0][workload].get(metric)
        if not p or not c or metric not in directions:
            print(f"claim {claim}: no runs of this end-to-end metric")
            bad = True
            continue
        wins, pairs, ok = claim_holds(p, c, directions[metric])
        print(f"claim {claim}: change wins {wins} of {pairs} pairs -> "
              f"{'met' if ok else 'NOT met'}")
        bad = bad or not ok

    if parent[1] or change[1]:
        print("\nper-layer (traced runs), no verdict:")
        for workload in sorted(set(parent[1]) | set(change[1])):
            for m in spec["per_layer"]:
                p = parent[1][workload].get(m["name"])
                c = change[1][workload].get(m["name"])
                if p and c:
                    print(f"{workload:15} {m['name']:28} {fmt(p):32} "
                          f"{fmt(c):32}")

    print(f"\nfailed checks: parent {parent_failed}, change {change_failed}")
    if change_failed > parent_failed:
        bad = True
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
