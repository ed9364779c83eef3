#!/usr/bin/env python3
"""Compare two dcbench result sets.

    python3 dcbench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds <workload>.jsonl files written by
`dcbench/run.py --save DIR`, one result per line. For every workload
and end-to-end metric this prints each side's median and quartiles
and a verdict against the bound in BENCHMARK.json:

  worse       a change run is not correct or fails more operations
              than every parent run did (then every metric of the
              workload is worse: a gain does not count when more
              operations fail); or the change's median is worse
              than the parent's by more than the bound (or, when the
              spread exceeds the bound, every change run is worse
              than every parent run);
  better      the medians differ by more than the parent's own
              quartile spread and the change wins at least 9 of 10
              seed-paired runs (of all parent/change run pairs, when
              no seeds pair);
  unresolved  the run-to-run spread is wider than the bound and the
              runs overlap;
  unchanged   otherwise.

Per-layer metrics (traced runs) are listed as median deltas without
a verdict. Exits 1 when any metric is worse, else 0.
"""

import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load(directory):
    """{workload: {"e2e": [records], "layer": [records]}}."""
    sets = {}
    for entry in sorted(os.listdir(directory)):
        if not entry.endswith(".jsonl"):
            continue
        workload = entry[: -len(".jsonl")]
        with open(os.path.join(directory, entry)) as f:
            for line in f:
                if line.strip():
                    record = json.loads(line)
                    side = "layer" if record.get("trace") else "e2e"
                    sets.setdefault(workload, {"e2e": [], "layer": []})
                    sets[workload][side].append(record)
    return sets


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def series(records, name):
    return {r.get("seed"): r["metrics"][name]["value"]
            for r in records if name in r["metrics"]}


def correctness(parent, change):
    """Why the change's runs are less correct than the parent's, or ""."""
    records = parent["e2e"] + parent["layer"]
    parent_failed = max((r["failed"] for r in records), default=0)
    for record in change["e2e"] + change["layer"]:
        if not record["correct"]:
            return f"seed {record.get('seed')}: correct is false"
        if record["failed"] > parent_failed:
            return (f"seed {record.get('seed')}: {record['failed']} failed "
                    f"operations, parent at most {parent_failed}")
    return ""


def verdict(parent, change, lower_better, bound):
    """One of better / worse / unresolved / unchanged."""
    a, b = list(parent.values()), list(change.values())
    a_q1, a_med, a_q3 = quartiles(a)
    b_q1, b_med, b_q3 = quartiles(b)
    sign = 1.0 if lower_better else -1.0
    scale = abs(a_med) or 1.0
    worse_by = sign * (b_med - a_med) / scale
    spread_a = (a_q3 - a_q1) / scale
    spread = max(spread_a, (b_q3 - b_q1) / (abs(b_med) or 1.0))
    # Oriented so that smaller is better on both kinds of metric.
    a_or, b_or = [sign * v for v in a], [sign * v for v in b]
    all_better = max(b_or) < min(a_or)
    all_worse = min(b_or) > max(a_or)
    if spread > bound:
        if all_better:
            return "better"
        return "worse" if all_worse else "unresolved"
    if worse_by > bound:
        return "worse"
    if -worse_by > spread_a:
        # Seed-paired runs when the sets share seeds, else every
        # parent run against every change run.
        pairs = [(parent[s], change[s]) for s in parent if s in change]
        if not pairs:
            pairs = [(x, y) for x in a for y in b]
        wins = sum(sign * (y - x) < 0 for x, y in pairs)
        if wins >= 0.9 * len(pairs):
            return "better"
    return "unchanged"


def fmt(value):
    return f"{value:.6g}"


def main():
    if len(sys.argv) != 3:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        spec = json.load(f)
    parent, change = load(sys.argv[1]), load(sys.argv[2])
    any_worse = False
    for workload in [w["name"] for w in spec["workloads"]]:
        if workload not in parent or workload not in change:
            continue
        print(f"== {workload}")
        broken = correctness(parent[workload], change[workload])
        if broken:
            any_worse = True
            print(f"  correctness: worse ({broken})")
        print(f"  {'metric':24s} {'parent q1/med/q3':>32s} "
              f"{'change q1/med/q3':>32s} {'delta':>8s}  verdict")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a = series(parent[workload]["e2e"], name)
            b = series(change[workload]["e2e"], name)
            if not a or not b:
                continue
            aq, bq = quartiles(list(a.values())), quartiles(list(b.values()))
            delta = (bq[1] - aq[1]) / (abs(aq[1]) or 1.0)
            result = "worse" if broken else verdict(
                a, b, metric["better"] == "lower", metric["bound"])
            any_worse |= result == "worse"
            print(f"  {name:24s} {'/'.join(map(fmt, aq)):>32s} "
                  f"{'/'.join(map(fmt, bq)):>32s} {delta:+8.1%}  {result}")
        rows = []
        for metric in spec["per_layer"]:
            name = metric["name"]
            a = series(parent[workload]["layer"], name)
            b = series(change[workload]["layer"], name)
            if not a or not b:
                continue
            a_med = statistics.median(a.values())
            b_med = statistics.median(b.values())
            if a_med == 0 and b_med == 0:
                continue
            delta = (b_med - a_med) / (abs(a_med) or 1.0)
            rows.append(f"  {name:32s} {fmt(a_med):>12s} -> "
                        f"{fmt(b_med):>12s} {metric['unit']:>7s} "
                        f"{delta:+8.1%}")
        if rows:
            print("  per-layer medians (parent -> change):")
            print("\n".join(rows))
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main())
