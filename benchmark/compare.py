"""Compare two sets of benchmark runs, parent against change:

    python3 benchmark/compare.py PARENT CHANGE

Run it from the checkout root: metric names, units and bounds come from
BENCHMARK.json there.  PARENT and CHANGE are files (or directories of files)
holding the standard output of benchmark runs; each run contributes its
record line and its result line.  Make the runs in alternating order,
parent first in one pair and change first in the next, with the same seeds
and --seconds on both sides: a parent run is paired with the change run of
the same workload, seed and --trace (the k-th such parent run with the k-th
such change run).  Runs without a partner are listed and left out of the pairs.

For every (metric, workload) the report gives each side's median and
quartiles with the run count, the change's median as a ratio of the
parent's (with that base), the fraction of pairs the change won (ties count
for neither side) and a verdict:

  improved    the change won at least 9/10 of the pairs and the medians
              differ by more than the parent's own quartile distance
  regressed   the change's median is worse than the parent's by more than
              the metric's bound (for per-layer metrics, which have no
              bound: the parent won 9/10 of the pairs by the rule above)
  unresolved  the parent's quartile distance is wider than the bound and
              not every change run beats every parent run, or the change
              failed more operations than the parent
  unchanged   otherwise
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from collections import defaultdict

WIN_SHARE = 0.9


def read_runs(path: str) -> dict:
    """{(workload, seed, trace): [runs in file order]}, each run a dict with its
    metric values under "metrics" and its "failed" count."""
    files = [path]
    if os.path.isdir(path):
        files = sorted(os.path.join(path, f) for f in os.listdir(path))
    runs = defaultdict(list)
    for name in files:
        record = None
        with open(name, encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line.startswith("{"):
                    continue
                obj = json.loads(line)
                if "record" in obj:
                    record = obj["record"]
                elif "metrics" in obj and record is not None:
                    runs[(record["workload"], record["seed"], record["trace"])].append({
                        "metrics": {k: float(m["value"]) for k, m in obj["metrics"].items()},
                        "failed": obj["failed"],
                    })
                    record = None
    return runs


def pair_runs(parent: dict, change: dict, workload: str) -> tuple:
    """(parent runs, change runs, [(parent run, change run)] of equal seed and
    trace, [(side, seed)] of runs without a partner) for one workload."""
    p_all, c_all, pairs, unpaired = [], [], [], []
    for key in sorted(set(parent) | set(change), key=str):
        if key[0] != workload:
            continue
        p, c = parent.get(key, []), change.get(key, [])
        p_all += p
        c_all += c
        pairs += list(zip(p, c))
        unpaired += [("parent", key[1])] * (len(p) - len(c)) + [("change", key[1])] * (len(c) - len(p))
    return p_all, c_all, pairs, unpaired


def summary(values: list) -> tuple:
    """(q1, median, q3) as statistics.quantiles gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def verdict(parent: list, change: list, pairs: list, better: str, bound,
            more_failures: bool) -> tuple:
    """(verdict, win fraction of the change over the (parent, change) value
    pairs); parent and change hold every run's value of each side."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    losses = sum(1 for p, c in pairs if sign * (c - p) < 0)
    win_frac = wins / len(pairs) if pairs else 0.0
    q1p, medp, q3p = summary(parent)
    _, medc, _ = summary(change)
    parent_iqr = q3p - q1p
    differs = abs(medc - medp) > parent_iqr
    if more_failures:
        return "unresolved", win_frac
    if pairs and wins >= WIN_SHARE * len(pairs) and differs and sign * (medc - medp) > 0:
        return "improved", win_frac
    if bound is None:
        if pairs and losses >= WIN_SHARE * len(pairs) and differs:
            return "regressed", win_frac
        return "unchanged", win_frac
    if sign * (medc - medp) < -bound * abs(medp):
        return "regressed", win_frac
    all_better = all(sign * (c - p) > 0 for c in change for p in parent)
    if medp and parent_iqr / abs(medp) > bound and not all_better:
        return "unresolved", win_frac
    return "unchanged", win_frac


def compare(parent: dict, change: dict, spec: dict) -> tuple:
    """(rows of the report, [(workload, side, seed)] of unpaired runs)."""
    metrics = [(m, m.get("bound")) for m in spec["end_to_end"]]
    metrics += [(m, None) for m in spec["per_layer"]]
    rows, unpaired = [], []
    for w in spec["workloads"]:
        workload = w["name"]
        p_runs, c_runs, pairs, lonely = pair_runs(parent, change, workload)
        unpaired += [(workload, side, seed) for side, seed in lonely]
        failed_p = sum(r["failed"] for r in p_runs)
        failed_c = sum(r["failed"] for r in c_runs)
        for m, bound in metrics:
            name = m["name"]
            p = [r["metrics"][name] for r in p_runs if name in r["metrics"]]
            c = [r["metrics"][name] for r in c_runs if name in r["metrics"]]
            value_pairs = [(rp["metrics"][name], rc["metrics"][name]) for rp, rc in pairs
                           if name in rp["metrics"]]
            if not p or not c:
                continue
            q1p, medp, q3p = summary(p)
            q1c, medc, q3c = summary(c)
            v, win = verdict(p, c, value_pairs, m["better"], bound, failed_c > failed_p)
            rows.append({
                "metric": name, "workload": workload, "unit": m["unit"],
                "parent": (q1p, medp, q3p, len(p)), "change": (q1c, medc, q3c, len(c)),
                "ratio": medc / medp if medp else None, "win": win,
                "pairs": len(value_pairs), "verdict": v,
                "failed": (failed_p, failed_c),
            })
    return rows, unpaired


def _fmt(side: tuple, unit: str) -> str:
    q1, med, q3, n = side
    return "%.4g %s [%.4g, %.4g] n=%d" % (med, unit, q1, q3, n)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    args = ap.parse_args(argv)
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    rows, unpaired = compare(read_runs(args.parent), read_runs(args.change), spec)
    for workload, side, seed in unpaired:
        print("unpaired: %s run of %s, seed %s, has no partner" % (side, workload, seed))
    if not rows:
        print("no (metric, workload) pair has runs on both sides", file=sys.stderr)
        return 1
    for r in rows:
        ratio = ("change/parent = %.4f (base: parent median %.4g %s)"
                 % (r["ratio"], r["parent"][1], r["unit"]) if r["ratio"] is not None
                 else "change/parent undefined (base: parent median 0)")
        print("%-30s %-20s parent %s | change %s | %s | won %d%% of %d pairs | failed %d -> %d | %s"
              % (r["metric"], r["workload"], _fmt(r["parent"], r["unit"]),
                 _fmt(r["change"], r["unit"]), ratio, round(100 * r["win"]), r["pairs"],
                 r["failed"][0], r["failed"][1], r["verdict"].upper()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
