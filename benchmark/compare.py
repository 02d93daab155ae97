"""Compare two result sets written by ``benchmark/series.py``: parent and change.

    python3 benchmark/compare.py .bench_out/results/parent .bench_out/results/change

The metrics, their directions and bounds come from the BENCHMARK.json next
to this copy of the benchmark.

Prints one row per workload and end-to-end metric: each side's median and
quartiles over its runs, the change of the median as a share of the
parent's, and a verdict. Then, where both sets hold traced runs, the change
of every per-layer metric with its base.

Verdicts, with the metric's bound from BENCHMARK.json:
  better      the change beats the parent in at least 9 of 10 seed pairs and
              the medians differ by more than the parent's own quartile spread
  worse       the change's median is worse than the parent's by more than the bound
  unresolved  a side's quartile spread is wider than the bound, and not every
              change run beats every parent run
  within      none of the above
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import re
import statistics
import sys

SPEC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "BENCHMARK.json")
NAME = re.compile(r"(?P<workload>.+)-seed(?P<seed>\d+)(?P<trace>-trace)?\.json$")


def load(directory: str) -> dict:
    """{(workload, traced): {seed: metrics}} from one result directory."""
    out: dict = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        m = NAME.match(os.path.basename(path))
        if not m:
            continue
        with open(path, encoding="utf-8") as fh:
            result = json.load(fh)
        key = (m["workload"], bool(m["trace"]))
        out.setdefault(key, {})[int(m["seed"])] = {
            name: entry["value"] for name, entry in result["metrics"].items()
        }
    return out


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent: dict, change: dict, better: str, bound: float) -> tuple[str, float]:
    """Verdict and the median's change as a share of the parent's, signed so
    that a positive share is an improvement."""
    sign = 1.0 if better == "higher" else -1.0
    pv, cv = list(parent.values()), list(change.values())
    pq, cq = quartiles(pv), quartiles(cv)
    gain = sign * (cq[1] - pq[1]) / pq[1]
    spread_p = (pq[2] - pq[0]) / pq[1]
    spread_c = (cq[2] - cq[0]) / cq[1]
    pairs = [s for s in parent if s in change]
    wins = sum(sign * (change[s] - parent[s]) > 0 for s in pairs)
    if pairs and wins >= 0.9 * len(pairs) and abs(cq[1] - pq[1]) > pq[2] - pq[0] and gain > 0:
        return "better", gain
    if max(spread_p, spread_c) > bound:
        if all(sign * (c - p) > 0 for c in cv for p in pv):
            return "better", gain
        return "unresolved", gain
    if gain < -bound:
        return "worse", gain
    return "within", gain


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent")
    p.add_argument("change")
    args = p.parse_args(argv)
    with open(SPEC, encoding="utf-8") as fh:
        spec = json.load(fh)
    parent, change = load(args.parent), load(args.change)
    if not parent or not change:
        sys.stderr.write("no result files found\n")
        return 2

    fmt = "{:<14} {:<13} {:>30} {:>30} {:>8}  {}"
    print(fmt.format("workload", "metric", "parent q1 / median / q3", "change q1 / median / q3",
                     "gain", "verdict"))
    for w in spec["workloads"]:
        key = (w["name"], False)
        if key not in parent or key not in change:
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            pv = {s: m[name] for s, m in parent[key].items() if name in m}
            cv = {s: m[name] for s, m in change[key].items() if name in m}
            if not pv or not cv:
                continue
            v, gain = verdict(pv, cv, metric["better"], metric["bound"])
            cells = [" / ".join(f"{x:.4g}" for x in quartiles(list(d.values()))) for d in (pv, cv)]
            print(fmt.format(w["name"], name, *cells, f"{gain:+.1%}", v))

    print()
    print("{:<14} {:<30} {:>14} {:>14} {:>9}  {}".format(
        "workload", "per-layer metric", "parent", "change", "delta", "unit"))
    for w in spec["workloads"]:
        key = (w["name"], True)
        if key not in parent or key not in change:
            continue
        for metric in spec["per_layer"]:
            name = metric["name"]
            base = statistics.median(m[name] for m in parent[key].values())
            new = statistics.median(m[name] for m in change[key].values())
            if base == 0 and new == 0:
                continue
            delta = f"{(new - base) / base:+.1%}" if base else "new"
            print("{:<14} {:<30} {:>14.6g} {:>14.6g} {:>9}  {}".format(
                w["name"], name, base, new, delta, metric["unit"]))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
