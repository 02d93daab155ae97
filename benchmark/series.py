"""Run the benchmark once per seed on every workload and keep each result line as a file.

    python3 benchmark/series.py --out .bench_out/results/A --runs 10 .
    python3 benchmark/series.py --out .bench_out/results --runs 10 PARENT CHANGE
    python3 benchmark/series.py --out .bench_out/results --runs 2 --trace 1 PARENT CHANGE

Each positional argument is the root of a checkout; this copy of the
benchmark runs in each. With one checkout, results land in
``<out>/<workload>-seed<n>.json`` (``-trace.json`` for traced runs). With two,
they land in ``<out>/parent`` and ``<out>/change``, and the two runs of each
seed follow each other, the parent first on odd seeds and the change first on
even ones, so that a slow or fast spell of the host falls on both sides.
``benchmark/compare.py`` reads the result directories. Runs are sequential:
on a small host two runs at once would measure each other.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def run_one(root: str, workload: str, seed: int, seconds: int, trace: int) -> str:
    """The result line of one run in the checkout at ``root``, or "" on failure."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=900)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(f"{root}: {workload} seed {seed}: exit {proc.returncode}\n")
        return ""
    result = json.loads(lines[-1])
    sys.stderr.write(f"{root}: {workload} seed {seed}: attempted {result['attempted']}, "
                     f"failed {result['failed']}, correct {result['correct']}\n")
    return lines[-1]


def main(argv=None) -> int:
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("checkouts", nargs="+", metavar="CHECKOUT")
    p.add_argument("--out", required=True)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if len(args.checkouts) > 2:
        p.error("give one checkout, or two: parent and change")
    sides = [(root, args.out) for root in args.checkouts]
    if len(sides) == 2:
        sides = [(args.checkouts[0], os.path.join(args.out, "parent")),
                 (args.checkouts[1], os.path.join(args.out, "change"))]
    for _, out in sides:
        os.makedirs(out, exist_ok=True)
    suffix = "-trace" if args.trace else ""
    for workload in (w["name"] for w in spec["workloads"]):
        for seed in range(args.first_seed, args.first_seed + args.runs):
            order = sides if seed % 2 else sides[::-1]
            for root, out in order:
                line = run_one(os.path.abspath(root), workload, seed, spec["run_seconds"],
                               args.trace)
                if not line:
                    return 1
                with open(os.path.join(out, f"{workload}-seed{seed}{suffix}.json"), "w",
                          encoding="utf-8") as fh:
                    fh.write(line + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
