#!/usr/bin/env python3
"""Sweep the channel parameter for each lattice and record what decays.

Writes one CSV row per (channel, p): surviving system coherence |rho_01|,
ground population, and the lattice/Kraus cross-check. That column is the
whole-channel gap: the largest entrywise difference between the lattice's
and the Kraus set's Choi matrices, or between their outputs on the prepared
qubit. Handy for plotting decay curves against the closed-form expectations.
"""

import argparse
import csv
import io
import math
import sys

import numpy as np

from krausloom.channels import DephasingParams, GADParams, PauliParams, SGADParams
from krausloom.circuit import channel_sweep
from krausloom.qmath import write_atomic


def families(n_points):
    ts = np.linspace(0.0, 1.0, n_points)
    yield "dephasing", ts, [DephasingParams(t) for t in ts]
    yield "gad", ts, [GADParams(t, 0.75) for t in ts]
    yield "sgad", ts, [SGADParams(0.3 * t, t, 0.8 * t, 0.1 * t, 0.5, 1.1, 0.75) for t in ts]
    yield "pauli", ts, [PauliParams(t, 1 / 3, 1 / 3, 1 / 3) for t in ts]


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--points", type=int, default=21)
    parser.add_argument("--theta1", type=float, default=math.pi / 2,
                        help="system preparation angle (half-angle convention)")
    parser.add_argument("--out", default="channel_decay.csv")
    args = parser.parse_args()

    text = io.StringIO()
    writer = csv.writer(text, lineterminator="\n")
    writer.writerow(["channel", "p", "coherence", "ground_population", "cross_check"])
    for name, ts, points in families(args.points):
        for block in channel_sweep(points, theta1=args.theta1):
            for t, rho, dev in zip(ts[block.start:], block.lattice, block.deviation):
                writer.writerow(
                    [
                        name,
                        f"{t:.6f}",
                        f"{abs(rho[0, 1]):.12g}",
                        f"{rho[0, 0].real:.12g}",
                        f"{dev:.3e}",
                    ]
                )
    write_atomic(args.out, text.getvalue())
    print(f"wrote {args.out}", file=sys.stderr)


if __name__ == "__main__":
    main()
