#!/usr/bin/env python3
"""Reconstruction fidelity versus shot budget.

For each shot count, tomographs an ensemble of random pure two-qubit states
with Poisson noise and reports mean/min fidelity for both reconstructors,
plus how the maximum-likelihood runs ended: the share that converged, their
median iteration count and their largest optimality gap per shot. A tiny
budget can leave the H/V block without counts, and linear inversion
undefined; the linear mean is over the other runs ("nan" if there are none).
"""

import argparse
import csv
import io
import sys

import numpy as np

from krausloom.qmath import DensityMatrix, fidelity, write_atomic
from krausloom.tomography import ml_reconstruct, project_to_psd, simulate_counts


def random_pure(rng):
    v = rng.normal(size=4) + 1j * rng.normal(size=4)
    v /= np.linalg.norm(v)
    return DensityMatrix(np.outer(v, v.conj()), (2, 2))


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--shots", type=int, nargs="+", default=[100, 1000, 10000, 100000])
    parser.add_argument("--ensemble", type=int, default=25)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default="tomography_shots.csv")
    args = parser.parse_args()

    rng = np.random.default_rng(args.seed)
    text = io.StringIO()
    writer = csv.writer(text, lineterminator="\n")
    writer.writerow(["shots", "mean_fid_linear", "mean_fid_ml", "min_fid_ml",
                     "ml_converged_share", "median_ml_iterations", "max_ml_gap_per_shot"])
    for shots in args.shots:
        lin_fids, ml_fids, mls = [], [], []
        for k in range(args.ensemble):
            truth = random_pure(rng)
            records = simulate_counts(truth, shots=shots, noise=True, seed=args.seed * 1000 + k)
            ml = ml_reconstruct(records)
            if ml.linear is not None:  # None when the H/V block counted nothing
                lin_fids.append(fidelity(project_to_psd(ml.linear), truth))
            ml_fids.append(fidelity(ml.rho, truth))
            mls.append(ml)
        writer.writerow(
            [
                shots,
                f"{np.mean(lin_fids):.6f}" if lin_fids else "nan",
                f"{np.mean(ml_fids):.6f}",
                f"{np.min(ml_fids):.6f}",
                f"{np.mean([ml.converged for ml in mls]):.6f}",
                f"{np.median([ml.iterations for ml in mls]):g}",
                f"{max(ml.optimality_gap for ml in mls) / shots:.3e}",
            ]
        )
        print(f"shots={shots}: ml mean fidelity {np.mean(ml_fids):.4f}", file=sys.stderr)
    write_atomic(args.out, text.getvalue())
    print(f"wrote {args.out}", file=sys.stderr)


if __name__ == "__main__":
    main()
