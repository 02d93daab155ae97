"""The three workloads: seeded op lists and the checks each op's output must pass.

An op is one ``krausloom`` command line. A workload turns a seed into a
fixed cycle of ops; a run repeats whole cycles. The first op of every cycle
costs the same whatever the seed, because the set-up measurement runs it in
a fresh interpreter.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass, field

import numpy as np

import oracle

TOL = 1e-9  # the program's own lattice/Kraus consistency tolerance
FIDELITY_TOL = 1e-6  # two Uhlmann algorithms agree to this near rank-deficient states
REFERENCE_ANGLES = (math.pi / 8, math.pi / 8, math.pi / 8)
REFERENCE_BAND = (0.92, 0.98)
SHOT_BUDGETS = (1000, 10000, 100000)
GRID_POINTS = 1001
# The input on which ML reconstruction stops after one iteration, short of
# the linear estimate's fidelity; every tomography cycle keeps it.
STALLED_ARGV = ("--theta1", "1.0", "--theta2", "0", "--shots", "10000", "--seed", "3")


@dataclass(frozen=True)
class Op:
    argv: tuple[str, ...]
    kind: str  # channel family, "reproduce-gad", "product-pure/mixed" or "sweep:<family>"
    params: dict = field(default_factory=dict)
    shots: int = 0
    points: int = 1


def _f(x: float) -> str:
    return repr(float(x))


def _channel_params(rng: random.Random, family: str) -> dict:
    u = rng.random
    if family == "dephasing":
        return {"p": u()}
    if family == "gad":
        return {"p": u(), "alpha2_sq": u()}
    if family == "sgad":
        return {"alpha": u(), "beta": u(), "mu": u(), "nu": u(), "phi": 2 * math.pi * u(),
                "lam": 2 * math.pi * u(), "alpha2_sq": u()}
    if family == "pauli":
        lo, hi = sorted((u(), u()))
        return {"p": u(), "q1": lo, "q2": hi - lo, "q3": 1.0 - hi}
    raise ValueError(family)


_FLAG = {"p": "--p", "alpha2_sq": "--alpha2-sq", "q1": "--q1", "q2": "--q2", "q3": "--q3",
         "alpha": "--sgad-alpha", "beta": "--sgad-beta", "mu": "--sgad-mu", "nu": "--sgad-nu",
         "phi": "--sgad-phi", "lam": "--sgad-lambda", "theta1": "--theta1", "theta2": "--theta2"}


def _flags(params: dict) -> list[str]:
    out = []
    for key, value in params.items():
        out += [_FLAG[key], _f(value)]
    return out


# -- channel-sweep ------------------------------------------------------------


SWEEPS_PER_FAMILY = 2


def sweep_cycle(rng: random.Random, out_dir: str) -> list[Op]:
    ops = []
    for family in ("dephasing", "gad", "pauli") * SWEEPS_PER_FAMILY:
        params = {} if family == "dephasing" else _channel_params(rng, family)
        params.pop("p", None)
        params["theta1"] = math.pi * rng.random()
        argv = ["channel", "--channel", family, "--grid", f"0:1:{GRID_POINTS}", "--out", out_dir]
        ops.append(Op(tuple(argv + _flags(params)), "sweep:" + family, params,
                      points=GRID_POINTS))
    return ops


def check_sweep(op: Op, stdout: str) -> list[str]:
    family = op.kind.split(":", 1)[1]
    out_dir = op.argv[op.argv.index("--out") + 1]
    errors = []
    if stdout.strip() != f"wrote {GRID_POINTS} grid points to {out_dir}":
        errors.append(f"unexpected sweep stdout {stdout.strip()[:80]!r}")
    names = set(os.listdir(out_dir))
    expected = {f"point_{i:03d}.json" for i in range(GRID_POINTS)} | {"index.json"}
    if names != expected:
        return errors + [f"sweep wrote {len(names)} files, expected {len(expected)}"]
    with open(os.path.join(out_dir, "index.json"), encoding="utf-8") as fh:
        index = json.load(fh)
    grid = np.linspace(0.0, 1.0, GRID_POINTS)
    entries = index.get("points", [])
    if index.get("channel") != family or len(entries) != GRID_POINTS:
        return errors + ["sweep index does not list every point of the family"]
    for i, entry in enumerate(entries):
        if entry["index"] != i or entry["p"] != float(grid[i]):
            errors.append(f"index entry {i} names p={entry['p']!r}, grid has {grid[i]!r}")
            break
        with open(os.path.join(out_dir, entry["file"]), encoding="utf-8") as fh:
            payload = json.load(fh)
        params = dict(op.params, p=float(grid[i]))
        errs = check_channel_payload(payload, family, params)
        if errs:
            errors.append(f"point {i}: {errs[0]}")
            break
    return errors


# -- channel-point ------------------------------------------------------------

POINT_FAMILIES = ("dephasing", "gad", "sgad", "pauli")
POINTS_PER_FAMILY = 9
SEEDED_REPRODUCE = 3


def point_cycle(rng: random.Random) -> list[Op]:
    rest = []
    for family in POINT_FAMILIES:
        for _ in range(POINTS_PER_FAMILY):
            params = _channel_params(rng, family)
            params["theta1"] = math.pi * rng.random()
            argv = ["channel", "--channel", family] + _flags(params)
            rest.append(Op(tuple(argv), family, params))
    for _ in range(SEEDED_REPRODUCE):
        angles = [0.5 * math.pi * rng.random() for _ in range(3)]
        argv = ["reproduce-gad"] + [a for i, t in enumerate(angles, 1) for a in (f"--theta{i}", _f(t))]
        rest.append(Op(tuple(argv), "reproduce-gad", {"angles": tuple(angles)}))
    rng.shuffle(rest)
    first = Op(("reproduce-gad",), "reproduce-gad", {"angles": REFERENCE_ANGLES})
    return [first] + rest


def check_channel_payload(payload: dict, family: str, params: dict) -> list[str]:
    if payload.get("command") != "channel" or payload.get("channel") != family:
        return ["payload is not a channel result for " + family]
    expected = oracle.channel_output(family, params, params["theta1"])
    errors = []
    for key in ("lattice_output", "kraus_output"):
        m = oracle.matrix_from_payload(payload[key])
        gap = float(np.max(np.abs(m - expected)))
        if gap > TOL:
            errors.append(f"{key} is {gap:.2e} from the closed-form {family} output")
        res = oracle.physical_residual(m)
        if res > TOL:
            errors.append(f"{key} is not a density matrix (residual {res:.2e})")
    if not payload.get("max_deviation", 1.0) < TOL:
        errors.append(f"max_deviation {payload.get('max_deviation')!r} is not below {TOL}")
    return errors


def check_reproduce(op: Op, payload: dict, reference: np.ndarray) -> list[str]:
    angles = op.params["angles"]
    theory = oracle.matrix_from_payload(payload["theory"])
    errors = []
    gap = float(np.max(np.abs(oracle.keep_first(theory) - oracle.reference_gad_marginal(*angles))))
    if gap > TOL:
        errors.append(f"system marginal is {gap:.2e} from the closed-form GAD")
    if oracle.physical_residual(theory) > TOL:
        errors.append("theory matrix is not a density matrix")
    own = oracle.fidelity(theory, reference)
    if abs(own - payload["fidelity"]) > FIDELITY_TOL:
        errors.append(f"fidelity {payload['fidelity']!r} differs from the oracle's {own!r}")
    if angles == REFERENCE_ANGLES:
        lo, hi = REFERENCE_BAND
        if not (lo <= payload["fidelity"] <= hi) or payload.get("passed") is not True:
            errors.append(f"reference fidelity {payload['fidelity']!r} outside [{lo}, {hi}]")
    return errors


def check_point(op: Op, stdout: str, reference: np.ndarray) -> list[str]:
    payload = json.loads(stdout)
    if op.kind == "reproduce-gad":
        return check_reproduce(op, payload, reference)
    return check_channel_payload(payload, op.kind, op.params)


# -- tomography ---------------------------------------------------------------

TOMO_KINDS = ("dephasing", "gad", "sgad", "product-pure", "product-mixed")
TOMO_REPEATS = 33  # inputs per (kind, shot budget) in one cycle


def tomography_cycle(rng: random.Random) -> list[Op]:
    rest = []
    for kind in TOMO_KINDS:
        for shots in SHOT_BUDGETS:
            for _ in range(TOMO_REPEATS):
                if kind.startswith("product"):
                    theta2 = 0.0 if kind == "product-pure" else math.pi * rng.random()
                    params = {"theta1": math.pi * rng.random(), "theta2": theta2}
                    argv = ["tomography"] + _flags(params)
                else:
                    params = _channel_params(rng, kind)
                    params["theta1"] = math.pi * rng.random()
                    argv = ["tomography", "--channel", kind] + _flags(params)
                argv += ["--noise", "--shots", str(shots), "--seed", str(rng.randrange(2**31))]
                rest.append(Op(tuple(argv), kind, params, shots=shots))
    rng.shuffle(rest)
    first = Op(("tomography", "--noise") + STALLED_ARGV, "product-pure",
               {"theta1": 1.0, "theta2": 0.0}, shots=10000)
    return [first] + rest


def ll_tolerance(shots: int) -> float:
    """Slack for the ML-versus-linear likelihood check: the ML start point mixes
    in 1e-9 of the identity, which can cost up to 4e-9 * shots of likelihood."""
    return 1e-8 * shots + 1e-6


def check_tomography(op: Op, stdout: str) -> list[str]:
    payload = json.loads(stdout)
    errors = []
    counts = payload["counts"]
    labels = {rec["label"] for rec in counts}
    if len(counts) != 16 or len(labels) != 16 or any(
        rec["total_shots"] != op.shots or rec["counts"] < 0 for rec in counts
    ):
        errors.append("count table is not 16 distinct settings at the requested budget")
    truth = oracle.matrix_from_payload(payload["truth"])
    if op.kind.startswith("product"):
        c2 = math.cos(op.params["theta2"] / 2.0) ** 2
        expected = np.kron(oracle.prepared_qubit(op.params["theta1"]), np.diag([c2, 1.0 - c2]))
        gap = float(np.max(np.abs(truth - expected)))
    else:
        expected = oracle.channel_output(op.kind, op.params, op.params["theta1"])
        gap = float(np.max(np.abs(oracle.keep_first(truth) - expected)))
    if gap > TOL:
        errors.append(f"truth is {gap:.2e} from the closed-form state")
    ml = oracle.matrix_from_payload(payload["ml"])
    linear = oracle.matrix_from_payload(payload["linear"])
    if oracle.physical_residual(ml) > TOL:
        errors.append("ML estimate is not a density matrix")
    for key, est in (("fidelity_ml", ml), ("fidelity_linear", linear)):
        own = oracle.fidelity(est, truth)
        if abs(own - payload[key]) > FIDELITY_TOL:
            errors.append(f"{key} {payload[key]!r} differs from the oracle's {own!r}")
    ll_ml = oracle.poisson_log_likelihood(ml, counts)
    ll_lin = oracle.poisson_log_likelihood(oracle.clipped(linear), counts)
    if ll_ml < ll_lin - ll_tolerance(op.shots):
        errors.append(f"ML log-likelihood {ll_ml:.6f} is below the clipped linear {ll_lin:.6f}")
    return errors
