"""Command-line front end.

Subcommands: prepare, channel, evolve, tomography, reproduce-gad,
channel-dump. Every command is deterministic given its full flag set
(including --seed). Exit codes: 0 success, 2 validation failure, 3 internal
consistency failure, 4 I/O failure.

File formats
------------
* density matrix / state: {"dims": [...], "re": ..., "im": ...} (row-major,
  full precision)
* circuit spec: {"register": [roles...], "layers": [[{kind, wires, theta,
  phi, lambda, condition}...]...], "stages": [...], "meta": {...}}
* counts: one line per setting, "index,label,counts,total_shots"
* csv output: values rounded to 12 significant digits, for spreadsheets;
  json keeps full precision and round-trips
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import circuit as circuit_mod
from . import channels as channels_mod
from . import tomography as tomo_mod
from .errors import InternalConsistencyError, KrausloomError
from .qmath import (
    density_to_payload,
    fidelity,
    load_json,
    matrix_to_payload,
    save_json,
    state_from_payload,
    state_to_payload,
    write_atomic,
)

CONSISTENCY_TOL = 1e-9


def _sig12(x: float) -> float:
    if x == 0 or not math.isfinite(x):
        return x
    return float(f"{x:.12g}")


def _emit(payload: dict, fmt: str, path: str | None) -> None:
    """Write a payload as json or csv to ``path``, or to stdout when it is None."""
    if fmt == "csv":
        text = "\n".join(_payload_to_csv(payload)) + "\n"
        if path:
            write_atomic(path, text)
        else:
            sys.stdout.write(text)
        return
    if path:
        save_json(payload, path)
    else:
        json.dump(payload, sys.stdout, sort_keys=True, indent=1)
        sys.stdout.write("\n")


def _flatten(prefix: str, value, rows: list[tuple[str, str]]):
    if isinstance(value, dict):
        for k in sorted(value):
            _flatten(f"{prefix}.{k}" if prefix else str(k), value[k], rows)
    elif isinstance(value, (list, tuple)):
        if value and isinstance(value[0], (list, tuple)):
            for i, sub in enumerate(value):
                _flatten(f"{prefix}[{i}]", sub, rows)
        else:
            rows.append(
                (prefix, ";".join(str(_sig12(v) if isinstance(v, float) else v) for v in value))
            )
    elif isinstance(value, float):
        rows.append((prefix, str(_sig12(value))))
    else:
        rows.append((prefix, str(value)))


def _payload_to_csv(payload: dict) -> list[str]:
    rows: list[tuple[str, str]] = []
    _flatten("", payload, rows)
    return ["key,value"] + [f"{k},{v}" for k, v in rows]


def _channel_params_from_args(args) -> channels_mod.ChannelParams:
    kind = args.channel
    if kind == "dephasing":
        _require(args.p is not None, "--p is required for the dephasing channel")
        return channels_mod.DephasingParams(args.p)
    if kind == "gad":
        _require(args.p is not None, "--p is required for the gad channel")
        _require(args.alpha2_sq is not None, "--alpha2-sq is required for the gad channel")
        return channels_mod.GADParams(args.p, args.alpha2_sq)
    if kind == "sgad":
        missing = [
            f"--sgad-{n}" for n in ("alpha", "beta", "mu", "nu")
            if getattr(args, f"sgad_{n}") is None
        ]
        _require(not missing, f"missing {', '.join(missing)} for the sgad channel")
        _require(args.alpha2_sq is not None, "--alpha2-sq is required for the sgad channel")
        return channels_mod.SGADParams(
            args.sgad_alpha, args.sgad_beta, args.sgad_mu, args.sgad_nu,
            args.sgad_phi, args.sgad_lambda, args.alpha2_sq,
        )
    if kind == "pauli":
        _require(args.p is not None, "--p is required for the pauli channel")
        missing = [f"--q{i}" for i in (1, 2, 3) if getattr(args, f"q{i}") is None]
        _require(not missing, f"missing {', '.join(missing)} for the pauli channel")
        return channels_mod.PauliParams(args.p, args.q1, args.q2, args.q3)
    raise KrausloomError(f"unknown channel {kind!r}")


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise KrausloomError(message)


def cmd_prepare(args) -> dict:
    params = circuit_mod.ProductStateParams(args.theta1, args.theta2, args.convention)
    psi = circuit_mod.prepare_product_state(params)
    joint = circuit_mod.traced_joint_state(psi)
    return {
        "command": "prepare",
        "theta1": args.theta1,
        "theta2": args.theta2,
        "convention": args.convention,
        "state": state_to_payload(psi),
        "traced_joint": density_to_payload(joint),
    }


def _channel_payloads(blocks, channel: str):
    """Each point's channel payload, in order, from the blocks of a channel_sweep.

    A point whose lattice and Kraus outputs disagree raises
    InternalConsistencyError naming its index.
    """
    for block in blocks:
        for i, params in enumerate(block.params):
            deviation = float(block.deviation[i])
            if deviation >= CONSISTENCY_TOL:
                raise InternalConsistencyError(
                    f"point {block.start + i}: lattice and Kraus outputs deviate by "
                    f"{deviation:.3e} (tolerance {CONSISTENCY_TOL})"
                )
            yield {
                "command": "channel",
                "channel": channel,
                "params": params,
                "lattice_output": matrix_to_payload(block.lattice[i], (2,)),
                "kraus_output": matrix_to_payload(block.kraus[i], (2,)),
                "max_deviation": deviation,
                "kraus_labels": list(block.labels),
            }


def _run_channel_point(params, args) -> dict:
    blocks = circuit_mod.channel_sweep([params], theta1=args.theta1)
    return next(_channel_payloads(blocks, args.channel))


def cmd_channel(args) -> dict | None:
    if args.grid:
        return _run_channel_grid(args)
    params = _channel_params_from_args(args)
    return _run_channel_point(params, args)


def _run_channel_grid(args):
    """Sweep --p over a start:stop:count grid, one output file per point.

    Every grid value is validated before the first file is written.
    """
    _require(args.out is not None, "--grid requires --out pointing at a directory")
    _require(args.channel != "sgad", "--grid sweeps --p; use explicit runs for sgad")
    try:
        start, stop, count = args.grid.split(":")
        start, stop, count = float(start), float(stop), int(count)
        _require(count >= 1, "grid count must be >= 1")
    except ValueError as exc:
        raise KrausloomError(f"bad --grid spec {args.grid!r}; expected start:stop:count") from exc
    values = np.linspace(start, stop, count)
    local = argparse.Namespace(**vars(args))
    points = []
    for p in values:
        local.p = float(p)
        points.append(_channel_params_from_args(local))
    blocks = circuit_mod.channel_sweep(points, theta1=args.theta1)

    os.makedirs(args.out, exist_ok=True)
    index = []
    for idx, payload in enumerate(_channel_payloads(blocks, args.channel)):
        name = f"point_{idx:03d}.{args.format}"
        _emit(payload, args.format, os.path.join(args.out, name))
        index.append({"index": idx, "p": float(values[idx]), "file": name})
    save_json({"command": "channel-grid", "channel": args.channel, "points": index},
              os.path.join(args.out, "index.json"))
    sys.stdout.write(f"wrote {count} grid points to {args.out}\n")
    return None


def cmd_evolve(args) -> dict:
    circ = circuit_mod.circuit_from_payload(load_json(args.circuit))
    if args.state:
        psi = state_from_payload(load_json(args.state))
    else:
        psi = circuit_mod.initial_state(circ)
    out = circuit_mod.evolve(psi, circ, args.through_stage)
    return {
        "command": "evolve",
        "through_stage": args.through_stage,
        "state": state_to_payload(out),
    }


def cmd_tomography(args) -> dict:
    _require(args.shots is not None or not args.noise, "--shots is required with --noise")
    shots = args.shots if args.shots is not None else 10**12
    if args.channel:
        params = _channel_params_from_args(args)
        _require(
            not isinstance(params, channels_mod.PauliParams),
            "tomography covers the two-qubit lattices; pauli uses a 4-level reservoir",
        )
        lattice = circuit_mod.build_channel_lattice(params, theta1=args.theta1)
        psi = circuit_mod.evolve(circuit_mod.initial_state(lattice), lattice)
    else:
        psi = circuit_mod.prepare_product_state(
            circuit_mod.ProductStateParams(args.theta1, args.theta2, args.convention)
        )
    truth = tomo_mod.traced_truth(psi)
    records = tomo_mod.simulate_counts(psi.density(), shots, noise=args.noise, seed=args.seed)
    linear = tomo_mod.linear_reconstruct(records)
    ml = tomo_mod.ml_reconstruct(records)
    payload = {
        "command": "tomography",
        "shots": shots,
        "noise": bool(args.noise),
        "seed": args.seed,
        "counts": [
            {"index": r.setting_index, "label": r.label, "counts": r.counts,
             "total_shots": r.total_shots}
            for r in records
        ],
        "truth": density_to_payload(truth),
        "linear": density_to_payload(linear),
        "ml": density_to_payload(ml.rho),
        "ml_converged": ml.converged,
        "ml_iterations": ml.iterations,
        "fidelity_linear": tomo_mod.fidelity_to_truth(linear, truth),
        "fidelity_ml": tomo_mod.fidelity_to_truth(ml.rho, truth),
    }
    if args.counts_out:
        tomo_mod.save_counts(records, args.counts_out)
        payload["counts_file"] = args.counts_out
    return payload


def cmd_reproduce_gad(args) -> dict:
    theory = circuit_mod.gad_experiment(args.theta1, args.theta2, args.theta3)
    f = fidelity(theory, circuit_mod.REFERENCE_GAD_MATRIX)
    lo, hi = circuit_mod.REFERENCE_GAD_FIDELITY_BAND
    at_reference = all(
        abs(t - r) < 1e-12
        for t, r in zip((args.theta1, args.theta2, args.theta3), circuit_mod.REFERENCE_GAD_ANGLES)
    )
    payload = {
        "command": "reproduce-gad",
        "theta1": args.theta1,
        "theta2": args.theta2,
        "theta3": args.theta3,
        "fidelity": f,
        "band": [lo, hi],
        "passed": bool(lo <= f <= hi) if at_reference else None,
        "theory": density_to_payload(theory),
    }
    if args.emit_theory:
        save_json({"command": "reproduce-gad-theory", "matrix": density_to_payload(theory)},
                  args.emit_theory)
        payload["theory_file"] = args.emit_theory
    verdict = "PASS" if payload["passed"] else ("FAIL" if payload["passed"] is False else "n/a")
    sys.stderr.write(f"fidelity {f:.4f} against reference, band [{lo}, {hi}]: {verdict}\n")
    return payload


def cmd_channel_dump(args) -> dict:
    params = _channel_params_from_args(args)
    kset = channels_mod.channel_kraus(params)
    return {
        "command": "channel-dump",
        "channel": args.channel,
        "completeness_residual": channels_mod.completeness_residual(kset),
        "kraus": channels_mod.kraus_set_to_payload(kset),
    }


def _add_channel_flags(sub):
    sub.add_argument("--channel", choices=("dephasing", "gad", "sgad", "pauli"))
    sub.add_argument("--p", type=float)
    sub.add_argument("--alpha2-sq", dest="alpha2_sq", type=float)
    for i in (1, 2, 3):
        sub.add_argument(f"--q{i}", type=float)
    for name in ("alpha", "beta", "mu", "nu"):
        sub.add_argument(f"--sgad-{name}", dest=f"sgad_{name}", type=float)
    sub.add_argument("--sgad-phi", dest="sgad_phi", type=float, default=0.0)
    sub.add_argument("--sgad-lambda", dest="sgad_lambda", type=float, default=0.0)


def _add_common_flags(sub):
    sub.add_argument("--out", help="output path (stdout when omitted)")
    sub.add_argument("--format", choices=("json", "csv"), default="json")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="krausloom",
        description="Simulate path-encoded interferometer lattices, qubit channels and tomography.",
    )
    parser.add_argument("--config", help="json file of default flag values (flags win)")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("prepare", help="build the system-environment product state")
    p.add_argument("--theta1", type=float, default=math.pi / 2)
    p.add_argument("--theta2", type=float, default=0.0)
    p.add_argument("--convention", choices=("half-angle", "experimental"), default="half-angle")
    _add_common_flags(p)
    p.set_defaults(func=cmd_prepare)

    c = subs.add_parser("channel", help="run a channel through lattice and Kraus paths")
    _add_channel_flags(c)
    c.add_argument("--theta1", type=float, default=math.pi / 2,
                   help="system preparation angle (half-angle convention)")
    c.add_argument("--grid", help="sweep --p over start:stop:count, writing one file per point")
    _add_common_flags(c)
    c.set_defaults(func=cmd_channel)

    e = subs.add_parser("evolve", help="apply a circuit-spec file to a state file")
    e.add_argument("--circuit", required=True)
    e.add_argument("--state", help="input state file (default: photon in first mode)")
    e.add_argument("--through-stage", dest="through_stage",
                   choices=circuit_mod.STAGES, default=None)
    _add_common_flags(e)
    e.set_defaults(func=cmd_evolve)

    t = subs.add_parser("tomography", help="simulate counts and reconstruct")
    _add_channel_flags(t)
    t.add_argument("--theta1", type=float, default=math.pi / 2)
    t.add_argument("--theta2", type=float, default=0.0)
    t.add_argument("--convention", choices=("half-angle", "experimental"), default="half-angle")
    t.add_argument("--shots", type=int, default=None)
    t.add_argument("--noise", action="store_true")
    t.add_argument("--seed", type=int, default=0)
    t.add_argument("--counts-out", dest="counts_out", help="write the counts file here")
    _add_common_flags(t)
    t.set_defaults(func=cmd_tomography)

    r = subs.add_parser("reproduce-gad", help="compare the two-layer run against its reference")
    r.add_argument("--theta1", type=float, default=circuit_mod.REFERENCE_GAD_ANGLES[0])
    r.add_argument("--theta2", type=float, default=circuit_mod.REFERENCE_GAD_ANGLES[1])
    r.add_argument("--theta3", type=float, default=circuit_mod.REFERENCE_GAD_ANGLES[2])
    r.add_argument("--emit-theory", dest="emit_theory", help="write the ideal matrix to this file")
    _add_common_flags(r)
    r.set_defaults(func=cmd_reproduce_gad)

    d = subs.add_parser("channel-dump", help="print a constructed Kraus set")
    _add_channel_flags(d)
    _add_common_flags(d)
    d.set_defaults(func=cmd_channel_dump)

    return parser


def _apply_config(args, argv) -> None:
    """Fill defaults from --config; explicit flags win."""
    if not args.config:
        return
    defaults = load_json(args.config)
    if not isinstance(defaults, dict):
        raise KrausloomError("--config must hold a json object of flag defaults")
    argv_flags = {a.split("=")[0].lstrip("-").replace("-", "_") for a in argv if a.startswith("--")}
    for key, value in defaults.items():
        attr = key.replace("-", "_")
        if hasattr(args, attr) and attr not in argv_flags:
            setattr(args, attr, value)


def main(argv=None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = parser.parse_args(argv)
        _apply_config(args, argv)
        if getattr(args, "channel", None) is None and args.command in ("channel", "channel-dump"):
            raise KrausloomError("--channel is required")
        payload = args.func(args)
        if payload is not None:
            _emit(payload, args.format, args.out)
    except InternalConsistencyError as exc:
        sys.stderr.write(f"internal consistency failure: {exc}\n")
        return 3
    except KrausloomError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except OSError as exc:
        sys.stderr.write(f"i/o error: {exc}\n")
        return 4
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
