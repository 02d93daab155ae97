"""Command-line front end.

Subcommands: prepare, channel, evolve, tomography, reproduce-gad,
channel-dump. Every command is deterministic given its full flag set
(including --seed). Exit codes: 0 success, 2 validation failure, 3 internal
consistency failure or any other unexpected error (one ``internal error:``
line), 4 I/O failure.

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
import dataclasses
import functools
import math
import os
import sys

import numpy as np

from . import circuit as circuit_mod
from . import channels as channels_mod
from . import tomography as tomo_mod
from .errors import InternalConsistencyError, InvalidArgument, KrausloomError
from .qmath import (
    ATOL_ARITHMETIC,
    PSD_TOL_MEASURED,
    _json_chunks,
    _json_text,
    check_residuals,
    density_to_payload,
    fidelity,
    load_json,
    matrix_to_payload,
    partial_trace,
    save_json,
    state_from_payload,
    state_to_payload,
    write_atomic,
)

CONSISTENCY_TOL = 1e-9
# One file per point. A sweep holds a block of points at a time, so only the
# grid's values, 8 bytes a point, grow with it: a million points hold 8 MB.
GRID_MAX_POINTS = 1_000_000


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
        sys.stdout.write(_json_text(payload))


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


# The flag that sets each field of a channel family's parameter record.
_PARAM_FLAGS = {
    "p": "--p", "alpha2_sq": "--alpha2-sq", "q1": "--q1", "q2": "--q2", "q3": "--q3",
    "alpha": "--sgad-alpha", "beta": "--sgad-beta", "mu": "--sgad-mu", "nu": "--sgad-nu",
    "phi": "--sgad-phi", "lam": "--sgad-lambda",
}
_PARAM_DEFAULTS = {"phi": 0.0, "lam": 0.0}


def _channel_family(args):
    _require(args.channel is not None, "--channel is required")
    return channels_mod.FAMILIES[args.channel]


def _channel_params_from_args(args, **given) -> channels_mod.ChannelParams:
    """The record of the --channel family from its flags, a field ``given``
    here taking the place of its flag."""
    family = _channel_family(args)
    values = {f.name: given.get(f.name, getattr(args, f.name)) for f in dataclasses.fields(family)}
    missing = [_PARAM_FLAGS[name] for name, value in values.items() if value is None]
    _require(not missing, f"missing {', '.join(missing)} for the {family.name} channel")
    return family(**values)


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

    max_deviation is the block's deviation: the largest entrywise gap between
    the lattice's and the Kraus set's Choi matrices or their outputs on the
    prepared qubit. ``check_residuals`` checks each block before its payloads:
    a point where the deviation reaches CONSISTENCY_TOL raises
    InternalConsistencyError naming its index.
    """
    for block in blocks:
        # the largest float below the bound, so that reaching it fails, even at 0.0
        check_residuals(block.deviation, np.nextafter(CONSISTENCY_TOL, -np.inf),
                        f"lattice and Kraus channels deviate by {{:.3e}} "
                        f"(tolerance {CONSISTENCY_TOL})",
                        error=InternalConsistencyError, first_index=block.start)
        for i, params in enumerate(block.params):
            yield {
                "command": "channel",
                "channel": channel,
                "params": params,
                "lattice_output": matrix_to_payload(block.lattice[i], (2,)),
                "kraus_output": matrix_to_payload(block.kraus[i], (2,)),
                "max_deviation": float(block.deviation[i]),
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


def _grid_values(spec: str) -> np.ndarray:
    """The values of a start:stop:count grid, ``np.linspace(start, stop, count)``.
    The ends and their span must be finite. Where the span nears the float
    maximum, linspace's last product overflows before it sets the last value
    to stop, so that overflow is not reported."""
    try:
        start, stop, count = spec.split(":")
        start, stop, count = float(start), float(stop), int(count)
        _require(count >= 1, "grid count must be >= 1")
    except ValueError as exc:
        raise KrausloomError(f"bad --grid spec {spec!r}; expected start:stop:count") from exc
    if count > GRID_MAX_POINTS:
        raise InvalidArgument(f"grid count {count} exceeds the limit of {GRID_MAX_POINTS} points")
    if not all(map(math.isfinite, (start, stop, stop - start))):
        raise InvalidArgument(f"grid start {start}, stop {stop} and their span must be finite")
    with np.errstate(over="ignore"):
        return np.linspace(start, stop, count)


def _run_channel_grid(args):
    """Sweep --p over a start:stop:count grid, one output file per point.

    The flags are read once, into the first value's record; every other
    value's is that record with its p replaced, which checks p again. Before
    the output directory is made, the last value's record is built too: the
    values lie between the grid's two ends and the check on p is an interval,
    so a grid whose two ends pass holds no bad value, and a bad end writes
    nothing. The sweep builds each record once as it reads it, a block at a
    time. Nothing held grows with the grid but its values, 8 bytes a point,
    and index.json is streamed from the values. A failing internal check in a
    block stops the sweep there and leaves the files of the earlier blocks.
    """
    _require(args.out is not None, "--grid requires --out pointing at a directory")
    values = _grid_values(args.grid)
    family = _channel_family(args)
    _require("p" in {f.name for f in dataclasses.fields(family)},
             f"--grid sweeps --p; use explicit runs for {family.name}")
    first = _channel_params_from_args(args, p=float(values[0]))
    records = (dataclasses.replace(first, p=float(p)) for p in values)
    blocks = circuit_mod.channel_sweep(records, theta1=args.theta1)  # reads no record yet
    dataclasses.replace(first, p=float(values[-1]))

    def name(idx: int) -> str:
        return f"point_{idx:03d}.{args.format}"

    os.makedirs(args.out, exist_ok=True)
    for idx, payload in enumerate(_channel_payloads(blocks, args.channel)):
        _emit(payload, args.format, os.path.join(args.out, name(idx)))
    # "points" sorts last, so each entry is written as it is made
    entries = ({"index": idx, "p": float(p), "file": name(idx)} for idx, p in enumerate(values))
    write_atomic(os.path.join(args.out, "index.json"), _json_chunks(
        {"command": "channel-grid", "channel": args.channel}, "points", entries))
    sys.stdout.write(f"wrote {len(values)} grid points to {args.out}\n")
    return None


def _read_json(flag: str, path: str):
    """The json in the file ``flag`` names; text that is not json is a bad argument."""
    try:
        return load_json(path)
    except (ValueError, RecursionError) as exc:  # a JSONDecodeError, bytes not UTF-8, deep nesting
        raise KrausloomError(f"{flag} {path} is not valid json: {exc}") from exc


def cmd_evolve(args) -> dict:
    _require(args.circuit is not None, "--circuit is required")
    circ = circuit_mod.circuit_from_payload(_read_json("--circuit", args.circuit))
    if args.state:
        psi = state_from_payload(_read_json("--state", args.state))
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
        # the experimental amplitudes cos/sin theta1 are the half-angle ones at 2 theta1
        experimental = args.convention == "experimental"
        theta1 = circuit_mod._finite_multiple("theta1", args.theta1, 2) if experimental else args.theta1
        joint = circuit_mod.lattice_state(params, theta1=theta1)
    else:
        joint = circuit_mod.prepare_product_state(
            circuit_mod.ProductStateParams(args.theta1, args.theta2, args.convention)
        ).density()
    truth = partial_trace(joint, (0, 1))  # polarization, the last wire, traced out
    records = tomo_mod.simulate_counts(joint, shots, noise=args.noise, seed=args.seed)
    ml = tomo_mod.ml_reconstruct(records)
    # None when a tiny budget left the H/V block, and linear inversion, empty
    linear = ml.linear
    # linear inversion is not PSD by design; its fidelity clips, never rejects
    fid_linear, fid_ml = (None, fidelity(ml.rho, truth)) if linear is None else fidelity(
        [linear, ml.rho], truth, psd_tol=(math.inf, PSD_TOL_MEASURED))
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
        "linear": None if linear is None else density_to_payload(linear),
        "ml": density_to_payload(ml.rho),
        "ml_converged": ml.converged,
        "ml_iterations": ml.iterations,
        "ml_optimality_gap": ml.optimality_gap,
        "fidelity_linear": fid_linear,
        "fidelity_ml": fid_ml,
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
        abs(t - r) < ATOL_ARITHMETIC
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
    sub.add_argument("--channel", choices=tuple(channels_mod.FAMILIES))
    for name, flag in _PARAM_FLAGS.items():
        sub.add_argument(flag, dest=name, type=float, default=_PARAM_DEFAULTS.get(name))


def _add_common_flags(sub):
    sub.add_argument("--out", help="output path (stdout when omitted)")
    sub.add_argument("--format", choices=("json", "csv"), default="json")


class _UsageError(Exception):
    """A parse error and its parser, for main to say where the flag came from."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(self, message)


def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser. A parse error raises _UsageError; main prints it."""
    parser = _Parser(
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
    e.add_argument("--circuit", help="circuit-spec file (required)")
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


@functools.lru_cache(maxsize=1)
def _parser_from(build) -> argparse.ArgumentParser:
    """The process's one parser from ``build``; parse_args does not change it."""
    return build()


def _config_tokens(path: str) -> list[str]:
    """The --config file's flags as command-line tokens: "key": value gives
    --key=value, true gives --key and false nothing. argparse then converts
    and checks them as it does flags typed on the command line."""
    defaults = _read_json("--config", path)
    if not isinstance(defaults, dict):
        raise KrausloomError("--config must hold a json object of flag defaults")
    tokens = []
    for key, value in defaults.items():
        flag = "--" + key.replace("_", "-")
        if isinstance(value, bool):
            tokens += [flag] if value else []
        elif isinstance(value, (str, int, float)):
            tokens.append(f"{flag}={value}")
        else:
            raise KrausloomError(f"--config {path}: {key}: {value!r} is not a flag value")
    return tokens


def _command_index(argv: list[str]) -> int:
    """Position of the subcommand in a parsed argv: the first token that is
    neither a global option (-h, --config=X) nor the value of --config X or of
    an abbreviation argparse accepts for it, such as --conf X."""
    i = 0
    while argv[i].startswith("-"):
        flag = argv[i]
        i += 2 if "=" not in flag and len(flag) > 2 and "--config".startswith(flag) else 1
    return i


def _parse(parser: argparse.ArgumentParser, argv: list[str]) -> argparse.Namespace:
    """Parse argv; with --config, parse again with the file's flags put right
    after the command, so a flag typed on the command line comes later and
    wins. Only the file can fail the second parse."""
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        argparse.ArgumentParser.error(*exc.args)  # usage and message, exit 2
    if not args.config:
        return args
    at = _command_index(argv) + 1
    try:
        return parser.parse_args(argv[:at] + _config_tokens(args.config) + argv[at:])
    except _UsageError as exc:
        raise KrausloomError(f"--config {args.config}: {exc.args[1]}") from None


def main(argv=None) -> int:
    parser = _parser_from(build_parser)
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _parse(parser, argv)
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
    except Exception as exc:  # the exit-code contract holds for every input
        sys.stderr.write(f"internal error: {type(exc).__name__}: {exc}\n")
        return 3
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
