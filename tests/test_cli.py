import dataclasses
import json
import math
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from krausloom import circuit as circuit_mod
from krausloom.cli import GRID_MAX_POINTS, _grid_values, main
from krausloom.qmath import DensityMatrix, load_json


def run(*argv):
    return main(list(argv))


def density_from_payload(payload, **tol_kwargs):
    """The density matrix a command wrote as a payload; no command reads one back."""
    matrix = np.array(payload["re"]) + 1j * np.array(payload["im"])
    return DensityMatrix(matrix, payload["dims"], **tol_kwargs)


class TestPrepare:
    def test_writes_product_state(self, tmp_path):
        out = tmp_path / "prep.json"
        assert run("prepare", "--theta1", "0", "--theta2", "0", "--out", str(out)) == 0
        payload = load_json(str(out))
        assert payload["state"]["re"][0] == 1.0
        assert sum(abs(x) for x in payload["state"]["re"][1:]) == 0.0

    def test_half_angle_offdiagonal(self, tmp_path, capsys):
        assert run("prepare", "--theta1", "1.5707963", "--theta2", "0") == 0
        payload = json.loads(capsys.readouterr().out)
        joint = density_from_payload(payload["traced_joint"])
        assert joint.matrix[0, 2].real == pytest.approx(0.5, abs=1e-6)

    def test_small_angle_keeps_its_coherence(self, capsys):
        # sin(theta1 / 2) = 5e-9 survives; an arccos of cos(theta1 / 2) rounds it to 0
        assert run("prepare", "--theta1", "1e-8", "--theta2", "0") == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["traced_joint"]["re"][0][2] == pytest.approx(5e-9, rel=1e-12)

    def test_malformed_angle_exits_2_without_output(self, tmp_path):
        out = tmp_path / "never.json"
        assert run("prepare", "--theta1", "nan", "--out", str(out)) == 2
        assert not out.exists()


class TestChannel:
    def test_dephasing_kills_coherence_both_paths(self, tmp_path, capsys):
        assert run("channel", "--channel", "dephasing", "--p", "1.0",
                   "--theta1", "1.5707963267948966") == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["max_deviation"] < 1e-9
        for key in ("lattice_output", "kraus_output"):
            rho = density_from_payload(payload[key], eig_atol=None)
            assert abs(rho.matrix[0, 1]) < 1e-12

    def test_gad_thermal_fixed_point(self, capsys):
        assert run("channel", "--channel", "gad", "--p", "1.0", "--alpha2-sq", "0.8") == 0
        payload = json.loads(capsys.readouterr().out)
        rho = density_from_payload(payload["kraus_output"])
        np.testing.assert_allclose(rho.matrix, np.diag([0.8, 0.2]), atol=1e-12)

    def test_sgad_reduction_matches_gad(self, capsys):
        assert run("channel", "--channel", "sgad", "--sgad-alpha", "0", "--sgad-beta", "0.4",
                   "--sgad-mu", "0.4", "--sgad-nu", "0", "--alpha2-sq", "0.7") == 0
        sgad = json.loads(capsys.readouterr().out)
        assert run("channel", "--channel", "gad", "--p", "0.4", "--alpha2-sq", "0.7") == 0
        gad = json.loads(capsys.readouterr().out)
        a = density_from_payload(sgad["lattice_output"], eig_atol=None)
        b = density_from_payload(gad["lattice_output"], eig_atol=None)
        np.testing.assert_allclose(a.matrix, b.matrix, atol=1e-10)

    def test_missing_channel_flag(self):
        assert run("channel", "--p", "0.5") == 2

    def test_out_of_range_parameter(self):
        assert run("channel", "--channel", "dephasing", "--p", "1.5") == 2

    def test_pauli_channel_runs_both_paths(self, capsys):
        assert run("channel", "--channel", "pauli", "--p", "0.6",
                   "--q1", "0.5", "--q2", "0.3", "--q3", "0.2") == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["max_deviation"] < 1e-9

    def test_internal_consistency_failure_exits_3(self, monkeypatch):
        from krausloom import cli
        from krausloom.errors import InternalConsistencyError

        def broken(params, args):
            raise InternalConsistencyError("paths disagree")

        monkeypatch.setattr(cli, "_run_channel_point", broken)
        assert run("channel", "--channel", "dephasing", "--p", "0.5") == 3

    def test_grid_sweep(self, tmp_path):
        out = tmp_path / "sweep"
        assert run("channel", "--channel", "dephasing", "--grid", "0:1:5",
                   "--out", str(out)) == 0
        index = load_json(str(out / "index.json"))
        assert len(index["points"]) == 5
        for point in index["points"]:
            payload = load_json(str(out / point["file"]))
            assert payload["max_deviation"] < 1e-9

    @pytest.mark.parametrize("grid", ["0:1:1", "0.1:0.9:1001"])
    def test_grid_index_values_are_linspace(self, tmp_path, grid):
        out = tmp_path / "sweep"
        assert run("channel", "--channel", "pauli", "--q1", "0.2", "--q2", "0.3", "--q3", "0.5",
                   "--grid", grid, "--out", str(out)) == 0
        start, stop, count = grid.split(":")
        values = np.linspace(float(start), float(stop), int(count))
        points = load_json(str(out / "index.json"))["points"]
        assert [e["p"] for e in points] == [float(v) for v in values]
        assert [e["file"] for e in points] == [f"point_{i:03d}.json" for i in range(int(count))]
        assert sorted(p.name for p in out.iterdir()) == sorted(
            ["index.json"] + [e["file"] for e in points])
        last = load_json(str(out / points[-1]["file"]))
        assert last["params"]["p"] == points[-1]["p"]

    def test_grid_csv_writes_csv_points(self, tmp_path, capsys):
        out = tmp_path / "sweep"
        assert run("channel", "--channel", "gad", "--alpha2-sq", "0.75", "--grid", "0:1:3",
                   "--out", str(out), "--format", "csv") == 0
        names = sorted(p.name for p in out.iterdir())
        assert names == ["index.json", "point_000.csv", "point_001.csv", "point_002.csv"]
        index = load_json(str(out / "index.json"))
        assert [e["file"] for e in index["points"]] == names[1:]
        # each point file is what `channel --format csv` prints for that point
        capsys.readouterr()
        assert run("channel", "--channel", "gad", "--alpha2-sq", "0.75", "--p", "0.5",
                   "--format", "csv") == 0
        assert (out / "point_001.csv").read_text() == capsys.readouterr().out

    @pytest.mark.parametrize("flags", [
        ("--channel", "dephasing", "--theta1", "0.9"),
        ("--channel", "gad", "--alpha2-sq", "0.75"),
        ("--channel", "pauli", "--q1", "0.2", "--q2", "0.3", "--q3", "0.5", "--theta1", "2.3"),
    ], ids=["dephasing", "gad", "pauli"])
    def test_grid_points_are_the_single_point_runs(self, tmp_path, capsys, flags):
        # the grid spans three blocks, the last of one point
        out = tmp_path / "sweep"
        count = 2 * circuit_mod.BLOCK_SIZE + 1
        assert run("channel", *flags, "--grid", f"0:1:{count}", "--out", str(out)) == 0
        capsys.readouterr()
        for entry in load_json(str(out / "index.json"))["points"]:
            assert run("channel", *flags, "--p", repr(entry["p"])) == 0
            assert (out / entry["file"]).read_bytes() == capsys.readouterr().out.encode(), entry

    def test_bad_grid_value_writes_nothing(self, tmp_path):
        out = tmp_path / "sweep"
        assert run("channel", "--channel", "dephasing", "--grid=-0.5:1:5",
                   "--out", str(out)) == 2
        assert not out.exists()

    def test_a_bad_value_in_the_last_block_writes_nothing(self, tmp_path, capsys):
        # only points 128 and 129, in the last block, exceed 1; the last grid value's record is
        # built before any file, and the grid's values lie between its two ends
        out = tmp_path / "sweep"
        assert run("channel", "--channel", "dephasing", "--grid=0:1.01:130", "--out", str(out)) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("spec, end", [("0:1.01:130", "1.01"),
                                           ("0:1.7976931348623157e308:4", "1.7976931348623157e+308")])
    def test_a_bad_grid_is_named_by_its_end(self, tmp_path, capsys, spec, end):
        # linspace's last product overflowed on the second, with a RuntimeWarning on stderr
        out = tmp_path / "sweep"
        assert run("channel", "--channel", "dephasing", f"--grid={spec}", "--out", str(out)) == 2
        assert capsys.readouterr().err == f"error: p must lie in [0, 1], got {end}\n"
        assert not out.exists()

    # 130 points span three blocks; index.json is streamed one entry at a time
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_streamed_index_is_json_dumps_text(self, tmp_path, fmt):
        out = tmp_path / "sweep"
        assert run("channel", "--channel", "gad", "--alpha2-sq", "0.75", "--grid", "0:1:130",
                   "--out", str(out), "--format", fmt) == 0
        index = {"command": "channel-grid", "channel": "gad", "points": [
            {"index": i, "p": float(p), "file": f"point_{i:03d}.{fmt}"}
            for i, p in enumerate(np.linspace(0.0, 1.0, 130))]}
        want = json.dumps(index, sort_keys=True, indent=1) + "\n"
        assert (out / "index.json").read_bytes() == want.encode()

    def test_an_index_failing_mid_stream_leaves_no_index(self, tmp_path, monkeypatch, capsys):
        from krausloom import cli

        chunks = cli._json_chunks

        def failing(*args):
            for i, chunk in enumerate(chunks(*args)):
                if i == 70:
                    raise OSError(28, "No space left on device")
                yield chunk

        monkeypatch.setattr(cli, "_json_chunks", failing)
        out = tmp_path / "sweep"
        assert run("channel", "--channel", "dephasing", "--grid", "0:1:130", "--out", str(out)) == 4
        assert capsys.readouterr().err.startswith("i/o error: ")
        names = sorted(p.name for p in out.iterdir())
        assert names == [f"point_{i:03d}.json" for i in range(130)]

    def test_a_mismatch_in_the_last_block_stops_it_before_its_files(
            self, tmp_path, monkeypatch, capsys):
        sweep = circuit_mod.channel_sweep

        def off_at_point_129(points, **kwargs):
            for block in sweep(points, **kwargs):
                if block.start + len(block.params) > 129:
                    deviation = block.deviation.copy()
                    deviation[129 - block.start] = 1.0
                    block = dataclasses.replace(block, deviation=deviation)
                yield block

        monkeypatch.setattr(circuit_mod, "channel_sweep", off_at_point_129)
        out = tmp_path / "sweep"
        assert run("channel", "--channel", "dephasing", "--grid", "0:1:130", "--out", str(out)) == 3
        err = capsys.readouterr().err
        assert err.startswith("internal consistency failure: point 129: lattice and Kraus ")
        names = sorted(p.name for p in out.iterdir())
        assert names == [f"point_{i:03d}.json" for i in range(2 * circuit_mod.BLOCK_SIZE)]

    # -phi and -lam - pi were reduced by the rounded 2pi, which drifts about
    # 2e-18 |phi| from the Kraus operators' exp(-1j phi): at 1e15 the two
    # channels deviated by 1.9e-3 and the command exited 3
    @pytest.mark.parametrize("phase", ["1e15", "-1e15"])
    def test_sgad_phases_far_beyond_2pi_agree(self, capsys, phase):
        assert run("channel", "--channel", "sgad", "--sgad-alpha", "0.1", "--sgad-beta", "0.1",
                   "--sgad-mu", "0.1", "--sgad-nu", "0.1", "--alpha2-sq", "0.5",
                   f"--sgad-phi={phase}", f"--sgad-lambda={phase}") == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["max_deviation"] < 1e-15
        assert payload["params"]["phi"] == payload["params"]["lam"] == float(phase)

    # np.linspace printed a RuntimeWarning before the exit-2 line
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("spec", ["0:inf:5", "-1e308:1e308:3", "nan:1:5"])
    def test_grid_bounds_beyond_float_range_exit_2(self, tmp_path, capsys, spec):
        out = tmp_path / "sweep"
        assert run("channel", "--channel", "gad", "--alpha2-sq", "0.75", f"--grid={spec}",
                   "--out", str(out)) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: grid start ")
        assert captured.err.endswith(" must be finite\n") and captured.err.count("\n") == 1
        assert not out.exists()

    def test_grid_consistency_failure_names_point(self, tmp_path, monkeypatch, capsys):
        from krausloom import cli

        monkeypatch.setattr(cli, "CONSISTENCY_TOL", 0.0)
        assert run("channel", "--channel", "dephasing", "--grid", "0:1:3",
                   "--out", str(tmp_path / "sweep")) == 3
        assert "point 0:" in capsys.readouterr().err


PAULI_FLAGS = ("--channel", "pauli", "--p", "0.4", "--q1", "0.3", "--q2", "0.5", "--q3", "0.2")


def _swap_pauli_y_and_z(monkeypatch):
    """Build the Pauli Kraus sets with the Y and Z weights exchanged: on the
    default input the outputs differ by rounding only, the channels by 0.12."""
    from types import SimpleNamespace

    from krausloom import channels

    build, labels = channels._FAMILY_OPS[channels.PauliParams]

    def swapped(params):
        return build(SimpleNamespace(p=params.p, q1=params.q1, q2=params.q3, q3=params.q2))

    monkeypatch.setitem(channels._FAMILY_OPS, channels.PauliParams, (swapped, labels))


class TestWholeChannelCheck:
    @pytest.mark.parametrize("flags", [
        ("--channel", "dephasing", "--p", "0.3"),
        ("--channel", "gad", "--p", "0.4", "--alpha2-sq", "0.75"),
        ("--channel", "sgad", "--sgad-alpha", "0.1", "--sgad-beta", "0.3", "--sgad-mu", "0.2",
         "--sgad-nu", "0.05", "--sgad-phi", "0.7", "--sgad-lambda", "1.3", "--alpha2-sq", "0.8"),
        PAULI_FLAGS,
    ], ids=["dephasing", "gad", "sgad", "pauli"])
    def test_every_family_agrees_to_rounding(self, capsys, flags):
        assert run("channel", *flags, "--theta1", "0.7") == 0
        assert json.loads(capsys.readouterr().out)["max_deviation"] < 1e-12

    def test_swapped_weights_agree_on_the_default_input(self, monkeypatch):
        from krausloom.channels import PauliParams

        _swap_pauli_y_and_z(monkeypatch)
        (block,) = circuit_mod.channel_sweep([PauliParams(0.4, 0.3, 0.5, 0.2)])
        assert np.max(np.abs(block.lattice - block.kraus)) < 1e-15
        assert np.max(np.abs(block.lattice_choi - block.kraus_choi)) > 0.1
        assert block.deviation[0] > 0.1

    def test_swapped_weights_exit_3_naming_the_point(self, monkeypatch, capsys):
        _swap_pauli_y_and_z(monkeypatch)
        assert run("channel", *PAULI_FLAGS) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("internal consistency failure: point 0: lattice and Kraus ")
        assert captured.err.count("\n") == 1

    def test_swapped_weights_exit_3_on_a_grid(self, monkeypatch, capsys, tmp_path):
        _swap_pauli_y_and_z(monkeypatch)
        assert run("channel", *PAULI_FLAGS[:2], *PAULI_FLAGS[4:], "--grid", "0.4:0.6:3",
                   "--out", str(tmp_path / "sweep")) == 3
        err = capsys.readouterr().err
        assert err.startswith("internal consistency failure: point 0: ") and err.count("\n") == 1
        assert not (tmp_path / "sweep" / "index.json").exists()

    @pytest.mark.parametrize("command, check", [("channel", "completeness residual"),
                                                ("tomography", "layer composition unitarity")])
    def test_a_failing_block_check_exits_3(self, monkeypatch, capsys, command, check):
        from krausloom import channels, qmath

        # no residual reaches 1e-300, so the first check a block runs fails
        for module in (channels, circuit_mod, qmath):
            monkeypatch.setattr(module, "structural_atol", lambda: 1e-300)
        assert run(command, "--channel", "gad", "--p", "0.3", "--alpha2-sq", "0.7") == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"internal consistency failure: point 0: {check} ")
        assert captured.err.count("\n") == 1


class TestEvolveCommand:
    def test_circuit_file_round_trip(self, tmp_path, capsys):
        from krausloom.channels import DephasingParams
        from krausloom.circuit import build_channel_lattice, circuit_to_payload
        from krausloom.qmath import save_json

        circ_file = tmp_path / "circ.json"
        save_json(circuit_to_payload(build_channel_lattice(DephasingParams(0.3))), str(circ_file))
        assert run("evolve", "--circuit", str(circ_file), "--through-stage", "prepare") == 0
        payload = json.loads(capsys.readouterr().out)
        amps = np.asarray(payload["state"]["re"]) + 1j * np.asarray(payload["state"]["im"])
        assert np.linalg.norm(amps) == pytest.approx(1.0, abs=1e-12)

    def test_missing_circuit_file_is_io_error(self, tmp_path):
        assert run("evolve", "--circuit", str(tmp_path / "nope.json")) == 4

    @pytest.mark.parametrize("flag", ["--circuit", "--state"])
    def test_input_file_that_is_not_json_exits_2(self, tmp_path, capsys, flag):
        from krausloom.channels import DephasingParams
        from krausloom.circuit import build_channel_lattice, circuit_to_payload
        from krausloom.qmath import save_json

        circ, bad = tmp_path / "circ.json", tmp_path / "bad.json"
        save_json(circuit_to_payload(build_channel_lattice(DephasingParams(0.3))), str(circ))
        bad.write_text("")
        files = {"--circuit": str(circ), "--state": str(circ), flag: str(bad)}
        assert run("evolve", *(a for kv in files.items() for a in kv)) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {flag} {bad} is not valid json") and err.count("\n") == 1

    # a number nested deeper than numpy's 64 dimensions is a bad payload, and
    # nesting beyond the recursion limit once ended in an internal RecursionError
    @pytest.mark.parametrize("depth", [500, 5000])
    @pytest.mark.parametrize("flag", ["--circuit", "--state"])
    def test_deeply_nested_file_exits_2(self, tmp_path, capsys, flag, depth):
        from krausloom.channels import GADParams
        from krausloom.circuit import build_channel_lattice, circuit_to_payload
        from krausloom.qmath import save_json

        circ, bad = tmp_path / "circ.json", tmp_path / "bad.json"
        save_json(circuit_to_payload(build_channel_lattice(GADParams(0.3, 0.8))), str(circ))
        nested = "[" * depth + "1.0" + "]" * depth
        if flag == "--state":
            bad.write_text('{"dims": [2, 2, 2], "re": ' + nested + ', "im": [0, 0, 0, 0, 0, 0, 0, 0]}')
        else:
            bad.write_text('{"register": ["system-path", "environment-path", "polarization"], '
                           '"layers": [[{"kind": "local-u3", "wires": [2], "theta": ' + nested + '}]]}')
        files = {"--circuit": str(circ), flag: str(bad)}
        assert run("evolve", *(a for kv in files.items() for a in kv)) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1


    @pytest.mark.parametrize("layers, message", [
        # register[-1] is the polarization wire, and a path-conditioned rotation
        # acts on polarization whatever its wires entry names
        ([[{"kind": "cnot-pol-path", "wires": [-1, 0]},
           {"kind": "local-u3", "wires": [2], "theta": 0.3, "phi": 0.0, "lambda": 0.0}],
          [{"kind": "path-conditioned-u3", "wires": [0], "condition": "*1",
            "theta": 0.5, "phi": 0.0, "lambda": 0.0}]],
         "error: placement wires (-1, 0) must be nonnegative\n"),
        ([[{"kind": "path-conditioned-u3", "wires": [0], "condition": "*1",
            "theta": 0.5, "phi": 0.0, "lambda": 0.0}]],
         "error: path-conditioned-u3 must target the polarization wire, got wire 0\n"),
        # a fractional or boolean wire once truncated to wire 1, and a list angle
        # built a stacked unitary
        ([[{"kind": "local-u3", "wires": [1.5], "theta": 0.3, "phi": 0.0, "lambda": 0.0}]],
         "error: bad circuit payload: placement wires must be integers, got [1.5]\n"),
        ([[{"kind": "cnot-pol-path", "wires": [2, True]}]],
         "error: bad circuit payload: placement wires must be integers, got [2, True]\n"),
        ([[{"kind": "local-u3", "wires": [2], "theta": [1.0, 2.0], "phi": 0.0, "lambda": 0.0}]],
         "error: bad circuit payload: placement angles must be scalars\n"),
        # a string or boolean angle once ran as the number it converts to
        ([[{"kind": "local-u3", "wires": [2], "theta": "1.0", "phi": 0.0, "lambda": 0.0}]],
         "error: bad circuit payload: placement angles must be real numbers, got '1.0'\n"),
        ([[{"kind": "local-u3", "wires": [2], "theta": True, "phi": 0.0, "lambda": 0.0}]],
         "error: bad circuit payload: placement angles must be real numbers, got True\n"),
        # an integer beyond float range once ended in an internal OverflowError
        ([[{"kind": "local-u3", "wires": [2], "theta": 10**400, "phi": 0.0, "lambda": 0.0}]],
         "error: bad circuit payload: int too large to convert to float\n"),
    ], ids=["negative-cnot-wire", "rotation-off-polarization", "fractional-wire", "boolean-wire",
            "list-angle", "string-angle", "boolean-angle", "400-digit-angle"])
    def test_wires_the_composition_ignores_exit_2(self, tmp_path, capsys, layers, message):
        circ = tmp_path / "c.json"
        circ.write_text(json.dumps({
            "register": ["system-path", "environment-path", "polarization"],
            "layers": layers, "stages": ["evolve"] * len(layers)}))
        assert run("evolve", "--circuit", str(circ)) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == message

    _ONE = [1.0] + [0.0] * 7

    # each of these once exited 3 with a bare numpy or int() error, or 0 with
    # the dims as given or truncated, or with a string, a boolean or a register
    # of other dims run as if it were valid
    @pytest.mark.parametrize("state, message", [
        ({"dims": [2, 2, 2], "re": ["x"] + [0.0] * 7, "im": [0.0] * 8},
         "error: bad state payload: re must be real numbers, got 'x'\n"),
        ({"dims": [2, 2, 2], "re": _ONE, "im": [0.0] * 4},
         "error: bad state payload: operands could not be broadcast together"),
        ({"dims": [2, 2, 2], "re": [[1.0, 0.0], [0.0]], "im": [0.0] * 8},
         "error: bad state payload: setting an array element with a sequence"),
        ({"dims": ["x"], "re": _ONE, "im": [0.0] * 8},
         "error: dims must be positive integers, got ['x']\n"),
        ({"dims": 8, "re": _ONE, "im": [0.0] * 8},
         "error: bad state payload: 'int' object is not iterable\n"),
        ({"dims": [-2, -4], "re": _ONE, "im": [0.0] * 8},
         "error: dims must be positive integers, got [-2, -4]\n"),
        ({"dims": [2.5, 2, 2], "re": _ONE, "im": [0.0] * 8},
         "error: dims must be positive integers, got [2.5, 2, 2]\n"),
        ({"dims": [4, 2], "re": _ONE, "im": [0.0] * 8},
         "error: state dims (4, 2) do not match the circuit register's (2, 2, 2)\n"),
        ({"dims": [8], "re": _ONE, "im": [0.0] * 8},
         "error: state dims (8,) do not match the circuit register's (2, 2, 2)\n"),
        ({"dims": [2, 2, 2], "re": ["1.0"] + [0] * 7, "im": [0] * 8},
         "error: bad state payload: re must be real numbers, got '1.0'\n"),
        ({"dims": [2, 2, 2], "re": [True] + [0] * 7, "im": [0] * 8},
         "error: bad state payload: re must be real numbers, got True\n"),
        ({"dims": [2, 2, 2], "re": _ONE, "im": [False] + [0] * 7},
         "error: bad state payload: im must be real numbers, got False\n"),
        ({"dims": [2, 2, 2], "re": [10**400] + [0] * 7, "im": [0] * 8},
         "error: bad state payload: int too large to convert to float\n"),
    ], ids=["string-amplitude", "re-im-lengths", "ragged-re", "string-dim", "scalar-dims",
            "negative-dims", "fractional-dim", "dims-4-2", "dims-8", "numeric-string-amplitude",
            "boolean-amplitude", "boolean-imaginary-part", "400-digit-amplitude"])
    def test_malformed_state_file_exits_2(self, tmp_path, capsys, state, message):
        from krausloom.channels import GADParams
        from krausloom.circuit import build_channel_lattice, circuit_to_payload
        from krausloom.qmath import save_json

        circ, path = tmp_path / "circ.json", tmp_path / "state.json"
        save_json(circuit_to_payload(build_channel_lattice(GADParams(0.3, 0.8))), str(circ))
        path.write_text(json.dumps(state))
        assert run("evolve", "--circuit", str(circ), "--state", str(path)) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith(message)
        assert captured.err.count("\n") == 1


class TestTomographyCommand:
    def test_noiseless_run_recovers_truth(self, tmp_path):
        out = tmp_path / "tomo.json"
        assert run("tomography", "--theta1", "1.1", "--theta2", "0.4", "--out", str(out)) == 0
        payload = load_json(str(out))
        assert payload["fidelity_linear"] == pytest.approx(1.0, abs=1e-6)
        assert payload["fidelity_ml"] == pytest.approx(1.0, abs=1e-6)

    def test_channel_state_tomography(self, tmp_path):
        out = tmp_path / "tomo.json"
        assert run("tomography", "--channel", "gad", "--p", "0.5", "--alpha2-sq", "0.75",
                   "--out", str(out)) == 0
        payload = load_json(str(out))
        assert payload["fidelity_linear"] == pytest.approx(1.0, abs=1e-6)

    def test_experimental_convention_is_the_half_angle_run_at_twice_theta1(self, capsys):
        # the experimental amplitudes cos/sin theta1 are the half-angle ones at 2 theta1
        flags = ("tomography", "--channel", "gad", "--p", "0.3", "--alpha2-sq", "0.8",
                 "--noise", "--shots", "1000", "--seed", "5")
        outs = []
        for extra in (("--theta1", "0.7", "--convention", "experimental"), ("--theta1", "1.4"),
                      ("--theta1", "0.7")):
            assert run(*flags, *extra) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]
        assert outs[0] != outs[2]

    def test_experimental_theta1_that_overflows_names_the_typed_value(self, capsys):
        # 2 * 1e308 overflows; the error names the angle as typed, not inf
        assert run("tomography", "--channel", "gad", "--p", "0.3", "--alpha2-sq", "0.8",
                   "--convention", "experimental", "--theta1", "1e308") == 2
        err = capsys.readouterr().err
        assert err == "error: theta1 must be finite when multiplied by 2, got 1e+308\n"

    def test_seeded_noisy_run_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ("tomography", "--theta1", "0.9", "--noise", "--shots", "5000", "--seed", "7")
        assert run(*args, "--out", str(a)) == 0
        assert run(*args, "--out", str(b)) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_noise_requires_shots(self):
        assert run("tomography", "--noise") == 2

    # a count is a probability times shots in floats, so shots beyond float range
    # once ended in an internal OverflowError, from the flag and from --config
    @pytest.mark.parametrize("noise", [(), ("--noise", "--seed", "1")], ids=["noiseless", "noise"])
    @pytest.mark.parametrize("via_config", [False, True], ids=["flag", "config"])
    def test_shots_beyond_float_range_exit_2(self, tmp_path, capsys, noise, via_config):
        shots = str(10**400)
        if via_config:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"shots": 10**400}))
            code = run("--config", str(cfg), "tomography", *noise)
        else:
            code = run("tomography", "--shots", shots, *noise)
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == "error: shots must be at most 1e+305\n"

    # the Poisson-limit message printed all 301 digits of the budget
    def test_a_budget_above_the_poisson_limit_prints_one_short_line(self, capsys):
        assert run("tomography", "--noise", "--shots", str(10**300), "--seed", "1") == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1 and len(captured.err) < 120
        assert captured.err.startswith("error: shots 1.000e+300 is too large for a Poisson draw")

    def test_shots_within_float_range_still_run(self, capsys):
        assert run("tomography", "--shots", "100000000000000000000") == 0
        assert json.loads(capsys.readouterr().out)["shots"] == 10**20

    # the largest float as shots once ran to "ml_optimality_gap": NaN beside
    # "ml_converged": true, after numpy overflow warnings: the mean of the 16
    # totals overflowed, and the gap per shot was scaled back by inf
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("noise", [(), ("--noise", "--seed", "1")], ids=["noiseless", "noise"])
    def test_shots_above_the_largest_budget_exit_2(self, capsys, noise):
        assert run("tomography", "--shots", str(int(sys.float_info.max)), *noise) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == "error: shots must be at most 1e+305\n"

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("shots", [10**300, 10**305])
    @pytest.mark.parametrize("source", [(), ("--channel", "gad", "--p", "0.3", "--alpha2-sq", "0.8")],
                             ids=["product", "gad"])
    def test_the_largest_budgets_run_to_finite_payloads(self, capsys, shots, source):
        assert run("tomography", "--shots", str(shots), *source) == 0

        def nonfinite(text):
            raise AssertionError(f"{text} in the payload")

        payload = json.loads(capsys.readouterr().out, parse_constant=nonfinite)
        assert payload["ml_converged"] is True and payload["ml_optimality_gap"] <= 1e-7 * shots

    def test_one_shot_run_with_an_empty_hv_block(self, capsys):
        # seed 1 at one shot leaves settings 1..4 without counts, so linear
        # inversion has nothing to normalize by; ML still runs, from I/4
        assert run("tomography", "--noise", "--shots", "1", "--seed", "1") == 0
        payload = json.loads(capsys.readouterr().out)
        assert sum(rec["counts"] for rec in payload["counts"][:4]) == 0
        assert payload["linear"] is None and payload["fidelity_linear"] is None
        assert payload["ml_converged"] is True
        assert payload["ml_optimality_gap"] <= 1e-7
        assert 0.0 <= payload["fidelity_ml"] <= 1.0

    def test_counts_file_emitted(self, tmp_path):
        counts = tmp_path / "counts.csv"
        assert run("tomography", "--shots", "1000", "--counts-out", str(counts),
                   "--out", str(tmp_path / "t.json")) == 0
        lines = counts.read_text().strip().splitlines()
        assert len(lines) == 16
        assert lines[0].startswith("1,HH,")


class TestReproduceGad:
    def test_default_run_passes(self, capsys):
        assert run("reproduce-gad") == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["passed"] is True
        assert 0.92 <= payload["fidelity"] <= 0.98

    def test_reference_fidelity_is_the_support_closed_form(self, capsys):
        assert run("reproduce-gad") == 0
        payload = json.loads(capsys.readouterr().out)
        # (Tr sqrt(W^dagger sigma W))^2 for the rank-2 theory state W W^dagger
        assert payload["fidelity"] == pytest.approx(0.9492717934322362, abs=1e-12)

    def test_off_reference_angle_is_informational(self, capsys):
        assert run("reproduce-gad", "--theta3", "1.5707963267948966") == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["passed"] is None
        assert 0.0 <= payload["fidelity"] <= 1.0

    @pytest.mark.parametrize("flag", ["--theta1", "--theta2", "--theta3"])
    def test_angle_that_overflows_when_doubled_exits_2(self, flag, capsys):
        assert run("reproduce-gad", flag, "1e308") == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_theta1_that_overflows_four_fold_exits_2(self, capsys):
        # the lattice's half-angle qubit sits at 4 theta1
        assert run("reproduce-gad", "--theta1", "5e307") == 2
        assert capsys.readouterr().err.startswith("error: theta1 must be finite")

    def test_emit_theory(self, tmp_path, capsys):
        path = tmp_path / "theory.json"
        assert run("reproduce-gad", "--emit-theory", str(path)) == 0
        capsys.readouterr()
        matrix = density_from_payload(load_json(str(path))["matrix"])
        assert matrix.dims == (2, 2)


@pytest.mark.parametrize("argv", [
    ("tomography", "--channel", "gad", "--p", "0.3", "--alpha2-sq", "0.8"),
    ("tomography", "--channel", "sgad", "--sgad-alpha", "0.2", "--sgad-beta", "0.4",
     "--sgad-mu", "0.1", "--sgad-nu", "0.3", "--sgad-phi", "0.5", "--alpha2-sq", "0.7"),
    ("tomography", "--channel", "dephasing", "--p", "0.3", "--noise", "--shots", "1000"),
    ("reproduce-gad",),
])
def test_lattice_states_build_no_preparation(monkeypatch, capsys, argv):
    # tomography and reproduce-gad take the lattice's state from lattice_block
    def never(*args, **kwargs):
        raise AssertionError("a preparation was built")

    for name in ("ProductStateParams", "_preparation_angles", "_pauli_preparation_angles"):
        monkeypatch.setattr(circuit_mod, name, never)
    assert run(*argv) == 0, capsys.readouterr().err


@pytest.mark.parametrize("convention", ["half-angle", "experimental"])
@pytest.mark.parametrize("argv", [
    ("prepare",),
    ("tomography", "--shots", "1000"),
    ("tomography", "--noise", "--shots", "1000", "--seed", "1"),
], ids=["prepare", "tomography", "tomography-noise"])
def test_product_states_build_no_circuit(monkeypatch, capsys, argv, convention):
    # the product state is the preparation's table on the lattice kernel: no
    # CircuitSpec is built, and no state goes through initial_state or evolve
    argv = (*argv, "--theta1", "1.1", "--theta2", "0.7", "--convention", convention)
    assert run(*argv) == 0
    want = capsys.readouterr().out

    def never(*args, **kwargs):
        raise AssertionError("a circuit was built or run")

    monkeypatch.setattr(circuit_mod.CircuitSpec, "_fill", never)
    for name in ("initial_state", "evolve"):
        monkeypatch.setattr(circuit_mod, name, never)
    assert run(*argv) == 0, capsys.readouterr().err
    assert capsys.readouterr().out == want


@pytest.mark.parametrize("argv", [
    ("tomography", "--channel", "gad", "--p", "0.3", "--alpha2-sq", "0.8", "--noise",
     "--shots", "1000", "--seed", "1"),
    ("reproduce-gad",),
])
def test_joint_density_is_eigen_checked_once(monkeypatch, capsys, argv):
    eigvalsh = np.linalg.eigvalsh
    joint_checks = []

    def counting(a, *args, **kwargs):
        if np.shape(a)[-2:] == (8, 8):
            joint_checks.append(np.shape(a))
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    assert run(*argv) == 0, capsys.readouterr().err
    assert joint_checks == [(1, 8, 8)]


class TestExitCodeContract:
    """Inputs that once escaped as tracebacks; each now exits in one line."""

    def test_poisson_budget_beyond_the_sampler_exits_2(self, capsys):
        assert run("tomography", "--noise", "--shots", "100000000000000000000") == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err and err.startswith("error: ") and err.count("\n") == 1

    def test_unknown_register_role_exits_2(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_text('{"register": "x", "layers": 5}')
        assert run("evolve", "--circuit", str(path)) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err and err.startswith("error: bad circuit payload")

    def test_negative_seed_with_noise_exits_2(self, capsys):
        assert run("tomography", "--noise", "--shots", "100", "--seed", "-1") == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err and err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("count", ["100000000000", "100000000000000"])
    def test_grid_count_beyond_the_limit_exits_2(self, tmp_path, capsys, count):
        # 1e11 values would be 745 GiB and 1e14 beyond any address space; the
        # count is refused before numpy is asked for either
        out = tmp_path / "d"
        assert run("channel", "--grid", f"0:1:{count}", "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err and err.startswith(f"error: grid count {count} ")
        assert err.count("\n") == 1 and not out.exists()

    def test_unexpected_error_exits_3_in_one_line(self, monkeypatch, capsys):
        def broken(*args, **kwargs):
            raise RuntimeError("lattice engine broke")

        monkeypatch.setattr(circuit_mod, "channel_sweep", broken)
        assert run("channel", "--channel", "dephasing", "--p", "0.5") == 3
        err = capsys.readouterr().err
        assert err == "internal error: RuntimeError: lattice engine broke\n"


class TestChannelDump:
    def test_dephasing_dump(self, capsys):
        assert run("channel-dump", "--channel", "dephasing", "--p", "0.5") == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kraus"]["labels"] == ["M0", "M1"]
        assert payload["completeness_residual"] < 1e-12
        m0 = np.asarray(payload["kraus"]["operators"][0]["re"])
        np.testing.assert_allclose(m0, np.diag([1.0, np.sqrt(0.5)]), atol=1e-12)

    def test_csv_format(self, capsys):
        assert run("channel-dump", "--channel", "dephasing", "--p", "0.5",
                   "--format", "csv") == 0
        text = capsys.readouterr().out
        assert text.splitlines()[0] == "key,value"
        assert any("completeness_residual" in line for line in text.splitlines())


class TestConfigFile:
    def test_config_defaults_with_flag_override(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"channel": "gad", "p": 0.5, "alpha2_sq": 0.8}))
        assert run("--config", str(cfg), "channel-dump") == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["channel"] == "gad"
        # explicit flag wins over the config value
        assert run("--config", str(cfg), "channel-dump", "--channel", "dephasing") == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["channel"] == "dephasing"

    def test_config_values_go_through_flag_types(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"shots": "10", "noise": True}))
        assert run("--config", str(cfg), "tomography") == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["shots"] == 10 and payload["noise"] is True
        assert all(rec["total_shots"] == 10 for rec in payload["counts"])

    @pytest.mark.parametrize("config", [
        {"shots": "ten"},
        {"shots": 10.5},
        {"noise": "yes"},
        {"convention": "sideways"},
        {"seed": None},
        {"bogus": 1},
        {"func": "cmd_prepare"},
        {"command": "prepare"},
    ])
    def test_bad_config_exits_2_in_one_line(self, tmp_path, capsys, config):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        assert run("--config", str(cfg), "tomography") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --config") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_config_key_of_another_command_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"theta3": 0.4}))
        assert run("--config", str(cfg), "prepare") == 2
        assert "unrecognized arguments: --theta3=0.4" in capsys.readouterr().err

    def test_abbreviated_flag_wins_over_config(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"channel": "gad", "p": 0.5, "alpha2_sq": 0.8}))
        assert run("--config", str(cfg), "channel-dump", "--alpha2", "0.3") == 0
        m00 = np.asarray(json.loads(capsys.readouterr().out)["kraus"]["operators"][0]["re"])
        assert m00[0, 0] == pytest.approx(np.sqrt(0.3))

    def test_config_supplies_a_required_flag(self, tmp_path, capsys):
        from krausloom.channels import DephasingParams
        from krausloom.circuit import build_channel_lattice, circuit_to_payload
        from krausloom.qmath import save_json

        circ_file = tmp_path / "circ.json"
        save_json(circuit_to_payload(build_channel_lattice(DephasingParams(0.3))), str(circ_file))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"circuit": str(circ_file)}))
        assert run("--config", str(cfg), "evolve") == 0
        assert json.loads(capsys.readouterr().out)["command"] == "evolve"
        assert run("evolve") == 2
        assert capsys.readouterr().err == "error: --circuit is required\n"

    def test_bad_command_line_flag_keeps_argparse_usage(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"shots": 10}))
        with pytest.raises(SystemExit) as exc:
            run("--config", str(cfg), "tomography", "--shots", "ten")
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: krausloom tomography")
        assert "argument --shots: invalid int value: 'ten'" in err

    @pytest.mark.parametrize("config_flag", [["--config", "prepare"], ["--config=prepare"],
                                             ["--conf", "prepare"]])
    def test_config_file_named_like_the_command(self, tmp_path, monkeypatch, capsys, config_flag):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "prepare").write_text(json.dumps({"theta1": 0.5}))
        assert run(*config_flag, "prepare") == 0
        assert json.loads(capsys.readouterr().out)["theta1"] == 0.5

    def test_malformed_config_file_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{not json")
        assert run("--config", str(cfg), "prepare") == 2
        assert capsys.readouterr().err.startswith("error: --config")


class TestParser:
    def test_main_reuses_one_parser(self, monkeypatch, capsys):
        from krausloom import cli

        calls = []

        def counting_build():
            calls.append(1)
            return build()

        build = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", counting_build)
        assert run("reproduce-gad") == 0
        assert run("reproduce-gad", "--theta3", "0.3") == 0
        assert len(calls) == 1
        capsys.readouterr()

    def test_build_parser_still_builds_a_parser(self):
        from krausloom.cli import build_parser

        args = build_parser().parse_args(["prepare", "--theta1", "0.5"])
        assert args.theta1 == 0.5


# The grid checks the records of its two ends only: every value of a grid the
# CLI accepts must lie between them.
@settings(derandomize=True, max_examples=1000, deadline=None)
@given(st.floats(allow_nan=False, allow_infinity=False),
       st.floats(allow_nan=False, allow_infinity=False),
       st.integers(1, GRID_MAX_POINTS))
def test_grid_values_lie_between_the_grid_ends(start, stop, count):
    assume(math.isfinite(stop - start))
    values = _grid_values(f"{start!r}:{stop!r}:{count}")
    assert values[0] == start and values[-1] == (stop if count > 1 else start)
    lo, hi = sorted((values[0], values[-1]))
    assert lo <= values.min() and values.max() <= hi
