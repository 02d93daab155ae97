import json

import numpy as np
import pytest

from krausloom import circuit as circuit_mod
from krausloom.cli import main
from krausloom.qmath import density_from_payload, load_json


def run(*argv):
    return main(list(argv))


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

    def test_bad_grid_value_writes_nothing(self, tmp_path):
        out = tmp_path / "sweep"
        assert run("channel", "--channel", "dephasing", "--grid=-0.5:1:5",
                   "--out", str(out)) == 2
        assert not out.exists()

    def test_grid_consistency_failure_names_point(self, tmp_path, monkeypatch, capsys):
        from krausloom import cli

        monkeypatch.setattr(cli, "CONSISTENCY_TOL", 0.0)
        assert run("channel", "--channel", "dephasing", "--grid", "0:1:3",
                   "--out", str(tmp_path / "sweep")) == 3
        assert "point 0:" in capsys.readouterr().err


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

    def test_seeded_noisy_run_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ("tomography", "--theta1", "0.9", "--noise", "--shots", "5000", "--seed", "7")
        assert run(*args, "--out", str(a)) == 0
        assert run(*args, "--out", str(b)) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_noise_requires_shots(self):
        assert run("tomography", "--noise") == 2

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

    def test_emit_theory(self, tmp_path, capsys):
        path = tmp_path / "theory.json"
        assert run("reproduce-gad", "--emit-theory", str(path)) == 0
        capsys.readouterr()
        matrix = density_from_payload(load_json(str(path))["matrix"])
        assert matrix.dims == (2, 2)


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
