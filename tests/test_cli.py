import json

import numpy as np
import pytest

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

    def test_off_reference_angle_is_informational(self, capsys):
        assert run("reproduce-gad", "--theta3", "1.5707963267948966") == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["passed"] is None
        assert 0.0 <= payload["fidelity"] <= 1.0

    def test_emit_theory(self, tmp_path, capsys):
        path = tmp_path / "theory.json"
        assert run("reproduce-gad", "--emit-theory", str(path)) == 0
        capsys.readouterr()
        matrix = density_from_payload(load_json(str(path))["matrix"])
        assert matrix.dims == (2, 2)


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
