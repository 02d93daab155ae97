"""The studies under scripts/, run in process at tiny sizes."""

import csv
import math
import os
import runpy
import sys

import pytest

SCRIPTS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "scripts")


def run_script(monkeypatch, name, *argv):
    monkeypatch.setattr(sys, "argv", [name, *argv])
    runpy.run_path(os.path.join(SCRIPTS, name), run_name="__main__")


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_channel_decay_sweep(monkeypatch, tmp_path, capsys):
    out = tmp_path / "decay.csv"
    run_script(monkeypatch, "channel_decay_sweep.py", "--points", "3", "--out", str(out))
    rows = read_rows(out)
    assert [r["channel"] for r in rows] == [c for c in ("dephasing", "gad", "sgad", "pauli")
                                            for _ in range(3)]
    assert [r["p"] for r in rows[:3]] == ["0.000000", "0.500000", "1.000000"]
    for r in rows:
        assert float(r["cross_check"]) < 1e-9
        assert 0.0 <= float(r["ground_population"]) <= 1.0 + 1e-12
    # full dephasing kills the coherence, no dephasing leaves |+><+| at 1/2
    assert float(rows[0]["coherence"]) == pytest.approx(0.5, abs=1e-12)
    assert float(rows[2]["coherence"]) == pytest.approx(0.0, abs=1e-12)
    assert "wrote" in capsys.readouterr().err


def test_tomography_shots_study(monkeypatch, tmp_path, capsys):
    out = tmp_path / "shots.csv"
    run_script(monkeypatch, "tomography_shots_study.py",
               "--shots", "100", "--ensemble", "2", "--out", str(out))
    rows = read_rows(out)
    assert len(rows) == 1 and rows[0]["shots"] == "100"
    for key in ("mean_fid_linear", "mean_fid_ml", "min_fid_ml"):
        assert 0.0 <= float(rows[0][key]) <= 1.0
    assert float(rows[0]["min_fid_ml"]) <= float(rows[0]["mean_fid_ml"])
    assert float(rows[0]["ml_converged_share"]) == 1.0
    assert float(rows[0]["median_ml_iterations"]) >= 1
    assert 0.0 <= float(rows[0]["max_ml_gap_per_shot"]) <= 1e-7
    assert not (tmp_path / "shots.csv.tmp").exists()
    assert "wrote" in capsys.readouterr().err


def test_tomography_shots_study_at_one_shot(monkeypatch, tmp_path, capsys):
    # one shot leaves most H/V blocks empty; ML still runs on every state
    out = tmp_path / "shots.csv"
    run_script(monkeypatch, "tomography_shots_study.py",
               "--shots", "1", "--ensemble", "6", "--out", str(out))
    rows = read_rows(out)
    assert len(rows) == 1 and rows[0]["shots"] == "1"
    assert float(rows[0]["ml_converged_share"]) == 1.0
    assert 0.0 <= float(rows[0]["min_fid_ml"]) <= float(rows[0]["mean_fid_ml"]) <= 1.0
    lin = float(rows[0]["mean_fid_linear"])
    assert math.isnan(lin) or 0.0 <= lin <= 1.0
    capsys.readouterr()


def test_channel_decay_sweep_keeps_the_old_file_when_a_sweep_fails(monkeypatch, tmp_path):
    from krausloom import circuit

    sweep = circuit.channel_sweep

    def failing_on_sgad(points, **kwargs):
        if type(points[0]).__name__ == "SGADParams":
            raise RuntimeError("sweep failed")
        return sweep(points, **kwargs)

    monkeypatch.setattr(circuit, "channel_sweep", failing_on_sgad)
    out = tmp_path / "decay.csv"
    out.write_text("old\n")
    with pytest.raises(RuntimeError, match="sweep failed"):
        run_script(monkeypatch, "channel_decay_sweep.py", "--points", "3", "--out", str(out))
    assert out.read_text() == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["decay.csv"]
