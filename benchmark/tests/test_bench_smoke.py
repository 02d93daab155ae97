"""Minimal-length runs of every workload, through the benchmark's own command.

    python3 -m pytest benchmark/tests

``--seconds 0`` runs exactly one cycle. The whole file takes about a minute.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def run(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "benchmark/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)
    return proc


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_one_cycle_is_correct_and_reports_every_metric(workload):
    result = result_of(run("--workload", workload, "--seed", "5", "--seconds", "0", "--trace", "0"))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for metric in SPEC["end_to_end"]:
        entry = result["metrics"][metric["name"]]
        assert entry["unit"] == metric["unit"] and entry["value"] > 0


def test_traced_counts_repeat_exactly():
    args = ("--workload", "channel-point", "--seed", "2", "--seconds", "0", "--trace", "1")
    first, second = result_of(run(*args)), result_of(run(*args))
    assert set(first["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    for name, entry in first["metrics"].items():
        if entry["unit"] == "count/op" or name == "cli.bytes_written":
            assert entry["value"] == second["metrics"][name]["value"], name
    assert first["metrics"]["cli.parser_ms"]["value"] > 0
    assert first["metrics"]["tomography.ml_ms"]["value"] == 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "benchmark"), tmp_path / "benchmark",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run("--workload", "channel-point", "--seed", "1", "--seconds", "1", "--trace", "0",
               cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
