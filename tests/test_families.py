"""Each channel family is declared once, on its parameter record: the CLI's
flags and a lattice's metadata are read off the record's fields."""

import dataclasses
import json
import math

import pytest

from krausloom.channels import FAMILIES, GADParams, SGADParams
from krausloom.cli import main
from krausloom.qmath import load_json

FLAGS = {
    "dephasing": ["--p", "0.3"],
    "gad": ["--p", "0.3", "--alpha2-sq", "0.8"],
    "sgad": ["--sgad-alpha", "0.3", "--sgad-beta", "0.2", "--sgad-mu", "0.5",
             "--sgad-nu", "0.4", "--alpha2-sq", "0.8"],
    "pauli": ["--p", "0.4", "--q1", "0.3", "--q2", "0.5", "--q3", "0.2"],
}


def field_names(family):
    return {f.name for f in dataclasses.fields(FAMILIES[family])}


def test_families_are_keyed_by_their_records_name():
    assert set(FAMILIES) == set(FLAGS)
    for name, family in FAMILIES.items():
        assert family.name == name
        assert "name" not in {f.name for f in dataclasses.fields(family)}
    assert GADParams(0.3, 0.8).name == "gad"


def test_sgad_theta1_is_the_preparation_angle(capsys):
    assert main(["channel", "--channel", "sgad", *FLAGS["sgad"], "--theta1", "1.1"]) == 0
    params = json.loads(capsys.readouterr().out)["params"]
    assert params["theta1"] == 1.1
    assert params["caption_theta"] == [math.acos(math.sqrt(r)) for r in (0.3, 0.2, 0.5, 0.4)]


@pytest.mark.parametrize("family", sorted(FLAGS))
def test_point_params_are_the_record_and_the_angles(family, capsys):
    assert main(["channel", "--channel", family, *FLAGS[family]]) == 0
    params = json.loads(capsys.readouterr().out)["params"]
    assert set(params) == field_names(family) | {"channel", "theta1", "caption_theta"}
    assert params["channel"] == family


@pytest.mark.parametrize("family", ["dephasing", "gad", "pauli"])
def test_grid_params_are_the_record_and_the_angles(family, tmp_path):
    flags = FLAGS[family][2:]  # all but --p, which the grid sweeps
    out = tmp_path / "sweep"
    assert main(["channel", "--channel", family, *flags, "--grid", "0:1:3",
                 "--out", str(out)]) == 0
    params = load_json(str(out / "point_001.json"))["params"]
    assert set(params) == field_names(family) | {"channel", "theta1", "caption_theta"}
    assert params["p"] == 0.5


def test_a_missing_flags_error_names_every_missing_flag(capsys):
    assert main(["channel", "--channel", "sgad", "--sgad-beta", "0.2"]) == 2
    assert capsys.readouterr().err == (
        "error: missing --sgad-alpha, --sgad-mu, --sgad-nu, --alpha2-sq for the sgad channel\n")
    assert main(["channel", "--channel", "gad"]) == 2
    assert capsys.readouterr().err == "error: missing --p, --alpha2-sq for the gad channel\n"


def test_a_family_without_p_cannot_be_swept(capsys, tmp_path):
    assert "p" not in {f.name for f in dataclasses.fields(SGADParams)}
    assert main(["channel", "--channel", "sgad", *FLAGS["sgad"], "--grid", "0:1:3",
                 "--out", str(tmp_path / "sweep")]) == 2
    assert capsys.readouterr().err == "error: --grid sweeps --p; use explicit runs for sgad\n"
