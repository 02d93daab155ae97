"""Input files read strictly: one leaf of a valid file replaced by another value.

Circuit and state files go through ``krausloom evolve``: each example must exit
0 or 2 with no ``internal error:``, and it may exit 0 only when the new leaf
keeps the declared type of the leaf it replaced. No command reads counts
files, so those go through ``load_counts`` directly, which may raise only
InvalidArgument or InvalidState.
"""

import json
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from krausloom.channels import GADParams
from krausloom.circuit import build_channel_lattice, circuit_to_payload
from krausloom.cli import main
from krausloom.errors import InvalidArgument, InvalidState
from krausloom.qmath import DensityMatrix, PureState
from krausloom.qmath import state_to_payload
from krausloom.tomography import load_counts, save_counts, simulate_counts

# a value a reader refuses must not warn on its way there either
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

CIRCUIT = circuit_to_payload(build_channel_lattice(GADParams(0.3, 0.8), theta1=1.1))
STATE = state_to_payload(PureState(np.array([0.6, 0, 0, 0.48j, 0, 0, 0, -0.64]), (2, 2, 2)))

NESTED = "[" * 500 + "0.5" + "]" * 500  # beyond numpy's 64 dimensions
# each new leaf as JSON text: python's json reads NaN, and 1e400 as inf
REPLACEMENTS = st.sampled_from(['"x"', '"1.0"', "true", "false", "null", "[]", "[0.5]", NESTED,
                                "NaN", "1e400", str(10**400), str(-10**400), "-1", "-0.5", "0.5",
                                "2.5"])
_MARK = "@@leaf@@"


def leaf_paths(value, path=()):
    """The path of every scalar in a JSON value, as keys and indices."""
    if isinstance(value, dict):
        return [p for k, v in value.items() for p in leaf_paths(v, path + (k,))]
    if isinstance(value, list):
        return [p for i, v in enumerate(value) for p in leaf_paths(v, path + (i,))]
    return [path]


def with_leaf(payload, path, text: str):
    """The JSON text of ``payload`` with the leaf at ``path`` written as ``text``,
    and the value that leaf held."""
    copy = json.loads(json.dumps(payload))
    parent = copy
    for key in path[:-1]:
        parent = parent[key]
    old, parent[path[-1]] = parent[path[-1]], _MARK
    return json.dumps(copy).replace(json.dumps(_MARK), text), old


def keeps_type(old, new) -> bool:
    """Whether ``new`` has the declared type of ``old``: a float leaf takes any
    JSON number a float holds, any other leaf a value of its own type."""
    if type(old) is float:
        return type(new) is float or (type(new) is int and abs(new) <= sys.float_info.max)
    return type(new) is type(old)


FILES = {"circuit": CIRCUIT, "state": STATE}
FILE_LEAVES = st.sampled_from(sorted(FILES)).flatmap(
    lambda name: st.tuples(st.just(name), st.sampled_from(leaf_paths(FILES[name]))))

FUZZ = settings(derandomize=True, database=None, max_examples=300, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])


@FUZZ
@given(leaf=FILE_LEAVES, text=REPLACEMENTS)
def test_evolve_reads_a_changed_leaf_or_exits_2(tmp_path, capsys, leaf, text):
    name, path = leaf
    files = {k: json.dumps(v) for k, v in FILES.items()}
    files[name], old = with_leaf(FILES[name], path, text)
    for k, body in files.items():
        (tmp_path / f"{k}.json").write_text(body)
    code = main(["evolve", "--circuit", str(tmp_path / "circuit.json"),
                 "--state", str(tmp_path / "state.json")])
    out, err = capsys.readouterr()
    assert "internal error:" not in err, (name, path, text, err)
    if code == 0:
        assert path[0] == "meta" or keeps_type(old, json.loads(text)), (name, path, text)
    else:
        assert code == 2, (name, path, text, err)
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1, err


COUNT_TOKENS = st.sampled_from(["x", "true", "null", "[1]", "NaN", "1e400", str(10**400), "-5",
                                "2.5", "", "0", "7"])
_COUNTS = simulate_counts(DensityMatrix._of(np.eye(4) / 4, (2, 2)), 1000, noise=True, seed=3)


@FUZZ
@given(line=st.integers(0, 15), field=st.integers(0, 3), token=COUNT_TOKENS)
def test_counts_file_reads_a_changed_field_or_refuses_it(tmp_path, line, field, token):
    path = tmp_path / "counts.csv"
    save_counts(_COUNTS, str(path))
    rows = [row.split(",") for row in path.read_text().splitlines()]
    rows[line][field] = token
    path.write_text("".join(",".join(row) + "\n" for row in rows))
    try:
        records = load_counts(str(path))
    except (InvalidArgument, InvalidState) as exc:
        assert str(exc).startswith(f"{path}:{line + 1}: "), exc
        return
    assert field == 1 or token.lstrip("-").isdigit(), (line, field, token)
    assert all(r.counts >= 0 and r.total_shots >= 1 for r in records)


def test_the_unchanged_files_evolve(tmp_path):
    # exit 2 always passes the property above, so its base files must run
    for k, v in FILES.items():
        (tmp_path / f"{k}.json").write_text(json.dumps(v))
    assert main(["evolve", "--circuit", str(tmp_path / "circuit.json"),
                 "--state", str(tmp_path / "state.json")]) == 0
