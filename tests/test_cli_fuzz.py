"""The CLI's exit-code contract over generated command lines and --config files.

Every example must end in 0, 2, 3 or 4 without a traceback, and none may
end in an ``internal error:``. The strategies
keep each run small: grid counts of at most 12 points (or far beyond the
grid limit, which is refused before anything is allocated), and every path
lies under the test's own tmp_path.
"""

import json

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from krausloom.cli import main

FLOATS = st.sampled_from(["0", "0.25", "0.5", "1", "1.5", "-0.5", "3.14159", "1e308",
                          "-1e-300", "nan", "inf", "-inf", "x", ""])
INTS = st.sampled_from(["0", "1", "3", "1000", "-5", "100000000000000000000", "2.5", "ten",
                       str(10**400)])
CHANNELS = st.sampled_from(["dephasing", "gad", "sgad", "pauli", "depolarizing"])
GRID_COUNTS = st.one_of(st.integers(-2, 12).map(str),
                        st.sampled_from(["x", "1.5", "100000000000", "100000000000000"]))
GRIDS = st.one_of(
    st.builds("{}:{}:{}".format, FLOATS, FLOATS, GRID_COUNTS),
    st.sampled_from(["", "0:1", "0:1:2:3", "::"]),
)
# file names under tmp_path: new files, new directories, an existing directory
PATHS = st.sampled_from(["out.json", "nested/deeper/out.json", "out.csv", ".", "sweep"])


class Path(str):
    """A token naming a file under the example's tmp_path."""


PATH_TOKENS = PATHS.map(Path)

CHANNEL_FLAGS = [("--channel", CHANNELS), ("--p", FLOATS), ("--alpha2-sq", FLOATS),
                 ("--q1", FLOATS), ("--q2", FLOATS), ("--q3", FLOATS),
                 ("--sgad-alpha", FLOATS), ("--sgad-beta", FLOATS), ("--sgad-mu", FLOATS),
                 ("--sgad-nu", FLOATS), ("--sgad-phi", FLOATS), ("--sgad-lambda", FLOATS)]
COMMON_FLAGS = [("--out", PATH_TOKENS), ("--format", st.sampled_from(["json", "csv", "xml"]))]
CONVENTIONS = st.sampled_from(["half-angle", "experimental", "sideways"])

COMMAND_FLAGS = {
    name: flags + COMMON_FLAGS
    for name, flags in {
        "prepare": [("--theta1", FLOATS), ("--theta2", FLOATS), ("--convention", CONVENTIONS)],
        "channel": CHANNEL_FLAGS + [("--theta1", FLOATS), ("--grid", GRIDS)],
        "evolve": [("--circuit", st.just(Path("circuit.json"))),
                   ("--state", st.just(Path("state.json"))),
                   ("--through-stage", st.sampled_from(["prepare", "evolve", "project", "all"]))],
        "tomography": CHANNEL_FLAGS + [("--theta1", FLOATS), ("--theta2", FLOATS),
                                       ("--convention", CONVENTIONS), ("--shots", INTS),
                                       ("--noise", None), ("--seed", INTS),
                                       ("--counts-out", PATH_TOKENS)],
        "reproduce-gad": [("--theta1", FLOATS), ("--theta2", FLOATS), ("--theta3", FLOATS),
                          ("--emit-theory", PATH_TOKENS)],
        "channel-dump": CHANNEL_FLAGS,
    }.items()
}


@st.composite
def command_lines(draw):
    """A subcommand and some of its flags, now and then with a stray token."""
    command = draw(st.sampled_from(sorted(COMMAND_FLAGS)))
    argv = [command]
    for flag, values in draw(st.lists(st.sampled_from(COMMAND_FLAGS[command]), max_size=6)):
        argv += [flag] if values is None else [flag, draw(values)]
    if draw(st.integers(0, 9)) == 0:
        argv.insert(draw(st.integers(0, len(argv))),
                    draw(st.sampled_from(["--bogus", "-x", "--", "prepare", "--p"])))
    return argv


JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3), st.sampled_from([0.5, 1e308, -0.25, 3.0]),
    st.sampled_from(["", "x", "0.5", "gad", "1", "nan", "half-angle"]),
)
JSON_VALUES = st.one_of(JSON_SCALARS, st.lists(JSON_SCALARS, max_size=2))
CONFIG_KEYS = st.sampled_from([
    "channel", "p", "alpha2_sq", "q1", "q2", "q3", "sgad_alpha", "sgad_beta", "sgad_mu",
    "sgad_nu", "theta1", "theta2", "theta3", "shots", "noise", "seed", "convention", "grid",
    "format", "through_stage", "out", "func", "command", "config", "bogus",
])
CONFIGS = st.one_of(
    st.dictionaries(CONFIG_KEYS, JSON_VALUES, max_size=5).map(json.dumps),
    st.sampled_from(["", "{", "[1, 2]", "3", '"gad"', "null"]),
)

ROLES = st.sampled_from(["system-path", "environment-path", "reservoir-path", "polarization",
                         "photon"])
PLACEMENTS = st.fixed_dictionaries(
    {"kind": st.sampled_from(["local-u3", "cnot-pol-path", "path-conditioned-u3", "swap"]),
     "wires": st.lists(st.integers(-1, 4), max_size=3)},
    optional={"theta": JSON_SCALARS, "phi": JSON_SCALARS, "lambda": JSON_SCALARS,
              "condition": st.text("01*x", max_size=4)},
)
CIRCUITS = st.one_of(
    st.fixed_dictionaries(
        {"register": st.lists(ROLES, max_size=4),
         "layers": st.lists(st.lists(PLACEMENTS, max_size=2), max_size=3)},
        optional={"stages": st.lists(st.sampled_from(["prepare", "evolve", "later"]), max_size=3)},
    ).map(json.dumps),
    st.sampled_from(["", "[]", '{"register": "x", "layers": 5}']),
)
STATES = st.one_of(
    st.fixed_dictionaries({"dims": st.lists(st.integers(0, 3), max_size=4),
                           "re": st.lists(JSON_SCALARS, max_size=8),
                           "im": st.lists(st.just(0.0), max_size=8)}).map(json.dumps),
    st.just(json.dumps({"dims": [2, 2, 2], "re": [1.0] + [0.0] * 7, "im": [0.0] * 8})),
    st.sampled_from(["", "{}", "[0]"]),
)


@settings(derandomize=True, database=None, max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(argv=command_lines(), config=st.one_of(st.none(), CONFIGS), circuit=CIRCUITS,
       state=STATES)
def test_every_command_line_keeps_the_exit_code_contract(tmp_path, capsys, argv, config,
                                                         circuit, state):
    (tmp_path / "circuit.json").write_text(circuit)
    (tmp_path / "state.json").write_text(state)
    (tmp_path / "sweep").mkdir(exist_ok=True)
    argv = [str(tmp_path / tok) if isinstance(tok, Path) else tok for tok in argv]
    if config is not None:
        (tmp_path / "cfg.json").write_text(config)
        argv = ["--config", str(tmp_path / "cfg.json")] + argv
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse's own usage errors and --help
        code = exc.code
    out, err = capsys.readouterr()
    assert code in (0, 2, 3, 4), (argv, err)
    assert "Traceback" not in out and "Traceback" not in err, argv
    assert "internal error:" not in err, (argv, err)
