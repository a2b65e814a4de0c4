"""Property-based fuzzing of the file loaders and the options through the CLI: every input ends in exit 0, 2 or 3.

Each loader gets files whose fields are dropped, keep a valid value or take a
drawn JSON value; the top level may also be an array or a scalar.  Option
values are drawn from strategies read off the parser's own actions, so an
option added later is fuzzed as well.
"""

import argparse
import contextlib
import io
import json

import numpy as np
import pytest

from qmarkov import from_kraus
from qmarkov import io as qio
from qmarkov import cli
from qmarkov.cli import run

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

JSON_SCALARS = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda children: st.lists(children, max_size=4) | st.dictionaries(st.text(max_size=3), children, max_size=4),
    max_leaves=12,
)
DROP = object()
TOPS = st.sampled_from(["object", "array", "scalar"])
FUZZ = settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])


def _fields(valid: dict, **extra):
    """Per field: dropped, the valid value or a drawn JSON value (or ``extra[field]``)."""
    return st.fixed_dictionaries(
        {
            key: st.just(DROP) | st.just(value) | JSON_VALUES | extra.get(key, st.nothing())
            for key, value in valid.items()
        }
    )


def _kept(fields: dict) -> dict:
    return {key: value for key, value in fields.items() if value is not DROP}


def _write(path, fields: dict, top: str, scalar_key: str):
    payload = _kept(fields)
    if top == "array":
        payload = [payload]
    elif top == "scalar":
        payload = payload.get(scalar_key)
    path.write_text(json.dumps(payload))
    return str(path)


VALID_OOM = {
    "dim": 2,
    "scale": ["a", "b"],
    "operators": {"a": [[0.5, 0.5], [0.0, 0.0]], "b": [[0.0, 0.0], [0.5, 0.5]]},
    "pi": [0.5, 0.5],
}
# the operators object may also keep its keys and take drawn matrices
OOM_FIELDS = _fields(VALID_OOM, operators=st.fixed_dictionaries({"a": JSON_VALUES, "b": JSON_VALUES}))


@FUZZ
@given(fields=OOM_FIELDS, top=TOPS)
def test_oom_rank_loader_exit_codes(tmp_path, fields, top):
    path = _write(tmp_path / "oom.json", fields, top, "dim")
    code = run(["oom-rank", "--oom", path, "--max-length", "2", "--output", str(tmp_path / "out.json")])
    assert code in (0, 2, 3)


def test_valid_oom_exits_zero(tmp_path):
    path = tmp_path / "oom.json"
    path.write_text(json.dumps(VALID_OOM))
    assert run(["oom-rank", "--oom", str(path), "--max-length", "2", "--output", str(tmp_path / "out.json")]) == 0
    assert json.loads((tmp_path / "out.json").read_text())["rank"] == 1


VALID_DENSITY = {"rows": 2, "cols": 2, "entries": [[0.25, 0.0], [0.0, 0.0], [0.0, 0.0], [0.75, 0.0]], "kind": "density"}
# entries may also be a list of drawn pairs
DENSITY_FIELDS = _fields(VALID_DENSITY, entries=st.lists(st.lists(JSON_SCALARS, min_size=2, max_size=2), max_size=5))


@pytest.fixture
def channel(tmp_path):
    """A 2-Kraus amplitude-damping channel on H_2."""
    path = tmp_path / "channel.json"
    kraus = [np.array([[1.0, 0.0], [0.0, 0.6]]), np.array([[0.0, 0.8], [0.0, 0.0]])]
    path.write_text(json.dumps({"n": 2, "kraus": [qio.matrix_to_dict(k) for k in kraus]}))
    return str(path)


@FUZZ
@given(fields=DENSITY_FIELDS, top=TOPS)
def test_cesaro_density_loader_exit_codes(tmp_path, channel, fields, top):
    path = _write(tmp_path / "rho.json", fields, top, "rows")
    code = run(["chain-cesaro", "--operator", channel, "--density", path, "--output", str(tmp_path / "out.json")])
    assert code in (0, 2, 3)


def test_valid_density_exits_zero(tmp_path, channel):
    path = tmp_path / "rho.json"
    path.write_text(json.dumps(VALID_DENSITY))
    argv = ["chain-cesaro", "--operator", channel, "--density", str(path)]
    assert run([*argv, "--output", str(tmp_path / "out.json")]) == 0
    entries = json.loads((tmp_path / "out.json").read_text())["average"]["entries"]
    assert entries[0] == pytest.approx([1.0, 0.0])


VALID_GRAPH = {"nodes": 3, "edges": [[0, 1], [1, 2], [2, 0]]}
# node ids that may pass validation stay small: a valid graph with N nodes
# makes `walk` allocate a (steps + 1) x N array of node values, so a drawn N
# near 10**9 would exhaust memory rather than probe the loader
NODE_IDS = st.integers(min_value=-2, max_value=1000)
GRAPH_FIELDS = st.fixed_dictionaries(
    {
        "nodes": st.just(DROP)
        | st.just(3)
        | NODE_IDS
        | JSON_VALUES.filter(lambda v: isinstance(v, bool) or not isinstance(v, int) or abs(v) > 10**30),
        "edges": st.just(DROP)
        | st.just(VALID_GRAPH["edges"])
        | st.lists(st.lists(NODE_IDS | JSON_SCALARS.filter(lambda v: not isinstance(v, int)), max_size=3), max_size=4)
        | JSON_VALUES.filter(lambda v: not isinstance(v, list)),
    }
)


@pytest.fixture
def walk_files(tmp_path):
    """A channel on the three edges of a cycle and a start density on them."""
    paths = {"op": tmp_path / "op.json", "rho": tmp_path / "rho.json"}
    qio.save_operator(paths["op"], from_kraus([np.roll(np.eye(3), 1, axis=0)]))
    qio.save_matrix(paths["rho"], np.diag([1.0, 0.0, 0.0]).astype(complex), kind="density")
    return {key: str(p) for key, p in paths.items()}


@FUZZ
@given(fields=GRAPH_FIELDS, top=TOPS, mode=st.sampled_from([["--steps", "2"], ["--limiting"]]))
def test_walk_graph_loader_exit_codes(tmp_path, walk_files, fields, top, mode):
    graph = _write(tmp_path / "g.json", fields, top, "nodes")
    argv = ["walk", "--graph", graph, "--operator", walk_files["op"], "--density", walk_files["rho"], *mode]
    assert run([*argv, "--output", str(tmp_path / "out.txt")]) in (0, 2, 3)


def test_valid_graph_exits_zero(tmp_path, walk_files):
    graph = tmp_path / "g.json"
    graph.write_text(json.dumps(VALID_GRAPH))
    argv = ["walk", "--graph", str(graph), "--operator", walk_files["op"], "--density", walk_files["rho"]]
    assert run([*argv, "--steps", "3", "--output", str(tmp_path / "out.txt")]) == 0
    assert (tmp_path / "out.txt").read_text().splitlines()[-3:] == ["3,0,1", "3,1,0", "3,2,0"]


@pytest.fixture
def density(tmp_path):
    """A diagonal density on H_2."""
    path = tmp_path / "rho.json"
    qio.save_matrix(path, np.diag([0.25, 0.75]).astype(complex), kind="density")
    return str(path)


DAMPING = [np.diag([1.0, 0.6]), np.array([[0.0, 0.8], [0.0, 0.0]])]
VALID_CHANNELS = {
    "kraus": {"n": 2, "kraus": [qio.matrix_to_dict(k) for k in DAMPING]},
    "operator": qio.operator_to_dict(from_kraus(DAMPING)),
}
# Kraus files may also take lists of matrix objects with drawn fields;
# operator files draw their n, basis and matrix fields
CHANNEL_FIELDS = _fields(
    VALID_CHANNELS["kraus"],
    kraus=st.lists(JSON_VALUES | _fields(VALID_CHANNELS["kraus"]["kraus"][1]).map(_kept), max_size=3),
) | _fields(VALID_CHANNELS["operator"])


@FUZZ
@given(fields=CHANNEL_FIELDS, top=TOPS)
def test_cesaro_operator_loader_exit_codes(tmp_path, density, fields, top):
    path = _write(tmp_path / "op.json", fields, top, "n")
    code = run(["chain-cesaro", "--operator", path, "--density", density, "--output", str(tmp_path / "out.json")])
    assert code in (0, 2, 3)


@pytest.mark.parametrize("form", sorted(VALID_CHANNELS))
def test_valid_channel_exits_zero(tmp_path, density, form):
    path = tmp_path / "op.json"
    path.write_text(json.dumps(VALID_CHANNELS[form]))
    argv = ["chain-cesaro", "--operator", str(path), "--density", density]
    assert run([*argv, "--output", str(tmp_path / "out.json")]) == 0
    entries = json.loads((tmp_path / "out.json").read_text())["average"]["entries"]
    assert entries[0] == pytest.approx([1.0, 0.0])


KRAUS_ENTRIES = {"a": qio.matrix_to_dict(np.diag([1.0, 0.0])), "b": qio.matrix_to_dict(np.diag([0.0, 1.0]))}
VALID_MEASUREMENTS = {
    "kraus": {"n": 2, "scale": ["a", "b"], "kraus": KRAUS_ENTRIES},
    "operators": {"scale": ["a", "b"], "operators": {"a": (0.5 * np.eye(4)).tolist(), "b": (0.5 * np.eye(4)).tolist()}},
}
# the symbol maps may also keep their keys and take drawn values: matrix
# objects with drawn fields for Kraus entries, drawn matrices for operators
MEASUREMENT_FIELDS = _fields(
    VALID_MEASUREMENTS["kraus"],
    kraus=st.fixed_dictionaries({s: JSON_VALUES | _fields(m).map(_kept) for s, m in KRAUS_ENTRIES.items()}),
) | _fields(VALID_MEASUREMENTS["operators"], operators=st.fixed_dictionaries({"a": JSON_VALUES, "b": JSON_VALUES}))


@FUZZ
@given(fields=MEASUREMENT_FIELDS, top=TOPS, fmt=st.sampled_from(["csv", "json"]))
def test_measure_loader_exit_codes(tmp_path, density, fields, top, fmt):
    path = _write(tmp_path / "meas.json", fields, top, "scale")
    argv = ["measure", "--measurement", path, "--density", density, "--steps", "2", "--format", fmt]
    assert run([*argv, "--output", str(tmp_path / "out.txt")]) in (0, 2, 3)


@pytest.mark.parametrize("form", sorted(VALID_MEASUREMENTS))
def test_valid_measurement_exits_zero(tmp_path, density, form):
    path = tmp_path / "meas.json"
    path.write_text(json.dumps(VALID_MEASUREMENTS[form]))
    argv = ["measure", "--measurement", str(path), "--density", density, "--steps", "2"]
    assert run([*argv, "--output", str(tmp_path / "out.txt")]) == 0
    lines = (tmp_path / "out.txt").read_text().splitlines()
    assert (lines[:2], len(lines)) == (["word,probability", "aa,0.25"], 5)


VALID_TABLE = {
    "states": ["u", "v"],
    "functions": {"X": [1, -1], "Y": [1, 1], "Z": [-1, 1]},
    "q": [0.5, 0.5],
}
# the functions object may also keep the names X, Y, Z with drawn value lists
TABLE_FIELDS = _fields(
    VALID_TABLE,
    functions=st.fixed_dictionaries({name: JSON_VALUES | st.lists(JSON_VALUES, max_size=3) for name in "XYZ"}),
    q=st.lists(JSON_SCALARS, max_size=3),
)


@FUZZ
@given(fields=TABLE_FIELDS, top=TOPS)
def test_bell_table_loader_exit_codes(tmp_path, fields, top):
    path = _write(tmp_path / "table.json", fields, top, "states")
    assert run(["bell", "--table", path, "--output", str(tmp_path / "out.json")]) in (0, 2, 3)


def test_valid_table_exits_zero(tmp_path):
    path = tmp_path / "table.json"
    path.write_text(json.dumps(VALID_TABLE))
    assert run(["bell", "--table", str(path), "--output", str(tmp_path / "out.json")]) == 0
    assert json.loads((tmp_path / "out.json").read_text())["satisfied"] is True


# -- option values: strategies from the parser's table -------------------------

ODD_VALUES = ["0", "-1", "-0.0", "nan", "inf", "-inf", str(10**21), "abc"]
MAX_COUNT = 10**4  # streamed output is not budgeted, so drawn counts stay small unless odd
VALID_VALUES = {int: "2", float: "0.5", None: "ab"}  # the last is a word of VALID_OOM


@pytest.fixture
def option_files(tmp_path):
    """A valid input on H_2 for each file option, by dest, and the one --output path."""
    payloads = {
        "operator": VALID_CHANNELS["kraus"],
        "density": VALID_DENSITY,
        "measurement": VALID_MEASUREMENTS["kraus"],
        "table": VALID_TABLE,
        "oom": VALID_OOM,
    }
    files = {dest: tmp_path / f"{dest}.json" for dest in payloads}
    for dest, payload in payloads.items():
        files[dest].write_text(json.dumps(payload))
    files["graph"] = tmp_path / "graph.txt"
    files["graph"].write_text("0 1\n1 0\n")  # two edges, one per dimension of H_2
    files["output"] = tmp_path / "out.txt"
    return {dest: str(path) for dest, path in files.items()}


def _subcommands() -> dict:
    (action,) = [a for a in cli._parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


def _value(action, files):
    """Strategy for the text of one option value, from the action's type and choices.

    Input files and --output are fixed; any other value is odd in one draw of four.
    """
    if action.dest in files:
        return st.just(files[action.dest])
    if action.choices:
        usual = st.sampled_from(sorted(action.choices))
    elif action.type is int:
        usual = (st.integers(-2, 8) | st.integers(-2, MAX_COUNT)).map(str)
    elif action.type is float:
        usual = st.floats(-2, 2).map(repr) | st.sampled_from(["1e-12", "1e-08", "0.5"])
    else:
        usual = st.text(alphabet="ab,01", max_size=4)
    return st.integers(0, 3).flatmap(lambda k: usual if k else st.sampled_from(ODD_VALUES))


def _included(sub, draw) -> set:
    """The actions of a subparser to pass: required ones, one per required exclusive group, any others."""
    grouped = {a for g in sub._mutually_exclusive_groups if g.required for a in g._group_actions}
    chosen = {draw(st.sampled_from(g._group_actions)) for g in sub._mutually_exclusive_groups if g.required}
    optional = [a for a in sub._actions if not (a.required or a in grouped or isinstance(a, argparse._HelpAction))]
    return chosen | {a for a in sub._actions if a.required} | {a for a in optional if draw(st.booleans())}


def _argv(draw, files) -> list[str]:
    """One drawn argv: a subcommand and its included options, in the parser's order."""
    name = draw(st.sampled_from(sorted(_subcommands())))
    sub = _subcommands()[name]
    argv = [name]
    for action in sorted(_included(sub, draw), key=sub._actions.index):
        flag = action.option_strings[-1:]  # none for a positional
        repeats = draw(st.integers(1, 2)) if isinstance(action, argparse._AppendAction) else 1
        for _ in range(repeats):
            argv += flag if action.nargs == 0 else [*flag, draw(_value(action, files))]
    return argv


def _outcome(argv):
    """Exit code and stderr of one run; an argparse usage error counts as exit 2."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = run(argv)
        except SystemExit as exc:
            code = exc.code
    return code, err.getvalue()


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_drawn_options_exit_codes(option_files, data):
    argv = _argv(data.draw, option_files)
    code, err = _outcome(argv)
    assert code in (0, 2, 3), (argv, err)
    assert "Traceback" not in err, argv


def _valid(action, files) -> str:
    """A valid value for an option: its first choice, its input file, or the valid text of its type."""
    if action.choices:
        return sorted(action.choices)[0]
    return files.get(action.dest, VALID_VALUES[action.type])


def test_required_options_alone_exit_zero(option_files):
    # valid values for the required options run every subcommand, so drawn runs reach the commands
    for name, sub in _subcommands().items():
        chosen = {g._group_actions[0] for g in sub._mutually_exclusive_groups if g.required}
        argv = [name]
        for action in sub._actions:
            if action.required or action in chosen:
                argv += [*action.option_strings[-1:], _valid(action, option_files)]
        assert _outcome(argv) == (0, ""), argv
