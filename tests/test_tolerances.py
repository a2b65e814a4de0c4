"""Every numerical threshold lives in the tolerance table of ``qmarkov.hermitian``.

The first check scans the package source for exponent-form float literals
(``1e-10``) and allows them only as the value of a table entry: a
module-level upper-case assignment in ``hermitian.py``.  The second checks
that each CLI ``--tol`` and ``--max-doublings`` default is the table entry
that the library function it feeds uses as its own default.  The third
checks that every public function or method taking a tolerance refuses a
NaN, infinite or negative one, and 0 where no comparison could meet it.
"""

import inspect
import io
import math
import re
import tokenize
from pathlib import Path

import numpy as np
import pytest

import qmarkov
from qmarkov import cli, hermitian
from qmarkov.chain import cesaro_average
from qmarkov.hidden import bell_check
from qmarkov.measurement import is_t_observable
from qmarkov.oom import prediction_matrix
from qmarkov.walk import limiting_node_distribution

SRC = Path(hermitian.__file__).parent
TABLE_ENTRY = re.compile(r"[A-Z][A-Z0-9_]* = ")

# (subcommand, option dest) -> (library function, parameter the option feeds)
CLI_DEFAULTS = {
    ("measure", "tol"): (is_t_observable, "tol"),
    ("chain-cesaro", "tol"): (cesaro_average, "tol"),
    ("chain-cesaro", "max_doublings"): (cesaro_average, "max_doublings"),
    ("walk", "tol"): (limiting_node_distribution, "tol"),
    ("bell", "tol"): (bell_check, "tol"),
    ("oom-rank", "tol"): (prediction_matrix, "rank_tol"),
}


def _exponent_literals(path: Path):
    """(line number, line, literal) of each float literal written with an exponent."""
    text = path.read_text()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type == tokenize.NUMBER and "e" in tok.string.lower() and not tok.string.lower().startswith("0x"):
            yield tok.start[0], tok.line, tok.string


def test_no_threshold_literal_outside_the_table():
    stray = []
    for path in sorted(SRC.glob("*.py")):
        for lineno, line, literal in _exponent_literals(path):
            if path.name == "hermitian.py" and TABLE_ENTRY.match(line):
                continue
            stray.append(f"{path.name}:{lineno}: {literal}")
    assert stray == []


def test_table_entries_are_found():
    found = [line for _, line, _ in _exponent_literals(SRC / "hermitian.py")]
    assert found and all(TABLE_ENTRY.match(line) for line in found)


def _table_values() -> list:
    return [v for k, v in vars(hermitian).items() if k.isupper() and not k.startswith("_")]


def _subparsers():
    parser = cli.build_parser()
    (action,) = [a for a in parser._actions if a.dest == "command"]
    return action.choices


def test_every_threshold_option_is_mapped():
    options = {
        (name, action.dest)
        for name, sub in _subparsers().items()
        for action in sub._actions
        if action.dest in ("tol", "max_doublings")
    }
    assert options == set(CLI_DEFAULTS)


@pytest.mark.parametrize("command, dest", sorted(CLI_DEFAULTS))
def test_cli_default_reads_the_library_default(command, dest):
    fn, param = CLI_DEFAULTS[(command, dest)]
    cli_default = _subparsers()[command].get_default(dest)
    lib_default = inspect.signature(fn).parameters[param].default
    assert cli_default == lib_default
    # the same object, not an equal copy typed twice: both read one table entry
    assert cli_default is lib_default
    assert any(cli_default is v for v in _table_values())


TOLERANCE_PARAMETERS = {"tol", "atol", "rank_tol"}


def _tolerance_calls() -> dict:
    """Per public function or method that takes a tolerance: (parameter, positive only, call).

    Each call runs on inputs that every finite nonnegative tolerance accepts,
    so only the tolerance it is given can make it raise.
    """
    q = qmarkov
    op, rho = q.identity_operator(2), np.diag([0.3, 0.7]).astype(complex)
    chain = q.MarkovChain(operator=op, start=rho)
    meas = q.KrausMeasurement(scale=q.Scale(("0", "1")), kraus=(np.diag([1.0, 0.0]), np.diag([0.0, 1.0])))
    space = q.HiddenStateSpace(states=("u", "v"))
    x = q.InformationFunction(space=space, scale=q.Scale((-1, 1)), values=(1, -1))
    state = q.MarkovState(space=space, values=[0.5, 0.5])
    ops = (np.array([[0.5, 0.5], [0.0, 0.0]]), np.array([[0.0, 0.0], [0.5, 0.5]]))
    model = q.ObservableOperatorModel(scale=q.Scale(("a", "b")), operators=ops, pi=[0.5, 0.5])
    graph = q.DirectedGraph(node_count=2, edges=((0, 1), (1, 0)))
    outcomes = q.OutcomeDistribution(scale=q.Scale(("a", "b")), values=[0.5, 0.5])
    return {
        "is_hermitian": ("atol", False, lambda **kw: q.is_hermitian(np.eye(2), **kw)),
        "require_hermitian": ("atol", False, lambda **kw: q.require_hermitian(np.eye(2), **kw)),
        "is_nonnegative": ("tol", False, lambda **kw: q.is_nonnegative(np.eye(2), **kw)),
        "is_unitary": ("tol", False, lambda **kw: q.is_unitary(np.eye(2), **kw)),
        "is_trace_preserving": ("tol", False, lambda **kw: q.is_trace_preserving(op, **kw)),
        "sampled_nonnegativity": ("tol", False, lambda **kw: q.sampled_nonnegativity(op, 1, **kw)),
        "OutcomeDistribution.is_observable": ("tol", False, lambda **kw: outcomes.is_observable(**kw)),
        "is_observable": ("tol", False, lambda **kw: q.is_observable(meas, rho, **kw)),
        "is_t_observable": ("tol", False, lambda **kw: q.is_t_observable(meas, rho, 2, **kw)),
        "cesaro_average": ("tol", True, lambda **kw: q.cesaro_average(chain, **kw)),
        "is_stationary": ("tol", False, lambda **kw: q.is_stationary(chain, **kw)),
        "functional_average": ("tol", True, lambda **kw: q.functional_average(chain, np.eye(2), **kw)),
        "limiting_node_distribution": ("tol", True, lambda **kw: q.limiting_node_distribution(graph, op, rho, **kw)),
        "expectation": ("tol", False, lambda **kw: q.expectation(x, state, **kw)),
        "raw_moment": ("tol", False, lambda **kw: q.raw_moment(x, state, **kw)),
        "is_jointly_observable": ("tol", False, lambda **kw: q.is_jointly_observable([x, x], state, **kw)),
        "product_expectation": ("tol", False, lambda **kw: q.product_expectation(x, x, state, **kw)),
        "bell_check": ("tol", False, lambda **kw: q.bell_check(x, x, x, state, **kw)),
        "validate": ("tol", False, lambda **kw: q.validate(model, 2, **kw)),
        "prediction_matrix": ("rank_tol", True, lambda **kw: q.prediction_matrix(model, 2, **kw)),
        "entropy_rate": ("tol", False, lambda **kw: q.entropy_rate(model, 2, **kw)),
    }


TOLERANCE_CALLS = _tolerance_calls()


def test_every_tolerance_taker_is_listed():
    found = set()
    for name in qmarkov.__all__:
        obj = getattr(qmarkov, name)
        members = vars(obj).items() if inspect.isclass(obj) else [(None, obj)]
        for attr, fn in members:
            if callable(fn) and TOLERANCE_PARAMETERS & set(inspect.signature(fn).parameters):
                found.add(f"{name}.{attr}" if attr else name)
    assert found == set(TOLERANCE_CALLS)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, -1.0, 0.0, -0.0])
@pytest.mark.parametrize("name", sorted(TOLERANCE_CALLS))
def test_tolerance_must_be_finite_and_nonnegative(name, value):
    param, positive, call = TOLERANCE_CALLS[name]
    call()  # the default tolerance passes
    if value == 0 and not positive:
        call(**{param: value})  # a zero slack can be met
        return
    kind = "positive" if positive else "nonnegative"
    with pytest.raises(ValueError, match=f"^{param} must be {kind} and finite, got {value!r}$"):
        call(**{param: value})
