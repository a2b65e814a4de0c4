"""Every numerical threshold lives in the tolerance table of ``qmarkov.hermitian``.

The first check scans the package source for exponent-form float literals
(``1e-10``) and allows them only as the value of a table entry: a
module-level upper-case assignment in ``hermitian.py``.  The second checks
that each CLI ``--tol`` and ``--max-doublings`` default is the table entry
that the library function it feeds uses as its own default.
"""

import inspect
import io
import re
import tokenize
from pathlib import Path

import pytest

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
