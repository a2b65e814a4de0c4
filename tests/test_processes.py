"""The CLI and the demos in a fresh interpreter under ``-W error``.

Each CLI run must exit through ``sys.exit`` with the code and the stdout and
stderr bytes of an in-process ``run`` of the same argv, print no traceback,
and leave no output file when it refuses its input.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from conftest import fresh_python, random_kraus_family
from qmarkov import DirectedGraph, from_kraus, io, random_quantum_density, shift_unitary
from qmarkov.cli import run

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))
WALK48 = "walk --graph cycles.json --operator shift48.json --density rho48.json"

# id: (argv, exit code, a text stderr holds, a file the run must not leave)
RUNS = {
    # the 2-Kraus channel at n = 24 converges in the stepped Cesaro phase; the unitary needs ~2^25
    # steps and sums them in its eigenbasis; the shift on two disjoint 24-cycles has every
    # eigenvalue twice; the Kraus file's chain-evolve steps its stack, never the n^2 x n^2
    # superoperator; the dense n = 12 file sums its Cesaro windows by stepping coordinates, and
    # its 2000-step path continues in K^32 blocks
    "bell": ("bell --builtin five-state", 0, "", None),
    "cesaro-kraus24": ("chain-cesaro --operator kraus24.json --density rho24.json", 0, "", None),
    "cesaro-unitary4": ("chain-cesaro --operator unitary4.json --density rho4.json", 0, "", None),
    "walk48-limiting": (f"{WALK48} --limiting", 0, "", None),
    "walk48-steps": (f"{WALK48} --steps 200", 0, "", None),
    "evolve-kraus24": ("chain-evolve --operator kraus24.json --density rho24.json --steps 2000", 0, "", None),
    "cesaro-dense12": ("chain-cesaro --operator dense12.json --density rho12.json", 0, "", None),
    "evolve-dense12": ("chain-evolve --operator dense12.json --density rho12.json --steps 2000 --format json", 0, "", None),
    # two refusals: one with an --output it must not leave, and the one no in-process CLI test makes
    "walk-tol": (f"{WALK48} --steps 200 --tol nan --output walk_nan.csv", 2, "tol", "walk_nan.csv"),
    "unobservable": ("bell --table unobservable.json", 2, "not jointly observable", None),
}


@pytest.fixture(scope="session")
def workdir(tmp_path_factory):
    """A directory holding every input file that RUNS names."""
    d = tmp_path_factory.mktemp("processes")
    table = {"states": ["a", "b"], "functions": {"X": [-1, 1], "Y": [1, -1], "Z": [1, 1]}, "q": [-0.5, 1.5]}
    (d / "unobservable.json").write_text(json.dumps(table))

    def kraus(name, mats):
        (d / name).write_text(json.dumps({"kraus": [io.matrix_to_dict(m) for m in mats]}))

    rng = np.random.default_rng(0)
    kraus("kraus24.json", random_kraus_family(rng, 24, 2))
    v = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))[0]
    kraus("unitary4.json", [v @ np.diag(np.exp(2j * np.pi * np.arange(4) / 5**0.5)) @ v.conj().T])
    io.save_matrix(d / "rho24.json", np.eye(24) / 24, kind="density")
    io.save_matrix(d / "rho4.json", np.diag([0.1, 0.2, 0.3, 0.4]), kind="density")
    cycles = DirectedGraph(48, tuple((c + k, c + (k + 1) % 24) for c in (0, 24) for k in range(24)))
    io.save_graph(d / "cycles.json", cycles)
    kraus("shift48.json", [shift_unitary(cycles)])
    io.save_matrix(d / "rho48.json", random_quantum_density(48, rng), kind="density")
    io.save_operator(d / "dense12.json", from_kraus(random_kraus_family(rng, 12, 2)))
    io.save_matrix(d / "rho12.json", random_quantum_density(12, rng), kind="density")
    return d


@pytest.mark.parametrize("argv, code, text, absent", RUNS.values(), ids=list(RUNS))
def test_cli_process_exits_as_run_returns(workdir, monkeypatch, capsysbinary, argv, code, text, absent):
    done = fresh_python("-m", "qmarkov.cli", *argv.split(), cwd=workdir, capture_output=True)
    assert done.returncode == code, done.stderr
    monkeypatch.chdir(workdir)
    assert run(argv.split()) == code
    captured = capsysbinary.readouterr()
    assert done.stdout == captured.out and done.stderr == captured.err
    err = done.stderr.decode()
    assert text in err if code else err == ""
    assert not any(s in err for s in ("Traceback", "islice", "array is too big"))
    assert absent is None or not (workdir / absent).exists()


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo, tmp_path):
    done = fresh_python(str(demo), cwd=tmp_path, capture_output=True)
    assert done.returncode == 0, done.stderr.decode()
