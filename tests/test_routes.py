"""Every way a chain steps gives the dense answer: one table of routes, crossed with one set of kernels.

A ``ROUTES`` entry makes its operator from a cell's seeded channel, drawn as the dense matrix K and
the Kraus stack, and bounds by ``tol`` the distance to a plain step loop of K (0 asks for
equality).  On a ``stack`` route forming a superoperator fails.  Every kernel runs on every cell
but those the cell skips where they would cost seconds or repeat another cell; the CLI kernel runs
on stack routes only, since a dense route's file is the dense file it is checked against.  A new
route needs one entry.
"""

from __future__ import annotations

import json
from collections.abc import Callable
from functools import partial
from typing import NamedTuple

import numpy as np
import pytest

from conftest import _phase_unitary, _step_loop, assert_cesaro_agrees, random_kraus_family, random_unitary
from qmarkov import DirectedGraph, MarkovChain, MarkovOperator, apply, boundedness_probe
from qmarkov import evolve, from_kraus, from_unitary, random_quantum_density, shift_unitary, walk
from qmarkov import chain as qchain, cli, io as qio, operators as qoperators
from qmarkov.hermitian import coords, from_coords
from qmarkov.operators import _image, diagonal_superop, kraus_superop


def _family(seed, n: int, k: int):
    """K of a seeded stack of k Kraus matrices on H_n (k = 0: one unitary), the stack, a start density."""
    rng = np.random.default_rng(seed)
    mats = np.array([random_unitary(rng, n)] if k == 0 else random_kraus_family(rng, n, k))
    return kraus_superop(mats), mats, random_quantum_density(n, rng)


def _shift():
    """The shift on two disjoint 6-cycles: a permutation unitary whose every eigenvalue is double."""
    u = shift_unitary(DirectedGraph(12, tuple((c + k, c + (k + 1) % 6) for c in (0, 6) for k in range(6))))
    return kraus_superop([u]), u[None], random_quantum_density(12, np.random.default_rng(92))


def _agreement(seed: int):
    """By seed % 4, n from 2 to 20: a Kraus stack, its matrix, a stochastic matrix (no stack), a unitary."""
    rng = np.random.default_rng(5000 + seed)
    n = int(rng.integers(2, 21))
    if seed % 4 == 2:
        m = rng.random((n, n)) ** 4
        return diagonal_superop(m / m.sum(axis=0)), None, random_quantum_density(n, rng)
    mats = np.array([random_unitary(rng, n)] if seed % 4 == 3 else random_kraus_family(rng, n, int(rng.integers(1, 4))))
    return kraus_superop(mats), mats, random_quantum_density(n, rng)


def _phase(seed: int):
    """A unitary on H_n, n from 2 to 12, of uniform, separated or degenerate phases by seed % 3."""
    rng = np.random.default_rng(9000 + seed)
    u, _ = _phase_unitary(rng, int(rng.integers(2, 13)), seed % 3)
    return kraus_superop([u]), u[None], random_quantum_density(len(u), rng)


def _refused(kind: str, n: int = 24):
    """A trace-preserving dense matrix that ``_recover_kraus`` must refuse, no stack, a start density."""
    rng = np.random.default_rng([141, n])
    if kind == "stochastic":  # Choi rank n^2
        m = rng.random((n, n))
        k = diagonal_superop(m / m.sum(axis=0))
    elif kind == "jordan":  # a negative entry: not completely positive
        m = np.zeros((n, n))
        m[:2, :2] = [[2.0, 1.0], [-1.0, 0.0]]
        rest = rng.random((n - 2, n - 2)) + 0.05
        m[2:, 2:] = rest / rest.sum(axis=0)
        k = diagonal_superop(m)
    elif kind == "random":
        k = 0.5 * rng.standard_normal((n * n, n * n)) / n
        k[0] = (np.arange(n * n) < n) - k[1:n].sum(axis=0)  # the basis traces: 1 for E_jj, else 0
    else:
        k = kraus_superop(random_kraus_family(rng, n, 2))  # rank 2, perturbed off the trace rows
        k[n:] += 1e-8 * rng.standard_normal((n * n - n, n * n))
    return k, None, random_quantum_density(n, np.random.default_rng(142))


class Cell(NamedTuple):
    draw: partial  # () -> (K, Kraus stack or None, start density), drawn when a kernel runs
    steps: int
    block: int = qchain.PATH_BLOCK
    max_doublings: int = 40
    skip: tuple = ()  # kernels left out
    cesaro_tol: float = 1e-12  # bound between the Cesaro average and doubling's


class Route(NamedTuple):
    make: Callable  # (K, Kraus stack or None) -> the operator
    cells: list
    tol: float = 1e-12  # bound on the distance to the step loop of K
    stack: bool = False  # forming a superoperator fails the test


def _dense(dense, kraus=None) -> MarkovOperator:
    return MarkovOperator(n=int(np.sqrt(len(dense))), matrix=dense)


def _unitary(dense, kraus):
    assert qchain._eigenbasis(kraus[0]) is not None  # so Cesaro windows are summed in the eigenbasis
    return from_unitary(kraus[0])


def _agreement_cells(kinds) -> list:
    # half the seeds cycle max_doublings through 0..12, so runs end on both sides of the hand-off at 2t > n^2
    return [
        Cell(partial(_agreement, s), 5, max_doublings=s % 13 if (s // 4) % 2 else 12, skip=("cli",))
        for s in range(60)
        if s % 4 in kinds
    ]


# (n, block, steps, whether the path switches to blocks at steps > n^2 and steps >= PATH_BLOCK)
_SWITCH = [(n, b, s, s > n * n and s >= b) for b in (2, 4, 8) for n in (2, 3, 4) for s in (n * n, n * n + 1, 3 * b + 5)]

ROUTES = {
    "dense-stepped": Route(_dense, [
        *(Cell(partial(_family, [80, n, b], n, 2), s, b) for n, b, s, blocked in _SWITCH if not blocked),
        Cell(partial(_family, 121, 4, 3), 16),
        Cell(partial(_shift), 144),
        *(Cell(partial(_refused, k), 300, skip=("cesaro",)) for k in ("stochastic", "jordan", "random", "perturbed")),
        *_agreement_cells({1, 2}),
    ], tol=0),
    "dense-blocked": Route(_dense, [
        *(Cell(partial(_family, [80, n, b], n, 2), s, b) for n, b, s, blocked in _SWITCH if blocked),
        *(Cell(partial(_family, [122, seed], 4, 2), 40) for seed in range(3)),
        *(Cell(partial(_shift), s) for s in (145, 200)),
        # K^32 at n = 24 and 32; the Jordan trap's path grows to ~90 and random K's at n = 32 to ~1, too far for 1e-12
        *(Cell(partial(_refused, k, n), 2 * n * n + 5, skip=("cesaro",))
          for k, n in (("random", 24), ("perturbed", 24), ("perturbed", 32))),
    ]),
    "from_kraus": Route(lambda dense, kraus: from_kraus(kraus), [
        *(Cell(partial(_family, [120, seed], 3, 2 + seed), s, skip=("cli",))  # the 116 cells run the CLI
          for seed in range(3) for s in (5, 9, 10, 40)),
        Cell(partial(_family, 121, 4, 3), 16),
        *(Cell(partial(_family, [122, seed], 4, 2), 40) for seed in range(3)),
        *(Cell(partial(_family, 116, 3, 2), s) for s in (5, 40)),
        *_agreement_cells({0}),
    ], stack=True),
    "from_unitary": Route(_unitary, [  # past 12 doublings the eigenbasis sums part from doubling's by up to ~1e-8
        Cell(partial(_family, 121, 4, 0), 16, max_doublings=12),
        *(Cell(partial(_family, [122, seed], 4, 0), 40, max_doublings=12) for seed in range(3)),
        Cell(partial(_shift), 200, max_doublings=12, skip=("cli",)),
        *_agreement_cells({3}),
        *(Cell(partial(_phase, s), 5, max_doublings=s % 13 if (s // 4) % 2 else 40, skip=("cli",), cesaro_tol=1e-7)
          for s in range(60)),
    ], stack=True),
    "recovered": Route(_dense, [  # dense matrices of low Choi rank, paths past n^2
        *(Cell(partial(_family, [140, n, r, 0], n, r), 2 * n * n + 5, skip=("cli",))
          for n in (20, 24, 32) for r in (1, 2, 3, 4)),
        Cell(partial(_family, [140, 48, 2, 0], 48, 2), 100, skip=("cesaro", "cli")),
    ], stack=True),
}


def _cells(kernel: str) -> list:
    def name(route: str, cell: Cell) -> str:
        text = "-".join([route, cell.draw.func.__name__[1:], *map(str, cell.draw.args), f"t{cell.steps}"])
        return text.replace(" ", "") + ("" if cell.block == qchain.PATH_BLOCK else f"-b{cell.block}")

    cells = [(key, r, c) for key, r in ROUTES.items() for c in r.cells if kernel not in c.skip]
    return [pytest.param(r, c, id=name(key, c)) for key, r, c in cells if r.stack or kernel != "cli"]


def _run(route: Route, cell: Cell, monkeypatch, doubling: bool = False):
    """(operator, K, Kraus stack, start) of the cell, with its PATH_BLOCK and, on a stack route, no superoperator.

    ``doubling``: past n^2 steps a Cesaro average of several Kraus matrices doubles on their superoperator.
    """
    dense, kraus, start = cell.draw()
    monkeypatch.setattr(qchain, "PATH_BLOCK", cell.block)
    op = route.make(dense, kraus)
    if route.stack and not (doubling and op.kraus is not None and len(op.kraus) > 1):
        monkeypatch.setattr(qoperators, "kraus_superop", lambda family: pytest.fail("a superoperator was formed"))
    return op, dense, kraus, start


def _agree(actual, expected, tol: float) -> None:
    """Equal shapes and entries at most ``tol`` apart (0 asks for equality); a NaN fails."""
    assert np.shape(actual) == np.shape(expected)
    gap = np.max(np.abs(np.subtract(actual, expected)), initial=0.0)
    assert gap <= tol, f"entries {gap:.3e} apart, bound {tol:.0e}"


def _own_form(op) -> bool:
    return op.__dict__.get("_recovered_kraus") is None


def _assert_route(op, kraus) -> None:
    """Below n = 24 no recovery was tried; from there a dense K steps a stack as long as the drawn one, or none."""
    if op.n < 24 or op.kraus is not None:
        assert "_recovered_kraus" not in op.__dict__
    else:
        assert op._recovered_kraus is None if kraus is None else len(op._recovered_kraus) == len(kraus)


@pytest.mark.parametrize("route, cell", _cells("first"))
def test_first_step_agrees_across_kernels(route, cell, monkeypatch):
    op, _, kraus, start = _run(route, cell, monkeypatch)
    c0 = coords(start)
    image = _image(op, c0)
    np.testing.assert_array_equal(apply(op, start), from_coords(image))
    np.testing.assert_array_equal(evolve(MarkovChain(operator=op, start=start), 1)[1], from_coords(image))
    np.testing.assert_array_equal(next(qchain._path_blocks(op, c0, 1))[1], image)
    row = next(qchain._path_blocks(op, c0, cell.steps))[1]
    t, window, _ = next(qchain._window_sums(op, c0))
    assert t == 1
    _agree(row, image, 0 if _own_form(op) else route.tol)
    _agree(window, image, 0 if _own_form(op) else route.tol)
    _assert_route(op, kraus)


@pytest.mark.parametrize("route, cell", _cells("path"))
def test_paths_agree_with_the_step_loop(route, cell, monkeypatch):
    op, dense, kraus, start = _run(route, cell, monkeypatch)
    chain, n, steps = MarkovChain(operator=op, start=start), op.n, cell.steps
    expected = _step_loop(dense, coords(start), steps)
    blocks = [block.copy() for block in qchain._path_blocks(op, coords(start), steps)]
    assert all(1 <= len(block) <= cell.block for block in blocks)
    path = np.concatenate(blocks)
    _agree(path, expected, route.tol)
    if op.kraus is None and _own_form(op):  # K stepped the first block
        _agree(path[: cell.block], expected[: cell.block], 0)
    densities = evolve(chain, steps)
    _agree(densities[0], start, 0)
    _agree(densities[1:], from_coords(path[1:]), 0)  # so within tol of the loop's densities

    purities = np.einsum("ij,ij->i", expected, expected)  # tr(Q^2) is the squared coordinate norm
    low = np.sort(purities)
    gap = int(np.argmax(np.diff(low)))  # a bound midway across the widest gap, above all if that gap is rounding
    bound = low[gap : gap + 2].mean() if low[gap + 1] - low[gap] > 1e-9 else low[-1] + 1e-9
    report = boundedness_probe(chain, steps, bound)
    _agree(report.max_value, low[-1], route.tol)
    exceeded = np.flatnonzero(purities > bound)
    assert report.first_exceeded == (int(exceeded[0]) if exceeded.size else None)

    graph = DirectedGraph(n, tuple((k, (k + 1) % n) for k in range(n)))  # edge k leaves node k
    _agree(walk(graph, op, start, steps).node_probabilities, expected[:, :n], route.tol)
    _assert_route(op, kraus)


@pytest.mark.parametrize("route, cell", _cells("cesaro"))
def test_cesaro_agrees_with_doubling(route, cell, monkeypatch):
    op, dense, kraus, start = _run(route, cell, monkeypatch, doubling=True)
    chain, dense_chain = MarkovChain(operator=op, start=start), MarkovChain(operator=_dense(dense), start=start)
    assert_cesaro_agrees(chain, dense_chain, bound=cell.cesaro_tol, tol=1e-8, max_doublings=cell.max_doublings)
    _assert_route(op, kraus)


def _numbers(value) -> list:
    """Every number in a parsed JSON value, in document order."""
    if isinstance(value, (dict, list)):
        return [x for item in (value.values() if isinstance(value, dict) else value) for x in _numbers(item)]
    return [value] if isinstance(value, (int, float)) else []


@pytest.mark.parametrize("route, cell", _cells("cli"))
def test_cli_agrees_with_the_dense_file(route, cell, monkeypatch, tmp_path, capsys):
    op, dense, _, start = _run(route, cell, monkeypatch)
    n, dense_file, route_file = op.n, tmp_path / "dense.json", tmp_path / "route.json"
    rho, graph = tmp_path / "rho.json", tmp_path / "graph.txt"
    qio.save_operator(dense_file, _dense(dense))
    route_file.write_text(json.dumps({"n": n, "kraus": [qio.matrix_to_dict(m) for m in op.kraus]}))
    qio.save_matrix(rho, start, kind="density")
    graph.write_text("".join(f"{k} {(k + 1) % n}\n" for k in range(n)))

    def table(command, fmt, operator):
        argv = [command, "--operator", str(operator), "--density", str(rho), "--steps", str(cell.steps)]
        assert cli.run([*argv, "--format", fmt, *(["--graph", str(graph)] if command == "walk" else [])]) == 0
        text = capsys.readouterr().out
        if fmt == "json":
            return text[:1], _numbers(json.loads(text))
        header, *lines = text.splitlines()
        return header, [float(x) for line in lines for x in line.split(",")]

    for command in ("chain-evolve", "walk"):
        for fmt in ("csv", "json"):
            dense_header, dense_numbers = table(command, fmt, dense_file)
            header, numbers = table(command, fmt, route_file)
            assert header == dense_header
            _agree(numbers, dense_numbers, route.tol)
