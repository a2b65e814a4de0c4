"""Shared builders for the test suite."""

from __future__ import annotations

import contextlib
import os
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qmarkov
from qmarkov import ConvergenceError, MarkovChain, ObservableOperatorModel, Scale
from qmarkov import chain as qchain
from qmarkov.hermitian import coords, from_coords

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def fresh_python(*args: str, start=subprocess.run, **kwargs):
    """``python -W error *args`` in a fresh interpreter that imports this checkout's ``qmarkov``.

    ``start`` is ``subprocess.run``, which waits at most 120 s, or
    ``subprocess.Popen``; the keyword arguments go to it.  Stdout keeps the
    buffer it has by default.
    """
    src = str(Path(qmarkov.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    env.pop("PYTHONUNBUFFERED", None)
    if start is subprocess.run:
        kwargs.setdefault("timeout", 120)
    return start([sys.executable, "-W", "error", *args], env=env, **kwargs)


@contextlib.contextmanager
def deadline(seconds: float):
    """Fail the test from a SIGALRM timer once the block has run ``seconds`` of wall time (POSIX, main thread).

    ``pytest.fail`` raises no ``Exception``, so the code under test cannot catch it.
    """

    def expire(signum, frame):
        pytest.fail(f"still running after {seconds} s of wall time")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _step_loop(k: np.ndarray, c: np.ndarray, steps: int) -> np.ndarray:
    """Coordinates of K^t c for t = 0..steps, one mat-vec per step."""
    rows = [c]
    for _ in range(steps):
        c = k @ c
        rows.append(c)
    return np.array(rows)


def _doubling_oracle(chain: MarkovChain, tol: float = 1e-8, max_doublings: int = 40):
    """Cesaro averages by superoperator doubling from t = 1, with the same checks as cesaro_average."""
    k = chain.operator.matrix
    n = chain.operator.n
    c0 = coords(chain.start)

    partial = k @ c0
    residual = float(np.linalg.norm(partial - c0))
    if residual <= tol:
        return qchain.CesaroResult(average=np.array(chain.start), iterations=0, residual=residual)

    t_mat = k.copy()
    t = 1
    previous_tail = None
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(max_doublings + 1):
            avg = qchain._unit_trace(partial / t, n)
            residual = float(np.linalg.norm(k @ avg - avg))
            if not np.isfinite(residual):
                raise ConvergenceError(
                    f"averages diverged after {t} steps; the chain appears unbounded"
                )
            if residual <= tol:
                return qchain.CesaroResult(average=from_coords(avg), iterations=t, residual=residual)
            shifted = t_mat @ partial
            tail = qchain._unit_trace(shifted / t, n)
            tail_residual = float(np.linalg.norm(k @ tail - tail))
            if (
                tail_residual <= tol
                and previous_tail is not None
                and float(np.linalg.norm(tail - previous_tail)) <= tol
            ):
                return qchain.CesaroResult(average=from_coords(tail), iterations=2 * t, residual=tail_residual)
            previous_tail = tail
            partial += shifted
            t_mat = t_mat @ t_mat
            t *= 2
    raise ConvergenceError(
        f"stationarity residual {residual:.3e} still above {tol:.1e} after "
        f"{max_doublings} doublings (t = {t // 2}); the chain may be unbounded"
    )


def assert_cesaro_agrees(chain: MarkovChain, dense: MarkovChain, bound: float, tol: float, max_doublings: int) -> None:
    """cesaro_average of ``chain`` ends as :func:`_doubling_oracle` of ``dense`` does.

    Both converge at one iteration count, within ``tol`` of stationary and within ``bound`` of each other, or both
    raise one ConvergenceError text.
    """
    kwargs = {"tol": tol, "max_doublings": max_doublings}
    try:
        expected = _doubling_oracle(dense, **kwargs)
    except ConvergenceError as exc:
        with pytest.raises(ConvergenceError) as raised:
            qchain.cesaro_average(chain, **kwargs)
        assert str(raised.value) == str(exc)
        return
    result = qchain.cesaro_average(chain, **kwargs)
    assert result.iterations == expected.iterations and result.residual <= tol
    np.testing.assert_allclose(result.average, expected.average, rtol=0, atol=bound)


def random_hermitian(rng: np.random.Generator, n: int, scale: float = 1.0) -> np.ndarray:
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return scale * (g + g.conj().T) / 2.0


def random_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(g)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def random_kraus_family(rng: np.random.Generator, n: int, k: int) -> list[np.ndarray]:
    """k Kraus matrices from a random isometry, so sum M_a* M_a = I exactly."""
    g = rng.standard_normal((k * n, n)) + 1j * rng.standard_normal((k * n, n))
    q, _ = np.linalg.qr(g)
    return [q[i * n : (i + 1) * n, :] for i in range(k)]


def _phase_unitary(rng: np.random.Generator, n: int, kind: int):
    """(U, V) with U = V diag(exp(i phases)) V* for seeded phases.

    kind 0 draws uniform phases, kind 1 phases at least pi/n apart, kind 2
    degenerate phases of period 2, 3 or 4.
    """
    v = random_unitary(rng, n)
    if kind == 0:
        phases = rng.uniform(0.0, 2 * np.pi, n)
    elif kind == 1:
        phases = 2 * np.pi * (np.arange(n) + rng.uniform(0.0, 0.5, n)) / n
    else:
        period = int(rng.integers(2, 5))
        phases = 2 * np.pi * rng.integers(0, period, n) / period
    return (v * np.exp(1j * phases)) @ v.conj().T, v


def random_oom(rng: np.random.Generator, m: int, symbols: tuple) -> ObservableOperatorModel:
    """Random OOM with possibly negative entries; column sums of the total are 1."""
    k = len(symbols)
    ops = rng.standard_normal((k, m, m)) * 0.4
    col_sums = ops.sum(axis=0).sum(axis=0)
    ops += (1.0 - col_sums)[None, None, :] / (k * m)
    while True:
        pi = rng.standard_normal(m)
        if abs(pi.sum()) > 0.2:
            break
    pi = pi / pi.sum()
    return ObservableOperatorModel(scale=Scale(tuple(symbols)), operators=tuple(ops), pi=pi)


def random_hmm(rng: np.random.Generator, m: int, symbols: tuple):
    """Column-stochastic transition, per-state emissions, and an initial law."""
    t = rng.random((m, m)) + 0.05
    t = t / t.sum(axis=0, keepdims=True)
    e = rng.random((len(symbols), m)) + 0.05
    e = e / e.sum(axis=0, keepdims=True)
    pi = rng.random(m) + 0.05
    pi = pi / pi.sum()
    emissions = {s: e[i] for i, s in enumerate(symbols)}
    return t, emissions, pi


def hmm_word_probability_bruteforce(t, emissions, pi, word) -> float:
    """Path-enumeration oracle: sum over hidden state paths of the joint law."""
    m = pi.shape[0]
    if not word:
        return 1.0
    total = 0.0
    paths = [[s] for s in range(m)]
    for _ in range(len(word) - 1):
        paths = [p + [s] for p in paths for s in range(m)]
    for path in paths:
        prob = pi[path[0]] * emissions[word[0]][path[0]]
        for i in range(1, len(word)):
            prob *= t[path[i], path[i - 1]] * emissions[word[i]][path[i]]
        total += prob
    return total
