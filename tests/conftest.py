"""Shared builders for the test suite."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import qmarkov
from qmarkov import ObservableOperatorModel, Scale

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
