"""Seeded input generator for the qmarkov benchmark.

Everything here is plain numpy and deliberately does not import qmarkov: the
program under test only ever sees the files written by this module, and the
oracles compare its output against the matrices kept here.  File formats are
the ones documented in the repository README (matrices as row-major
``[re, im]`` pairs, superoperators as real ``n^2 x n^2`` matrices in the
canonical Hermitian basis "canonical-hermitian-v1").
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

SQRT2 = np.sqrt(2.0)
BASIS_TAG = "canonical-hermitian-v1"


# -- canonical Hermitian coordinates ------------------------------------------
# Order: the n diagonal units, then for each pair i < j (row-major) the
# symmetric element (E_ij + E_ji)/sqrt2 followed by i(E_ij - E_ji)/sqrt2.


def coords(q: np.ndarray) -> np.ndarray:
    """Coordinates of a Hermitian matrix (or a batch of them)."""
    n = q.shape[-1]
    iu, ju = np.triu_indices(n, k=1)
    off = q[..., iu, ju]
    out = np.empty(q.shape[:-2] + (n * n,))
    out[..., :n] = np.diagonal(q, axis1=-2, axis2=-1).real
    out[..., n::2] = SQRT2 * off.real
    out[..., n + 1 :: 2] = SQRT2 * off.imag
    return out


def from_coords(c: np.ndarray) -> np.ndarray:
    n = int(round(np.sqrt(c.shape[-1])))
    q = np.zeros(c.shape[:-1] + (n, n), dtype=complex)
    idx = np.arange(n)
    q[..., idx, idx] = c[..., :n]
    iu, ju = np.triu_indices(n, k=1)
    off = (c[..., n::2] + 1j * c[..., n + 1 :: 2]) / SQRT2
    q[..., iu, ju] = off
    q[..., ju, iu] = off.conj()
    return q


def superop(kraus) -> np.ndarray:
    """Canonical-basis matrix of Q -> sum_a M_a Q M_a* (one column per basis element)."""
    n = kraus[0].shape[0]
    basis = from_coords(np.eye(n * n))
    images = sum(m @ basis @ m.conj().T for m in kraus)
    return np.ascontiguousarray(coords(images).T)


def apply_kraus(kraus, q: np.ndarray) -> np.ndarray:
    return sum(m @ q @ m.conj().T for m in kraus)


# -- random models ------------------------------------------------------------


def kraus_family(rng: np.random.Generator, n: int, k: int) -> list[np.ndarray]:
    """k Kraus matrices cut from a random isometry, so sum M_a* M_a = I."""
    g = rng.standard_normal((k * n, n)) + 1j * rng.standard_normal((k * n, n))
    q, _ = np.linalg.qr(g)
    return [q[i * n : (i + 1) * n, :] for i in range(k)]


def unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(g)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def spaced_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    """Random eigenbasis with eigenphases at least pi/n apart, so the Cesaro
    average needs a long but bounded horizon."""
    phases = 2 * np.pi * (np.arange(n) + rng.uniform(0.0, 0.5, size=n)) / n
    v = unitary(rng, n)
    return (v * np.exp(1j * phases)) @ v.conj().T


def density(rng: np.random.Generator, n: int) -> np.ndarray:
    """Full-rank random quantum density."""
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    w = g @ g.conj().T
    return w / np.trace(w).real


def jordan_stochastic(rng: np.random.Generator, n: int) -> np.ndarray:
    """Column-sum-1 matrix whose eigenvalue 1 sits in a 2x2 Jordan block.

    The leading block [[2, 1], [-1, 0]] is defective, so its powers grow
    linearly and no Cesaro average exists; the rest is a random stochastic
    matrix.
    """
    m = np.zeros((n, n))
    m[:2, :2] = [[2.0, 1.0], [-1.0, 0.0]]
    rest = rng.random((n - 2, n - 2)) + 0.1
    m[2:, 2:] = rest / rest.sum(axis=0)
    return m


def graph(rng: np.random.Generator, nodes: int, edges: int) -> list[tuple[int, int]]:
    """Distinct directed edges; every node gets an outgoing edge first."""
    chosen = [(u, int(rng.integers(nodes))) for u in range(nodes)]
    pool = [(u, v) for u in range(nodes) for v in range(nodes) if (u, v) not in chosen]
    extra = rng.choice(len(pool), size=edges - nodes, replace=False)
    out = chosen + [pool[i] for i in extra]
    return [out[i] for i in rng.permutation(len(out))]


def hmm_oom(rng: np.random.Generator, m: int, k: int) -> tuple[list[np.ndarray], np.ndarray]:
    """OOM of a random hidden Markov model: M_a = T diag(E_a), pi a distribution.

    Transitions are sparse-ish (a dominant successor per state) so the
    Hankel spectrum stays well above the rank cutoff.
    """
    t = rng.random((m, m)) * 0.2
    t[rng.permutation(m), np.arange(m)] += 1.0
    t /= t.sum(axis=0)
    e = rng.random((k, m)) ** 3 + 0.02
    e /= e.sum(axis=0)
    pi = rng.random(m) + 0.1
    pi /= pi.sum()
    return [t * e[a][None, :] for a in range(k)], pi


# -- file writers -------------------------------------------------------------


def matrix_dict(m: np.ndarray, kind: str | None = None) -> dict:
    d = {
        "rows": m.shape[0],
        "cols": m.shape[1],
        "entries": [[float(z.real), float(z.imag)] for z in m.reshape(-1)],
    }
    if kind:
        d["kind"] = kind
    return d


def write_json(path: Path, payload) -> Path:
    path.write_text(json.dumps(payload) + "\n")
    return path


def write_density(path: Path, q: np.ndarray) -> Path:
    return write_json(path, matrix_dict(q, kind="density"))


def write_kraus(path: Path, kraus) -> Path:
    n = kraus[0].shape[0]
    return write_json(path, {"n": n, "kraus": [matrix_dict(m) for m in kraus]})


def write_operator(path: Path, n: int, matrix: np.ndarray) -> Path:
    return write_json(path, {"n": n, "basis": BASIS_TAG, "matrix": matrix.tolist()})


def write_graph(path: Path, edges) -> Path:
    path.write_text("".join(f"{u} {v}\n" for u, v in edges))
    return path


def write_oom(path: Path, symbols, ops, pi) -> Path:
    return write_json(
        path,
        {
            "dim": len(pi),
            "scale": list(symbols),
            "operators": {s: op.tolist() for s, op in zip(symbols, ops)},
            "pi": pi.tolist(),
        },
    )
