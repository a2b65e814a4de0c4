"""Complex and Hermitian matrix algebra.

Matrices are plain numpy arrays (``complex128``).  Hermitian matrices with
unit trace ("Markov densities") carry system states throughout the package.
The canonical orthonormal basis of the real Hilbert space of Hermitian
n x n matrices fixes the n^2-dimensional real coordinate system in which
superoperators are represented (see :func:`hermitian_basis`,
:func:`coords` and :func:`from_coords`).

This module is the root of the import graph, so it also holds the
package's tolerance table and the one check of each shared invariant
(finite read-only arrays, unit sums, unit column sums, unitarity, matching
dimensions) and of each argument kind (counts, tolerances).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "EQUALITY_TOL",
    "SIGN_TOL",
    "HERMITIAN_TOL_PER_DIM",
    "PROBABILITY_FLOOR",
    "BELL_TOL",
    "CESARO_TOL",
    "CESARO_MAX_DOUBLINGS",
    "RANK_TOL",
    "RECOVERY_TOL",
    "SAMPLED_SIGN_TOL",
    "UNIT_TRACE_FLOOR",
    "SpectralDecomposition",
    "adjoint",
    "hs_inner",
    "hs_norm",
    "hermitian_atol",
    "is_hermitian",
    "require_hermitian",
    "require_markov_density",
    "spectral_decompose",
    "min_eigenvalue",
    "is_nonnegative",
    "pure_state",
    "is_unitary",
    "hermitian_basis",
    "coords",
    "from_coords",
]

# Tolerance table: every numerical threshold of the package, named once.
# Slack of identities exact in exact arithmetic: unit trace, unit sums,
# unit column sums, trace preservation, Kraus completeness, unitarity.
EQUALITY_TOL = 1e-10
# How far below zero an eigenvalue, outcome value or HMM probability may
# lie and still count as nonnegative ("observable").
SIGN_TOL = 1e-10
HERMITIAN_TOL_PER_DIM = 1e-12  # ||Q - Q*|| slack per unit of dimension
# Posteriors and conditionals need a probability above this floor; it is
# also the sign slack of the OOM word scans (validate, entropy_rate).
PROBABILITY_FLOOR = 1e-12
BELL_TOL = 1e-12  # slack of |E(XY) - E(YZ)| <= 1 - E(XZ)
CESARO_TOL = 1e-8  # Cesaro stationarity residual target
CESARO_MAX_DOUBLINGS = 40  # Cesaro horizon doublings, up to t = 2^40 steps
RANK_TOL = 1e-8  # singular values above RANK_TOL * largest count for the rank
# Relative slack of a Kraus stack recovered from a dense operator matrix,
# on its check probes: ||K x - image of x|| <= RECOVERY_TOL ||K x||.
RECOVERY_TOL = 1e-12
SAMPLED_SIGN_TOL = 1e-9  # sign slack of images in sampled_nonnegativity
UNIT_TRACE_FLOOR = 1e-6  # Cesaro averages with |trace| below this stay unscaled

_SQRT2 = float(np.sqrt(2.0))


def hermitian_atol(n: int) -> float:
    """Hermiticity tolerance for an n x n matrix."""
    return HERMITIAN_TOL_PER_DIM * n


def adjoint(c: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a complex matrix."""
    c = np.asarray(c, dtype=complex)
    if c.ndim != 2:
        raise ValueError(f"adjoint expects a matrix, got array of ndim {c.ndim}")
    return c.conj().T


def hs_inner(c: np.ndarray, d: np.ndarray) -> complex:
    """Hilbert-Schmidt inner product tr(C* D)."""
    c = np.asarray(c, dtype=complex)
    d = np.asarray(d, dtype=complex)
    if c.shape != d.shape:
        raise ValueError(f"shape mismatch in inner product: {c.shape} vs {d.shape}")
    return complex(np.vdot(c, d))


def hs_norm(c: np.ndarray) -> float:
    """Hilbert-Schmidt (Frobenius) norm sqrt(tr(C* C))."""
    return float(np.linalg.norm(np.asarray(c, dtype=complex)))


def _as_square(q: np.ndarray, name: str, dtype=complex) -> np.ndarray:
    q = np.asarray(q, dtype=dtype)
    if q.ndim != 2 or q.shape[0] != q.shape[1]:
        raise ValueError(f"{name} must be a square matrix, got shape {q.shape}")
    if not _all_finite(q):
        raise ValueError(f"{name} contains non-finite entries")
    return q


def _all_finite(array: np.ndarray) -> bool:
    """True when every entry of a float or complex array is finite, with no mask of its size: a NaN
    propagates through ``min`` and ``max``, and an infinity of either sign reaches one of them."""
    parts = (array.real, array.imag) if array.dtype.kind == "c" else (array,)
    return all(math.isfinite(part.min(initial=0.0)) and math.isfinite(part.max(initial=0.0)) for part in parts)


def is_hermitian(q: np.ndarray, atol: float | None = None) -> bool:
    """True when ||Q - Q*|| is within the construction tolerance."""
    q = _as_square(q, "matrix")
    atol = hermitian_atol(q.shape[0]) if atol is None else _require_tol(atol, "atol")
    return bool(np.linalg.norm(q - q.conj().T) <= atol)


def require_hermitian(q: np.ndarray, atol: float | None = None, name: str = "matrix") -> np.ndarray:
    """Validate Hermiticity and return the matrix as a complex array."""
    q = _as_square(q, name)
    atol = hermitian_atol(q.shape[0]) if atol is None else _require_tol(atol, "atol")
    dev = float(np.linalg.norm(q - q.conj().T))
    if dev > atol:
        raise ValueError(f"{name} is not Hermitian: ||Q - Q*|| = {dev:.3e} exceeds {atol:.1e}")
    return q


def require_markov_density(q: np.ndarray, name: str = "density") -> np.ndarray:
    """Validate a Markov density: Hermitian with trace 1 (eigenvalues unrestricted)."""
    q = require_hermitian(q, name=name)
    tr = complex(np.trace(q)).real
    if abs(tr - 1.0) > EQUALITY_TOL:
        raise ValueError(f"{name} must have trace 1, got trace {tr!r}")
    return q


@dataclass(frozen=True, eq=False)
class SpectralDecomposition:
    """Eigenvalues (descending) and matching orthonormal eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        """Reassemble sum_i lambda_i v_i v_i*."""
        v = self.eigenvectors
        return (v * self.eigenvalues) @ v.conj().T


def spectral_decompose(q: np.ndarray) -> SpectralDecomposition:
    """Spectral decomposition of a Hermitian matrix.

    Eigenvalues are sorted descending; exact ties are ordered by comparing
    eigenvector components lexicographically.  Each eigenvector is phase
    normalized (leading maximal-modulus component made real positive) so the
    output is reproducible.
    """
    q = require_hermitian(q)
    herm = (q + q.conj().T) / 2.0
    try:
        vals, vecs = np.linalg.eigh(herm)
    except np.linalg.LinAlgError as exc:
        raise ValueError("eigendecomposition did not converge") from exc
    n = vals.size
    for i in range(n):
        col = vecs[:, i]
        pivot = int(np.argmax(np.abs(col)))
        lead = col[pivot]
        mag = abs(lead)
        if mag > 0.0:
            vecs[:, i] = col * (lead.conjugate() / mag)

    # lexsort's last key is the primary one: -vals, then re and im of row 0, 1, ...
    parts = np.stack((vecs.real, vecs.imag), axis=1).reshape(2 * n, n)
    order = np.lexsort(np.vstack((parts[::-1], -vals)))
    vals = vals[order]
    vecs = np.ascontiguousarray(vecs[:, order])
    vals.setflags(write=False)
    vecs.setflags(write=False)
    return SpectralDecomposition(eigenvalues=vals, eigenvectors=vecs)


def min_eigenvalue(q: np.ndarray) -> float:
    """Smallest eigenvalue of a Hermitian matrix."""
    q = require_hermitian(q)
    herm = (q + q.conj().T) / 2.0
    return float(np.linalg.eigvalsh(herm)[0])


def is_nonnegative(q: np.ndarray, tol: float = SIGN_TOL) -> bool:
    """True when every eigenvalue is >= -tol."""
    return min_eigenvalue(q) >= -_require_tol(tol)


def pure_state(v: np.ndarray) -> np.ndarray:
    """Normalized rank-1 density vv*/<v|v> for a nonzero vector."""
    v = np.asarray(v, dtype=complex).reshape(-1)
    norm_sq = float(np.vdot(v, v).real)
    if not norm_sq > 0.0:
        raise ValueError("cannot build a pure state from the zero vector")
    return np.outer(v, v.conj()) / norm_sq


def is_unitary(u: np.ndarray, tol: float = EQUALITY_TOL) -> bool:
    """True when ||UU* - I|| <= tol."""
    u = _as_square(u, "matrix")
    n = u.shape[0]
    return bool(np.linalg.norm(u @ u.conj().T - np.eye(n)) <= _require_tol(tol))


def _require_unitary(u: np.ndarray) -> np.ndarray:
    """Validate unitarity within EQUALITY_TOL and return the matrix as a complex array."""
    u = np.asarray(u, dtype=complex)
    if not is_unitary(u):
        raise ValueError(f"matrix is not unitary within {EQUALITY_TOL:g} (UU* must equal I)")
    return u


def _frozen_array(value, name: str, dtype, shape: tuple | None = None) -> np.ndarray:
    """A read-only copy of ``value`` as ``dtype``, checked by :func:`_freeze`."""
    return _freeze(np.array(value, dtype=dtype), name, shape)


def _freeze(array: np.ndarray, name: str, shape: tuple | None = None) -> np.ndarray:
    """``array`` itself, made read-only once it has ``shape`` (when given) and finite entries; an array
    no one else holds: the copy of :func:`_frozen_array`, or one its maker hands over."""
    if shape is not None and array.shape != shape:
        raise ValueError(f"{name} must have shape {shape}, got {array.shape}")
    if not _all_finite(array):
        raise ValueError(f"{name} contains non-finite entries")
    array.setflags(write=False)
    return array


def _require_unit_sum(values: np.ndarray, name: str, note: str = "") -> float:
    """Raise unless the values are finite and sum to 1; returns |sum - 1|.

    ``note`` is appended to the error, to explain a sum other than 1.
    """
    if not _all_finite(values):
        raise ValueError(f"{name} must sum to 1, got non-finite entries")
    total = float(np.sum(values))
    if abs(total - 1.0) > EQUALITY_TOL:
        raise ValueError(f"{name} must sum to 1, got component sum {total!r}{note}")
    return abs(total - 1.0)


def _require_column_sums(m: np.ndarray, message: str) -> float:
    """Raise ``message`` unless every column of m sums to 1; returns the largest |sum - 1|.

    A non-finite entry makes the deviation NaN or inf, which fails too.
    """
    dev = float(np.max(np.abs(m.sum(axis=0) - 1.0)))
    if not dev <= EQUALITY_TOL:
        raise ValueError(f"{message}, largest deviation {dev:.3e}")
    return dev


def _require_count(value, name: str, least: int = 0) -> int:
    """``value`` as an int: an integer, not a bool, from ``least`` (0 or 1) up to numpy's largest index."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        bound = "a positive integer" if least else "nonnegative"
        kind = "such counts are positive" if least else "counts are nonnegative"
        raise ValueError(f"{name} must be {bound}, got {value!r}: {kind} integers, not bools or floats")
    if value > np.iinfo(np.intp).max:  # the error numpy raises for a size past its index type
        raise OverflowError(f"Python int too large for numpy's index type: {name} = {value}")
    return int(value)


def _require_tol(value, name: str = "tol", positive: bool = False) -> float:
    """``value`` as a float, finite and >= 0, or > 0 when ``positive``: a NaN or inf would decide every test alone."""
    tol = float(value)
    if not (np.isfinite(tol) and (tol > 0 if positive else tol >= 0)):
        raise ValueError(f"{name} must be {'positive' if positive else 'nonnegative'} and finite, got {value!r}")
    return tol


def _require_same_dim(n: int, m: int, left: str, right: str) -> None:
    """Raise unless ``left`` on H_n and ``right`` on H_m share one dimension."""
    if n != m:
        raise ValueError(f"dimension mismatch: {left} on H_{n}, {right} on H_{m}")


def hermitian_basis(n: int) -> np.ndarray:
    """Canonical orthonormal basis of the Hermitian n x n matrices, shape (n^2, n, n).

    Order: the n diagonal units E_ii first, then for each index pair i < j
    (row-major) the symmetric element (E_ij + E_ji)/sqrt(2) immediately
    followed by the antisymmetric element i(E_ij - E_ji)/sqrt(2).  This is
    the coordinate order used by :func:`coords` and by every superoperator
    matrix in the package ("canonical-hermitian-v1").
    """
    n = _require_count(n, "dimension", least=1)
    return from_coords(np.eye(n * n))


@lru_cache(maxsize=8)
def _upper_indices(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column indices of the entries above the diagonal, row-major, read-only."""
    iu, ju = np.triu_indices(n, k=1)
    iu.setflags(write=False)
    ju.setflags(write=False)
    return iu, ju


def coords(q: np.ndarray) -> np.ndarray:
    """Real coordinates of Hermitian matrices in the canonical basis.

    Accepts a single (n, n) matrix or a batch (..., n, n); returns (..., n^2).
    The map is a linear isometry for the Hilbert-Schmidt norm.  Input must be
    Hermitian; the anti-Hermitian part is discarded silently.
    """
    q = np.asarray(q, dtype=complex)
    if q.ndim < 2 or q.shape[-1] != q.shape[-2]:
        raise ValueError(f"coords expects square matrices, got shape {q.shape}")
    n = q.shape[-1]
    iu, ju = _upper_indices(n)
    out = np.empty(q.shape[:-2] + (n * n,), dtype=float)
    out[..., :n] = np.diagonal(q, axis1=-2, axis2=-1).real
    off = q[..., iu, ju]
    out[..., n::2] = _SQRT2 * off.real
    out[..., n + 1 :: 2] = _SQRT2 * off.imag
    return out


def from_coords(c: np.ndarray) -> np.ndarray:
    """Inverse of :func:`coords`: (..., n^2) real coordinates to Hermitian (..., n, n)."""
    c = np.asarray(c, dtype=float)
    if c.ndim < 1:
        raise ValueError("from_coords expects at least one coordinate axis")
    m = c.shape[-1]
    n = int(round(np.sqrt(m)))
    if n * n != m:
        raise ValueError(f"coordinate length {m} is not a perfect square")
    q = np.zeros(c.shape[:-1] + (n, n), dtype=complex)
    idx = np.arange(n)
    q[..., idx, idx] = c[..., :n]
    iu, ju = _upper_indices(n)
    # in-place steps keep a batch to one complex temporary
    off = 1j * c[..., n + 1 :: 2]
    off += c[..., n::2]
    off /= _SQRT2
    q[..., iu, ju] = off
    q[..., ju, iu] = np.conjugate(off, out=off)
    return q
