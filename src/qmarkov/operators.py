"""Trace-preserving linear operators (Markovians) on Hermitian matrices.

A Markov operator is stored as a real n^2 x n^2 matrix acting on canonical
basis coordinates (see :mod:`qmarkov.hermitian`).  Constructors cover the
three standard sources: Kraus families, unitary conjugation, and stochastic
matrices extended from the diagonal subspace by annihilating off-diagonal
coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hermitian import (
    _SQRT2,
    EQUALITY_TOL,
    SAMPLED_SIGN_TOL,
    _frozen_array,
    _require_column_sums,
    _require_same_dim,
    _require_unitary,
    coords,
    from_coords,
    min_eigenvalue,
    require_hermitian,
)

__all__ = [
    "MarkovOperator",
    "NonnegativityReport",
    "identity_operator",
    "kraus_superop",
    "diagonal_superop",
    "from_kraus",
    "from_unitary",
    "from_stochastic",
    "apply",
    "compose",
    "power",
    "is_trace_preserving",
    "trace_preservation_deviation",
    "sampled_nonnegativity",
    "random_quantum_density",
]

def trace_preservation_deviation(matrix: np.ndarray) -> float:
    """Largest deviation |tr(image of B_k) - tr(B_k)| over the basis elements.

    In canonical coordinates tr(from_coords(c)) is the sum of the first n
    entries of c, so the check reduces to column sums of the first n rows.
    """
    matrix = np.asarray(matrix, dtype=float)
    m = matrix.shape[0]
    n = int(round(np.sqrt(m)))
    if matrix.ndim != 2 or matrix.shape != (m, m) or n * n != m:
        raise ValueError(f"superoperator matrix must be square of size n^2, got {matrix.shape}")
    target = np.zeros(m)
    target[:n] = 1.0
    return float(np.max(np.abs(matrix[:n, :].sum(axis=0) - target)))


def _require_trace_preserving(matrix: np.ndarray, message: str) -> None:
    """Raise ``message`` unless the basis-trace deviation is within EQUALITY_TOL."""
    dev = trace_preservation_deviation(matrix)
    if not dev <= EQUALITY_TOL:
        raise ValueError(f"{message}: basis-trace deviation {dev:.3e}")


@dataclass(frozen=True, eq=False)
class MarkovOperator:
    """Trace-preserving linear map on the Hermitian n x n matrices.

    ``matrix`` is real n^2 x n^2 in canonical basis coordinates.  Trace
    preservation is validated at construction; positivity is not implied
    (use :func:`sampled_nonnegativity` to probe it).
    """

    n: int
    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = self.n * self.n
        matrix = _frozen_array(self.matrix, f"operator matrix on H_{self.n}", float, (m, m))
        _require_trace_preserving(matrix, "operator is not trace preserving")
        object.__setattr__(self, "matrix", matrix)


def identity_operator(n: int) -> MarkovOperator:
    """The identity Markov operator on H_n."""
    return MarkovOperator(n=n, matrix=np.eye(n * n))


def _kraus_stack(family) -> np.ndarray:
    mats = np.asarray(family, dtype=complex)
    if mats.ndim == 2:
        mats = mats[None, :, :]
    if mats.ndim != 3 or mats.shape[-1] != mats.shape[-2]:
        raise ValueError(f"Kraus family must be square matrices, got shape {mats.shape}")
    return mats


def _check_completeness(mats: np.ndarray) -> None:
    """Raise unless the stacked Kraus matrices satisfy sum_a M_a* M_a = I."""
    gram = np.einsum("aji,ajk->ik", mats.conj(), mats)
    dev = float(np.linalg.norm(gram - np.eye(mats.shape[-1])))
    if not dev <= EQUALITY_TOL:
        raise ValueError(
            f"Kraus matrices do not sum up to the identity (POVM completeness violated): "
            f"||sum M_a* M_a - I|| = {dev:.3e}"
        )


def kraus_superop(family) -> np.ndarray:
    """Superoperator matrix of Q -> sum_a M_a Q M_a* (no completeness check).

    The map is first built in the vec basis, S = sum_a M_a (x) conj(M_a) acting
    on row-major vec(Q), at cost O(a n^4).  Its columns are then combined into
    the images of the canonical basis elements: each element has at most two
    nonzero entries, E_jk and E_kj with weights 1/sqrt(2) or +-i/sqrt(2), so
    this is a column gather with 2 x 2 mixing.  :func:`coords` of those
    images gives the columns of the result.
    """
    mats = _kraus_stack(family)
    n = mats.shape[-1]
    vec = np.einsum("aij,ahk->ihjk", mats, mats.conj()).reshape(n * n, n * n)
    iu, ju = np.triu_indices(n, k=1)
    upper = vec[:, iu * n + ju]
    lower = vec[:, ju * n + iu]
    images = np.empty_like(vec)
    images[:, :n] = vec[:, np.arange(n) * (n + 1)]
    images[:, n::2] = (upper + lower) / _SQRT2
    images[:, n + 1 :: 2] = 1j * (upper - lower) / _SQRT2
    return np.ascontiguousarray(coords(images.T.reshape(n * n, n, n)).T)


def diagonal_superop(m: np.ndarray) -> np.ndarray:
    """Superoperator acting as diag(x) -> diag(Mx), annihilating off-diagonal coordinates."""
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square real matrix, got shape {m.shape}")
    n = m.shape[0]
    out = np.zeros((n * n, n * n))
    out[:n, :n] = m
    return out


def from_kraus(family) -> MarkovOperator:
    """Markov operator of a Kraus family {M_a} with sum_a M_a* M_a = I.

    The completeness condition is exactly what makes Q -> sum_a M_a Q M_a*
    trace preserving; the resulting operator also maps quantum densities to
    quantum densities.
    """
    mats = _kraus_stack(family)
    _check_completeness(mats)
    return MarkovOperator(n=mats.shape[-1], matrix=kraus_superop(mats))


def from_unitary(u: np.ndarray) -> MarkovOperator:
    """Markov operator of unitary conjugation Q -> UQU*."""
    u = _require_unitary(u)
    return MarkovOperator(n=u.shape[0], matrix=kraus_superop(u[None, :, :]))


def from_stochastic(m: np.ndarray) -> MarkovOperator:
    """Markov operator extending x -> Mx on diagonals, for M with column sums 1.

    Off-diagonal coordinates are annihilated, which keeps the extension trace
    preserving for any column-sum-1 matrix (off-diagonal basis elements are
    traceless) and positivity preserving whenever M is entrywise nonnegative.
    """
    m = np.asarray(m, dtype=float)
    matrix = diagonal_superop(m)
    _require_column_sums(m, "column sums must equal 1")
    return MarkovOperator(n=m.shape[0], matrix=matrix)


def apply(op: MarkovOperator, q: np.ndarray) -> np.ndarray:
    """Apply a Markov operator to a Hermitian matrix."""
    q = require_hermitian(q)
    _require_same_dim(op.n, q.shape[0], "operator", "matrix")
    return from_coords(op.matrix @ coords(q))


def compose(outer: MarkovOperator, inner: MarkovOperator) -> MarkovOperator:
    """Composition outer after inner."""
    _require_same_dim(outer.n, inner.n, "outer operator", "inner operator")
    return MarkovOperator(n=outer.n, matrix=outer.matrix @ inner.matrix)


def power(op: MarkovOperator, t: int) -> MarkovOperator:
    """t-fold composition via repeated squaring; power(op, 0) is the identity."""
    if t != int(t) or t < 0:
        raise ValueError(f"exponent must be a nonnegative integer, got {t!r}")
    return MarkovOperator(n=op.n, matrix=np.linalg.matrix_power(op.matrix, int(t)))


def is_trace_preserving(op, tol: float = EQUALITY_TOL) -> bool:
    """Check |tr(image of B_k) - tr(B_k)| <= tol over all basis elements."""
    matrix = op.matrix if isinstance(op, MarkovOperator) else op
    return trace_preservation_deviation(matrix) <= tol


def random_quantum_density(n: int, rng: np.random.Generator) -> np.ndarray:
    """Full-rank random quantum density GG*/tr(GG*) for complex Gaussian G."""
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    w = g @ g.conj().T
    return w / np.trace(w).real


@dataclass(frozen=True, eq=False)
class NonnegativityReport:
    """Outcome of sampling-based positivity probing of an operator."""

    trials: int
    passed: int
    witness: np.ndarray | None
    witness_eigenvalue: float | None

    @property
    def all_passed(self) -> bool:
        return self.witness is None


def sampled_nonnegativity(
    op: MarkovOperator,
    trials: int,
    seed: int = 0,
    tol: float = SAMPLED_SIGN_TOL,
) -> NonnegativityReport:
    """Probe whether an operator maps quantum densities to quantum densities.

    Draws seeded random quantum densities and reports the first input whose
    image has an eigenvalue below -tol.  A pass is evidence, not a proof:
    exact positivity certification is out of scope.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    rng = np.random.default_rng(seed)
    passed = 0
    for _ in range(trials):
        q = random_quantum_density(op.n, rng)
        lam = min_eigenvalue(apply(op, q))
        if lam < -tol:
            return NonnegativityReport(
                trials=trials, passed=passed, witness=q, witness_eigenvalue=lam
            )
        passed += 1
    return NonnegativityReport(trials=trials, passed=passed, witness=None, witness_eigenvalue=None)
