"""Trace-preserving linear operators (Markovians) on Hermitian matrices.

A Markov operator is a real n^2 x n^2 matrix acting on canonical basis
coordinates (see :mod:`qmarkov.hermitian`).  Constructors cover the three
standard sources: Kraus families, unitary conjugation, and stochastic
matrices extended from the diagonal subspace by annihilating off-diagonal
coordinates.  Kraus families and unitaries stay in Kraus form: their trace
preservation is checked on sum_a M_a* M_a, and the matrix is formed on
first read (by :func:`compose`, :func:`power`, saving or a Cesaro fallback).
Every step goes through :func:`_orbit`: a matrix steps coordinates, a Kraus
stack steps matrices Q -> sum_a M_a Q M_a*.  A dense operator of low Choi
rank steps as a Kraus stack recovered from its matrix where
:func:`_stepping_kraus` finds that cheaper; its ``kraus`` stays None.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .hermitian import (
    _SQRT2,
    EQUALITY_TOL,
    RANK_TOL,
    RECOVERY_TOL,
    SAMPLED_SIGN_TOL,
    _as_square,
    _freeze,
    _frozen_array,
    _require_column_sums,
    _require_count,
    _require_same_dim,
    _require_tol,
    _require_unitary,
    _upper_indices,
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

RECOVERY_PROBES = 6  # Choi probes of _recover_kraus; a recovered stack has at most 5 matrices
RECOVERY_CHECKS = 3  # coordinate probes that check a recovered stack against its matrix
RECOVERY_SEED = 20110  # seeds the probes, so a recovery is deterministic


def trace_preservation_deviation(matrix) -> float:
    """Largest deviation |tr(image of B_k) - tr(B_k)| over the basis elements.

    ``matrix`` is a superoperator matrix or a :class:`MarkovOperator`.  In
    canonical coordinates tr(from_coords(c)) is the sum of the first n
    entries of c, so the check reduces to column sums of the first n rows.
    A Kraus-form operator is checked without its matrix: tr(mu(B_k)) -
    tr(B_k) = tr((G - I) B_k) with G = sum_a M_a* M_a, the k-th coordinate
    of G - I.
    """
    if isinstance(matrix, MarkovOperator):
        if matrix.kraus is not None:
            return float(np.max(np.abs(coords(_completeness_gap(matrix.kraus)))))
        matrix = matrix.matrix
    matrix = _as_square(matrix, "superoperator matrix", float)
    n = int(round(np.sqrt(len(matrix))))
    if n * n != len(matrix):
        raise ValueError(f"superoperator matrix must be of size n^2, got {matrix.shape}")
    target = np.zeros(len(matrix))
    target[:n] = 1.0
    return float(np.max(np.abs(matrix[:n, :].sum(axis=0) - target)))


def _require_trace_preserving(matrix: np.ndarray, message: str) -> None:
    """Raise ``message`` unless the basis-trace deviation is within EQUALITY_TOL."""
    dev = trace_preservation_deviation(matrix)
    if not dev <= EQUALITY_TOL:
        raise ValueError(f"{message}: basis-trace deviation {dev:.3e}")


@dataclass(frozen=True, eq=False, init=False)
class MarkovOperator:
    """Trace-preserving linear map on the Hermitian n x n matrices.

    ``matrix`` is real n^2 x n^2 in canonical basis coordinates.  An operator
    built from a Kraus family (a unitary is a one-element family) keeps the
    stack as ``kraus`` and forms ``matrix`` from it by :func:`kraus_superop`
    on first read; for any other operator ``kraus`` is None.  Trace
    preservation is validated at construction, of a matrix by its basis
    traces and of a Kraus stack by completeness; positivity is not implied
    (use :func:`sampled_nonnegativity` to probe it).
    """

    n: int
    kraus: np.ndarray | None

    def __init__(self, n: int, matrix: np.ndarray | None = None, *, kraus: np.ndarray | None = None) -> None:
        n = _require_count(n, "n", least=1)
        object.__setattr__(self, "n", n)
        if kraus is not None:
            if matrix is not None:
                raise ValueError("give an operator's matrix or its Kraus matrices, not both")
            kraus = _frozen_array(kraus, f"Kraus matrices on H_{n}", complex, (len(kraus), n, n))
            _check_completeness(kraus)
        else:
            self._keep(np.array(matrix, dtype=float))  # the caller's array stays theirs
        object.__setattr__(self, "kraus", kraus)

    @classmethod
    def _of_own_matrix(cls, n: int, matrix: np.ndarray) -> MarkovOperator:
        """The operator of a float64 ``matrix`` that its maker hands over: the constructor's checks, no copy."""
        op = cls.__new__(cls)
        object.__setattr__(op, "n", _require_count(n, "n", least=1))
        op._keep(matrix)
        object.__setattr__(op, "kraus", None)
        return op

    def _keep(self, matrix: np.ndarray) -> None:
        """Freeze ``matrix`` itself (:func:`_freeze`), check its traces and keep it as the operator's matrix."""
        m = self.n * self.n
        matrix = _freeze(matrix, f"operator matrix on H_{self.n}", (m, m))
        _require_trace_preserving(matrix, "operator is not trace preserving")
        object.__setattr__(self, "matrix", matrix)  # fills the cached property

    @cached_property
    def matrix(self) -> np.ndarray:
        matrix = kraus_superop(self.kraus)
        matrix.setflags(write=False)
        return matrix

    @cached_property
    def _recovered_kraus(self) -> np.ndarray | None:
        """The stack :func:`_recover_kraus` finds for ``matrix``, kept on the operator; ``kraus`` stays None."""
        return _recover_kraus(self.matrix, self.n)


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


def _completeness_gap(mats: np.ndarray) -> np.ndarray:
    """sum_a M_a* M_a - I of a Kraus stack."""
    return np.einsum("aji,ajk->ik", mats.conj(), mats) - np.eye(mats.shape[-1])


def _check_completeness(mats: np.ndarray) -> None:
    """Raise unless the stacked Kraus matrices satisfy sum_a M_a* M_a = I."""
    dev = float(np.linalg.norm(_completeness_gap(mats)))
    if not dev <= EQUALITY_TOL:
        raise ValueError(
            f"Kraus matrices do not sum up to the identity (POVM completeness violated): "
            f"||sum M_a* M_a - I|| = {dev:.3e}"
        )


def kraus_superop(family) -> np.ndarray:
    """Superoperator matrix of Q -> sum_a M_a Q M_a* (no completeness check).

    Entry (i, h) of the image of E_jk is sum_a M_a[i, j] conj(M_a[h, k]).
    Coordinates read only the entries with i <= h, so the result is built
    from two row blocks of the vec-basis map, each one einsum of O(a n^4):
    the diagonal entries, whose real parts are the first n rows, and the
    upper entries, whose real and imaginary parts times sqrt(2) are the
    rest.  :func:`_basis_images` combines each block's columns into the
    images of the canonical basis elements.  No temporary is larger than
    the result, but while the upper block is combined the result, that
    block's vec-basis rows and images (each about the result's size) and
    their upper and lower halves (half each) are alive at once.  The peak
    is four times the result: 32 MiB for the 8 MiB result at n = 32 and
    162 MiB for 40.5 MiB at n = 48, under tracemalloc.
    """
    mats = _kraus_stack(family)
    n = mats.shape[-1]
    iu, ju = _upper_indices(n)
    out = np.empty((n * n, n * n))
    out[:n] = _basis_images(mats, mats, iu, ju).real
    upper = _basis_images(mats[:, iu], mats[:, ju], iu, ju)
    out[n::2] = upper.real
    out[n + 1 :: 2] = upper.imag
    out[n:] *= _SQRT2
    return out


def _basis_images(left: np.ndarray, right: np.ndarray, iu: np.ndarray, ju: np.ndarray) -> np.ndarray:
    """Rows sum_a left[a, p] (x) conj(right[a, p]), combined into canonical basis images.

    Row p of the vec-basis block, entry p of the image of E_jk, is
    sum_a left[a, p, j] conj(right[a, p, k]).  Its columns become those of
    E_jj, (E_jk + E_kj)/sqrt(2) and i(E_jk - E_kj)/sqrt(2) for j < k, in
    canonical order: a gather with 2 x 2 mixing.
    """
    n = left.shape[-1]
    vec = np.einsum("apj,apk->pjk", left, right.conj())
    images = np.empty((len(vec), n * n), dtype=complex)
    images[:, :n] = vec[:, np.arange(n), np.arange(n)]
    upper, lower = vec[:, iu, ju], vec[:, ju, iu]
    del vec
    np.add(upper, lower, out=images[:, n::2])
    np.subtract(upper, lower, out=images[:, n + 1 :: 2])
    images[:, n + 1 :: 2] *= 1j
    images[:, n:] /= _SQRT2
    return images


def diagonal_superop(m: np.ndarray) -> np.ndarray:
    """Superoperator acting as diag(x) -> diag(Mx), annihilating off-diagonal coordinates."""
    m = _as_square(m, "matrix", float)
    n = m.shape[0]
    out = np.zeros((n * n, n * n))
    out[:n, :n] = m
    return out


def from_kraus(family) -> MarkovOperator:
    """Markov operator of a Kraus family {M_a} with sum_a M_a* M_a = I.

    The completeness condition is exactly what makes Q -> sum_a M_a Q M_a*
    trace preserving; the resulting operator also maps quantum densities to
    quantum densities.  It keeps the family in Kraus form.
    """
    mats = _kraus_stack(family)
    return MarkovOperator(n=mats.shape[-1], kraus=mats)


def from_unitary(u: np.ndarray) -> MarkovOperator:
    """Markov operator of unitary conjugation Q -> UQU*, kept as a one-element Kraus family."""
    u = _require_unitary(u)
    return MarkovOperator(n=u.shape[0], kraus=u[None, :, :])


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
    return from_coords(_image(op, coords(q)))


def _image(op: MarkovOperator, c: np.ndarray) -> np.ndarray:
    """Coordinates of mu(Q) from those of Q: row 1 of :func:`_orbit`."""
    states, read = _orbit(op, c, op.kraus)
    next(states)
    return read(next(states))


def _orbit(op: MarkovOperator, c: np.ndarray, kraus: np.ndarray | None) -> tuple[Iterator[np.ndarray], Callable]:
    """States mu^t(Q), t = 0, 1, 2, ..., c the coordinates of Q, and the reader of a stack of them.

    The one place that says how each form steps: with ``kraus`` None the
    matrix K yields K^t c, read as is; a Kraus stack, the operator's own or
    one that :func:`_stepping_kraus` recovered, yields matrices from
    ``from_coords(c)`` on, read by one batched :func:`coords`.
    """
    if kraus is None:
        return _powers(op.matrix, c), np.asarray
    return _kraus_orbit(kraus, from_coords(c)), coords


def _stepping_kraus(op: MarkovOperator, steps: int) -> np.ndarray | None:
    """The Kraus stack that steps ``op`` for ``steps`` steps, or None to step its matrix.

    An operator's own stack always steps.  A dense operator recovers one by
    :func:`_recover_kraus`, at most once, when ``steps`` steps of a stack
    of RECOVERY_PROBES - 1 matrices, the longest it can recover, would cost
    less than as many matrix steps by more than the recovery costs.  The
    costs, in ns, were fitted with one BLAS thread on a 2-core Xeon VM
    (2 MiB of L2 cache per core, numpy 2.4, OpenBLAS 0.3.31):
    - a matrix step, 1000 + 0.1 n^4 while K's 8 n^4 bytes fit in 2 MiB,
      0.3 n^4 past that (measured 9.5, 15.9, 81, 332 and 1761 us at
      n = 16, 20, 24, 32 and 48);
    - a step of a stack of a matrices, 4000 + 0.4 a n^3 (a = 5: 13.7, 21.3,
      29.2, 54.8 and 146 us);
    - the recovery with its check, 500000 + 8 n^4 (1.2, 1.5, 2.6, 9.9 and
      37.6 ms).
    So n <= 22 always steps its matrix, and n = 24 recovers from 47 steps.
    """
    if op.kraus is not None:
        return op.kraus
    n4 = op.n**4
    matrix_step = 1000 + 0.1 * n4 if 8 * n4 <= 2**21 else 0.3 * n4
    stack_step = 4000 + 0.4 * (RECOVERY_PROBES - 1) * op.n**3
    return op._recovered_kraus if steps * (matrix_step - stack_step) > 500000 + 8 * n4 else None


def _recover_kraus(k: np.ndarray, n: int) -> np.ndarray | None:
    """A Kraus stack {M_a} of fewer than RECOVERY_PROBES matrices whose map is K, checked, or None.

    K is a dense canonical-basis matrix.  Its Choi matrix J, with entry
    ((j, i), (k, h)) equal to mu(E_jk)[i, h], is sum_a v_a v_a* for v_a the
    columns of M_a, stacked; it is positive semidefinite exactly when the
    map is completely positive (Choi), and its rank is the stack's length.
    J is never formed.  A Nystrom step (Halko, Martinsson and Tropp) on
    RECOVERY_PROBES seeded probes x = e_k0 (x) w reads J x, the stack over j
    of mu(E_j,k0) w, off the 2n - 1 columns of K that hold E_j,k0 = (S -+
    iA)/sqrt(2): the diagonal column k0 and the S and A columns of each
    pair.  ``eigh`` of the core C = X* J X gives eigenvalues lam_a and
    vectors W_a, and v_a = J X W_a / sqrt(lam_a) over the lam_a above
    RANK_TOL times the largest.  None when an eigenvalue lies below -RANK_TOL
    times the largest (not completely positive; signed stacks are not
    recovered), when none lies within that slack of 0 (no gap: the rank
    may exceed the probes), or when the check fails: on RECOVERY_CHECKS
    seeded coordinate probes x, K x and the stack's image of x may differ
    by at most RECOVERY_TOL times ||K x|| (Frobenius norms over the
    probes).  Nothing as large as K is allocated: the largest temporaries
    are a probe's 2n - 1 columns and their matrices.  Under tracemalloc
    the recovery peaks at 1.02 MiB for the 2.53 MiB K at n = 24, and at
    7.1 MiB for 40.5 MiB at n = 48.
    """
    rng = np.random.default_rng(RECOVERY_SEED)
    p = RECOVERY_PROBES
    cols = rng.choice(n, size=p, replace=n < p)
    w = rng.standard_normal((p, n)) + 1j * rng.standard_normal((p, n))
    y = np.empty((p, n, n), dtype=complex)  # y[b, j] = mu(E_j,k0) w for probe b's k0 and w
    for y_b, k0, w_b in zip(y, cols, w):
        others = np.delete(np.arange(n), k0)
        lo, hi = np.minimum(others, k0), np.maximum(others, k0)
        s_col = n + 2 * (lo * (2 * n - lo - 1) // 2 + hi - lo - 1)  # S of the pair (lo, hi); A is next
        images = from_coords(k[:, np.concatenate(([k0], s_col, s_col + 1))].T) @ w_b
        y_b[k0] = images[0]
        y_b[others] = (images[1:n] + 1j * np.sign(others - k0)[:, None] * images[n:]) / _SQRT2
    core = np.einsum("bh,abh->ba", w.conj(), y[:, cols])  # C[b, a] = x_b* J x_a
    lam, vecs = np.linalg.eigh((core + core.conj().T) / 2)
    cut = RANK_TOL * lam[-1]
    if not (cut > 0 and -cut <= lam[0] <= cut):
        return None
    keep = lam > cut
    v = y.reshape(p, n * n).T @ (vecs[:, keep] / np.sqrt(lam[keep]))
    mats = v.T.reshape(-1, n, n).transpose(0, 2, 1)  # M_a[i, j] = v_a[(j, i)]
    x = rng.standard_normal((n * n, RECOVERY_CHECKS))
    kx = k @ x
    image = coords(np.sum(mats @ from_coords(x.T)[:, None] @ mats.conj().transpose(0, 2, 1), axis=1))
    if not np.linalg.norm(kx.T - image) <= RECOVERY_TOL * np.linalg.norm(kx):
        return None
    return _frozen_array(mats, "recovered Kraus stack", complex)


def _powers(k: np.ndarray, c: np.ndarray) -> Iterator[np.ndarray]:
    """K^t c for t = 0, 1, 2, ..., one mat-vec per step; the first is c itself."""
    while True:
        yield c
        c = k @ c


def _kraus_orbit(mats: np.ndarray, q: np.ndarray) -> Iterator[np.ndarray]:
    """mu^t(Q), t = 0, 1, 2, ..., under the Kraus stack ``mats``: Q @ hstack(M_a*), then hstack(M_a) @ blocks."""
    a, n, _ = mats.shape
    row, col = mats.transpose(1, 0, 2).reshape(n, a * n), mats.conj().transpose(2, 0, 1).reshape(n, a * n)
    while True:
        yield q
        q = row @ (q @ col).reshape(n, a, n).transpose(1, 0, 2).reshape(a * n, n)


def compose(outer: MarkovOperator, inner: MarkovOperator) -> MarkovOperator:
    """Composition outer after inner."""
    _require_same_dim(outer.n, inner.n, "outer operator", "inner operator")
    return MarkovOperator(n=outer.n, matrix=outer.matrix @ inner.matrix)


def power(op: MarkovOperator, t: int) -> MarkovOperator:
    """t-fold composition via repeated squaring; power(op, 0) is the identity."""
    t = _require_count(t, "exponent")
    return MarkovOperator(n=op.n, matrix=np.linalg.matrix_power(op.matrix, t))


def is_trace_preserving(op, tol: float = EQUALITY_TOL) -> bool:
    """Check |tr(image of B_k) - tr(B_k)| <= tol over all basis elements.

    ``op`` is a superoperator matrix or a :class:`MarkovOperator`; a
    Kraus-form operator does not form its matrix for the check.
    """
    return trace_preservation_deviation(op) <= _require_tol(tol)


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
    trials = _require_count(trials, "trials", least=1)
    tol = _require_tol(tol)
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
