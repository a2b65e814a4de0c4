"""Markov chains (mu, P): evolution, boundedness, Cesaro averages, stationarity.

The Cesaro average of a bounded chain exists and is stationary.  It is
checked at t = 1, 2, 4, ... from window sums of mu^k(P).  While 2t <= n^2
the sums add up stepped states, so a Kraus stack forms no superoperator.
Past that point the routine falls back to doubling on the superoperator,
so horizons up to ~10^12 steps cost only ~40 matrix products of size n^2.  A
unitary (a one-element Kraus stack) whose eigenbasis V passes a check
steps only while t <= n and then doubles in that basis: mu^k(Q) =
V (z^k o V* Q V) V* with z_jk = lam_j conj(lam_k), so each doubling is
elementwise and the limit is the pinching of P onto U's eigenspaces.
Each check also tests the tail average over steps t+1..2t, which has the
same limit and, for mixing channels, loses its transient geometrically; it
is accepted only once it is stationary and has stopped moving, so mixing
channels usually stop after a few hundred steps instead of ~10^7, which
for n >= 16 lies within the stepped phase.  Stepped sums differ from
doubled ones in the last digits only.  Eigenbasis doublings stop at the
same t as superoperator ones; their averages can differ by up to ~1e-8,
because the rounding of the superoperator's powers grows with t.  The
residual bounds stationarity, not the distance to the limit: eigenphases
closer than about 1/t are not yet separated at the t where it is met.

Every state mu^t(P) comes from ``operators._orbit`` in the operator's own
form, so a Kraus stack never forms its superoperator to step.  A dense
operator of low Choi rank steps as a Kraus stack recovered from its matrix
where ``operators._stepping_kraus`` finds that cheaper: a path of about 50
steps or more at n >= 23, and the stepped Cesaro phase there (its n^2 steps
are the count); the doubling past that phase still uses the matrix.  Such
paths and averages differ from the matrix's in the last digits.
Trajectories come in blocks of up to PATH_BLOCK states from
``_path_blocks``.  Where a matrix K steps, a path longer than both
PATH_BLOCK and n^2 continues in blocks, each the previous block times
(K^B)^T, one matrix product instead of B memory-bound mat-vecs; shorter
paths keep stepping, because forming K^B costs log2(B) products of size
n^2.  Both kernels differ from a plain step loop of K in the last digits.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .hermitian import (
    CESARO_MAX_DOUBLINGS,
    CESARO_TOL,
    EQUALITY_TOL,
    UNIT_TRACE_FLOOR,
    _frozen_array,
    _require_count,
    _require_same_dim,
    _require_tol,
    _require_unitary,
    coords,
    from_coords,
    hs_inner,
    require_hermitian,
    require_markov_density,
)
from .operators import MarkovOperator, _image, _orbit, _powers, _stepping_kraus

__all__ = [
    "MarkovChain",
    "CesaroResult",
    "BoundednessReport",
    "ConvergenceError",
    "evolve",
    "boundedness_probe",
    "cesaro_average",
    "is_stationary",
    "functional_average",
    "unitary_vector_average",
]


PATH_BLOCK = 32  # rows per block of _path_blocks; the power K^B is formed by squaring
# weight c of (U - U*)/(2i) in the Hermitian matrix whose eigenbasis diagonalizes
# a unitary U; irrational, so Re(lam) + c Im(lam) rarely collides for distinct lam
EIGEN_MIX = 0.6180339887498949
_VECTOR_CLEAR = np.zeros(16)  # one AVX-dispatched float64 add over it per Kraus path block; see _path_blocks


class ConvergenceError(RuntimeError):
    """Raised when the Cesaro residual cannot be pushed below tolerance."""


@dataclass(frozen=True, eq=False)
class MarkovChain:
    """Evolution operator mu together with a start density P."""

    operator: MarkovOperator
    start: np.ndarray

    def __post_init__(self) -> None:
        start = require_markov_density(self.start, name="start density")
        start = _frozen_array(start, "start density", complex)
        _require_same_dim(self.operator.n, start.shape[0], "operator", "start density")
        object.__setattr__(self, "start", start)


@dataclass(frozen=True, eq=False)
class CesaroResult:
    """Cesaro average with the step count and stationarity residual reached."""

    average: np.ndarray
    iterations: int
    residual: float


@dataclass(frozen=True, eq=False)
class BoundednessReport:
    """Largest tr(mu^t(P)^2) observed along a finite chain prefix."""

    bound: float
    horizon: int
    max_value: float
    exceeded: bool
    first_exceeded: int | None


def evolve(chain: MarkovChain, steps: int) -> np.ndarray:
    """Densities mu^t(P) for t = 0..steps, stacked along the first axis.

    Blocks from :func:`_density_blocks` fill one array; the densities differ
    from a plain step loop of the superoperator in the last digits.
    """
    steps = _require_count(steps, "steps")
    out = np.empty((steps + 1, *chain.start.shape), dtype=complex)
    t = 0
    for block in _density_blocks(chain, steps):
        out[t : t + len(block)] = block
        t += len(block)
    return out


def _density_blocks(chain: MarkovChain, steps: int) -> Iterator[np.ndarray]:
    """Densities mu^t(P) for t = 0..steps in the blocks of :func:`_path_blocks`.

    Each block is one batched :func:`from_coords` call, except that row 0
    is the start density itself rather than its coordinates' round trip.
    """
    blocks = _path_blocks(chain.operator, coords(chain.start), steps)
    first = from_coords(next(blocks))
    first[0] = chain.start
    yield first
    yield from map(from_coords, blocks)


def _path_blocks(op: MarkovOperator, c0: np.ndarray, steps: int) -> Iterator[np.ndarray]:
    """Coordinates of mu^t(Q) for t = 0..steps, c0 those of Q, in blocks of at most PATH_BLOCK rows.

    A block is valid until the next one is drawn; row 0 is c0 itself.
    Blocks stack and read the states of :func:`_orbit` in the form
    :func:`_stepping_kraus` picks for ``steps``; when that is the matrix K,
    past PATH_BLOCK rows, if steps > len(c0) and steps >= PATH_BLOCK, each
    block is the previous one times (K^B)^T.  A ``steps`` that is not a
    count raises when the first block is drawn.

    After each block of a Kraus stack, one float64 add over 16 values runs.
    With OpenBLAS on a 2-core Xeon VM, SSE code that runs after a complex
    matrix product is slow until some AVX-dispatched numpy loop runs (the
    upper halves of the vector registers stay dirty); the consumers of a
    block are such code.  Measured on that host (medians of 200): after a
    complex product ``np.add.at`` on a walk block takes 284 us, and 17 us
    once the add has run; 1500 ``%.17g`` formats take 1.27 and 0.62 ms.
    An add over 8 values clears the state only in part (179 us).  The
    2000-step n = 24 Kraus-file ``chain-evolve --format csv`` took 603-606
    ms with the clear against 742-772 ms without (best of 7, in process).
    """
    steps = _require_count(steps, "steps")
    b = PATH_BLOCK
    kraus = _stepping_kraus(op, steps)
    states, read = _orbit(op, c0, kraus)
    stepped = b if kraus is None and steps > c0.size and steps >= b else steps + 1  # rows from the orbit
    for t in range(0, stepped, b):
        block = read(np.stack(list(islice(states, min(b, stepped - t)))))
        if not t:
            block[0] = c0
        if kraus is not None:
            np.add(_VECTOR_CLEAR, _VECTOR_CLEAR, out=_VECTOR_CLEAR)
        yield block
    if stepped > steps:
        return
    kbt = np.linalg.matrix_power(op.matrix, b).T
    prev, cur = block, np.empty_like(block)
    for t in range(b, steps + 1, b):
        rows = min(b, steps + 1 - t)
        np.matmul(prev[:rows], kbt, out=cur[:rows])
        yield cur[:rows]
        prev, cur = cur, prev


def boundedness_probe(chain: MarkovChain, horizon: int, bound: float) -> BoundednessReport:
    """Track tr(mu^t(P)^2) for t <= horizon against a candidate bound.

    tr(Q^2) equals the squared coordinate norm, so the probe reads it per
    block off the same path kernel as :func:`evolve`.
    """
    horizon = _require_count(horizon, "horizon", least=1)
    blocks = _path_blocks(chain.operator, coords(chain.start), horizon)
    values = np.concatenate([np.einsum("ij,ij->i", b, b) for b in blocks])
    exceeded = np.flatnonzero(values > bound)
    return BoundednessReport(
        bound=float(bound),
        horizon=horizon,
        max_value=float(np.nanmax(values)),  # an overflowed chain's NaN rows never count
        exceeded=exceeded.size > 0,
        first_exceeded=int(exceeded[0]) if exceeded.size else None,
    )


def cesaro_average(
    chain: MarkovChain,
    tol: float = CESARO_TOL,
    max_doublings: int = CESARO_MAX_DOUBLINGS,
) -> CesaroResult:
    """Limit of averages (1/t) sum_{k=1..t} mu^k(P), checked at t = 1, 2, 4, ..., 2^max_doublings.

    The sums S_t P = sum_{k=1..t} mu^k(P) and the windows S_2t P - S_t P
    come from :func:`_window_sums`: stepped while 2t <= n^2, then doubled
    with one n^2 x n^2 product each.  Stepped and doubled sums differ in the
    last digits only, so the hand-off moves no more than the last digits of
    an average and leaves ``iterations`` as it was.  At each t the
    stationarity residual ||mu(avg) - avg|| of the plain average S_t P / t
    is tested, with mu applied as the operator applies itself.  When it
    misses tol, the tail average over steps t+1..2t is tested: it is
    returned when its residual is within tol and it moved by at most tol
    since the previous check's tail.  That second condition keeps drifting
    chains out: for a defective eigenvalue-1 block the tail grows like t,
    and at large t rounding can cancel its residual.  Averages are
    renormalized to unit trace to absorb accumulated rounding.
    ``iterations`` is the step count the returned average spans: t for the
    plain average, 2t for the tail.  Raises ConvergenceError when neither
    average gets within tol, which signals an unbounded chain or extremely
    slow mixing; arguments that can never succeed, a tol that is not positive
    and finite or a max_doublings that is not a count, raise on entry.
    """
    tol = _require_tol(tol, positive=True)
    max_doublings = _require_count(max_doublings, "max_doublings")
    op, n = chain.operator, chain.operator.n
    c0 = coords(chain.start)
    residual = float(np.linalg.norm(_image(op, c0) - c0))
    if residual <= tol:
        return CesaroResult(average=np.array(chain.start), iterations=0, residual=residual)

    previous_tail = None
    # overflow along the way is a legitimate signal of an unbounded chain,
    # not a numerical accident worth warning about
    with np.errstate(over="ignore", invalid="ignore"):
        for t, partial, shifted in islice(_window_sums(op, c0), max_doublings + 1):
            avg = _unit_trace(partial / t, n)
            residual = float(np.linalg.norm(_image(op, avg) - avg))
            if not np.isfinite(residual):
                raise ConvergenceError(
                    f"averages diverged after {t} steps; the chain appears unbounded"
                )
            if residual <= tol:
                return CesaroResult(average=from_coords(avg), iterations=t, residual=residual)
            tail = _unit_trace(shifted / t, n)
            tail_residual = float(np.linalg.norm(_image(op, tail) - tail))
            if (
                tail_residual <= tol
                and previous_tail is not None
                and float(np.linalg.norm(tail - previous_tail)) <= tol
            ):
                return CesaroResult(average=from_coords(tail), iterations=2 * t, residual=tail_residual)
            previous_tail = tail
    raise ConvergenceError(
        f"stationarity residual {residual:.3e} still above {tol:.1e} after "
        f"{max_doublings} doublings (t = {t}); the chain may be unbounded"
    )


def _window_sums(op: MarkovOperator, c0: np.ndarray) -> Iterator[tuple]:
    """Coordinates (t, S_t P, S_2t P - S_t P) for t = 1, 2, 4, ..., where S_t P = sum_{k=1..t} mu^k(P).

    While 2t <= n^2 the sums add up the states mu^k(P) of :func:`_orbit`,
    in the form :func:`_stepping_kraus` picks for n^2 steps, and read them
    at each check.  Past that point K^t is formed once by squaring, and
    each later window is K^t S_t P, with S_2t = S_t + K^t S_t and
    K^2t = (K^t)^2.  A one-element Kraus stack, a unitary U, for which
    :func:`_eigenbasis` certifies an eigenbasis steps only while t <= n and
    then doubles in that basis by :func:`_eigenbasis_window_sums`.
    Stepping a permutation is exact, and t <= n still reaches the period
    of every permutation whose cycle lengths are powers of two; each
    further step would cost an n x n product where an eigenbasis doubling
    is elementwise.
    """
    basis = _eigenbasis(op.kraus[0]) if op.kraus is not None and len(op.kraus) == 1 else None
    stepped = 2 * op.n if basis else c0.size  # rows summed by stepping
    states, read = _orbit(op, c0, _stepping_kraus(op, stepped))
    next(states)  # mu^0(P) = P
    partial, t = next(states), 1
    while 2 * t <= stepped:
        window = np.zeros_like(partial)
        for state in islice(states, t):
            window += state
        yield t, read(partial), read(window)
        partial = partial + window
        t *= 2
    if basis:
        yield from _eigenbasis_window_sums(*basis, partial, t)  # never exhausted
    else:
        partial, power = read(partial), np.linalg.matrix_power(op.matrix, t)
        while True:
            window = power @ partial
            yield t, partial, window
            partial = partial + window
            power = power @ power
            t *= 2


def _eigenbasis(u: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """Unitary V and eigenvalues lam with U V = V diag(lam) within EQUALITY_TOL, or None.

    V is the eigenbasis of the Hermitian (U + U*)/2 + c (U - U*)/(2i), c =
    EIGEN_MIX, whose eigenvalue on the eigenvector of lam is Re(lam) +
    c Im(lam).  Equal lam share an eigenspace, as the pinching needs; two
    distinct lam whose values collide or nearly collide get mixed
    eigenvectors, which the check turns into None.
    """
    uh = u.conj().T
    v = np.linalg.eigh((u + uh) / 2 + EIGEN_MIX * (u - uh) / 2j)[1]
    uv = u @ v
    lam = np.einsum("ij,ij->j", v.conj(), uv)  # diag(V* U V)
    if not np.linalg.norm(uv - v * lam) <= EQUALITY_TOL:
        return None
    return v, lam


def _eigenbasis_window_sums(v: np.ndarray, lam: np.ndarray, partial: np.ndarray, t: int) -> Iterator[tuple]:
    """The triples of :func:`_window_sums` from t on, given S_t P as a matrix, for U = V diag(lam) V*.

    In the eigenbasis mu^k(Q) is z^k o (V* Q V) for z_jk = lam_j conj(lam_k)
    and o the elementwise product, so the window w o S_t with w = z^t and
    the doubling w <- w o w are elementwise.
    """
    vh = v.conj().T
    s, z = vh @ partial @ v, np.outer(lam, lam.conj())
    np.fill_diagonal(z, 1)  # |lam_j|^2 = 1 exactly; rounding in its phase would double with every squaring
    for w in islice(_unit_squares(z), t.bit_length() - 1, None):
        window = w * s
        yield (t, *coords(v @ np.stack((s, window)) @ vh))
        s += window
        t *= 2


def _unit_squares(z: np.ndarray) -> Iterator[np.ndarray]:
    """z, z^2, z^4, ... by elementwise squaring, each pinned to |z| = 1.

    Without the pin, a modulus of 1 + 1 ulp raised to the power 2^26 would
    move the diagonal sums by ~1e-8 relative.
    """
    while True:
        z = z / np.abs(z)
        yield z
        z = z * z


def _unit_trace(c: np.ndarray, n: int) -> np.ndarray:
    """Rescale coordinates to unit trace, absorbing accumulated rounding."""
    trace = float(c[:n].sum())
    if np.isfinite(trace) and abs(trace) > UNIT_TRACE_FLOOR:
        return c / trace
    return c


def is_stationary(chain: MarkovChain, tol: float = CESARO_TOL) -> bool:
    """True when ||mu(P) - P|| <= tol."""
    c = coords(chain.start)
    return bool(np.linalg.norm(_image(chain.operator, c) - c) <= _require_tol(tol))


def functional_average(
    chain: MarkovChain,
    functional: np.ndarray,
    tol: float = CESARO_TOL,
    max_doublings: int = CESARO_MAX_DOUBLINGS,
) -> float:
    """Long-run average of t -> <X|mu^t(P)> for a Hermitian functional X.

    Equals <X|average> by linearity once the Cesaro average exists; errors
    from :func:`cesaro_average` propagate.
    """
    functional = require_hermitian(functional, name="functional")
    _require_same_dim(chain.operator.n, functional.shape[0], "operator", "functional")
    result = cesaro_average(chain, tol=tol, max_doublings=max_doublings)
    return float(hs_inner(functional, result.average).real)


def unitary_vector_average(u: np.ndarray, v: np.ndarray, steps: int) -> np.ndarray:
    """Running average (1/T) sum_{k=1..T} U^k v of a wave-function evolution.

    For unitaries without eigenvalue 1 the norm decays like O(1/T); this is
    the contrast to density averages, which converge to a Markov density.
    """
    u = _require_unitary(u)
    v = np.asarray(v, dtype=complex).reshape(-1)
    _require_same_dim(u.shape[0], v.shape[0], "unitary", "vector")
    steps = _require_count(steps, "steps", least=1)
    return sum(islice(_powers(u, v), 1, steps + 1), np.zeros_like(v)) / steps
