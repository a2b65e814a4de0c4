"""Markov chains (mu, P): evolution, boundedness, Cesaro averages, stationarity.

The Cesaro average of a bounded chain exists and is stationary; it is
computed here with a doubling scheme on the superoperator, so horizons up to
~10^12 steps cost only ~40 matrix products of size n^2.  Each doubling also
tests the tail average over steps t+1..2t, which has the same limit and, for
mixing channels, loses its transient geometrically; it is accepted only once
it is stationary and has stopped moving, so the doubling usually ends after
a few hundred steps instead of ~10^7.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hermitian import (
    CESARO_MAX_DOUBLINGS,
    CESARO_TOL,
    UNIT_TRACE_FLOOR,
    _require_same_dim,
    _require_unitary,
    coords,
    from_coords,
    hs_inner,
    require_hermitian,
    require_markov_density,
)
from .operators import MarkovOperator

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

class ConvergenceError(RuntimeError):
    """Raised when the Cesaro residual cannot be pushed below tolerance."""


@dataclass(frozen=True, eq=False)
class MarkovChain:
    """Evolution operator mu together with a start density P."""

    operator: MarkovOperator
    start: np.ndarray

    def __post_init__(self) -> None:
        start = np.array(require_markov_density(self.start, name="start density"))
        _require_same_dim(self.operator.n, start.shape[0], "operator", "start density")
        start.setflags(write=False)
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

    The chain is iterated in coordinates; all densities but the start are
    then built by one batched :func:`from_coords` call.
    """
    densities = from_coords(_coordinate_path(chain, steps))
    densities[0] = chain.start
    return densities


def _coordinate_path(chain: MarkovChain, steps: int) -> np.ndarray:
    """Coordinates of mu^t(P) for t = 0..steps, one row per step."""
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    k = chain.operator.matrix
    c = coords(chain.start)
    path = np.empty((steps + 1, c.size))
    path[0] = c
    for t in range(1, steps + 1):
        c = k @ c
        path[t] = c
    return path


def boundedness_probe(chain: MarkovChain, horizon: int, bound: float) -> BoundednessReport:
    """Track tr(mu^t(P)^2) for t <= horizon against a candidate bound.

    tr(Q^2) equals the squared coordinate norm, so the probe runs entirely
    in coordinates.
    """
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    k = chain.operator.matrix
    c = coords(chain.start)
    max_value = float(c @ c)
    first_exceeded = 0 if max_value > bound else None
    for t in range(1, horizon + 1):
        c = k @ c
        value = float(c @ c)
        if value > max_value:
            max_value = value
        if first_exceeded is None and value > bound:
            first_exceeded = t
    return BoundednessReport(
        bound=float(bound),
        horizon=horizon,
        max_value=max_value,
        exceeded=first_exceeded is not None,
        first_exceeded=first_exceeded,
    )


def cesaro_average(
    chain: MarkovChain,
    tol: float = CESARO_TOL,
    max_doublings: int = CESARO_MAX_DOUBLINGS,
) -> CesaroResult:
    """Limit of averages (1/t) sum_{k=1..t} mu^k(P) via superoperator doubling.

    Maintains T_t = mu^t and the coordinates of S_t P = sum_{k=1..t} mu^k(P)
    with S_2t P = S_t P + T_t S_t P and T_2t = T_t^2, so each doubling costs
    one n^2 x n^2 product (the rest are mat-vecs), and checks the stationarity
    residual ||mu(avg) - avg|| at t = 1, 2, 4, ..., 2^max_doublings.  When
    the plain average misses tol, the tail average T_t S_t P / t over steps
    t+1..2t (the mat-vec the update needs anyway) is tested: it is returned
    when its residual is within tol and it moved by at most tol since the
    previous doubling's tail.  That second condition keeps drifting chains
    out: for a defective eigenvalue-1 block the tail grows like t, and at
    large t rounding can cancel its residual.  Averages are renormalized to
    unit trace to absorb accumulated rounding.
    ``iterations`` is the step count the returned average spans: t for the
    plain average, 2t for the tail.  Raises ConvergenceError when neither
    average gets within tol, which signals an unbounded chain or extremely
    slow mixing.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    k = chain.operator.matrix
    n = chain.operator.n
    c0 = coords(chain.start)

    partial = k @ c0
    residual = float(np.linalg.norm(partial - c0))
    if residual <= tol:
        return CesaroResult(average=np.array(chain.start), iterations=0, residual=residual)

    t_mat = k.copy()
    t = 1
    previous_tail = None
    # overflow along the way is a legitimate signal of an unbounded chain,
    # not a numerical accident worth warning about
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(max_doublings + 1):
            avg = _unit_trace(partial / t, n)
            residual = float(np.linalg.norm(k @ avg - avg))
            if not np.isfinite(residual):
                raise ConvergenceError(
                    f"averages diverged after {t} steps; the chain appears unbounded"
                )
            if residual <= tol:
                return CesaroResult(average=from_coords(avg), iterations=t, residual=residual)
            shifted = t_mat @ partial
            tail = _unit_trace(shifted / t, n)
            tail_residual = float(np.linalg.norm(k @ tail - tail))
            if (
                tail_residual <= tol
                and previous_tail is not None
                and float(np.linalg.norm(tail - previous_tail)) <= tol
            ):
                return CesaroResult(average=from_coords(tail), iterations=2 * t, residual=tail_residual)
            previous_tail = tail
            partial += shifted
            t_mat = t_mat @ t_mat
            t *= 2
    raise ConvergenceError(
        f"stationarity residual {residual:.3e} still above {tol:.1e} after "
        f"{max_doublings} doublings (t = {t // 2}); the chain may be unbounded"
    )


def _unit_trace(c: np.ndarray, n: int) -> np.ndarray:
    """Rescale coordinates to unit trace, absorbing accumulated rounding."""
    trace = float(c[:n].sum())
    if np.isfinite(trace) and abs(trace) > UNIT_TRACE_FLOOR:
        return c / trace
    return c


def is_stationary(chain: MarkovChain, tol: float = CESARO_TOL) -> bool:
    """True when ||mu(P) - P|| <= tol."""
    k = chain.operator.matrix
    c = coords(chain.start)
    return bool(np.linalg.norm(k @ c - c) <= tol)


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
    if steps < 1:
        raise ValueError("steps must be at least 1")
    acc = np.zeros_like(v)
    w = v
    for _ in range(steps):
        w = u @ w
        acc += w
    return acc / steps
