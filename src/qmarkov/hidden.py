"""Finite hidden-state systems: information functions, joint observability, Bell.

A hidden-state space is a scale whose symbols are the states, and a Markov
state is an outcome distribution over one: its components sum to 1 and may be
negative.  An information function maps hidden states to a finite scale; it is
statistically observable in a state when all aggregated outcome values are
nonnegative.  The Bell inequality |E(XY) - E(YZ)| <= 1 - E(XZ) holds whenever
X, Y, Z are jointly observable, and can fail when they are only pairwise
observable.  An information function keeps each value's scale position (its
code), found once at construction, for every readout; every product
expectation, Bell's three included, is one pair product, defined only for a
jointly observable pair.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Hashable, NamedTuple, Sequence

import numpy as np

from .hermitian import BELL_TOL, SIGN_TOL, _require_tol, _require_unit_sum
from .measurement import KrausMeasurement, OutcomeDistribution, Scale, _diagonal_projectors, _label_sums

__all__ = [
    "HiddenStateSpace",
    "InformationFunction",
    "MarkovState",
    "RawMoment",
    "BellCheckResult",
    "FiveStateExample",
    "observe_distribution",
    "expectation",
    "raw_moment",
    "joint",
    "is_jointly_observable",
    "product_expectation",
    "bell_check",
    "feynman_state",
    "five_state_example",
    "diagonal_povm",
]

class HiddenStateSpace(Scale):
    """Ordered finite set of distinct hidden-state labels: a scale whose symbols are the states."""

    _nouns = ("hidden-state space", "state")

    def __init__(self, states: Sequence[Hashable]) -> None:
        super().__init__(states)

    @property
    def states(self) -> tuple[Hashable, ...]:
        return self.symbols


@dataclass(frozen=True)
class InformationFunction:
    """Function from hidden states to a finite scale, one value per state."""

    space: HiddenStateSpace
    scale: Scale
    values: tuple[Hashable, ...]

    def __post_init__(self) -> None:
        values = tuple(self.values)
        if len(values) != len(self.space):
            raise ValueError(
                f"need one value per hidden state: {len(values)} values, "
                f"{len(self.space)} states"
            )
        codes = np.empty(len(values), dtype=np.intp)  # each value's scale position, in state order
        for i, v in enumerate(values):
            try:
                codes[i] = self.scale._positions[v]
            except (KeyError, TypeError):  # not in the scale, or unhashable
                raise ValueError(f"value {v!r} is not in the scale {self.scale.symbols!r}") from None
        codes.setflags(write=False)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "_codes", codes)

    def __call__(self, state) -> Hashable:
        return self.values[self.space.index(state)]


class MarkovState(OutcomeDistribution):
    """Real vector over the hidden states summing to 1 (components may be negative)."""

    _noun = "Markov state components"

    def __init__(self, space: HiddenStateSpace, values) -> None:
        super().__init__(space, values)

    @property
    def space(self) -> HiddenStateSpace:
        return self.scale


class RawMoment(NamedTuple):
    """Algebraic moment sum X(w) q_w with an honesty flag.

    ``observable`` is False when the value is not a statistical expectation
    because the function is not observable in the state.
    """

    value: float
    observable: bool


@dataclass(frozen=True)
class BellCheckResult:
    """Bell inequality evaluation |E(XY) - E(YZ)| <= 1 - E(XZ)."""

    lhs: float
    rhs: float
    satisfied: bool
    pairwise_observable: bool
    jointly_observable: bool
    e_xy: float
    e_yz: float
    e_xz: float


class FiveStateExample(NamedTuple):
    space: HiddenStateSpace
    x: InformationFunction
    y: InformationFunction
    z: InformationFunction
    state: MarkovState


def _require_same_space(funcs: Sequence[InformationFunction], state: MarkovState | None = None) -> None:
    space = funcs[0].space
    for f in funcs[1:]:
        if f.space != space:
            raise ValueError("information functions live on different hidden-state spaces")
    if state is not None and state.space != space:
        raise ValueError("Markov state lives on a different hidden-state space")


def observe_distribution(func: InformationFunction, state: MarkovState) -> OutcomeDistribution:
    """Aggregate the state components by outcome: p(a) = sum over X(w) = a of q_w.

    Each sum runs in state order: this is the readout of :func:`diagonal_povm`.
    """
    _require_same_space([func], state)
    values = _label_sums(state.values, func._codes, np.zeros(len(func.scale)))
    return OutcomeDistribution(scale=func.scale, values=values)


def _numeric_values(func: InformationFunction, name: str) -> np.ndarray:
    for v in func.values:
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise ValueError(f"{name} must be real-valued, got value {v!r}")
    return np.array(func.values, dtype=float)


def expectation(func: InformationFunction, state: MarkovState, tol: float = SIGN_TOL) -> float:
    """Expectation of a real-valued observable information function.

    Defined only under observability; otherwise the moment has no
    statistical meaning and an error is raised (use :func:`raw_moment` for
    the algebraic value).
    """
    moment = raw_moment(func, state, tol)
    if not moment.observable:
        raise ValueError(
            "information function is not statistically observable in this state; "
            "its expectation is undefined"
        )
    return moment.value


def raw_moment(func: InformationFunction, state: MarkovState, tol: float = SIGN_TOL) -> RawMoment:
    """Algebraic moment sum X(w) q_w, flagged by observability."""
    values = _numeric_values(func, "information function")
    observable = observe_distribution(func, state).is_observable(tol)
    return RawMoment(value=float(values @ state.values), observable=observable)


def joint(funcs: Sequence[InformationFunction]) -> InformationFunction:
    """Composite information function with the full product scale."""
    funcs = list(funcs)
    if not funcs:
        raise ValueError("joint needs at least one information function")
    _require_same_space(funcs)
    scale = Scale(tuple(itertools.product(*(f.scale.symbols for f in funcs))))
    values = tuple(zip(*(f.values for f in funcs)))
    return InformationFunction(space=funcs[0].space, scale=scale, values=values)


def is_jointly_observable(
    funcs: Sequence[InformationFunction],
    state: MarkovState,
    tol: float = SIGN_TOL,
) -> bool:
    """True when the composite function is observable in the state."""
    return observe_distribution(joint(funcs), state).is_observable(tol)


def product_expectation(
    x: InformationFunction,
    y: InformationFunction,
    state: MarkovState,
    tol: float = SIGN_TOL,
) -> float:
    """E(XY) = sum X(w) Y(w) q_w for a jointly observable real-valued pair."""
    xv = _numeric_values(x, "first information function")
    yv = _numeric_values(y, "second information function")
    return _pair_product(x, y, xv, yv, state, tol, "pair")


def _pair_product(f, g, fv: np.ndarray, gv: np.ndarray, state: MarkovState, tol: float, name: str) -> float:
    """sum F(w) G(w) q_w for the values fv, gv of f, g; raises unless the pair is jointly observable."""
    if not is_jointly_observable([f, g], state, tol):
        raise ValueError(f"{name} is not jointly observable; its product expectation is undefined")
    return float((fv * gv) @ state.values)


def _pm_one_values(func: InformationFunction, name: str) -> np.ndarray:
    for v in func.values:
        if isinstance(v, bool) or v not in ((-1, 1) if isinstance(v, (int, float)) else ("-1", "+1")):
            raise ValueError(f"{name} must have scale {{-1, +1}}, got value {v!r}")
    return np.array(func.values, dtype=float)


def bell_check(
    x: InformationFunction,
    y: InformationFunction,
    z: InformationFunction,
    state: MarkovState,
    tol: float = BELL_TOL,
) -> BellCheckResult:
    """Evaluate |E(XY) - E(YZ)| <= 1 - E(XZ) for three +-1-valued functions.

    All three pairs must be jointly observable (otherwise the expectations
    are undefined and an error is raised).  Joint observability of the triple
    guarantees the inequality; pairwise-only observability can violate it.
    """
    _require_same_space([x, y, z], state)
    xv = _pm_one_values(x, "X")
    yv = _pm_one_values(y, "Y")
    zv = _pm_one_values(z, "Z")
    e_xy = _pair_product(x, y, xv, yv, state, SIGN_TOL, "pair (X,Y)")
    e_yz = _pair_product(y, z, yv, zv, state, SIGN_TOL, "pair (Y,Z)")
    e_xz = _pair_product(x, z, xv, zv, state, SIGN_TOL, "pair (X,Z)")
    lhs = abs(e_xy - e_yz)
    rhs = 1.0 - e_xz
    return BellCheckResult(
        lhs=lhs,
        rhs=rhs,
        satisfied=bool(lhs <= rhs + _require_tol(tol)),
        pairwise_observable=True,
        jointly_observable=is_jointly_observable([x, y, z], state),
        e_xy=e_xy,
        e_yz=e_yz,
        e_xz=e_xz,
    )


FEYNMAN_LABELS = ("++", "+-", "-+", "--")


def feynman_state(sx: float, sy: float, sz: float) -> MarkovState:
    """Spin-average table for a two-spin system as a four-component Markov state.

    Components, in label order ++, +-, -+, --:

        (1 + sz + sx + sy) / 4
        (1 + sz - sx - sy) / 4
        (1 + sz + sx - sy) / 4
        (1 - sz - sx - sy) / 4

    The components sum to 1 + (sz - sy)/2, so the construction is valid only
    when sz equals sy; otherwise the computed sum is reported in the error.
    """
    sx, sy, sz = float(sx), float(sy), float(sz)
    q = np.array(
        [
            (1.0 + sz + sx + sy) / 4.0,
            (1.0 + sz - sx - sy) / 4.0,
            (1.0 + sz + sx - sy) / 4.0,
            (1.0 - sz - sx - sy) / 4.0,
        ]
    )
    note = "; these formulas normalize only when sz equals sy (sum = 1 + (sz - sy)/2)"
    _require_unit_sum(q, "spin-average table", note)
    return MarkovState(space=HiddenStateSpace(states=FEYNMAN_LABELS), values=q)


def five_state_example() -> FiveStateExample:
    """Canonical five-hidden-state instance violating the Bell inequality.

    X, Y, Z are pairwise but not jointly observable in the returned state;
    E(XY) = 1, E(YZ) = -1/3, E(XZ) = 1, so |E(XY) - E(YZ)| = 4/3 > 0 = 1 - E(XZ).
    """
    space = HiddenStateSpace(states=("w1", "w2", "w3", "w4", "w5"))
    scale = Scale(symbols=(-1, 1))
    x = InformationFunction(space=space, scale=scale, values=(-1, 1, -1, -1, -1))
    y = InformationFunction(space=space, scale=scale, values=(1, 1, -1, 1, -1))
    z = InformationFunction(space=space, scale=scale, values=(1, 1, 1, -1, -1))
    state = MarkovState(space=space, values=np.array([-1.0, 1.0, 1.0, 1.0, 1.0]) / 3.0)
    return FiveStateExample(space=space, x=x, y=y, z=z, state=state)


def diagonal_povm(func: InformationFunction) -> KrausMeasurement:
    """The POVM view of an information function: diagonal 0/1 projectors.

    Applying it to diag(q) reproduces :func:`observe_distribution` exactly.
    """
    projectors = _diagonal_projectors(func._codes, len(func.scale))
    return KrausMeasurement(scale=func.scale, kraus=projectors)
