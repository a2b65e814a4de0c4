"""Quantum (Kraus) and general Markov measurements.

A Kraus measurement attaches one matrix M_a per scale symbol with
sum_a M_a* M_a = I; outcome values are tr(M_a Q M_a*).  A Markov measurement
attaches one unconstrained linear operator per symbol whose sum is trace
preserving; outcome values are tr(mu_a(Q)).  Outcome values of a Markov
density may be negative, and "observable" means exactly that they are not.
Word values tr(mu_w(Q)) have one kernel, and a Markov measurement's outcome
values are its length-1 word values; a Kraus measurement forms no
superoperator for its own.  A diagonal 0/1 POVM has one readout.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass
from typing import Hashable, Iterator, Sequence

import numpy as np

from .hermitian import (
    PROBABILITY_FLOOR,
    SIGN_TOL,
    _frozen_array,
    _require_count,
    _require_same_dim,
    _require_tol,
    _require_unit_sum,
    coords,
    require_markov_density,
)
from .operators import MarkovOperator, _check_completeness, _require_trace_preserving, kraus_superop

__all__ = [
    "DEFAULT_ENUMERATION_CAP",
    "Scale",
    "KrausMeasurement",
    "MarkovMeasurement",
    "OutcomeDistribution",
    "enumeration_cap",
    "iter_words",
    "outcome_distribution",
    "is_observable",
    "posterior",
    "as_markov_measurement",
    "word_operator",
    "word_distribution",
    "is_t_observable",
]

DEFAULT_ENUMERATION_CAP = 10**6
WORD_BLOCK = 2**15  # word values per block of _word_blocks


def enumeration_cap() -> int:
    """Word-enumeration cap: QMARKOV_ENUM_CAP, else 10^6; anything but a positive integer raises."""
    env = os.environ.get("QMARKOV_ENUM_CAP")
    if not env:
        return DEFAULT_ENUMERATION_CAP
    try:
        cap = int(env)
    except ValueError:
        cap = 0
    if cap < 1:
        raise ValueError(f"QMARKOV_ENUM_CAP must be a positive integer, got {env!r}")
    return cap


@dataclass(frozen=True)
class Scale:
    """Ordered finite set of distinct measurement outcomes."""

    symbols: tuple[Hashable, ...]
    _nouns = ("scale", "symbol")  # the set and one of its labels, as the messages name them

    def __post_init__(self) -> None:
        symbols = tuple(self.symbols)
        # symbol -> position, built once; index, ``in`` and every symbol lookup read it
        positions = {s: k for k, s in enumerate(symbols)}
        if not symbols or len(positions) != len(symbols):
            name, item = self._nouns
            raise ValueError(f"{name} must hold at least one {item}, all distinct, got {symbols!r}")
        object.__setattr__(self, "symbols", symbols)
        object.__setattr__(self, "_positions", positions)

    def __len__(self) -> int:
        return len(self.symbols)

    def __iter__(self):
        return iter(self.symbols)

    def __contains__(self, symbol) -> bool:
        try:
            return symbol in self._positions
        except TypeError:  # unhashable, so in no scale
            return False

    def index(self, symbol) -> int:
        try:
            return self._positions[symbol]
        except (KeyError, TypeError):
            name, item = self._nouns
            raise ValueError(f"unknown {item} {symbol!r}, {name} is {self.symbols!r}") from None


def iter_words(scale: Scale, length: int) -> Iterator[tuple]:
    """All words of the given length in lexicographic (product) order."""
    return itertools.product(scale.symbols, repeat=length)


def _check_word_count(base: int, lengths: range, times: int = 1) -> None:
    """Raise when ``times`` enumerations of the words of the given lengths would exceed the cap.

    A base^l > 1 whose l passes the cap's bit length by 64 passes the cap: it is named, never formed.
    A one-symbol scale has one word per length, but the kernels still build
    one level per length, so it counts at least the longest length.
    """
    limit, longest = enumeration_cap(), lengths[-1]
    count = f"at least {base}^{longest}"
    if base < 2 or not times or longest <= limit.bit_length() + 64:
        count = max(longest, times * len(lengths)) if base < 2 else times * sum(base**l for l in lengths)
        if count <= limit:
            return
    raise ValueError(
        f"word enumeration cap exceeded: {count} words > {limit} "
        f"(raise QMARKOV_ENUM_CAP to override)"
    )


def _word_levels(start: np.ndarray, step: np.ndarray, depth: int) -> Iterator[np.ndarray]:
    """Word states for lengths 1..depth, one matrix product per level.

    ``start`` holds one row of size m.  With ``step = np.hstack([M.T for M in
    ops])`` each level appends a symbol (rows M_w x); with ``step =
    np.stack(ops)`` it prepends one (rows x M_w, for covectors x).  Either
    way the rows of a level are in product order of the words.
    """
    states = start
    m = start.shape[-1]
    for _ in range(depth):
        states = (states @ step).reshape(-1, m)
        yield states


def _split_levels(
    ops: Sequence[np.ndarray], start: np.ndarray, end: np.ndarray, depth: int
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Prefix and suffix levels that together cover every word of length <= depth.

    ``xs[k]`` holds the prefix states M_u start of the words u of length k,
    for k up to ceil(depth/2); ``ys[k]`` holds the suffix covectors
    end^T M_v of the words v of length k, for k up to floor(depth/2).  Both
    are in product order, and ``xs[0]``, ``ys[0]`` are ``start`` and ``end``.
    """
    first, last = start[None, :], end[None, :]
    xs = [first, *_word_levels(first, np.hstack([op.T for op in ops]), (depth + 1) // 2)]
    ys = [last, *_word_levels(last, np.stack(ops), depth // 2)]
    return xs, ys


def _word_blocks(
    xs: list[np.ndarray], ys: list[np.ndarray], t: int, out: np.ndarray | None = None
) -> Iterator[np.ndarray]:
    """Values end^T M_w start of all words w of length t, in product order, in blocks.

    The word w = uv splits into a prefix u of length ceil(t/2) and a suffix
    v of length floor(t/2), so its value is the dot product of the prefix
    state of u and the suffix covector of v (levels from
    :func:`_split_levels`).  Each block is ``X[rows] @ Y.T`` flattened, with
    as many prefix rows as fit in about WORD_BLOCK values, so memory beyond
    the two levels stays O(WORD_BLOCK).  Without ``out`` each block is a
    fresh array that the caller may keep.  With ``out``, a float buffer of
    :func:`_block_buffer`'s size, each block is written into its start and
    stays valid only until the next block is drawn; the caller may overwrite
    it meanwhile.  The values are the same either way, bit for bit.
    """
    x, y = xs[(t + 1) // 2], ys[t // 2]
    rows = max(1, WORD_BLOCK // len(y))
    for i in range(0, len(x), rows):
        part = x[i : i + rows]
        block = None if out is None else out[: len(part) * len(y)].reshape(len(part), len(y))
        yield np.matmul(part, y.T, out=block).ravel()


def _block_buffer(ys: list[np.ndarray]) -> np.ndarray:
    """A float buffer for the largest block of ``ys``: max(1, WORD_BLOCK // len(y)) rows of len(y) values
    hold at most max(WORD_BLOCK, len(y)), and the last level is the longest."""
    return np.empty(max(WORD_BLOCK, len(ys[-1])))


def _symbol_matrices(scale: Scale, mats: Sequence, kind: str, dtype) -> tuple[np.ndarray, ...]:
    """One square, finite, read-only array per scale symbol, all of one shape."""
    mats = tuple(mats)
    if len(mats) != len(scale):
        raise ValueError(f"need one {kind} per symbol: got {len(mats)} for {len(scale)} symbols")
    n = np.shape(mats[0])[0] if np.ndim(mats[0]) else 0
    return tuple(_frozen_array(m, f"{kind} for {sym!r}", dtype, (n, n)) for sym, m in zip(scale, mats))


def _diagonal_projectors(labels: np.ndarray, count: int) -> tuple[np.ndarray, ...]:
    """Read-only 0/1 projectors diag(labels == k) for k = 0..count-1.

    ``labels`` holds one integer label per basis index (below ``count``),
    so the projectors sum to the identity.
    """
    projectors = tuple(np.diag((labels == k).astype(complex)) for k in range(count))
    for p in projectors:
        p.setflags(write=False)
    return projectors


def _label_sums(values: np.ndarray, labels: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The POVM readout of :func:`_diagonal_projectors`: out[..., labels[i]] += values[..., i], i in order."""
    np.add.at(out, (..., labels), values[..., : len(labels)])
    return out


@dataclass(frozen=True, eq=False)
class KrausMeasurement:
    """Quantum measurement: one Kraus matrix per symbol, sum_a M_a* M_a = I."""

    scale: Scale
    kraus: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        mats = _symbol_matrices(self.scale, self.kraus, "Kraus matrix", complex)
        _check_completeness(np.array(mats))
        object.__setattr__(self, "kraus", mats)

    @property
    def n(self) -> int:
        return self.kraus[0].shape[0]

    def matrix(self, symbol) -> np.ndarray:
        return self.kraus[self.scale.index(symbol)]


@dataclass(frozen=True, eq=False)
class MarkovMeasurement:
    """One linear operator per symbol; the symbol sum must be trace preserving.

    Per-symbol operators are stored as raw n^2 x n^2 coordinate matrices and
    are individually unconstrained (they are generally not Markov operators).
    """

    scale: Scale
    operators: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        ops = _symbol_matrices(self.scale, self.operators, "operator", float)
        _require_trace_preserving(sum(ops), "symbol sum is not a Markov operator")
        object.__setattr__(self, "operators", ops)

    @property
    def n(self) -> int:
        return int(round(np.sqrt(self.operators[0].shape[0])))

    @property
    def sum_operator(self) -> MarkovOperator:
        """The Markov operator mu_X = sum_a mu_a."""
        return MarkovOperator(n=self.n, matrix=sum(self.operators))

    def operator(self, symbol) -> np.ndarray:
        return self.operators[self.scale.index(symbol)]


@dataclass(frozen=True, eq=False)
class OutcomeDistribution:
    """Outcome values p(a) per symbol; they sum to 1 but may be negative."""

    scale: Scale
    values: np.ndarray
    _noun = "outcome values"  # the values, as the messages name them

    def __post_init__(self) -> None:
        values = _frozen_array(self.values, self._noun, float, (len(self.scale),))
        _require_unit_sum(values, self._noun)
        object.__setattr__(self, "values", values)

    def value(self, symbol) -> float:
        return float(self.values[self.scale.index(symbol)])

    def as_dict(self) -> dict:
        return {s: float(v) for s, v in zip(self.scale, self.values)}

    def min_value(self) -> float:
        return float(self.values.min())

    def is_observable(self, tol: float = SIGN_TOL) -> bool:
        return self.min_value() >= -_require_tol(tol)


def outcome_distribution(meas, density: np.ndarray) -> OutcomeDistribution:
    """Distribution of single-outcome values for a Markov density.

    A Markov measurement's are its length-1 word values; a Kraus measurement forms no superoperator.
    """
    if isinstance(meas, KrausMeasurement):
        density = require_markov_density(density)
        _require_same_dim(meas.n, density.shape[0], "measurement", "density")
        values = np.array([np.einsum("ij,jk,ik->", m, density, m.conj()).real for m in meas.kraus])
    else:
        values = np.concatenate(list(_word_values(meas, density, 1)))
    return OutcomeDistribution(scale=meas.scale, values=values)


def is_observable(meas, density: np.ndarray, tol: float = SIGN_TOL) -> bool:
    """True when every outcome value is >= -tol."""
    return outcome_distribution(meas, density).is_observable(tol)


def posterior(meas: KrausMeasurement, density: np.ndarray, symbol) -> tuple[float, np.ndarray]:
    """Outcome probability and posterior density (p, M_a Q M_a*/p) for one outcome.

    Defined only when the outcome probability exceeds PROBABILITY_FLOOR;
    at (near-)zero or negative probability the posterior is not a density
    and an error is raised.
    """
    _require_measurement(meas, kraus=True)
    density = require_markov_density(density)
    _require_same_dim(meas.n, density.shape[0], "measurement", "density")
    m = meas.matrix(symbol)
    raw = m @ density @ m.conj().T
    p = float(np.trace(raw).real)
    if p <= PROBABILITY_FLOOR:
        raise ValueError(
            f"posterior undefined: outcome {symbol!r} has probability {p!r} <= {PROBABILITY_FLOOR}"
        )
    post = raw / p
    return p, (post + post.conj().T) / 2.0


def as_markov_measurement(meas: KrausMeasurement) -> MarkovMeasurement:
    """Per-symbol conjugation operators Q -> M_a Q M_a* as a Markov measurement."""
    ops = tuple(kraus_superop(m[None, :, :]) for m in _require_measurement(meas, kraus=True).kraus)
    return MarkovMeasurement(scale=meas.scale, operators=ops)


def _require_measurement(meas, kraus: bool = False):
    """``meas``, raising TypeError unless it is a measurement, and a Kraus one when ``kraus``."""
    if not isinstance(meas, KrausMeasurement if kraus else (KrausMeasurement, MarkovMeasurement)):
        raise TypeError(f"expected a {'Kraus ' * kraus}measurement, got {type(meas).__name__}")
    return meas


def _as_markov(meas) -> MarkovMeasurement:
    return as_markov_measurement(meas) if isinstance(_require_measurement(meas), KrausMeasurement) else meas


def word_operator(meas, word: Sequence) -> np.ndarray:
    """Coordinate matrix of mu_w = mu_{a_t} ... mu_{a_1} (chronological order).

    The first symbol of the word acts first; the empty word gives the
    identity.  The result is a plain superoperator matrix: word operators
    are generally not trace preserving.
    """
    meas = _as_markov(meas)
    m = meas.operators[0].shape[0]
    out = np.eye(m)
    for symbol in word:
        out = meas.operator(symbol) @ out
    return out


def _word_values(meas, density: np.ndarray, t: int, reuse: bool = False) -> Iterator[np.ndarray]:
    """Values tr(mu_w(Q)) for all words of length t, in product order, in blocks.

    Takes a Kraus or a Markov measurement, and checks the arguments and the
    word cap before it converts a Kraus one or returns.  Prefix states
    start at the coordinates of the density and suffix covectors at the
    trace functional (the sum of the first n coordinates); the blocks come
    from :func:`_word_blocks`, so the levels built hold O(|scale|^ceil(t/2))
    rows rather than |scale|^t.  With ``reuse`` the blocks share one buffer,
    so each is valid only until the next is drawn.
    """
    t = _require_count(t, "word length")
    density = require_markov_density(density)
    _require_same_dim(_require_measurement(meas).n, density.shape[0], "measurement", "density")
    _check_word_count(len(meas.scale), range(t, t + 1))
    meas = _as_markov(meas)
    trace = np.zeros(meas.operators[0].shape[0])
    trace[: meas.n] = 1.0
    xs, ys = _split_levels(meas.operators, coords(density), trace, t)
    return _word_blocks(xs, ys, t, _block_buffer(ys) if reuse else None)


def word_distribution(meas, density: np.ndarray, t: int) -> dict[tuple, float]:
    """Map from each word of length t to tr(mu_w(Q)); values sum to 1."""
    values = np.concatenate(list(_word_values(meas, density, t)))
    return dict(zip(iter_words(meas.scale, t), values.tolist()))


def is_t_observable(meas, density: np.ndarray, t: int, tol: float = SIGN_TOL) -> bool:
    """True when every length-t word value is >= -tol (always true at t = 0).

    Stops at the first block of word values that holds one below -tol.  The
    blocks share one buffer, each reduced to its minimum before the next.
    """
    tol = _require_tol(tol)
    return all(block.min() >= -tol for block in _word_values(meas, density, t, reuse=True))
