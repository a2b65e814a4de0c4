"""Observable operator models: word probabilities, dimension, lifting, entropy.

An OOM is a family of real m x m matrices {M_a} whose sum has column sums 1,
together with a Markov state pi (entries may be negative).  Word
probabilities are the component sums of M_{a_t} ... M_{a_1} pi.  Two kernels
compute them: :func:`word_probabilities` steps a list of given words
together, one stacked product per symbol position, and the level kernel
behind :func:`validate`, :func:`prediction_matrix` and :func:`entropy_rate`
covers all words up to a length.  The model
is equivalent to a diagonal Markov measurement, and lifts to an OOM on
|scale| * m explicit hidden states, read off by an information function,
with the same word probabilities.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import islice
from typing import Hashable, Mapping, Sequence

import numpy as np

from .hermitian import (
    PROBABILITY_FLOOR,
    RANK_TOL,
    SIGN_TOL,
    _as_square,
    _frozen_array,
    _require_column_sums,
    _require_count,
    _require_tol,
    _require_unit_sum,
)
from .hidden import HiddenStateSpace, InformationFunction
from .measurement import (
    MarkovMeasurement,
    OutcomeDistribution,
    Scale,
    _block_buffer,
    _check_word_count,
    _split_levels,
    _symbol_matrices,
    _word_blocks,
    iter_words,
)
from .operators import _powers, diagonal_superop

__all__ = [
    "ObservableOperatorModel",
    "PredictionMatrix",
    "HiddenStateLift",
    "OomValidationReport",
    "word_probability",
    "word_probabilities",
    "validate",
    "conditional",
    "prediction_matrix",
    "hmm_to_oom",
    "lift_hidden_states",
    "step_distribution",
    "entropy_rate",
    "to_markov_measurement",
]

@dataclass(frozen=True, eq=False)
class ObservableOperatorModel:
    """Operators {M_a} with column-sum-1 total and a Markov state pi."""

    scale: Scale
    operators: tuple[np.ndarray, ...]
    pi: np.ndarray

    def __post_init__(self) -> None:
        ops = _symbol_matrices(self.scale, self.operators, "operator", float)
        _require_column_sums(sum(ops), "operator sum must have column sums 1")
        pi = _frozen_array(self.pi, "pi", float, (ops[0].shape[0],))
        _require_unit_sum(pi, "pi")
        object.__setattr__(self, "operators", ops)
        object.__setattr__(self, "pi", pi)

    @property
    def dim(self) -> int:
        return self.pi.shape[0]

    @property
    def transition_sum(self) -> np.ndarray:
        """The Markov matrix M = sum_a M_a."""
        return sum(self.operators)

    def operator(self, symbol) -> np.ndarray:
        return self.operators[self.scale.index(symbol)]


@dataclass(frozen=True, eq=False)
class PredictionMatrix:
    """Truncated matrix of conditionals p(v|w); columns exist only where p(w) > threshold.

    The matrix is held as two m-column factors: ``row_factor`` holds the
    covector y_v = 1^T M_v of each row word v, ``col_factor`` the normalised
    state M_w pi / p(w) of each column word w, so that p(v|w) is the dot
    product of the two rows.  ``values`` forms the words x words product on
    first access and caches it read-only.
    """

    row_words: tuple[tuple, ...]
    col_words: tuple[tuple, ...]
    row_factor: np.ndarray
    col_factor: np.ndarray

    @cached_property
    def values(self) -> np.ndarray:
        values = self.row_factor @ self.col_factor.T
        values.setflags(write=False)
        return values


@dataclass(frozen=True, eq=False)
class OomValidationReport:
    """Structural sums plus the minimum word probability up to a horizon."""

    horizon: int
    transition_column_error: float
    pi_sum_error: float
    min_probability: float
    min_word: tuple
    negative_words: int

    @property
    def observable(self) -> bool:
        return self.negative_words == 0


@dataclass(frozen=True, eq=False)
class HiddenStateLift(ObservableOperatorModel):
    """Block lift of an OOM to |scale| * m hidden states, itself an OOM.

    The hidden states are the pairs (a, j) in symbol-major order; the
    information function reads off the symbol.  The lifted operators and
    start state reproduce the original word probabilities exactly.
    """

    space: HiddenStateSpace
    info: InformationFunction
    base_dim: int


def word_probability(model: ObservableOperatorModel, word: Sequence) -> float:
    """p(w) as the component sum of M_{a_t} ... M_{a_1} pi; the empty word has p = 1.

    This is :func:`word_probabilities` of a one-word list.  A caller that
    loops over words should pass the whole list to that function instead:
    one call per word pays its set-up once per word.
    """
    return float(word_probabilities(model, [word])[0])


def word_probabilities(model: ObservableOperatorModel, words: Sequence[Sequence]) -> np.ndarray:
    """p(w) of every word in the list, in order, as :func:`word_probability` defines it.

    Every symbol is mapped to its scale index first, so an unknown symbol
    anywhere in the list raises before any arithmetic.  The words are then
    stepped together, longest first: position t takes one stacked product
    of the operators of the words longer than t with their states.  Each
    row of that product is the matrix-vector product of a per-word loop
    ``x = M_a @ x``, and a shorter word stops at its own length (an identity
    pad would turn an inf entry into NaN and -0.0 into 0.0), so each value
    equals that loop's bit for bit, whichever words share the list.
    """
    words = [tuple(w) for w in words]
    index = model.scale._positions
    try:
        codes = [index[s] for w in words for s in w]
    except (KeyError, TypeError):  # Scale.index names the first unknown or unhashable symbol
        codes = [model.scale.index(s) for w in words for s in w]
    lengths = np.array([len(w) for w in words], dtype=np.intp)
    steps = np.zeros((len(words), lengths.max(initial=0)), dtype=np.intp)
    steps[np.arange(steps.shape[1]) < lengths[:, None]] = codes
    order = np.argsort(-lengths, kind="stable")
    steps, lengths = steps[order], lengths[order]
    ops = np.stack(model.operators)
    x = np.tile(model.pi, (len(words), 1))
    # the words longer than t lead the order: k of them at each position t
    running = np.searchsorted(-lengths, -np.arange(steps.shape[1])).tolist()
    for k, column in zip(running, steps.T):
        x[:k] = (ops[column[:k]] @ x[:k, :, None])[..., 0]
    out = np.empty(len(words))
    out[order] = x.sum(axis=1)
    return out


def _levels(model: ObservableOperatorModel, depth: int):
    """Prefix states M_u pi and suffix covectors 1^T M_v for words up to length depth."""
    return _split_levels(model.operators, model.pi, np.ones(model.dim), depth)


def validate(
    model: ObservableOperatorModel,
    horizon: int,
    tol: float = PROBABILITY_FLOOR,
) -> OomValidationReport:
    """Scan structural sums and all word probabilities up to the horizon.

    Negative word probabilities (below -tol) mean the model is not
    observable at that depth; the report flags them without raising.  The
    minimum is the first word, by length and then product order, that
    attains it.  Word probabilities come in blocks from prefix states times
    suffix covectors, each written into one reused block buffer and scanned
    before the next is drawn, so memory is O(|scale|^ceil(horizon/2) * m + block).
    """
    horizon = _require_count(horizon, "horizon")
    tol = _require_tol(tol)
    _check_word_count(len(model.scale), range(horizon, horizon + 1), times=horizon)
    # the model passed both checks at construction, so they return the errors
    col_err = _require_column_sums(model.transition_sum, "operator sum must have column sums 1")
    pi_err = _require_unit_sum(model.pi, "pi")
    min_p = 1.0
    min_word: tuple = ()
    negatives = 0
    xs, ys = _levels(model, horizon)
    buffer = _block_buffer(ys)
    for length in range(1, horizon + 1):
        offset = 0
        for block in _word_blocks(xs, ys, length, buffer):
            negatives += int(np.count_nonzero(block < -tol))
            idx = int(np.argmin(block))
            if block[idx] < min_p:
                min_p = float(block[idx])
                digits = np.unravel_index(offset + idx, (len(model.scale),) * length)
                min_word = tuple(model.scale.symbols[i] for i in digits)
            offset += len(block)
    return OomValidationReport(
        horizon=horizon,
        transition_column_error=col_err,
        pi_sum_error=pi_err,
        min_probability=min_p,
        min_word=min_word,
        negative_words=negatives,
    )


def conditional(model: ObservableOperatorModel, future: Sequence, past: Sequence) -> float:
    """Prediction probability p(future | past) = p(past + future) / p(past)."""
    past = tuple(past)
    p_past, p_joint = word_probabilities(model, [past, past + tuple(future)]).tolist()
    if p_past <= PROBABILITY_FLOOR:
        raise ValueError(
            f"cannot condition on a word with probability {p_past!r} <= {PROBABILITY_FLOOR}"
        )
    return p_joint / p_past


def prediction_matrix(
    model: ObservableOperatorModel,
    max_length: int,
    rank_tol: float = RANK_TOL,
) -> tuple[PredictionMatrix, int]:
    """Truncated prediction matrix over words of length <= max_length, with its rank.

    The numerical rank counts singular values above rank_tol times the
    largest one; rank_tol must be positive.  They are taken from the m x m
    core R_y R_c^T of the QR factors of the two m-column factors, never from
    the words x words matrix, so the rank never exceeds m and the cost is
    O(words * m^2) time and O(words * m) memory.  The returned matrix forms
    ``values`` only when it is read.
    """
    max_length = _require_count(max_length, "max_length")
    rank_tol = _require_tol(rank_tol, "rank_tol", positive=True)
    _check_word_count(len(model.scale), range(max_length + 1))

    words: list[tuple] = [()]
    for length in range(1, max_length + 1):
        words.extend(iter_words(model.scale, length))

    # x_w = M_w pi (append symbols) and y_v = 1^T M_v (prepend symbols), so
    # that p(wv) = y_v . x_w; split levels for length 2 * max_length hold
    # both sides up to max_length.
    xs, ys = map(np.concatenate, _levels(model, 2 * max_length))

    p_w = xs.sum(axis=1)
    defined = p_w > PROBABILITY_FLOOR
    cols = xs[defined] / p_w[defined][:, None]
    rank = 0
    if cols.size:
        # ys = Q_y R_y and cols = Q_c R_c with orthonormal Q's, so ys @ cols.T
        # has the singular values of R_y @ R_c.T
        core = np.linalg.qr(ys, mode="r") @ np.linalg.qr(cols, mode="r").T
        singular = np.linalg.svd(core, compute_uv=False)
        top = float(singular[0])
        rank = int(np.count_nonzero(singular > rank_tol * top)) if top > 0 else 0
    for factor in (ys, cols):
        factor.setflags(write=False)
    matrix = PredictionMatrix(
        row_words=tuple(words),
        col_words=tuple(w for w, ok in zip(words, defined) if ok),
        row_factor=ys,
        col_factor=cols,
    )
    return matrix, rank


def hmm_to_oom(
    transition: np.ndarray,
    emissions: Mapping[Hashable, np.ndarray],
    initial: np.ndarray,
) -> ObservableOperatorModel:
    """Classical hidden Markov model as an OOM with M_a = T diag(O(a|.)).

    ``transition`` is column-stochastic (column j holds the distribution of
    the next state given state j), ``emissions`` maps each symbol to its
    per-state probabilities, and ``initial`` is a classical distribution.
    """
    t = _as_square(transition, "transition", float)
    m = t.shape[0]
    scale = Scale(tuple(emissions.keys()))
    emission_rows = _frozen_array([emissions[s] for s in scale], "emission probabilities", float, (len(scale), m))
    pi = _frozen_array(initial, "initial distribution", float, (m,))
    named = (("transition matrix", t), ("emission probabilities", emission_rows), ("initial distribution", pi))
    for name, probs in named:
        if np.any(probs < -SIGN_TOL):
            raise ValueError(f"{name} must be entrywise nonnegative")
    _require_column_sums(t, "transition must be column-stochastic")
    _require_column_sums(emission_rows, "emission probabilities must sum to 1 per state")
    _require_unit_sum(pi, "initial distribution")
    ops = tuple(t @ np.diag(emission_rows[i]) for i in range(len(scale)))
    return ObservableOperatorModel(scale=scale, operators=ops, pi=pi)


def lift_hidden_states(model: ObservableOperatorModel) -> HiddenStateLift:
    """Lift to hidden states (a, j): block operators and spread-out start state.

    The lifted operator for symbol a has block rows indexed by symbols, with
    M_a in every column block of row a and zeros elsewhere; the start state
    is pi(j)/|scale| at every (a, j).  Word probabilities are preserved.
    """
    base = len(model.scale)
    m = model.dim
    labels = tuple((sym, j) for sym in model.scale for j in range(m))
    space = HiddenStateSpace(states=labels)
    info = InformationFunction(
        space=space,
        scale=model.scale,
        values=tuple(sym for sym, _ in labels),
    )
    # operator a is kron(outer(e_a, ones), M_a): entry (r, j; c, k) is e_a[r] * M_a[j, k]
    blocks = np.eye(base)[:, :, None, None, None] * np.stack(model.operators)[:, None, :, None, :]
    lifted = np.broadcast_to(blocks, (base, base, m, base, m)).reshape(base, base * m, base * m)
    return HiddenStateLift(
        scale=model.scale,
        operators=tuple(lifted),
        pi=np.tile(model.pi, base) / base,
        space=space,
        info=info,
        base_dim=m,
    )


def step_distribution(lift: HiddenStateLift, t: int) -> OutcomeDistribution:
    """Distribution of the symbol read off at time t from the lifted state."""
    t = _require_count(t, "t")
    vec = next(islice(_powers(lift.transition_sum, lift.pi), t, None))
    sums = vec.reshape(len(lift.scale), lift.base_dim).sum(axis=1)
    return OutcomeDistribution(scale=lift.scale, values=sums)


def entropy_rate(
    model: ObservableOperatorModel,
    t_max: int,
    tol: float = PROBABILITY_FLOOR,
) -> list[tuple[int, float, float]]:
    """Block entropies in bits: rows (t, H(t)/t, H(t) - H(t-1)) for t = 1..t_max.

    Requires all word probabilities down to -tol (an observable process);
    values in [-tol, 0] are clipped to 0 and 0 log 0 counts as 0.  A level
    with a value below -tol raises once the whole level is scanned.  The
    prefix and suffix levels are built once for all t.  Each length's
    probabilities come in blocks of prefix states times suffix covectors,
    written into one reused block buffer and reduced before the next block
    is drawn, with one reused bool and one float scratch buffer: a block
    holding a value that is not positive has its positive values compressed
    into the float buffer first, so log2 never sees 0.  (p * log2 p).sum()
    runs over the same contiguous values as with fresh arrays, so the rows
    are the same bit for bit, and memory is O(|scale|^ceil(t_max/2) * m + block).
    """
    t_max = _require_count(t_max, "t_max", least=1)
    tol = _require_tol(tol)
    _check_word_count(len(model.scale), range(t_max, t_max + 1))
    rows: list[tuple[int, float, float]] = []
    h_prev = 0.0
    xs, ys = _levels(model, t_max)
    buffer = _block_buffer(ys)
    positive, scratch = np.empty(len(buffer), dtype=bool), np.empty(len(buffer))
    for t in range(1, t_max + 1):
        # -0.0 + x == x for every x, so a one-block level keeps the sign of a zero sum
        low, total = np.inf, -0.0
        for block in _word_blocks(xs, ys, t, buffer):
            least = float(block.min())
            low = min(low, least)
            p, logs = block, scratch[: len(block)]
            if not least > 0.0:  # keep the positive values (NaN is not one); log2 p goes into the block's room
                mask = np.greater(block, 0.0, out=positive[: len(block)])
                p = np.compress(mask, block, out=scratch[: np.count_nonzero(mask)])
                logs = block[: len(p)]
            total += float(np.multiply(p, np.log2(p, out=logs), out=logs).sum())
        if low < -tol:
            raise ValueError(
                f"negative word probability {low!r} at length {t}; entropy undefined"
            )
        h = -total
        rows.append((t, h / t, h - h_prev))
        h_prev = h
    return rows


def to_markov_measurement(model: ObservableOperatorModel) -> MarkovMeasurement:
    """The OOM as a Markov measurement acting on diagonal matrices.

    Each symbol operator acts as diag(x) -> diag(M_a x) with off-diagonal
    coordinates annihilated; at the density diag(pi) the word statistics of
    the measurement coincide with the model's word probabilities.
    """
    ops = tuple(diagonal_superop(op) for op in model.operators)
    return MarkovMeasurement(scale=model.scale, operators=ops)
