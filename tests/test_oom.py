import itertools
import re
import time
import tracemalloc

import numpy as np
import pytest

from conftest import hmm_word_probability_bruteforce, random_hmm, random_oom
from qmarkov import (
    HiddenStateLift,
    ObservableOperatorModel,
    Scale,
    conditional,
    entropy_rate,
    hmm_to_oom,
    is_t_observable,
    lift_hidden_states,
    prediction_matrix,
    step_distribution,
    to_markov_measurement,
    word_distribution,
    word_probabilities,
    word_probability,
)
from qmarkov import measurement as qmeasurement
from qmarkov.io import load_oom, save_oom
from qmarkov.hermitian import PROBABILITY_FLOOR, SIGN_TOL
from qmarkov.measurement import _block_buffer, _word_blocks, _word_values, iter_words
from qmarkov.oom import _levels, validate


def iid_uniform() -> ObservableOperatorModel:
    return ObservableOperatorModel(
        scale=Scale(("a", "b")),
        operators=(np.array([[0.5, 0.5], [0.0, 0.0]]), np.array([[0.0, 0.0], [0.5, 0.5]])),
        pi=np.array([0.5, 0.5]),
    )


def alternating() -> ObservableOperatorModel:
    return ObservableOperatorModel(
        scale=Scale(("a", "b")),
        operators=(np.array([[0.0, 0.0], [1.0, 0.0]]), np.array([[0.0, 1.0], [0.0, 0.0]])),
        pi=np.array([1.0, 0.0]),
    )


def probability_clock(shear: float) -> ObservableOperatorModel:
    """Upper-triangular pair; word b^t has probability 0.5^(t-1) (0.5 - t * shear / 2)."""
    return ObservableOperatorModel(
        scale=Scale(("a", "b")),
        operators=(
            np.array([[0.5, shear], [0.0, 0.5]]),
            np.array([[0.5, -shear], [0.0, 0.5]]),
        ),
        pi=np.array([0.5, 0.5]),
    )


class TestModelValidation:
    def test_column_sum_enforced(self):
        with pytest.raises(ValueError, match="column sums 1"):
            ObservableOperatorModel(
                scale=Scale(("a",)), operators=(np.array([[0.9]]),), pi=np.array([1.0])
            )

    def test_pi_sum_enforced(self):
        with pytest.raises(ValueError, match="pi must sum to 1"):
            ObservableOperatorModel(
                scale=Scale(("a",)), operators=(np.array([[1.0]]),), pi=np.array([0.5])
            )


class TestWordProbability:
    def test_empty_word(self):
        assert word_probability(iid_uniform(), ()) == 1.0

    def test_iid_uniform(self):
        model = iid_uniform()
        assert word_probability(model, "a") == pytest.approx(0.5, abs=1e-15)
        assert word_probability(model, "ab") == pytest.approx(0.25, abs=1e-15)

    def test_deterministic_one_dim(self):
        model = ObservableOperatorModel(
            scale=Scale(("a",)), operators=(np.array([[1.0]]),), pi=np.array([1.0])
        )
        assert word_probability(model, "aaa") == pytest.approx(1.0, abs=1e-15)

    def test_telescoping(self):
        rng = np.random.default_rng(90)
        model = random_oom(rng, 3, ("a", "b", "c"))
        for w in [(), ("a",), ("b", "c"), ("c", "a", "b")]:
            total = sum(word_probability(model, w + (s,)) for s in model.scale)
            assert total == pytest.approx(word_probability(model, w), abs=1e-12)


def _loop_probability(model: ObservableOperatorModel, word) -> float:
    """The per-word reference: x = M_a @ x for each symbol a, then the component sum."""
    x = model.pi
    for symbol in word:
        x = model.operators[model.scale.index(symbol)] @ x
    return float(x.sum())


def _kernel_case(seed: int) -> tuple[ObservableOperatorModel, list[tuple]]:
    """A seeded OOM or HMM-derived model (m 1..8, 1..3 str or int symbols) and a word list.

    The list holds the empty word, words of lengths 1..25 and repeats, shuffled.
    """
    rng = np.random.default_rng(7000 + seed)
    m, k = int(rng.integers(1, 9)), int(rng.integers(1, 4))
    symbols = ("a", "b", "c")[:k] if seed % 2 else (0, 1, 2)[:k]
    model = random_oom(rng, m, symbols) if seed % 4 < 2 else hmm_to_oom(*random_hmm(rng, m, symbols))
    words = [tuple(symbols[i] for i in rng.integers(k, size=int(rng.integers(1, 26)))) for _ in range(30)]
    words += [()] + [words[i] for i in rng.integers(len(words), size=5)]
    return model, [words[i] for i in rng.permutation(len(words))]


def _bits(values) -> list[int]:
    return np.asarray(values, dtype=float).view(np.uint64).tolist()


class TestWordProbabilities:
    @pytest.mark.parametrize("seed", range(60))
    def test_equals_the_per_word_loop_bit_for_bit(self, seed):
        model, words = _kernel_case(seed)
        got = word_probabilities(model, words)
        assert got.dtype == float and got.shape == (len(words),)
        assert _bits(got) == _bits([_loop_probability(model, w) for w in words])

    @pytest.mark.parametrize("seed", range(60))
    def test_value_does_not_depend_on_the_list(self, seed):
        model, words = _kernel_case(seed)
        together = _bits(word_probabilities(model, words))
        alone = [_bits(word_probabilities(model, [w]))[0] for w in words]
        assert together == alone == _bits([word_probability(model, w) for w in words])

    @pytest.mark.parametrize("seed", range(0, 60, 7))
    def test_unknown_symbol_anywhere_raises_the_scale_message(self, seed):
        model, words = _kernel_case(seed)
        rng = np.random.default_rng(seed)
        for bad in ("z", 9, ["a"]):
            i = int(rng.integers(len(words)))
            at = int(rng.integers(len(words[i]) + 1))
            broken = [*words[:i], words[i][:at] + (bad,) + words[i][at:], *words[i + 1 :]]
            message = f"unknown symbol {bad!r}, scale is {model.scale.symbols!r}"
            with pytest.raises(ValueError, match=re.escape(message)):
                word_probabilities(model, broken)

    def test_empty_list(self):
        out = word_probabilities(iid_uniform(), [])
        assert out.dtype == float and out.shape == (0,)


class TestValidate:
    def test_iid_uniform_positive(self):
        report = validate(iid_uniform(), 5)
        assert report.min_probability == pytest.approx(2**-5, abs=1e-15)
        assert report.observable

    def test_negative_at_depth_three(self):
        report = validate(probability_clock(0.4), 3)
        assert not report.observable
        assert report.min_word == ("b", "b", "b")
        # closed form for b^t: 0.5^(t-1) (0.5 - t * shear / 2)
        assert report.min_probability == pytest.approx(0.25 * (0.5 - 3 * 0.2), abs=1e-12)

    def test_hmm_derived_always_observable(self):
        rng = np.random.default_rng(91)
        t, emissions, pi = random_hmm(rng, 3, ("a", "b"))
        report = validate(hmm_to_oom(t, emissions, pi), 6)
        assert report.observable
        assert report.min_probability >= 0


class TestWordBlocks:
    # a block of 7 values splits some levels into uneven row blocks
    @pytest.mark.parametrize("block", [1, 7])
    @pytest.mark.parametrize("symbols", [("a",), ("a", "b"), ("a", "b", "c")])
    def test_product_order_matches_word_probability(self, monkeypatch, block, symbols):
        monkeypatch.setattr(qmeasurement, "WORD_BLOCK", block)
        model = random_oom(np.random.default_rng(180 + len(symbols)), 3, symbols)
        xs, ys = _levels(model, 7)
        for t in range(8):
            values = np.concatenate(list(_word_blocks(xs, ys, t)))
            expected = [word_probability(model, w) for w in iter_words(model.scale, t)]
            np.testing.assert_allclose(values, expected, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("block", [1, 4])
    def test_only_negative_word_in_last_block(self, monkeypatch, block):
        # p(w) = 0.5^t (1 + shear (n_a - n_b)): at shear 2/9 and t = 5 only
        # b^5, the last word and the last prefix row, is negative
        monkeypatch.setattr(qmeasurement, "WORD_BLOCK", block)
        model = probability_clock(2.0 / 9.0)
        report = validate(model, 5)
        assert (report.negative_words, report.min_word) == (1, ("b",) * 5)
        assert report.min_probability == pytest.approx(0.5**5 * (1 - 10 / 9), abs=1e-15)
        meas = to_markov_measurement(model)
        density = np.diag(model.pi).astype(complex)
        assert is_t_observable(meas, density, 4)
        assert not is_t_observable(meas, density, 5)

    # blocks of 4 and 7 values put the minimum past the first block, so the
    # word is decoded from a block offset
    @pytest.mark.parametrize("block", [4, 7])
    @pytest.mark.parametrize("symbols", [("a", "b"), ("a", "b", "c")])
    def test_validate_matches_bruteforce_scan(self, monkeypatch, block, symbols):
        monkeypatch.setattr(qmeasurement, "WORD_BLOCK", block)
        tol = 1e-12
        for seed in range(3):
            model = random_oom(np.random.default_rng([190, seed, len(symbols)]), 3, symbols)
            words = [(), *itertools.chain.from_iterable(iter_words(model.scale, t) for t in range(1, 7))]
            probs = np.array([word_probability(model, w) for w in words])
            for horizon in range(1, 7):
                # words of lengths 1..horizon, by length and then product order;
                # the empty word stands for the scan's starting minimum 1.0
                scanned = sum(len(symbols) ** t for t in range(horizon + 1))
                p = np.concatenate([[1.0], probs[1:scanned]])
                report = validate(model, horizon, tol=tol)
                i = int(np.argmin(p))
                assert report.min_probability == pytest.approx(p[i], abs=1e-12)
                if np.partition(p, 1)[1] - p[i] > 1e-12:
                    assert report.min_word == words[i]
                # values within rounding of -tol may fall on either side
                sure, near = np.count_nonzero(p < -tol - 1e-12), np.count_nonzero(abs(p + tol) <= 1e-12)
                assert sure <= report.negative_words <= sure + near


def _entropy_fresh(model, t_max):
    """entropy_rate's rows by a loop over fresh blocks, each reduced with fresh arrays."""
    xs, ys = _levels(model, t_max)
    rows, h_prev = [], 0.0
    for t in range(1, t_max + 1):
        total = -0.0
        for block in _word_blocks(xs, ys, t):
            p = block[block > 0.0]
            total += float((p * np.log2(p)).sum())
        rows.append((t, -total / t, -total - h_prev))
        h_prev = -total
    return rows


def _validate_fresh(model, horizon, tol):
    """validate's (min_probability, min_word, negative_words) by a loop over fresh blocks."""
    xs, ys = _levels(model, horizon)
    min_p, min_word, negatives = 1.0, (), 0
    for length in range(1, horizon + 1):
        values = np.concatenate(list(_word_blocks(xs, ys, length)))
        negatives += int(np.count_nonzero(values < -tol))
        i = int(np.argmin(values))
        if values[i] < min_p:
            min_p, min_word = float(values[i]), list(iter_words(model.scale, length))[i]
    return min_p, min_word, negatives


def _zero_word_hmm() -> ObservableOperatorModel:
    """A 3-state HMM whose state j emits symbol j: every word that needs a zero transition has p = 0."""
    transition = np.array([[0.0, 0.5, 0.3], [0.6, 0.0, 0.7], [0.4, 0.5, 0.0]])
    emissions = dict(zip("abc", np.eye(3)))
    return hmm_to_oom(transition, emissions, np.array([0.5, 0.5, 0.0]))


def _scan_models():
    """Seeded HMM OOMs, the zero-word HMM and two models with negative words."""
    hmms = [hmm_to_oom(*random_hmm(np.random.default_rng([200, k]), 3, tuple("abc"[:k]))) for k in (1, 2, 3)]
    return [*hmms, _zero_word_hmm(), probability_clock(0.4), random_oom(np.random.default_rng(201), 3, ("a", "b"))]


class TestBlockBuffer:
    # one buffer holds max(WORD_BLOCK, len(y)) values: at a block of 1 or 7
    # values the longest suffix levels hold more than WORD_BLOCK rows
    @pytest.mark.parametrize("block", [1, 7, None])
    def test_buffered_blocks_equal_fresh_ones(self, monkeypatch, block):
        if block:
            monkeypatch.setattr(qmeasurement, "WORD_BLOCK", block)
        for model in _scan_models():
            xs, ys = _levels(model, 7)
            buffer = _block_buffer(ys)
            assert len(buffer) == max(qmeasurement.WORD_BLOCK, len(ys[-1]))
            for t in range(8):
                fresh = list(_word_blocks(xs, ys, t))
                for want, got in zip(fresh, _word_blocks(xs, ys, t, buffer), strict=True):
                    assert np.shares_memory(got, buffer)
                    assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("block", [1, 7, None])
    def test_entropy_rows_bit_identical(self, monkeypatch, block):
        if block:
            monkeypatch.setattr(qmeasurement, "WORD_BLOCK", block)
        for model in _scan_models()[:4]:
            assert entropy_rate(model, 7) == _entropy_fresh(model, 7)

    def test_zero_words_take_the_compress_branch(self, monkeypatch):
        # with blocks of 7 values some blocks are all positive and some hold zeros
        monkeypatch.setattr(qmeasurement, "WORD_BLOCK", 7)
        model = _zero_word_hmm()
        values = np.concatenate(list(_word_blocks(*_levels(model, 6), 6)))
        assert np.count_nonzero(values == 0.0) and np.count_nonzero(values > 0.0)
        with np.errstate(all="raise"):  # log2(0) would raise here
            rows = entropy_rate(model, 6)
        assert rows == _entropy_fresh(model, 6)
        assert all(np.isfinite(v) for row in rows for v in row)

    @pytest.mark.parametrize("block", [1, 7, None])
    def test_validate_reports_bit_identical(self, monkeypatch, block):
        if block:
            monkeypatch.setattr(qmeasurement, "WORD_BLOCK", block)
        for model in _scan_models():
            for tol in (PROBABILITY_FLOOR, 0.01):
                report = validate(model, 6, tol=tol)
                assert (report.min_probability, report.min_word, report.negative_words) == _validate_fresh(model, 6, tol)

    @pytest.mark.parametrize("block", [1, 7, None])
    def test_is_t_observable_matches_fresh_blocks(self, monkeypatch, block):
        if block:
            monkeypatch.setattr(qmeasurement, "WORD_BLOCK", block)
        answers = set()
        for model in _scan_models():
            meas, density = to_markov_measurement(model), np.diag(model.pi).astype(complex)
            for t in range(7):
                fresh = all(b.min() >= -SIGN_TOL for b in _word_values(meas, density, t))
                assert is_t_observable(meas, density, t) == fresh
                answers.add(fresh)
        assert answers == {True, False}


class TestConditional:
    def test_empty_condition(self):
        model = iid_uniform()
        assert conditional(model, "a", ()) == pytest.approx(0.5, abs=1e-15)

    def test_iid(self):
        assert conditional(iid_uniform(), "a", "b") == pytest.approx(0.5, abs=1e-15)

    def test_deterministic(self):
        model = ObservableOperatorModel(
            scale=Scale(("a",)), operators=(np.array([[1.0]]),), pi=np.array([1.0])
        )
        assert conditional(model, "a", "aa") == pytest.approx(1.0, abs=1e-15)

    def test_zero_probability_condition(self):
        with pytest.raises(ValueError, match="cannot condition"):
            conditional(alternating(), "a", "b")


class TestPredictionMatrix:
    def test_iid_rank_one(self):
        _, rank = prediction_matrix(iid_uniform(), 3)
        assert rank == 1

    def test_generic_hmm_rank_two(self):
        rng = np.random.default_rng(92)
        t, emissions, pi = random_hmm(rng, 2, ("a", "b"))
        model = hmm_to_oom(t, emissions, pi)
        _, rank = prediction_matrix(model, 3)
        assert rank == 2

    def test_alternating_rank_two(self):
        _, rank = prediction_matrix(alternating(), 3)
        assert rank == 2

    @pytest.mark.parametrize("rank_tol", [float("nan"), 0.0, -1.0])
    def test_rank_tol_must_be_positive(self, rank_tol):
        # a NaN cutoff would count no singular value, a nonpositive one every zero
        with pytest.raises(ValueError, match="rank_tol must be positive"):
            prediction_matrix(alternating(), 3, rank_tol=rank_tol)

    def test_rank_bounded_by_dimension(self):
        rng = np.random.default_rng(93)
        for _ in range(10):
            m = int(rng.integers(1, 5))
            model = random_oom(rng, m, ("a", "b"))
            _, rank = prediction_matrix(model, 3)
            assert rank <= m

    def test_hankel_consistency(self):
        # p(v|w) p(w) recovers the joint word probability; the 3-symbol model
        # pins the product order of appended and prepended symbols
        rng = np.random.default_rng(94)
        for m, symbols, max_length in ((2, ("a", "b"), 2), (3, ("a", "b", "c"), 3)):
            model = random_oom(rng, m, symbols)
            matrix, _ = prediction_matrix(model, max_length)
            assert len(matrix.row_words) == sum(len(symbols) ** t for t in range(max_length + 1))
            for i, v in enumerate(matrix.row_words):
                for j, w in enumerate(matrix.col_words):
                    joint = word_probability(model, tuple(w) + tuple(v))
                    p_w = word_probability(model, w)
                    assert matrix.values[i, j] * p_w == pytest.approx(joint, abs=1e-10)

    def test_defined_columns_only(self):
        matrix, _ = prediction_matrix(alternating(), 2)
        assert ("b",) not in matrix.col_words
        assert ("a",) in matrix.col_words

    @staticmethod
    def dense_rank(values: np.ndarray, rank_tol: float = 1e-8) -> int:
        singular = np.linalg.svd(values, compute_uv=False)
        return int(np.count_nonzero(singular > rank_tol * singular[0])) if singular[0] > 0 else 0

    def test_factored_rank_matches_dense_svd(self):
        # iid in three hidden states has rank 1 < m; alternating() has
        # undefined columns; the rest are seeded generic models
        iid_in_three = hmm_to_oom(
            np.full((3, 3), 1.0 / 3.0),
            {"a": np.full(3, 0.3), "b": np.full(3, 0.7)},
            np.array([0.2, 0.3, 0.5]),
        )
        models = [(iid_in_three, 5), (alternating(), 5), (iid_uniform(), 4)]
        rng = np.random.default_rng(95)
        for m in range(1, 7):
            for symbols in (("a", "b"), ("a", "b", "c")):
                models.append((random_oom(rng, m, symbols), 4))
                t, emissions, pi = random_hmm(rng, m, symbols)
                models.append((hmm_to_oom(t, emissions, pi), 4))
        ranks = []
        for model, max_length in models:
            matrix, rank = prediction_matrix(model, max_length)
            assert rank == self.dense_rank(matrix.values)
            ranks.append(rank)
        assert ranks[:3] == [1, 2, 1]

    def test_values_match_dense_conditionals(self):
        # the old dense build: joint[v, w] = p(wv), columns kept where p(w) is defined
        rng = np.random.default_rng(96)
        for model in (alternating(), random_oom(rng, 3, ("a", "b", "c"))):
            matrix, _ = prediction_matrix(model, 3)
            words = matrix.row_words
            joint = np.array([[word_probability(model, w + v) for w in words] for v in words])
            p_w = np.array([word_probability(model, w) for w in words])
            defined = p_w > 1e-12
            dense = joint[:, defined] / p_w[defined]
            assert matrix.values.shape == (len(matrix.row_words), len(matrix.col_words))
            np.testing.assert_allclose(matrix.values, dense, rtol=0, atol=1e-14)
            assert matrix.values is matrix.values
            with pytest.raises(ValueError, match="read-only"):
                matrix.values[0, 0] = 0.0

    def test_rank_memory_linear_in_words(self):
        # 2047 words: the words x words matrix alone would take 33 MB
        model = hmm_to_oom(
            np.array([[0.8, 0.3], [0.2, 0.7]]),
            {"a": np.array([0.9, 0.2]), "b": np.array([0.1, 0.8])},
            np.array([0.5, 0.5]),
        )
        tracemalloc.start()
        try:
            matrix, rank = prediction_matrix(model, 10)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (rank, len(matrix.row_words)) == (2, 2047)
        assert peak < 4 * 2**20


class TestHmmToOom:
    def test_single_state(self):
        model = hmm_to_oom(
            np.array([[1.0]]), {"a": np.array([0.3]), "b": np.array([0.7])}, np.array([1.0])
        )
        assert word_probability(model, "ab") == pytest.approx(0.21, abs=1e-15)

    def test_deterministic_cycle(self):
        t = np.array([[0.0, 1.0], [1.0, 0.0]])
        emissions = {"a": np.array([1.0, 0.0]), "b": np.array([0.0, 1.0])}
        model = hmm_to_oom(t, emissions, np.array([1.0, 0.0]))
        assert word_probability(model, "abab") == pytest.approx(1.0, abs=1e-15)
        assert word_probability(model, "aa") == pytest.approx(0.0, abs=1e-15)

    def test_transition_sum_is_markov_matrix(self):
        rng = np.random.default_rng(95)
        t, emissions, pi = random_hmm(rng, 3, ("a", "b", "c"))
        model = hmm_to_oom(t, emissions, pi)
        np.testing.assert_allclose(model.transition_sum, t, atol=1e-14)

    def test_matches_path_enumeration(self):
        rng = np.random.default_rng(96)
        t, emissions, pi = random_hmm(rng, 3, ("a", "b"))
        model = hmm_to_oom(t, emissions, pi)
        for length in range(5):
            for word in itertools.product(("a", "b"), repeat=length):
                oracle = hmm_word_probability_bruteforce(t, emissions, pi, word)
                assert word_probability(model, word) == pytest.approx(oracle, abs=1e-12)

    def test_rejects_bad_transition(self):
        with pytest.raises(ValueError, match="column-stochastic"):
            hmm_to_oom(np.array([[0.5]]), {"a": np.array([1.0])}, np.array([1.0]))

    def test_rejects_bad_emissions(self):
        with pytest.raises(ValueError, match="sum to 1 per state"):
            hmm_to_oom(np.array([[1.0]]), {"a": np.array([0.5])}, np.array([1.0]))

    def test_rejects_negative_entries(self):
        t = np.array([[1.5, 0.0], [-0.5, 1.0]])  # column sums 1, one entry negative
        with pytest.raises(ValueError, match="transition matrix must be entrywise nonnegative"):
            hmm_to_oom(t, {"a": np.array([1.0, 1.0])}, np.array([0.5, 0.5]))


class TestLift:
    def test_shape_and_start(self):
        rng = np.random.default_rng(97)
        model = random_oom(rng, 2, ("a", "b"))
        lift = lift_hidden_states(model)
        assert len(lift.space) == 4
        np.testing.assert_allclose(
            lift.pi, [model.pi[0] / 2, model.pi[1] / 2, model.pi[0] / 2, model.pi[1] / 2]
        )
        assert lift.space.states == (("a", 0), ("a", 1), ("b", 0), ("b", 1))
        assert lift.info.values == ("a", "a", "b", "b")

    def test_iid_probability_preserved(self):
        model = iid_uniform()
        lift = lift_hidden_states(model)
        x = lift.pi
        for s in ("a", "b"):
            x = lift.operator(s) @ x
        assert float(x.sum()) == pytest.approx(0.25, abs=1e-15)

    def test_single_symbol_unchanged(self):
        model = ObservableOperatorModel(
            scale=Scale(("a",)),
            operators=(np.array([[0.3, 0.7], [0.7, 0.3]]),),
            pi=np.array([0.25, 0.75]),
        )
        lift = lift_hidden_states(model)
        np.testing.assert_allclose(lift.operators[0], model.operators[0])
        np.testing.assert_allclose(lift.pi, model.pi)

    def test_word_probabilities_agree(self):
        rng = np.random.default_rng(98)
        for _ in range(20):
            model = random_oom(rng, int(rng.integers(1, 4)), ("a", "b"))
            lift = lift_hidden_states(model)
            for length in range(5):
                for word in itertools.product(("a", "b"), repeat=length):
                    x = lift.pi
                    for s in word:
                        x = lift.operator(s) @ x
                    assert float(x.sum()) == pytest.approx(
                        word_probability(model, word), abs=1e-10
                    )


def seeded_hmm(seed: int, m: int, symbols: tuple) -> ObservableOperatorModel:
    return hmm_to_oom(*random_hmm(np.random.default_rng(seed), m, symbols))


# HMM-derived models, then one that is not observable at depth 3; every word
# probability up to length 6 of each is at least 2e-4 away from zero, far
# outside the validate/entropy tolerance of 1e-12
LIFT_MODELS = (
    pytest.param(lambda: seeded_hmm(131, 3, ("a", "b")), True, id="hmm-m3"),
    pytest.param(lambda: seeded_hmm(132, 2, ("a", "b", "c")), True, id="hmm-m2-abc"),
    pytest.param(lambda: probability_clock(0.4), False, id="clock"),
)


class TestLiftIsModel:
    @pytest.mark.parametrize("make, _", LIFT_MODELS)
    def test_lift_is_read_only_oom(self, make, _):
        model = make()
        lift = lift_hidden_states(model)
        assert isinstance(lift, ObservableOperatorModel)
        assert lift.dim == len(model.scale) * model.dim == len(lift.space)
        assert lift.base_dim == model.dim
        for array in (*lift.operators, lift.pi):
            assert not array.flags.writeable

    def test_construction_runs_model_checks(self):
        lift = lift_hidden_states(iid_uniform())
        fields = dict(scale=lift.scale, operators=lift.operators, space=lift.space, info=lift.info, base_dim=2)
        with pytest.raises(ValueError, match="pi"):
            HiddenStateLift(pi=2 * lift.pi, **fields)
        with pytest.raises(ValueError, match="column sums 1"):
            HiddenStateLift(pi=lift.pi, **{**fields, "operators": tuple(2 * op for op in lift.operators)})

    @pytest.mark.parametrize("make, _", LIFT_MODELS)
    def test_word_probabilities_match_model(self, make, _):
        model = make()
        lift = lift_hidden_states(model)
        for length in range(6):
            for word in iter_words(model.scale, length):
                assert word_probability(lift, word) == pytest.approx(word_probability(model, word), abs=1e-12)
        assert conditional(lift, ("a",), ("b",)) == pytest.approx(conditional(model, ("a",), ("b",)), abs=1e-12)

    @pytest.mark.parametrize("make, _", LIFT_MODELS)
    def test_lift_of_lift_and_measurement_bridge_match_model(self, make, _):
        model = make()
        lift = lift_hidden_states(model)
        twice = lift_hidden_states(lift)
        assert twice.dim == len(model.scale) ** 2 * model.dim and twice.base_dim == lift.dim
        dist = word_distribution(to_markov_measurement(lift), np.diag(lift.pi).astype(complex), 3)
        for word in iter_words(model.scale, 3):
            assert word_probability(twice, word) == pytest.approx(word_probability(model, word), abs=1e-12)
            assert dist[word] == pytest.approx(word_probability(model, word), abs=1e-12)

    @pytest.mark.parametrize("make, observable", LIFT_MODELS)
    def test_entropy_rate_matches_model(self, make, observable):
        model = make()
        lift = lift_hidden_states(model)
        if not observable:
            with pytest.raises(ValueError, match="negative word probability"):
                entropy_rate(lift, 8)
            return
        np.testing.assert_allclose(entropy_rate(lift, 8), entropy_rate(model, 8), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("make, _", LIFT_MODELS)
    def test_prediction_rank_matches_model(self, make, _):
        model = make()
        assert prediction_matrix(lift_hidden_states(model), 4)[1] == prediction_matrix(model, 4)[1]

    @pytest.mark.parametrize("make, observable", LIFT_MODELS)
    def test_validate_matches_model(self, make, observable):
        model = make()
        report = validate(lift_hidden_states(model), 6)
        assert report.negative_words == validate(model, 6).negative_words
        assert report.observable == observable

    @pytest.mark.parametrize("make, _", LIFT_MODELS)
    def test_save_load_round_trip_bit_exact(self, make, _, tmp_path):
        lift = lift_hidden_states(make())
        path = tmp_path / "lift.json"
        save_oom(path, lift)
        loaded = load_oom(path)
        assert loaded.scale.symbols == lift.scale.symbols
        for a, b in zip((*loaded.operators, loaded.pi), (*lift.operators, lift.pi)):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()


class TestStepDistribution:
    def test_iid_first_step(self):
        dist = step_distribution(lift_hidden_states(iid_uniform()), 1)
        np.testing.assert_allclose(dist.values, [0.5, 0.5], atol=1e-14)

    def test_alternating_point_mass(self):
        lift = lift_hidden_states(alternating())
        for t in range(1, 6):
            dist = step_distribution(lift, t)
            expected = [1.0, 0.0] if t % 2 == 1 else [0.0, 1.0]
            np.testing.assert_allclose(dist.values, expected, atol=1e-14)

    def test_marginal_identity(self):
        rng = np.random.default_rng(99)
        t, emissions, pi = random_hmm(rng, 3, ("a", "b"))
        model = hmm_to_oom(t, emissions, pi)
        lift = lift_hidden_states(model)
        dist = step_distribution(lift, 3)
        for i, symbol in enumerate(model.scale):
            marginal = sum(
                word_probability(model, w + (symbol,))
                for w in itertools.product(("a", "b"), repeat=2)
            )
            assert dist.values[i] == pytest.approx(marginal, abs=1e-12)

    @pytest.mark.parametrize("seed", range(3))
    def test_equals_step_loop(self, seed):
        lift = lift_hidden_states(random_oom(np.random.default_rng([124, seed]), 3, ("a", "b", "c")))
        for t in range(8):
            np.testing.assert_array_equal(step_distribution(lift, t).values, _step_loop(lift, t))


def _step_loop(lift, t):
    """Former step_distribution: one mat-vec of the transition sum per step."""
    vec = lift.pi
    total = lift.transition_sum
    for _ in range(t):
        vec = total @ vec
    return vec.reshape(len(lift.scale), lift.base_dim).sum(axis=1)


class TestEntropyRate:
    def test_iid_uniform_one_bit(self):
        for t, avg, inc in entropy_rate(iid_uniform(), 5):
            assert avg == pytest.approx(1.0, abs=1e-12)
            assert inc == pytest.approx(1.0, abs=1e-12)

    def test_deterministic_zero_bits(self):
        for _, avg, inc in entropy_rate(alternating(), 5):
            assert avg == pytest.approx(0.0, abs=1e-12)
            assert inc == pytest.approx(0.0, abs=1e-12)

    def test_mixing_hmm_increments_non_increasing(self):
        # monotone conditional entropy needs a stationary process, so start
        # the chain in the fixed point of the transition matrix
        rng = np.random.default_rng(100)
        t, emissions, _ = random_hmm(rng, 2, ("a", "b"))
        vals, vecs = np.linalg.eig(t)
        stationary = np.real(vecs[:, np.argmin(np.abs(vals - 1.0))])
        stationary = stationary / stationary.sum()
        rows = entropy_rate(hmm_to_oom(t, emissions, stationary), 8)
        increments = [inc for _, _, inc in rows]
        assert all(b <= a + 1e-12 for a, b in zip(increments, increments[1:]))

    def test_negative_probabilities_rejected(self):
        with pytest.raises(ValueError, match="entropy undefined"):
            entropy_rate(probability_clock(0.4), 5)

    def test_memory_below_full_level(self):
        # a full level of 3^12 words times 8 states alone takes 34 MB
        rng = np.random.default_rng(101)
        model = hmm_to_oom(*random_hmm(rng, 8, ("a", "b", "c")))
        tracemalloc.start()
        try:
            rows = entropy_rate(model, 12)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(rows) == 12
        assert peak < 8 * 2**20

    def test_memory_three_word_blocks_beyond_levels(self):
        # the block, its float scratch and its bool scratch are reused for
        # every block; fresh temporaries per block peaked at about five blocks
        rng = np.random.default_rng(101)
        model = hmm_to_oom(*random_hmm(rng, 8, ("a", "b", "c")))
        levels = sum(level.nbytes for level in itertools.chain(*_levels(model, 12)))
        tracemalloc.start()
        try:
            entropy_rate(model, 12)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 3 * 8 * qmeasurement.WORD_BLOCK + levels


class TestEnumerationCap:
    # word counts at depth 4 over two symbols: validate scans 4 * 2^4 words,
    # the prediction matrix has 1 + 2 + 4 + 8 + 16 rows, entropy_rate 2^4 words
    CALLS = (
        pytest.param(lambda: validate(iid_uniform(), 4), 64, id="validate"),
        pytest.param(lambda: prediction_matrix(iid_uniform(), 4), 31, id="prediction"),
        pytest.param(lambda: entropy_rate(iid_uniform(), 4), 16, id="entropy"),
    )

    @pytest.mark.parametrize("call, count", CALLS)
    def test_cap_environment(self, call, count, monkeypatch):
        monkeypatch.setenv("QMARKOV_ENUM_CAP", str(count))
        call()
        monkeypatch.setenv("QMARKOV_ENUM_CAP", str(count - 1))
        with pytest.raises(ValueError, match="cap exceeded.*QMARKOV_ENUM_CAP"):
            call()

    @pytest.mark.parametrize(
        "call",
        [
            lambda model: validate(model, 10**9),
            lambda model: prediction_matrix(model, 10**9),
            lambda model: entropy_rate(model, 10**9),
        ],
        ids=["validate", "prediction", "entropy"],
    )
    @pytest.mark.parametrize("symbols", [("a", "b"), ("a", "b", "c")])
    def test_huge_lengths_refused_without_forming_the_count(self, call, symbols):
        model = random_oom(np.random.default_rng(125), 2, symbols)
        start = time.process_time()
        with pytest.raises(ValueError, match="word enumeration cap exceeded.*QMARKOV_ENUM_CAP"):
            call(model)
        assert time.process_time() - start < 1.0


class TestMeasurementBridge:
    def test_iid_word_statistics(self):
        model = iid_uniform()
        meas = to_markov_measurement(model)
        density = np.diag(model.pi).astype(complex)
        dist = word_distribution(meas, density, 2)
        assert dist[("a", "b")] == pytest.approx(0.25, abs=1e-12)
        for word, value in dist.items():
            assert value == pytest.approx(word_probability(model, word), abs=1e-12)

    def test_one_dim_identity_pinch(self):
        model = ObservableOperatorModel(
            scale=Scale(("a",)), operators=(np.array([[1.0]]),), pi=np.array([1.0])
        )
        meas = to_markov_measurement(model)
        dist = word_distribution(meas, np.array([[1.0]]), 3)
        assert dist[("a", "a", "a")] == pytest.approx(1.0, abs=1e-14)

    def test_observability_scan_matches_validate(self):
        # dual-path comparison: the bridged measurement and the direct word
        # scan flag the same first failing depth
        model = probability_clock(2.0 / 7.0)
        meas = to_markov_measurement(model)
        density = np.diag(model.pi).astype(complex)
        for t in range(7):
            flag = is_t_observable(meas, density, t, tol=1e-12)
            report = validate(model, t, tol=1e-12)
            assert flag == report.observable
        assert is_t_observable(meas, density, 3, tol=1e-12)
        assert not is_t_observable(meas, density, 4, tol=1e-12)


def _parent_lift_operators(model: ObservableOperatorModel) -> list[np.ndarray]:
    """Former lift: each block pattern a selector-times-ones product, one symbol at a time."""
    base = len(model.scale)
    ones_row = np.ones((1, base))
    lifted = []
    for i in range(base):
        selector = np.zeros((base, 1))
        selector[i, 0] = 1.0
        lifted.append(np.kron(selector @ ones_row, model.operators[i]))
    return lifted


class TestLiftMatchesParent:
    """The loop-free lift against the former selector loop, compared byte for byte."""

    @staticmethod
    def _assert_same(model):
        lift = lift_hidden_states(model)
        expected = _parent_lift_operators(model)
        assert [op.tobytes() for op in lift.operators] == [op.tobytes() for op in expected]
        assert lift.pi.tobytes() == (np.tile(model.pi, len(model.scale)) / len(model.scale)).tobytes()
        return lift

    def test_seeded_models_and_their_lifts(self):
        rng = np.random.default_rng(2421)
        for _ in range(60):
            symbols = tuple("abcd"[: int(rng.integers(1, 5))])
            model = random_oom(rng, int(rng.integers(1, 5)), symbols)
            lift = self._assert_same(model)
            self._assert_same(lift)

    def test_signed_zeros_kept(self):
        # 0 * (negative entry) is -0.0 in the kron product; the lift keeps that sign
        model = ObservableOperatorModel(
            scale=Scale(("a", "b")),
            operators=(np.array([[1.5, 0.0], [-0.5, 0.5]]), np.array([[0.0, 0.0], [0.0, 0.5]])),
            pi=np.array([0.5, 0.5]),
        )
        lift = self._assert_same(model)
        zeros = lift.operators[0][2:]  # block row b of operator a: 0 * M_a
        assert not zeros.any() and np.signbit(zeros).any()
