import itertools

import numpy as np
import pytest

from conftest import random_kraus_family
from qmarkov import (
    HiddenStateSpace,
    KrausMeasurement,
    MarkovChain,
    MarkovMeasurement,
    MarkovOperator,
    MarkovState,
    ObservableOperatorModel,
    OutcomeDistribution,
    Scale,
    apply,
    as_markov_measurement,
    compose,
    entropy_rate,
    from_unitary,
    identity_operator,
    is_observable,
    is_t_observable,
    outcome_distribution,
    posterior,
    power,
    pure_state,
    random_quantum_density,
    word_distribution,
    word_operator,
)
from qmarkov import coords
from qmarkov import measurement as qmeasurement
from qmarkov.measurement import enumeration_cap

Z_PAIR = KrausMeasurement(
    scale=Scale(("0", "1")),
    kraus=(np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)),
)


def x_basis_measurement() -> KrausMeasurement:
    plus = pure_state(np.array([1.0, 1.0]) / np.sqrt(2))
    minus = pure_state(np.array([1.0, -1.0]) / np.sqrt(2))
    return KrausMeasurement(scale=Scale(("+", "-")), kraus=(plus, minus))


def random_kraus_measurement(rng, n, k) -> KrausMeasurement:
    mats = random_kraus_family(rng, n, k)
    return KrausMeasurement(scale=Scale(tuple(str(i) for i in range(k))), kraus=tuple(mats))


class TestScale:
    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="at least one symbol"):
            Scale(())

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError, match="distinct"):
            Scale(("a", "a"))

    def test_index(self):
        s = Scale(("a", "b"))
        assert s.index("b") == 1
        with pytest.raises(ValueError, match="unknown symbol"):
            s.index("c")

    def test_contains(self):
        s = Scale(("a", "b", 3))
        assert "a" in s and 3 in s and 3.0 in s
        assert "c" not in s and ("a",) not in s
        assert [3] not in s  # unhashable, so in no scale

    def test_unhashable_symbol_is_unknown(self):
        # a 0-d array equals 1 but has no hash: index and ``in`` read the position dict
        s = Scale((1, 2))
        with pytest.raises(ValueError, match=r"unknown symbol array\(1\), scale is \(1, 2\)"):
            s.index(np.array(1))
        assert np.array(1) not in s
        with pytest.raises(ValueError, match="unknown symbol"):
            s.index([1])


@pytest.mark.parametrize("bad", [np.nan, np.inf])
class TestNonFiniteRejected:
    """A NaN compares False with every tolerance, so each check must reject it outright."""

    def test_kraus_entry(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            KrausMeasurement(scale=Scale(("a",)), kraus=(np.array([[bad]]),))

    def test_outcome_values(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            OutcomeDistribution(scale=Scale(("a", "b")), values=[bad, 1.0])

    def test_markov_state(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            MarkovState(space=HiddenStateSpace(states=("a", "b")), values=[bad, 1.0])

    def test_operator_matrix(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            MarkovOperator(n=1, matrix=[[bad]])

    def test_markov_measurement_operator(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            MarkovMeasurement(scale=Scale(("a", "b")), operators=(np.eye(1), np.array([[bad]])))

    def test_oom_operator(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            ObservableOperatorModel(scale=Scale(("a", "b")), operators=(np.eye(1), np.array([[bad]])), pi=[1.0])

    def test_oom_pi(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            ObservableOperatorModel(scale=Scale(("a",)), operators=(np.eye(2),), pi=[bad, 1.0])

    def test_chain_start(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            MarkovChain(operator=identity_operator(1), start=np.array([[bad]]))


def _frozen_fields():
    """(source arrays, stored arrays) of every constructor that keeps a read-only copy, by field."""
    kraus = (np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex))
    markov_ops = (0.5 * np.eye(4), 0.5 * np.eye(4))
    oom_ops = (np.array([[0.5, 0.5], [0.0, 0.0]]), np.array([[0.0, 0.0], [0.5, 0.5]]))
    pi, values, start, matrix = np.array([0.5, 0.5]), np.array([0.25, 0.75]), np.diag([0.3, 0.7]), np.eye(4)
    oom = ObservableOperatorModel(scale=Scale(("a", "b")), operators=oom_ops, pi=pi)
    space = HiddenStateSpace(states=("a", "b"))
    return [
        pytest.param([matrix], [MarkovOperator(n=2, matrix=matrix).matrix], id="operator-matrix"),
        pytest.param(kraus, KrausMeasurement(scale=Scale(("0", "1")), kraus=kraus).kraus, id="kraus"),
        pytest.param(
            markov_ops, MarkovMeasurement(scale=Scale(("a", "b")), operators=markov_ops).operators, id="markov-operators"
        ),
        pytest.param(oom_ops, oom.operators, id="oom-operators"),
        pytest.param([pi], [oom.pi], id="oom-pi"),
        pytest.param([values], [OutcomeDistribution(scale=Scale(("a", "b")), values=values).values], id="outcomes"),
        pytest.param([values], [MarkovState(space=space, values=values).values], id="markov-state"),
        pytest.param([start], [MarkovChain(operator=identity_operator(2), start=start).start], id="chain-start"),
    ]


@pytest.mark.parametrize("sources, stored", _frozen_fields())
def test_stored_arrays_are_read_only_copies(sources, stored):
    for source, array in zip(sources, stored, strict=True):
        assert not array.flags.writeable
        assert not np.shares_memory(source, array)
        with pytest.raises(ValueError, match="read-only"):
            array[(0,) * array.ndim] = 0.0


class TestKrausMeasurement:
    def test_completeness_enforced(self):
        with pytest.raises(ValueError, match="sum up to the identity"):
            KrausMeasurement(scale=Scale(("a",)), kraus=(np.diag([1.0, 0.0]),))

    def test_shape_enforced(self):
        with pytest.raises(ValueError, match="shape"):
            KrausMeasurement(scale=Scale(("a", "b")), kraus=(np.eye(2), np.eye(3)))

    def test_count_enforced(self):
        with pytest.raises(ValueError, match="need one Kraus matrix per symbol: got 1 for 2 symbols"):
            KrausMeasurement(scale=Scale(("a", "b")), kraus=(np.eye(2),))


class TestOutcomeDistribution:
    def test_diagonal_readout(self):
        dist = outcome_distribution(Z_PAIR, np.diag([0.3, 0.7]))
        np.testing.assert_allclose(dist.values, [0.3, 0.7], atol=1e-14)

    def test_superposition(self):
        dist = outcome_distribution(Z_PAIR, pure_state(np.array([1.0, 1.0]) / np.sqrt(2)))
        np.testing.assert_allclose(dist.values, [0.5, 0.5], atol=1e-14)

    def test_negative_component_markov_density(self):
        dist = outcome_distribution(Z_PAIR, np.diag([1.25, -0.25]))
        np.testing.assert_allclose(dist.values, [1.25, -0.25], atol=1e-14)
        assert dist.values.sum() == pytest.approx(1.0, abs=1e-12)

    def test_sums_to_one_random(self):
        rng = np.random.default_rng(50)
        meas = random_kraus_measurement(rng, 3, 3)
        q = random_quantum_density(3, rng)
        assert outcome_distribution(meas, q).values.sum() == pytest.approx(1.0, abs=1e-10)

    def test_as_dict(self):
        dist = outcome_distribution(Z_PAIR, np.diag([1.25, -0.25]))
        assert dist.as_dict() == {"0": 1.25, "1": -0.25}


class TestIsObservable:
    def test_quantum_density_always(self):
        rng = np.random.default_rng(51)
        for _ in range(10):
            meas = random_kraus_measurement(rng, 3, 2)
            assert is_observable(meas, random_quantum_density(3, rng))

    def test_negative_readout(self):
        assert not is_observable(Z_PAIR, np.diag([1.25, -0.25]))

    def test_x_basis_on_indefinite_density(self):
        # both outcome values evaluate to 1/2 by direct trace computation
        meas = x_basis_measurement()
        q = np.diag([1.25, -0.25]).astype(complex)
        direct = [np.trace(m @ q @ m.conj().T).real for m in meas.kraus]
        np.testing.assert_allclose(direct, [0.5, 0.5], atol=1e-14)
        assert is_observable(meas, q)


class TestPosterior:
    def test_projection(self):
        p, post = posterior(Z_PAIR, pure_state(np.array([1.0, 1.0]) / np.sqrt(2)), "0")
        assert p == pytest.approx(0.5, abs=1e-14)
        np.testing.assert_allclose(post, np.diag([1.0, 0.0]), atol=1e-14)

    def test_fixed_point(self):
        p, post = posterior(Z_PAIR, np.diag([1.0, 0.0]), "0")
        assert p == pytest.approx(1.0, abs=1e-14)
        np.testing.assert_allclose(post, np.diag([1.0, 0.0]), atol=1e-14)

    def test_mixture_identity(self):
        # sum_a p(a) Q_a equals the sum-operator image
        rng = np.random.default_rng(52)
        meas = random_kraus_measurement(rng, 3, 3)
        q = random_quantum_density(3, rng)
        mixture = np.zeros((3, 3), dtype=complex)
        for symbol in meas.scale:
            p, post = posterior(meas, q, symbol)
            mixture += p * post
        expected = apply(as_markov_measurement(meas).sum_operator, q)
        assert np.abs(mixture - expected).max() <= 1e-10

    def test_zero_probability_error(self):
        with pytest.raises(ValueError, match="posterior undefined"):
            posterior(Z_PAIR, np.diag([1.0, 0.0]), "1")

    def test_dimension_mismatch_named(self):
        # a density on H_3 against a measurement on H_2: the same message as outcome_distribution
        with pytest.raises(ValueError, match=r"^dimension mismatch: measurement on H_2, density on H_3$"):
            posterior(Z_PAIR, np.eye(3) / 3, "0")


class TestAsMarkovMeasurement:
    def test_unary_unitary(self):
        u = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        meas = KrausMeasurement(scale=Scale(("u",)), kraus=(u,))
        mm = as_markov_measurement(meas)
        np.testing.assert_allclose(mm.operators[0], from_unitary(u).matrix, atol=1e-14)

    def test_projective_pair_sums_to_pinching(self):
        mm = as_markov_measurement(Z_PAIR)
        total = mm.operators[0] + mm.operators[1]
        np.testing.assert_allclose(total, np.diag([1.0, 1.0, 0.0, 0.0]), atol=1e-14)

    def test_matches_direct_conjugation(self):
        rng = np.random.default_rng(53)
        meas = random_kraus_measurement(rng, 3, 2)
        mm = as_markov_measurement(meas)
        q = random_quantum_density(3, rng)
        from qmarkov import coords, from_coords

        for m, op in zip(meas.kraus, mm.operators):
            direct = m @ q @ m.conj().T
            via_op = from_coords(op @ coords(q))
            assert np.abs(direct - via_op).max() <= 1e-12


class TestWordOperator:
    def test_empty_word(self):
        mm = as_markov_measurement(Z_PAIR)
        np.testing.assert_array_equal(word_operator(mm, ()), np.eye(4))

    def test_orthogonal_projectors_annihilate(self):
        mm = as_markov_measurement(Z_PAIR)
        op = word_operator(mm, ("0", "1"))
        assert np.abs(op).max() <= 1e-14

    def test_composition_order(self):
        rng = np.random.default_rng(54)
        meas = as_markov_measurement(random_kraus_measurement(rng, 2, 2))
        direct = word_operator(meas, ("0", "1", "0"))
        a, b = meas.operators
        assert np.abs(direct - a @ b @ a).max() <= 1e-12

    def test_unknown_symbol(self):
        mm = as_markov_measurement(Z_PAIR)
        with pytest.raises(ValueError, match="unknown symbol"):
            word_operator(mm, ("0", "x"))


class TestWordDistribution:
    def test_sums_to_one(self):
        rng = np.random.default_rng(55)
        meas = random_kraus_measurement(rng, 3, 2)
        q = random_quantum_density(3, rng)
        for t in range(4):
            dist = word_distribution(meas, q, t)
            assert sum(dist.values()) == pytest.approx(1.0, abs=1e-9)

    def test_product_order_keys(self):
        dist = word_distribution(Z_PAIR, np.diag([0.3, 0.7]), 2)
        assert list(dist.keys()) == list(itertools.product(("0", "1"), repeat=2))

    def test_matches_word_operators(self):
        rng = np.random.default_rng(56)
        meas = as_markov_measurement(random_kraus_measurement(rng, 2, 2))
        q = random_quantum_density(2, rng)
        dist = word_distribution(meas, q, 3)
        from qmarkov import coords

        for word, value in dist.items():
            c = word_operator(meas, word) @ coords(q)
            assert value == pytest.approx(float(c[:2].sum()), abs=1e-12)

    def test_multinomial_identity(self):
        # sum of word operators at depth t equals the t-th power of the sum
        rng = np.random.default_rng(57)
        meas = as_markov_measurement(random_kraus_measurement(rng, 2, 2))
        t = 3
        total = sum(word_operator(meas, w) for w in itertools.product(meas.scale.symbols, repeat=t))
        expected = power(meas.sum_operator, t).matrix
        assert np.abs(total - expected).max() <= 1e-10


class TestWordBlocks:
    # a block of 7 values splits some levels into uneven row blocks: 3 + 1
    # prefix rows at t = 3 on two symbols, 2 + 1 at t = 2 on three
    @pytest.mark.parametrize("block", [1, 7])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_product_order_matches_word_operators(self, monkeypatch, block, k):
        monkeypatch.setattr(qmeasurement, "WORD_BLOCK", block)
        rng = np.random.default_rng(170 + k)
        # a Markov measurement that is not Kraus (for k > 1), read at a
        # density with a negative eigenvalue
        ops = list(as_markov_measurement(random_kraus_measurement(rng, 2, k)).operators)
        shift = rng.standard_normal((4, 4)) * 0.3 if k > 1 else 0.0
        ops[0] = ops[0] + shift
        ops[-1] = ops[-1] - shift
        meas = MarkovMeasurement(scale=Scale(tuple("abc"[:k])), operators=tuple(ops))
        q = np.array([[1.2, 0.1 + 0.2j], [0.1 - 0.2j, -0.2]])
        c = coords(q)
        for t in range(8):
            dist = word_distribution(meas, q, t)
            words = list(itertools.product(meas.scale.symbols, repeat=t))
            assert list(dist) == words
            expected = [float((word_operator(meas, w) @ c)[:2].sum()) for w in words]
            np.testing.assert_allclose(list(dist.values()), expected, rtol=0, atol=1e-12)


class TestTObservability:
    def test_quantum_density_all_depths(self):
        rng = np.random.default_rng(58)
        meas = random_kraus_measurement(rng, 2, 2)
        q = random_quantum_density(2, rng)
        for t in range(5):
            assert is_t_observable(meas, q, t)

    def test_depth_zero_always(self):
        assert is_t_observable(Z_PAIR, np.diag([1.25, -0.25]), 0)

    def test_intermediate_densities_observable(self):
        # t-observability forces observability at each expected density
        rng = np.random.default_rng(59)
        meas = random_kraus_measurement(rng, 2, 3)
        q = random_quantum_density(2, rng)
        t = 4
        assert is_t_observable(meas, q, t)
        mu = as_markov_measurement(meas).sum_operator
        for k in range(t):
            assert is_observable(meas, apply(power(mu, k), q))

    def test_verdicts_monotone_for_any_markov_measurement(self):
        # once some depth fails, every deeper depth fails: the symbol sum is
        # trace preserving, so each word value is the sum of its extensions
        rng = np.random.default_rng(160)
        for trial in range(10):
            base = as_markov_measurement(random_kraus_measurement(rng, 2, 2))
            total = base.operators[0] + base.operators[1]
            split = rng.standard_normal((4, 4)) * 0.5
            meas = MarkovMeasurement(
                scale=Scale(("a", "b")), operators=(split, total - split)
            )
            q = np.diag([1.0 + 0.3 * trial, -0.3 * trial]).astype(complex)
            verdicts = [is_t_observable(meas, q, t) for t in range(6)]
            assert verdicts == sorted(verdicts, reverse=True)

    def test_cap_respected(self, monkeypatch):
        monkeypatch.setenv("QMARKOV_ENUM_CAP", "1000")
        with pytest.raises(ValueError, match="cap exceeded"):
            is_t_observable(Z_PAIR, np.diag([0.5, 0.5]), 30)

    def test_cap_counts_words_of_the_last_level(self, monkeypatch):
        monkeypatch.setenv("QMARKOV_ENUM_CAP", "8")
        word_distribution(Z_PAIR, np.diag([0.5, 0.5]), 3)
        monkeypatch.setenv("QMARKOV_ENUM_CAP", "7")
        with pytest.raises(ValueError, match="cap exceeded: 8 words > 7"):
            word_distribution(Z_PAIR, np.diag([0.5, 0.5]), 3)

    def test_cap_env_override(self, monkeypatch):
        monkeypatch.setenv("QMARKOV_ENUM_CAP", "4")
        assert enumeration_cap() == 4
        with pytest.raises(ValueError, match="cap exceeded"):
            word_distribution(Z_PAIR, np.diag([0.5, 0.5]), 3)
        monkeypatch.delenv("QMARKOV_ENUM_CAP")
        assert enumeration_cap() == 10**6


class TestEnumerationCapSetting:
    @pytest.mark.parametrize("value", ["abc", "1e6", "0", "-5"])
    def test_not_a_positive_integer_names_the_variable(self, monkeypatch, value):
        monkeypatch.setenv("QMARKOV_ENUM_CAP", value)
        with pytest.raises(ValueError, match=f"QMARKOV_ENUM_CAP must be a positive integer, got '{value}'"):
            enumeration_cap()

    def test_one_symbol_scale_counts_one_level_per_length(self, monkeypatch):
        # one word per length, but the kernels build one level per length
        monkeypatch.setenv("QMARKOV_ENUM_CAP", "100")
        meas = KrausMeasurement(scale=Scale(("a",)), kraus=(np.eye(2, dtype=complex),))
        model = ObservableOperatorModel(scale=Scale(("a",)), operators=(np.eye(1),), pi=np.ones(1))
        rho = np.diag([0.5, 0.5])
        assert word_distribution(meas, rho, 100) == {("a",) * 100: pytest.approx(1.0)}
        assert len(entropy_rate(model, 100)) == 100
        with pytest.raises(ValueError, match="cap exceeded: 101 words > 100"):
            word_distribution(meas, rho, 101)
        with pytest.raises(ValueError, match="cap exceeded: 101 words > 100"):
            entropy_rate(model, 101)


class TestMarkovMeasurementValidation:
    def test_sum_must_be_trace_preserving(self):
        bad = (0.25 * np.eye(4), 0.25 * np.eye(4))
        with pytest.raises(ValueError, match="not a Markov operator"):
            MarkovMeasurement(scale=Scale(("a", "b")), operators=bad)

    def test_valid_split(self):
        ops = (0.5 * np.eye(4), 0.5 * np.eye(4))
        mm = MarkovMeasurement(scale=Scale(("a", "b")), operators=ops)
        assert mm.n == 2
        assert compose(mm.sum_operator, mm.sum_operator).n == 2


def random_markov_measurement(rng, n, k) -> MarkovMeasurement:
    """k unconstrained operators whose sum is a random Kraus channel's superoperator."""
    total = as_markov_measurement(random_kraus_measurement(rng, n, 2)).sum_operator.matrix
    splits = [rng.standard_normal((n * n, n * n)) * 0.5 for _ in range(k - 1)]
    return MarkovMeasurement(scale=Scale(tuple("abc"[:k])), operators=(*splits, total - sum(splits)))


def random_markov_density(rng, n) -> np.ndarray:
    """A Hermitian matrix of unit trace, generally with negative eigenvalues."""
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    h = (g + g.conj().T) / 2
    return h + (1.0 - np.trace(h).real) / n * np.eye(n)


def _old_kraus_outcome_values(meas, density):
    """Former Kraus outcome values: one einsum tr(M_a Q M_a*) per symbol."""
    return np.array([np.einsum("ij,jk,ik->", m, density, m.conj()).real for m in meas.kraus])


class TestOutcomeValuesFromWordKernel:
    """Single outcomes are length-1 words for Markov measurements; Kraus ones keep their einsum."""

    def test_markov_values_are_length_one_word_values(self):
        rng = np.random.default_rng(2001)
        for _ in range(60):
            n, k = int(rng.integers(2, 7)), int(rng.integers(2, 4))
            meas = random_markov_measurement(rng, n, k)
            q = random_markov_density(rng, n)
            words = word_distribution(meas, q, 1)
            expected = np.array([words[(s,)] for s in meas.scale])
            np.testing.assert_array_equal(outcome_distribution(meas, q).values, expected)

    def test_kraus_values_equal_the_einsum(self, monkeypatch):
        monkeypatch.setattr(qmeasurement, "kraus_superop", None)  # no superoperator is formed
        rng = np.random.default_rng(2002)
        for _ in range(30):
            n, k = int(rng.integers(2, 7)), int(rng.integers(2, 4))
            meas = random_kraus_measurement(rng, n, k)
            q = random_markov_density(rng, n)
            np.testing.assert_array_equal(outcome_distribution(meas, q).values, _old_kraus_outcome_values(meas, q))

    def test_cap_below_symbol_count_refuses_markov_values_only(self, monkeypatch):
        rng = np.random.default_rng(2003)
        markov, kraus = random_markov_measurement(rng, 2, 3), random_kraus_measurement(rng, 2, 3)
        q = random_quantum_density(2, rng)
        monkeypatch.setenv("QMARKOV_ENUM_CAP", "2")
        with pytest.raises(ValueError, match="cap exceeded: 3 words > 2"):
            outcome_distribution(markov, q)
        assert outcome_distribution(kraus, q).values.sum() == pytest.approx(1.0, abs=1e-12)


class TestNotAMeasurement:
    @pytest.mark.parametrize(
        "call",
        [
            lambda m, q: outcome_distribution(m, q),
            lambda m, q: word_distribution(m, q, 2),
            lambda m, q: is_t_observable(m, q, 2),
            lambda m, q: word_operator(m, ("0",)),
        ],
        ids=["outcome_distribution", "word_distribution", "is_t_observable", "word_operator"],
    )
    def test_type_error_before_any_attribute(self, monkeypatch, call):
        monkeypatch.setenv("QMARKOV_ENUM_CAP", "1")  # the type is checked before the cap
        with pytest.raises(TypeError, match="expected a measurement, got str"):
            call("Z", np.diag([0.5, 0.5]))

    @pytest.mark.parametrize("call", [lambda m: posterior(m, np.eye(3), "0"), as_markov_measurement], ids=["posterior", "as_markov_measurement"])
    @pytest.mark.parametrize(
        "meas, name",
        [("Z", "str"), (as_markov_measurement(x_basis_measurement()), "MarkovMeasurement")],
        ids=["str", "markov"],
    )
    def test_kraus_only_type_error_first(self, call, meas, name):
        # the density np.eye(3) fails every check that would come after the type check
        with pytest.raises(TypeError, match=f"^expected a Kraus measurement, got {name}$"):
            call(meas)


def _edge_loop(block, sources, out):
    """Former walk node readout: one column addition per edge, in edge order."""
    for e, u in enumerate(sources):
        out[:, u] += block[:, e]
    return out


def _same_bits(got, expected):
    np.testing.assert_array_equal(got, expected)
    np.testing.assert_array_equal(np.signbit(got), np.signbit(expected))


class TestLabelSums:
    """The one diagonal-POVM readout against the two it replaced, bit for bit."""

    def _values(self, rng, shape):
        values = rng.standard_normal(shape)
        values[rng.random(shape) < 0.2] = 0.0
        values[rng.random(shape) < 0.2] = -0.0
        return values

    def test_equals_edge_loop_on_blocks(self):
        rng = np.random.default_rng(2004)
        for _ in range(40):
            edges, nodes, rows = int(rng.integers(1, 25)), int(rng.integers(1, 8)), int(rng.integers(1, 33))
            sources = rng.integers(0, nodes, size=edges)
            block = self._values(rng, (rows, edges * edges))  # coordinates: diagonal entries first
            got = qmeasurement._label_sums(block, sources, np.zeros((rows, nodes)))
            _same_bits(got, _edge_loop(block, sources, np.zeros((rows, nodes))))

    def test_equals_bincount_on_vectors(self):
        rng = np.random.default_rng(2005)
        for _ in range(40):
            size, count = int(rng.integers(1, 30)), int(rng.integers(1, 8))
            labels = rng.integers(0, count, size=size)
            values = self._values(rng, size)
            got = qmeasurement._label_sums(values, labels, np.zeros(count))
            _same_bits(got, np.bincount(labels, weights=values, minlength=count))

    def test_writes_into_a_view(self):
        out = np.zeros((4, 2))
        qmeasurement._label_sums(np.array([[1.0, 2.0, 3.0]]), np.array([1, 0, 1]), out[2:3])
        np.testing.assert_array_equal(out, [[0, 0], [0, 0], [2, 4], [0, 0]])
