import re
import time

import numpy as np
import pytest

from conftest import SIGMA_X, random_hermitian, random_kraus_family, random_unitary
from qmarkov import (
    MarkovChain,
    MarkovOperator,
    apply,
    cesaro_average,
    compose,
    coords,
    from_kraus,
    from_stochastic,
    from_unitary,
    hermitian_basis,
    identity_operator,
    is_stationary,
    is_trace_preserving,
    min_eigenvalue,
    power,
    random_quantum_density,
    sampled_nonnegativity,
)
from qmarkov import operators
from qmarkov.operators import kraus_superop, trace_preservation_deviation

PROJ = [np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)]


class TestOperatorSize:
    @pytest.mark.parametrize("n", [True, 2.0, 0])
    def test_n_must_be_a_positive_integer(self, n):
        # the size is checked before the matrix: True is not 1, 2.0 is not 2
        with pytest.raises(ValueError, match=re.escape(f"n must be a positive integer, got {n!r}")):
            MarkovOperator(n=n, matrix=np.eye(1))

    def test_positive_count_message_agrees_with_its_bound(self):
        with pytest.raises(ValueError) as info:
            MarkovOperator(n=0, matrix=np.eye(1))
        assert str(info.value) == "n must be a positive integer, got 0: such counts are positive integers, not bools or floats"


class TestFromKraus:
    def test_identity_family(self):
        op = from_kraus([np.eye(2)])
        np.testing.assert_allclose(op.matrix, np.eye(4), atol=1e-15)

    def test_pinching(self):
        op = from_kraus(PROJ)
        q = np.array([[0.4, 0.3 + 0.1j], [0.3 - 0.1j, 0.6]])
        np.testing.assert_allclose(apply(op, q), np.diag([0.4, 0.6]), atol=1e-14)

    def test_isometry_pair_positivity(self):
        rng = np.random.default_rng(30)
        op = from_kraus(random_kraus_family(rng, 3, 2))
        for _ in range(10):
            q = random_quantum_density(3, rng)
            assert min_eigenvalue(apply(op, q)) >= -1e-10

    def test_completeness_violation(self):
        with pytest.raises(ValueError, match="sum up to the identity"):
            from_kraus([np.diag([1.0, 0.0])])

    def test_amplitude_damping_is_valid(self):
        gamma = 0.3
        m0 = np.diag([1.0, np.sqrt(1 - gamma)]).astype(complex)
        m1 = np.array([[0.0, np.sqrt(gamma)], [0.0, 0.0]])
        op = from_kraus([m0, m1])
        assert is_trace_preserving(op)

    def test_one_matrix_is_a_family_of_one(self):
        v = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        assert np.array_equal(from_kraus(v).matrix, from_kraus([v]).matrix)

    def test_rejects_non_square_stack(self):
        with pytest.raises(ValueError, match=r"Kraus family must be square matrices, got shape \(2, 2, 3\)"):
            from_kraus(np.zeros((2, 2, 3)))


class TestKrausSuperop:
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
    @pytest.mark.parametrize("a", [1, 2, 3])
    def test_matches_basis_images(self, n, a):
        # column k is the coordinate vector of sum_a M_a B_k M_a*, applied
        # to each canonical basis element directly
        rng = np.random.default_rng(100 * n + a)
        family = random_kraus_family(rng, n, a)
        reference = np.array(
            [coords(sum(m @ b @ m.conj().T for m in family)) for b in hermitian_basis(n)]
        ).T
        assert np.abs(kraus_superop(family) - reference).max() <= 1e-14

    def test_permutation_unitary_is_orthogonal(self):
        perm = np.eye(6)[[3, 0, 5, 1, 4, 2]]
        k = from_unitary(perm).matrix
        assert np.abs(k @ k.T - np.eye(36)).max() <= 1e-14


class TestFromUnitary:
    def test_identity(self):
        np.testing.assert_allclose(from_unitary(np.eye(3)).matrix, np.eye(9), atol=1e-15)

    def test_sigma_x_permutes_diagonal(self):
        op = from_unitary(SIGMA_X)
        np.testing.assert_allclose(apply(op, np.diag([0.2, 0.8])), np.diag([0.8, 0.2]), atol=1e-14)

    def test_spectrum_preserved(self):
        rng = np.random.default_rng(31)
        u = random_unitary(rng, 4)
        op = from_unitary(u)
        q = random_hermitian(rng, 4)
        before = np.sort(np.linalg.eigvalsh(q))
        after = np.sort(np.linalg.eigvalsh(apply(op, q)))
        np.testing.assert_allclose(after, before, atol=1e-9)

    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError, match="not unitary"):
            from_unitary(np.array([[1.0, 1.0], [0.0, 1.0]]))


class TestFromStochastic:
    def test_identity_is_pinching(self):
        op = from_stochastic(np.eye(2))
        q = np.array([[0.4, 0.3 + 0.1j], [0.3 - 0.1j, 0.6]])
        np.testing.assert_allclose(apply(op, q), np.diag([0.4, 0.6]), atol=1e-15)

    def test_permutation(self):
        op = from_stochastic(np.array([[0.0, 1.0], [1.0, 0.0]]))
        np.testing.assert_allclose(apply(op, np.diag([0.2, 0.8])), np.diag([0.8, 0.2]), atol=1e-15)

    def test_negative_entries_still_trace_preserving(self):
        m = np.array([[1.2, 0.3], [-0.2, 0.7]])
        op = from_stochastic(m)
        for element in hermitian_basis(2):
            image = apply(op, element)
            assert np.trace(image).real == pytest.approx(np.trace(element).real, abs=1e-12)

    def test_column_sum_violation(self):
        with pytest.raises(ValueError, match="column sums"):
            from_stochastic(np.array([[0.5, 0.0], [0.0, 1.0]]))

    def test_homomorphism_on_diagonals(self):
        rng = np.random.default_rng(32)
        m1 = rng.standard_normal((3, 3))
        m1 += (1 - m1.sum(axis=0)) / 3
        m2 = rng.standard_normal((3, 3))
        m2 += (1 - m2.sum(axis=0)) / 3
        combined = from_stochastic(m1 @ m2)
        composed = compose(from_stochastic(m1), from_stochastic(m2))
        x = rng.standard_normal(3)
        x = x / x.sum()
        d = np.diag(x).astype(complex)
        np.testing.assert_allclose(apply(combined, d), apply(composed, d), atol=1e-12)


class TestApply:
    def test_identity(self):
        rng = np.random.default_rng(33)
        q = random_hermitian(rng, 3)
        np.testing.assert_allclose(apply(identity_operator(3), q), q, atol=1e-15)

    def test_sigma_x_on_projector(self):
        op = from_unitary(SIGMA_X)
        np.testing.assert_allclose(
            apply(op, np.diag([1.0, 0.0])), np.diag([0.0, 1.0]), atol=1e-15
        )

    def test_trace_preserved_on_densities(self):
        rng = np.random.default_rng(34)
        op = from_kraus(random_kraus_family(rng, 3, 3))
        q = random_hermitian(rng, 3)
        q = q + np.eye(3) * (1 - np.trace(q).real) / 3
        assert np.trace(apply(op, q)).real == pytest.approx(1.0, abs=1e-10)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            apply(identity_operator(2), np.eye(3))


class TestKrausForm:
    """Kraus and unitary operators keep their stack and form the dense matrix only when it is read."""

    def test_large_channel_leaves_matrix_unformed(self, monkeypatch):
        rng = np.random.default_rng(48)
        family = random_kraus_family(rng, 48, 2)
        op = from_kraus(family)
        chain = MarkovChain(operator=op, start=random_quantum_density(48, rng))

        def refuse(family):
            raise AssertionError("the dense superoperator was formed")

        monkeypatch.setattr(operators, "kraus_superop", refuse)
        results = []
        for call in (
            lambda: cesaro_average(chain),
            lambda: apply(op, chain.start),
            lambda: is_stationary(chain),
            lambda: sampled_nonnegativity(op, trials=20),
        ):
            start = time.process_time()  # CPU time of every thread: a busy host does not inflate it
            results.append(call())
            assert time.process_time() - start < 1.0
        average, image, stationary, report = results
        assert average.residual <= 1e-8
        expected = sum(m @ chain.start @ m.conj().T for m in family)
        np.testing.assert_allclose(image, expected, atol=1e-14)
        assert not stationary and report.all_passed
        assert "matrix" not in vars(op)

    @pytest.mark.parametrize("a", [1, 2, 3])
    def test_matrix_formed_once_and_read_only(self, a):
        rng = np.random.default_rng(49 + a)
        family = random_kraus_family(rng, 4, a)
        op = from_kraus(family)
        assert op.matrix is op.matrix
        assert not op.matrix.flags.writeable and not op.kraus.flags.writeable
        np.testing.assert_array_equal(op.matrix, kraus_superop(family))

    @pytest.mark.parametrize("a", [1, 2, 3])
    def test_apply_matches_matrix_form(self, a):
        rng = np.random.default_rng(52 + a)
        family = random_kraus_family(rng, 5, a)
        dense = MarkovOperator(n=5, matrix=kraus_superop(family))
        assert dense.kraus is None
        q = random_hermitian(rng, 5)
        image = apply(from_kraus(family), q)
        np.testing.assert_allclose(image, apply(dense, q), atol=1e-14)
        np.testing.assert_array_equal(image, image.conj().T)

    @pytest.mark.parametrize(
        "matrix", [5 * np.eye(4), kraus_superop([np.eye(2)])], ids=["disagreeing", "agreeing"]
    )
    def test_matrix_and_kraus_together_refused(self, matrix):
        # one operator has one form: a matrix given beside a Kraus stack would be dropped unread
        with pytest.raises(ValueError, match="not both"):
            MarkovOperator(n=2, matrix=matrix, kraus=[np.eye(2)])


class TestMatrixForm:
    """A dense operator keeps a read-only copy of the caller's matrix."""

    def test_caller_array_stays_the_callers(self):
        a = np.eye(4)
        op = MarkovOperator(2, matrix=a)
        a[0, 0] = 2.0
        np.testing.assert_array_equal(op.matrix, np.eye(4))
        assert a.flags.writeable and not op.matrix.flags.writeable


class TestComposePower:
    def test_compose_with_identity(self):
        rng = np.random.default_rng(35)
        op = from_kraus(random_kraus_family(rng, 2, 2))
        np.testing.assert_allclose(compose(op, identity_operator(2)).matrix, op.matrix)

    def test_sigma_x_squared(self):
        op = from_unitary(SIGMA_X)
        np.testing.assert_allclose(power(op, 2).matrix, np.eye(4), atol=1e-14)

    def test_power_matches_iteration(self):
        rng = np.random.default_rng(36)
        op = from_kraus(random_kraus_family(rng, 3, 2))
        q = random_quantum_density(3, rng)
        iterated = q
        for _ in range(5):
            iterated = apply(op, iterated)
        np.testing.assert_allclose(apply(power(op, 5), q), iterated, atol=1e-10)

    def test_power_zero(self):
        rng = np.random.default_rng(37)
        op = from_kraus(random_kraus_family(rng, 2, 3))
        np.testing.assert_allclose(power(op, 0).matrix, np.eye(4))

    def test_associativity(self):
        rng = np.random.default_rng(38)
        a, b, c = (from_kraus(random_kraus_family(rng, 2, 2)) for _ in range(3))
        left = compose(compose(a, b), c).matrix
        right = compose(a, compose(b, c)).matrix
        assert np.abs(left - right).max() <= 1e-12

    def test_power_addition_law(self):
        rng = np.random.default_rng(39)
        op = from_kraus(random_kraus_family(rng, 2, 2))
        lhs = power(op, 7).matrix
        rhs = compose(power(op, 3), power(op, 4)).matrix
        assert np.abs(lhs - rhs).max() <= 1e-10

    def test_power_rejects_negative(self):
        with pytest.raises(ValueError, match="nonnegative integer"):
            power(identity_operator(2), -1)

    @pytest.mark.parametrize("t", [2.0, 2.5, True, np.float64(2)])
    def test_power_rejects_exponents_that_are_no_integers(self, t):
        # an integral float was the one count that used to pass; every count now reads as one kind
        with pytest.raises(ValueError, match=re.escape(f"exponent must be nonnegative, got {t!r}: counts are nonnegative integers")):
            power(identity_operator(2), t)
        assert power(identity_operator(2), np.int64(2)).n == 2


class TestTracePreservation:
    def test_constructors(self):
        rng = np.random.default_rng(40)
        ops = [
            from_kraus(random_kraus_family(rng, 3, 2)),
            from_unitary(random_unitary(rng, 3)),
            from_stochastic(np.array([[0.9, 0.4], [0.1, 0.6]])),
        ]
        for op in ops:
            assert is_trace_preserving(op, 1e-10)

    def test_scaling_fails(self):
        assert not is_trace_preserving(0.5 * np.eye(4))

    def test_rejects_size_not_a_square(self):
        with pytest.raises(ValueError, match=r"superoperator matrix must be of size n\^2, got \(3, 3\)"):
            trace_preservation_deviation(np.eye(3))

    def test_constructor_rejects_scaling(self):
        with pytest.raises(ValueError, match="not trace preserving"):
            MarkovOperator(n=2, matrix=0.5 * np.eye(4))

    def test_negative_stochastic(self):
        op = from_stochastic(np.array([[1.2, 0.3], [-0.2, 0.7]]))
        assert is_trace_preserving(op)

    @pytest.mark.parametrize("seed", range(8))
    def test_kraus_form_deviation_without_matrix(self, seed):
        # families perturbed just inside the completeness check, so the
        # deviation is a few 1e-12 rather than rounding noise
        rng = np.random.default_rng(45 + seed)
        n, a = int(rng.integers(2, 7)), int(rng.integers(1, 4))
        mats = np.array(random_kraus_family(rng, n, a))
        mats += 2e-12 * (rng.standard_normal(mats.shape) + 1j * rng.standard_normal(mats.shape))
        op = from_kraus(mats)
        dev = trace_preservation_deviation(op)
        expected = trace_preservation_deviation(kraus_superop(mats))
        assert abs(dev - expected) <= 1e-12
        assert dev == pytest.approx(expected, rel=1e-3)
        assert is_trace_preserving(op, 2 * dev) and not is_trace_preserving(op, dev / 2)
        assert "matrix" not in op.__dict__


class TestSampledNonnegativity:
    def test_unitary_passes(self):
        rng = np.random.default_rng(41)
        op = from_unitary(random_unitary(rng, 3))
        report = sampled_nonnegativity(op, trials=100, seed=1)
        assert report.all_passed and report.passed == 100

    def test_trace_preserving_but_not_positive(self):
        # maps the first diagonal unit to 2 D_1 - D_2: applied to e_1 e_1*
        # the image has an eigenvalue -1
        matrix = np.eye(4)
        matrix[0, 0] = 2.0
        matrix[1, 0] = -1.0
        op = MarkovOperator(n=2, matrix=matrix)
        report = sampled_nonnegativity(op, trials=100, seed=2)
        assert not report.all_passed
        assert report.witness is not None
        assert report.witness_eigenvalue < -1e-9

    def test_kraus_passes(self):
        rng = np.random.default_rng(42)
        op = from_kraus(random_kraus_family(rng, 2, 3))
        assert sampled_nonnegativity(op, trials=100, seed=3).all_passed

    def test_seed_reproducible(self):
        rng = np.random.default_rng(43)
        op = from_unitary(random_unitary(rng, 2))
        r1 = sampled_nonnegativity(op, trials=10, seed=7)
        r2 = sampled_nonnegativity(op, trials=10, seed=7)
        assert r1.passed == r2.passed


class TestRandomQuantumDensity:
    def test_is_quantum_density(self):
        rng = np.random.default_rng(44)
        q = random_quantum_density(4, rng)
        assert np.trace(q).real == pytest.approx(1.0, abs=1e-12)
        assert min_eigenvalue(q) >= -1e-12

    def test_reproducible(self):
        a = random_quantum_density(3, np.random.default_rng(5))
        b = random_quantum_density(3, np.random.default_rng(5))
        np.testing.assert_array_equal(a, b)
