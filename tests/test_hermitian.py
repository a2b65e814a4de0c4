import tracemalloc

import numpy as np
import pytest

from conftest import SIGMA_X, SIGMA_Z, random_hermitian
from qmarkov import (
    adjoint,
    coords,
    from_coords,
    hermitian_basis,
    hs_inner,
    hs_norm,
    is_hermitian,
    is_nonnegative,
    is_unitary,
    pure_state,
    require_hermitian,
    require_markov_density,
    spectral_decompose,
)
from qmarkov.hermitian import _all_finite


class TestAdjoint:
    def test_identity(self):
        np.testing.assert_array_equal(adjoint(np.eye(2)), np.eye(2))

    def test_conjugate_transpose(self):
        c = np.array([[0.0, 1.0j], [0.0, 0.0]])
        expected = np.array([[0.0, 0.0], [-1.0j, 0.0]])
        np.testing.assert_array_equal(adjoint(c), expected)

    def test_inner_product_pairing(self):
        # <Cx|y> = <x|C*y> evaluated directly with vdot
        rng = np.random.default_rng(7)
        c = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        for _ in range(5):
            x = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            y = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            assert np.vdot(c @ x, y) == pytest.approx(np.vdot(x, adjoint(c) @ y), abs=1e-12)

    def test_involution(self):
        rng = np.random.default_rng(8)
        c = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        np.testing.assert_array_equal(adjoint(adjoint(c)), c)

    def test_rejects_vector(self):
        with pytest.raises(ValueError, match="adjoint expects a matrix, got array of ndim 1"):
            adjoint(np.ones(3))


class TestHsInner:
    def test_identity(self):
        assert hs_inner(np.eye(2), np.eye(2)) == 2.0

    def test_pauli_orthogonality(self):
        assert hs_inner(SIGMA_X, SIGMA_Z) == 0.0

    def test_unit_projector(self):
        rng = np.random.default_rng(9)
        v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        v = v / np.linalg.norm(v)
        p = np.outer(v, v.conj())
        assert hs_inner(p, p).real == pytest.approx(1.0, abs=1e-12)

    def test_norm_consistency(self):
        rng = np.random.default_rng(10)
        c = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        assert hs_norm(c) == pytest.approx(np.sqrt(hs_inner(c, c).real), abs=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            hs_inner(np.eye(2), np.eye(3))


class TestSpectralDecompose:
    def test_non_convergence_raises(self, monkeypatch):
        def fail(_):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", fail)
        with pytest.raises(ValueError, match="eigendecomposition did not converge"):
            spectral_decompose(SIGMA_Z)

    def test_sigma_z(self):
        dec = spectral_decompose(SIGMA_Z)
        np.testing.assert_allclose(dec.eigenvalues, [1.0, -1.0])
        np.testing.assert_allclose(np.abs(dec.eigenvectors), np.eye(2), atol=1e-15)

    def test_sigma_x(self):
        dec = spectral_decompose(SIGMA_X)
        np.testing.assert_allclose(dec.eigenvalues, [1.0, -1.0])
        s = 1 / np.sqrt(2)
        np.testing.assert_allclose(dec.eigenvectors[:, 0], [s, s], atol=1e-12)
        np.testing.assert_allclose(np.abs(dec.eigenvectors[:, 1]), [s, s], atol=1e-12)

    def test_reconstruction_random(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            q = random_hermitian(rng, 5)
            dec = spectral_decompose(q)
            assert hs_norm(dec.reconstruct() - q) <= 1e-10

    def test_orthonormality_and_trace(self):
        rng = np.random.default_rng(12)
        q = random_hermitian(rng, 6)
        dec = spectral_decompose(q)
        gram = dec.eigenvectors.conj().T @ dec.eigenvectors
        assert np.abs(gram - np.eye(6)).max() <= 1e-10
        assert dec.eigenvalues.sum() == pytest.approx(np.trace(q).real, abs=1e-10)

    def test_descending_order(self):
        rng = np.random.default_rng(13)
        q = random_hermitian(rng, 7)
        dec = spectral_decompose(q)
        assert np.all(np.diff(dec.eigenvalues) <= 0)

    def test_deterministic(self):
        rng = np.random.default_rng(14)
        q = random_hermitian(rng, 5)
        d1 = spectral_decompose(q)
        d2 = spectral_decompose(q.copy())
        np.testing.assert_array_equal(d1.eigenvalues, d2.eigenvalues)
        np.testing.assert_array_equal(d1.eigenvectors, d2.eigenvectors)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="not Hermitian"):
            spectral_decompose(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_degenerate_ties_match_loop_oracle(self):
        rng = np.random.default_rng(15)
        tied = 0
        for trial in range(300):
            if trial % 3 == 0:
                h = rng.integers(-2, 3, (2, 2)) + 1j * rng.integers(-2, 3, (2, 2))
                q = np.kron(np.eye(rng.integers(2, 4)), h + h.conj().T)
            elif trial % 3 == 1:
                q = np.diag(rng.integers(-2, 3, rng.integers(2, 7)).astype(complex))
            else:
                h = rng.integers(-1, 2, (3, 3)) + 1j * rng.integers(-1, 2, (3, 3))
                q = np.kron(h + h.conj().T, np.eye(2))
            want_vals, want_vecs = _spectral_decompose_loop(q)
            dec = spectral_decompose(q)
            assert dec.eigenvalues.tobytes() == want_vals.tobytes()
            assert dec.eigenvectors.tobytes() == want_vecs.tobytes()
            tied += bool(np.any(np.diff(want_vals) == 0))
        assert tied >= 150


def _spectral_decompose_loop(q):
    """spectral_decompose with its former per-group tie-break loop, kept as an oracle."""
    vals, vecs = np.linalg.eigh((q + q.conj().T) / 2.0)
    order = np.argsort(-vals, kind="stable")
    vals = np.ascontiguousarray(vals[order])
    vecs = np.ascontiguousarray(vecs[:, order])
    n = vals.size
    for i in range(n):
        col = vecs[:, i]
        pivot = int(np.argmax(np.abs(col)))
        lead = col[pivot]
        mag = abs(lead)
        if mag > 0.0:
            vecs[:, i] = col * (lead.conjugate() / mag)
    i = 0
    while i < n:
        j = i + 1
        while j < n and vals[j] == vals[i]:
            j += 1
        if j - i > 1:
            block = sorted(
                range(i, j),
                key=lambda k: tuple((vecs[r, k].real, vecs[r, k].imag) for r in range(n)),
            )
            vecs[:, i:j] = vecs[:, block]
        i = j
    return vals, vecs


class TestNonnegative:
    def test_scaled_identity(self):
        assert is_nonnegative(np.eye(3) / 3)

    def test_indefinite_diagonal(self):
        assert not is_nonnegative(np.diag([1.5, -0.5]))

    def test_outer_product(self):
        rng = np.random.default_rng(15)
        v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        assert is_nonnegative(np.outer(v, v.conj()))

    def test_agrees_with_quadratic_forms(self):
        # sampled quadratic-form oracle: v*Qv >= -10 tol on unit vectors
        rng = np.random.default_rng(16)
        tol = 1e-10
        for _ in range(5):
            q = random_hermitian(rng, 4)
            verdict = is_nonnegative(q, tol)
            forms = []
            for _ in range(1000):
                v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
                v = v / np.linalg.norm(v)
                forms.append(np.vdot(v, q @ v).real)
            if verdict:
                assert min(forms) >= -10 * tol


class TestPureState:
    def test_basis_vector(self):
        np.testing.assert_allclose(pure_state([1.0, 0.0]), np.diag([1.0, 0.0]))

    def test_superposition(self):
        v = np.array([1.0, 1.0]) / np.sqrt(2)
        np.testing.assert_allclose(pure_state(v), np.full((2, 2), 0.5), atol=1e-15)

    def test_normalization_forced(self):
        np.testing.assert_allclose(pure_state([2.0, 0.0]), np.diag([1.0, 0.0]))

    def test_valid_density(self):
        rng = np.random.default_rng(17)
        v = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        p = pure_state(v)
        require_markov_density(p)
        assert is_nonnegative(p)

    def test_zero_vector(self):
        with pytest.raises(ValueError, match="zero vector"):
            pure_state([0.0, 0.0])


class TestIsUnitary:
    def test_identity(self):
        assert is_unitary(np.eye(4))

    def test_phases(self):
        for theta in (0.0, 0.5, np.pi, 2.39996):
            assert is_unitary(np.diag([1.0, np.exp(1j * theta)]))

    def test_shear_rejected(self):
        assert not is_unitary(np.array([[1.0, 1.0], [0.0, 1.0]]))


class TestCoords:
    def test_diagonal_unit(self):
        np.testing.assert_array_equal(coords(np.diag([1.0, 0.0]).astype(complex)), [1, 0, 0, 0])

    def test_sigma_x(self):
        np.testing.assert_allclose(coords(SIGMA_X), [0, 0, np.sqrt(2), 0])

    def test_round_trip(self):
        rng = np.random.default_rng(18)
        q = random_hermitian(rng, 4)
        assert hs_norm(from_coords(coords(q)) - q) <= 1e-12

    def test_isometry(self):
        rng = np.random.default_rng(19)
        q = random_hermitian(rng, 5)
        assert np.linalg.norm(coords(q)) == pytest.approx(hs_norm(q), abs=1e-12)

    def test_preserves_inner_products(self):
        rng = np.random.default_rng(20)
        a = random_hermitian(rng, 3)
        b = random_hermitian(rng, 3)
        assert coords(a) @ coords(b) == pytest.approx(hs_inner(a, b).real, abs=1e-12)

    def test_batched(self):
        rng = np.random.default_rng(21)
        qs = np.stack([random_hermitian(rng, 3) for _ in range(4)])
        np.testing.assert_allclose(from_coords(coords(qs)), qs, atol=1e-14)

    @pytest.mark.parametrize("shape", [(3,), (2, 3), (4, 2, 3)])
    def test_coords_rejects_non_square(self, shape):
        with pytest.raises(ValueError, match=r"coords expects square matrices, got shape"):
            coords(np.zeros(shape))

    def test_from_coords_rejects_bad_shapes(self):
        with pytest.raises(ValueError, match="at least one coordinate axis"):
            from_coords(np.float64(1.0))
        with pytest.raises(ValueError, match="coordinate length 3 is not a perfect square"):
            from_coords(np.zeros((2, 3)))


class TestHermitianBasis:
    def test_orthonormal(self):
        b = hermitian_basis(4)
        gram = np.einsum("aij,bij->ab", b.conj(), b).real
        assert np.abs(gram - np.eye(16)).max() <= 1e-12

    def test_elements_hermitian(self):
        for el in hermitian_basis(3):
            assert is_hermitian(el)


class TestValidation:
    def test_require_hermitian_passes(self):
        require_hermitian(SIGMA_Z)

    def test_require_hermitian_rejects(self):
        with pytest.raises(ValueError, match="not Hermitian"):
            require_hermitian(np.array([[0.0, 1.0], [0.5, 0.0]]))

    def test_require_hermitian_rejects_non_square(self):
        with pytest.raises(ValueError, match=r"matrix must be a square matrix, got shape \(2, 3\)"):
            require_hermitian(np.zeros((2, 3)))

    def test_density_trace(self):
        require_markov_density(np.diag([1.25, -0.25]))
        with pytest.raises(ValueError, match="trace 1"):
            require_markov_density(np.diag([1.0, 1.0]))


def _finite_check_cases():
    """Arrays with one non-finite or extreme value at each end and in the middle, as float and complex
    arrays and as views of them with other strides; empty and 0-d arrays."""
    for value in (np.nan, np.inf, -np.inf, 1e308, -1e308, 0.0):
        for at in (0, 7, 15):
            real = np.arange(16.0).reshape(4, 4)
            real.flat[at] = value
            yield real
            yield real.T
            yield real[:, ::3]
            for cell in (complex(value, 0.0), complex(0.0, value)):
                cplx = np.ones((4, 4), dtype=complex)
                cplx.flat[at] = cell
                yield cplx
                yield cplx.T
                yield cplx.real
                yield cplx.imag
    yield from (np.zeros(0), np.zeros((0, 3), dtype=complex), np.array(np.nan), np.array(2.0 + 0j))


class TestFiniteCheck:
    """The one finiteness check reads min and max, with no mask of the array's size."""

    def test_agrees_with_the_mask(self):
        for array in _finite_check_cases():
            assert _all_finite(array) == bool(np.all(np.isfinite(array))), array

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_no_mask_at_n24(self, dtype):
        matrix = np.ones((576, 576), dtype=dtype).T  # a complex transpose cannot be viewed as floats
        tracemalloc.start()
        try:
            assert _all_finite(matrix)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**10  # a boolean mask would be 324 kB, of the float view 648 kB

    def test_square_check_takes_a_complex_transpose(self):
        q = random_hermitian(np.random.default_rng(127), 3)
        assert is_hermitian(q.T)
        with pytest.raises(ValueError, match="contains non-finite entries"):
            require_hermitian(np.where(np.eye(3) > 0, np.nan, q).T)
