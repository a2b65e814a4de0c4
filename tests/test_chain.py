import tracemalloc
from itertools import islice

import numpy as np
import pytest

from conftest import SIGMA_X, random_hermitian, random_kraus_family, random_unitary
from qmarkov import (
    ConvergenceError,
    DirectedGraph,
    MarkovChain,
    MarkovOperator,
    apply,
    boundedness_probe,
    cesaro_average,
    coords,
    evolve,
    from_coords,
    from_kraus,
    from_stochastic,
    from_unitary,
    functional_average,
    hs_inner,
    identity_operator,
    is_nonnegative,
    is_stationary,
    limiting_node_distribution,
    min_eigenvalue,
    pure_state,
    random_quantum_density,
    shift_unitary,
    unitary_vector_average,
    walk,
)
from qmarkov import chain as qchain
from qmarkov import operators as qoperators
from qmarkov.operators import _image, _recover_kraus, _stepping_kraus, diagonal_superop, kraus_superop


def off_diagonal_amplifier(factor: float) -> MarkovOperator:
    """Scales the symmetric off-diagonal coordinate; trace preserving, unbounded."""
    matrix = np.eye(4)
    matrix[2, 2] = factor
    return MarkovOperator(n=2, matrix=matrix)


class TestEvolve:
    def test_identity_constant(self):
        rng = np.random.default_rng(60)
        q = random_quantum_density(3, rng)
        densities = evolve(MarkovChain(operator=identity_operator(3), start=q), 5)
        for d in densities:
            np.testing.assert_allclose(d, q, atol=1e-14)

    def test_sigma_x_alternates(self):
        chain = MarkovChain(operator=from_unitary(SIGMA_X), start=np.diag([1.0, 0.0]))
        densities = evolve(chain, 4)
        np.testing.assert_allclose(densities[0], np.diag([1.0, 0.0]), atol=1e-14)
        np.testing.assert_allclose(densities[1], np.diag([0.0, 1.0]), atol=1e-14)
        np.testing.assert_allclose(densities[2], np.diag([1.0, 0.0]), atol=1e-14)

    def test_kraus_channel_keeps_quantum(self):
        rng = np.random.default_rng(61)
        op = from_kraus(random_kraus_family(rng, 3, 2))
        chain = MarkovChain(operator=op, start=random_quantum_density(3, rng))
        for d in evolve(chain, 50):
            assert min_eigenvalue(d) >= -1e-9
            assert np.trace(d).real == pytest.approx(1.0, abs=1e-10)


    def test_matches_stepwise_reference(self):
        # a Kraus-form operator steps its stack: the reference is sum_a M_a Q M_a*
        rng = np.random.default_rng(74)
        mats = random_kraus_family(rng, 3, 2)
        op = from_kraus(mats)
        q = random_quantum_density(3, rng)
        densities = evolve(MarkovChain(operator=op, start=q), 20)
        assert densities.shape == (21, 3, 3)
        np.testing.assert_array_equal(densities[0], q)
        reference = q
        for d in densities[1:]:
            reference = sum(m @ reference @ m.conj().T for m in mats)
            np.testing.assert_allclose(d, reference, rtol=0, atol=1e-14)
        assert "matrix" not in op.__dict__

    @pytest.mark.parametrize("form", ["kraus", "dense"])
    def test_peak_near_result_size(self, form):
        # the densities are held once: the peak stays near the size of the result
        rng = np.random.default_rng(75)
        op = from_kraus(random_kraus_family(rng, 16, 2))
        if form == "dense":
            op = MarkovOperator(n=16, matrix=op.matrix)
        chain = MarkovChain(operator=op, start=random_quantum_density(16, rng))
        tracemalloc.start()
        try:
            densities = evolve(chain, 2000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert densities.shape == (2001, 16, 16)
        assert peak <= 1.3 * densities.nbytes

    def test_steps_checked_before_any_allocation(self):
        chain = MarkovChain(operator=identity_operator(2), start=np.eye(2) / 2)
        for steps in (-1, 10**30, 2.5):
            with pytest.raises((ValueError, OverflowError), match="steps"):
                evolve(chain, steps)


class TestBoundednessProbe:
    def test_unitary_constant_purity(self):
        rng = np.random.default_rng(62)
        q = random_quantum_density(2, rng)
        purity = float(np.trace(q @ q).real)
        report = boundedness_probe(
            MarkovChain(operator=from_unitary(SIGMA_X), start=q), horizon=30, bound=1.0
        )
        assert report.max_value == pytest.approx(purity, abs=1e-12)
        assert not report.exceeded

    def test_pinching_non_increasing(self):
        chain = MarkovChain(
            operator=from_stochastic(np.eye(2)),
            start=pure_state(np.array([1.0, 1.0]) / np.sqrt(2)),
        )
        values = [float(np.trace(d @ d).real) for d in evolve(chain, 10)]
        assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))
        report = boundedness_probe(chain, horizon=10, bound=1.0 + 1e-9)
        assert not report.exceeded

    def test_quantum_chain_stays_below_one(self):
        rng = np.random.default_rng(73)
        for _ in range(5):
            op = from_kraus(random_kraus_family(rng, 3, 2))
            chain = MarkovChain(operator=op, start=random_quantum_density(3, rng))
            report = boundedness_probe(chain, horizon=50, bound=1.0 + 1e-9)
            assert not report.exceeded

    def test_amplifier_exceeds(self):
        chain = MarkovChain(
            operator=off_diagonal_amplifier(1.1),
            start=pure_state(np.array([1.0, 1.0]) / np.sqrt(2)),
        )
        report = boundedness_probe(chain, horizon=60, bound=10.0)
        assert report.exceeded
        assert report.first_exceeded is not None
        # geometric growth oracle: 0.5 + 0.5 * 1.1^(2t) crosses 10 near t = 16
        assert 10 <= report.first_exceeded <= 20


class TestCesaroAverage:
    def test_identity_stationary_immediately(self):
        rng = np.random.default_rng(63)
        q = random_quantum_density(2, rng)
        result = cesaro_average(MarkovChain(operator=identity_operator(2), start=q))
        assert result.iterations == 0
        np.testing.assert_allclose(result.average, q, atol=1e-14)

    def test_phase_unitary_pinches(self):
        u = np.diag([1.0, np.exp(1j * 2.39996)])
        chain = MarkovChain(
            operator=from_unitary(u), start=pure_state(np.array([1.0, 1.0]) / np.sqrt(2))
        )
        result = cesaro_average(chain, tol=1e-8)
        np.testing.assert_allclose(result.average, np.diag([0.5, 0.5]), atol=1e-7)
        assert result.residual <= 1e-8
        assert np.trace(result.average).real == pytest.approx(1.0, abs=1e-10)

    def test_classical_period_two(self):
        chain = MarkovChain(
            operator=from_stochastic(np.array([[0.0, 1.0], [1.0, 0.0]])),
            start=np.diag([1.0, 0.0]),
        )
        result = cesaro_average(chain)
        np.testing.assert_allclose(result.average, np.diag([0.5, 0.5]), atol=1e-12)

    @pytest.mark.parametrize(
        "tol, max_doublings, message",
        [
            (float("nan"), 40, "tol must be positive"),
            (0.0, 40, "tol must be positive"),
            (-1e-8, 40, "tol must be positive"),
            (1e-8, -1, "max_doublings must be nonnegative"),
        ],
    )
    def test_arguments_that_cannot_succeed_rejected(self, tol, max_doublings, message):
        # the identity chain is stationary at once, so only the argument check can fail
        chain = MarkovChain(operator=identity_operator(2), start=np.diag([0.3, 0.7]))
        with pytest.raises(ValueError, match=message):
            cesaro_average(chain, tol=tol, max_doublings=max_doublings)
        with pytest.raises(ValueError, match=message):
            functional_average(chain, np.eye(2), tol=tol, max_doublings=max_doublings)
        assert cesaro_average(chain, tol=1e-8, max_doublings=0).iterations == 0

    def test_unbounded_chain_errors(self):
        chain = MarkovChain(
            operator=off_diagonal_amplifier(1.1),
            start=pure_state(np.array([1.0, 1.0]) / np.sqrt(2)),
        )
        with pytest.raises(ConvergenceError):
            cesaro_average(chain, tol=1e-8, max_doublings=30)

    def test_jordan_block_stochastic_errors(self):
        # column sums are 1 but the matrix is a defective eigenvalue-1 block,
        # so averages drift forever
        chain = MarkovChain(
            operator=from_stochastic(np.array([[2.0, 1.0], [-1.0, 0.0]])),
            start=np.diag([1.0, 0.0]),
        )
        with pytest.raises(ConvergenceError):
            cesaro_average(chain, tol=1e-8, max_doublings=40)

    def test_jordan_block_with_mixing_rest_errors(self):
        # at horizons near 2^27 rounding can cancel the residual of the tail
        # average (steps t+1..2t) of this drifting chain; the tail must also
        # have stopped moving before it is accepted
        n = 8
        accepted = []
        for seed in range(120):
            rng = np.random.default_rng(seed)
            m = np.zeros((n, n))
            m[:2, :2] = [[2.0, 1.0], [-1.0, 0.0]]
            rest = rng.random((n - 2, n - 2)) + 0.05
            m[2:, 2:] = rest / rest.sum(axis=0)
            start = np.diag(rng.dirichlet(np.ones(n))).astype(complex)
            try:
                cesaro_average(MarkovChain(operator=from_stochastic(m), start=start))
            except ConvergenceError:
                continue
            accepted.append(seed)
        assert accepted == []

    @pytest.mark.parametrize("n", [4, 8])
    @pytest.mark.parametrize("seed", range(3))
    def test_primitive_channel_exits_early(self, n, seed):
        rng = np.random.default_rng(1000 * n + seed)
        op = from_kraus(random_kraus_family(rng, n, 2))
        q = random_quantum_density(n, rng)
        result = cesaro_average(MarkovChain(operator=op, start=q), tol=1e-8)
        assert result.residual <= 1e-8
        assert result.iterations <= 2**10
        # independent oracle: burn in, then average a long stretch of steps
        k = op.matrix
        c = coords(q)
        for _ in range(2000):
            c = k @ c
        total = np.zeros_like(c)
        for _ in range(1000):
            c = k @ c
            total += c
        assert np.abs(coords(result.average) - total / 1000).max() <= 1e-7

    def test_period_two_permutation_keeps_plain_average(self):
        rng = np.random.default_rng(71)
        perm = np.eye(4)[[1, 0, 3, 2]]
        op = from_unitary(perm)
        q = random_quantum_density(4, rng)
        result = cesaro_average(MarkovChain(operator=op, start=q))
        assert result.iterations == 2
        np.testing.assert_allclose(result.average, (q + perm @ q @ perm.T) / 2, atol=1e-14)

    def test_residual_drops_below_target(self):
        # doubling residuals computed by an independent partial-sum loop
        rng = np.random.default_rng(64)
        op = from_kraus(random_kraus_family(rng, 2, 2))
        q = random_quantum_density(2, rng)
        k = op.matrix
        c0 = coords(q)
        residuals = []
        s = k.copy()
        t_mat = k.copy()
        t = 1
        for _ in range(25):
            avg = s @ c0 / t
            residuals.append(float(np.linalg.norm(k @ avg - avg)))
            s = s + t_mat @ s
            t_mat = t_mat @ t_mat
            t *= 2
        tail = residuals[5:]
        assert all(b <= a * 1.01 for a, b in zip(tail, tail[1:]))
        assert residuals[-1] < 1e-6

    def test_quantum_closure(self):
        rng = np.random.default_rng(65)
        op = from_kraus(random_kraus_family(rng, 3, 2))
        q = random_quantum_density(3, rng)
        result = cesaro_average(MarkovChain(operator=op, start=q))
        assert is_nonnegative(result.average, 1e-9)


def _doubling_oracle(chain: MarkovChain, tol: float = 1e-8, max_doublings: int = 40):
    """Cesaro averages by superoperator doubling from t = 1, with the same checks as cesaro_average."""
    k = chain.operator.matrix
    n = chain.operator.n
    c0 = coords(chain.start)

    partial = k @ c0
    residual = float(np.linalg.norm(partial - c0))
    if residual <= tol:
        return qchain.CesaroResult(average=np.array(chain.start), iterations=0, residual=residual)

    t_mat = k.copy()
    t = 1
    previous_tail = None
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(max_doublings + 1):
            avg = qchain._unit_trace(partial / t, n)
            residual = float(np.linalg.norm(k @ avg - avg))
            if not np.isfinite(residual):
                raise ConvergenceError(
                    f"averages diverged after {t} steps; the chain appears unbounded"
                )
            if residual <= tol:
                return qchain.CesaroResult(average=from_coords(avg), iterations=t, residual=residual)
            shifted = t_mat @ partial
            tail = qchain._unit_trace(shifted / t, n)
            tail_residual = float(np.linalg.norm(k @ tail - tail))
            if (
                tail_residual <= tol
                and previous_tail is not None
                and float(np.linalg.norm(tail - previous_tail)) <= tol
            ):
                return qchain.CesaroResult(average=from_coords(tail), iterations=2 * t, residual=tail_residual)
            previous_tail = tail
            partial += shifted
            t_mat = t_mat @ t_mat
            t *= 2
    raise ConvergenceError(
        f"stationarity residual {residual:.3e} still above {tol:.1e} after "
        f"{max_doublings} doublings (t = {t // 2}); the chain may be unbounded"
    )


def _jordan_trap(seed: int, n: int = 8) -> MarkovChain:
    """A defective eigenvalue-1 block next to a mixing column-stochastic rest."""
    rng = np.random.default_rng(seed)
    m = np.zeros((n, n))
    m[:2, :2] = [[2.0, 1.0], [-1.0, 0.0]]
    rest = rng.random((n - 2, n - 2)) + 0.05
    m[2:, 2:] = rest / rest.sum(axis=0)
    return MarkovChain(operator=from_stochastic(m), start=np.diag(rng.dirichlet(np.ones(n))).astype(complex))


def _agreement_chain(seed: int) -> MarkovChain:
    """Seeded chain of one of four kinds: Kraus form, operator matrix, stochastic or unitary."""
    rng = np.random.default_rng(5000 + seed)
    n = int(rng.integers(2, 21))
    kind = seed % 4
    if kind == 0:
        op = from_kraus(random_kraus_family(rng, n, int(rng.integers(1, 4))))
    elif kind == 1:
        op = MarkovOperator(n=n, matrix=kraus_superop(random_kraus_family(rng, n, int(rng.integers(1, 4)))))
    elif kind == 2:
        m = rng.random((n, n)) ** 4
        op = from_stochastic(m / m.sum(axis=0))
    else:
        op = from_unitary(random_unitary(rng, n))
    return MarkovChain(operator=op, start=random_quantum_density(n, rng))


class TestSteppedPhaseAgreement:
    """The stepped phase and its hand-off reproduce plain doubling up to the last digits."""

    @staticmethod
    def _assert_agree(chain: MarkovChain, **kwargs):
        try:
            expected = _doubling_oracle(chain, **kwargs)
        except ConvergenceError as exc:
            with pytest.raises(ConvergenceError) as raised:
                cesaro_average(chain, **kwargs)
            assert str(raised.value) == str(exc)
            return
        result = cesaro_average(chain, **kwargs)
        assert result.iterations == expected.iterations
        assert np.abs(result.average - expected.average).max() <= 1e-12

    @pytest.mark.parametrize("seed", range(60))
    def test_matches_doubling(self, seed):
        # every kind runs with max_doublings 12 and with values cycling through
        # 0..12, so runs end on both sides of the hand-off at 2t > n^2
        max_doublings = seed % 13 if (seed // 4) % 2 else 12
        self._assert_agree(_agreement_chain(seed), tol=1e-8, max_doublings=max_doublings)

    @pytest.mark.parametrize("seed", range(0, 120, 8))
    def test_jordan_trap_error_text(self, seed):
        self._assert_agree(_jordan_trap(seed), tol=1e-8, max_doublings=40)


def _phase_unitary(rng: np.random.Generator, n: int, kind: int):
    """(U, V) with U = V diag(exp(i phases)) V* for seeded phases.

    kind 0 draws uniform phases, kind 1 phases at least pi/n apart, kind 2
    degenerate phases of period 2, 3 or 4.
    """
    v = random_unitary(rng, n)
    if kind == 0:
        phases = rng.uniform(0.0, 2 * np.pi, n)
    elif kind == 1:
        phases = 2 * np.pi * (np.arange(n) + rng.uniform(0.0, 0.5, n)) / n
    else:
        period = int(rng.integers(2, 5))
        phases = 2 * np.pi * rng.integers(0, period, n) / period
    return (v * np.exp(1j * phases)) @ v.conj().T, v


class TestUnitaryEigenbasis:
    """A certified eigenbasis turns unitary Cesaro sums elementwise; the checks stay those of cesaro_average."""

    @pytest.mark.parametrize("seed", range(60))
    def test_iterations_match_doubling(self, seed):
        rng = np.random.default_rng(9000 + seed)
        n = int(rng.integers(2, 13))
        u, _ = _phase_unitary(rng, n, seed % 3)
        q = random_quantum_density(n, rng)
        # as in TestSteppedPhaseAgreement, half the seeds cycle max_doublings
        # through 0..12; the other half get the default horizon and converge
        kwargs = {"tol": 1e-8, "max_doublings": seed % 13 if (seed // 4) % 2 else 40}
        assert qchain._eigenbasis(u) is not None
        op = from_unitary(u)
        try:
            expected = _doubling_oracle(MarkovChain(operator=from_unitary(u), start=q), **kwargs)
        except ConvergenceError as exc:
            with pytest.raises(ConvergenceError) as raised:
                cesaro_average(MarkovChain(operator=op, start=q), **kwargs)
            assert str(raised.value) == str(exc)
        else:
            result = cesaro_average(MarkovChain(operator=op, start=q), **kwargs)
            assert result.iterations == expected.iterations
            assert result.residual <= 1e-8
            # both are stationary within tol; neither is closer to the limit than the spectrum allows
            assert np.abs(result.average - expected.average).max() <= 1e-7
        assert "matrix" not in op.__dict__

    @pytest.mark.parametrize("seed", range(40))
    def test_no_farther_from_the_pinching_than_doubling(self, seed):
        rng = np.random.default_rng(9500 + seed)
        n = int(rng.integers(2, 13))
        u, v = _phase_unitary(rng, n, 1)
        q = random_quantum_density(n, rng)
        # distinct eigenvalues: the limit keeps the diagonal of V* P V
        pinching = (v * np.diagonal(v.conj().T @ q @ v).real) @ v.conj().T
        result = cesaro_average(MarkovChain(operator=from_unitary(u), start=q))
        expected = _doubling_oracle(MarkovChain(operator=from_unitary(u), start=q))
        assert result.iterations == expected.iterations
        assert np.linalg.norm(result.average - pinching) <= np.linalg.norm(expected.average - pinching)

    @pytest.mark.parametrize("seed", range(4))
    def test_colliding_values_fall_back(self, seed, monkeypatch):
        # Re(lam) + c Im(lam) = sqrt(1 + c^2) cos(theta - atan(c)) takes one
        # value at theta = atan(c) +- 1, so eigh mixes those two eigenvectors
        rng = np.random.default_rng(9900 + seed)
        v = random_unitary(rng, 4)
        phases = np.arctan(qchain.EIGEN_MIX) + np.array([1.0, -1.0, 2.5, -2.2])
        u = (v * np.exp(1j * phases)) @ v.conj().T
        q = random_quantum_density(4, rng)
        assert qchain._eigenbasis(u) is None
        op = from_unitary(u)
        result = cesaro_average(MarkovChain(operator=op, start=q))
        assert "matrix" in op.__dict__  # the doubling fallback ran
        expected = _doubling_oracle(MarkovChain(operator=from_unitary(u), start=q))
        assert result.iterations == expected.iterations
        assert np.abs(result.average - expected.average).max() <= 1e-12
        monkeypatch.setattr(qchain, "_eigenbasis", lambda u: None)
        unchanged = cesaro_average(MarkovChain(operator=from_unitary(u), start=q))
        assert unchanged.iterations == result.iterations
        np.testing.assert_array_equal(unchanged.average, result.average)

    @pytest.mark.parametrize("cycles", [(2,), (2, 2), (4,), (4, 2, 1), (8,), (4, 4, 2)])
    def test_power_of_two_permutations_stay_exact(self, cycles, monkeypatch):
        # stepping a permutation is exact, and a period max(cycles) <= n is
        # reached while the eigenbasis route still steps (t <= n)
        n = sum(cycles)
        perm = np.concatenate([np.roll(np.arange(c), 1) + sum(cycles[:i]) for i, c in enumerate(cycles)])
        u = np.eye(n)[perm]
        q = random_quantum_density(n, np.random.default_rng(n))
        assert qchain._eigenbasis(u) is not None
        result = cesaro_average(MarkovChain(operator=from_unitary(u), start=q))
        assert result.iterations == max(cycles)
        monkeypatch.setattr(qchain, "_eigenbasis", lambda u: None)
        stepped = cesaro_average(MarkovChain(operator=from_unitary(u), start=q))
        assert stepped.iterations == result.iterations
        np.testing.assert_array_equal(result.average, stepped.average)

    def test_superoperator_never_formed(self):
        # the benchmark's unitary size, ~2^26 steps, and a one-matrix Kraus family
        rng = np.random.default_rng(9950)
        u, _ = _phase_unitary(rng, 16, 1)
        for op in (from_unitary(u), from_kraus([u])):
            result = cesaro_average(MarkovChain(operator=op, start=random_quantum_density(16, rng)))
            assert result.iterations >= 2**20 and result.residual <= 1e-8
            assert "matrix" not in op.__dict__

    def test_walk_on_disjoint_cycles(self):
        # the shift on two 24-cycles has every eigenvalue twice; each node
        # of a cycle gets that cycle's block trace of P over its length
        cycles = DirectedGraph(48, tuple((c + k, c + (k + 1) % 24) for c in (0, 24) for k in range(24)))
        op = from_unitary(shift_unitary(cycles))
        q = random_quantum_density(48, np.random.default_rng(9960))
        dist = limiting_node_distribution(cycles, op, q)
        masses = np.diagonal(q).real.reshape(2, 24).sum(axis=1) / 24
        np.testing.assert_allclose(dist, np.repeat(masses, 24), rtol=0, atol=1e-9)
        assert "matrix" not in op.__dict__

    @pytest.mark.parametrize("seed", range(20))
    def test_sum_trace_exact_after_many_doublings(self, seed):
        # the diagonal of z = lam lam* is exactly 1, so the diagonal of S_t in
        # the eigenbasis only doubles and tr(S_t P) / t stays 1 at t = 2^40
        rng = np.random.default_rng(9970 + seed)
        u, _ = _phase_unitary(rng, 3, 1)
        q = random_quantum_density(3, rng)
        sums = qchain._eigenbasis_window_sums(*qchain._eigenbasis(u), u @ q @ u.conj().T, 1)
        ((t, partial, _),) = islice(sums, 40, 41)
        assert t == 2**40
        assert abs(partial[:3].sum() / t - 1) <= 1e-14


class TestKrausTrajectories:
    """Trajectories of a Kraus-form operator step its stack and never form the superoperator."""

    GRAPH = DirectedGraph(node_count=3, edges=((0, 1), (1, 2), (2, 0)))

    @pytest.mark.parametrize("steps", [5, 9, 10, 40])  # n^2 = 9; the dense path blocks from 10 on
    @pytest.mark.parametrize("seed", range(3))
    def test_agrees_with_dense_operator(self, seed, steps):
        rng = np.random.default_rng([120, seed])
        mats = random_kraus_family(rng, 3, 2 + seed)
        op, dense = from_kraus(mats), MarkovOperator(n=3, matrix=kraus_superop(mats))
        q = random_quantum_density(3, rng)
        chain, dense_chain = MarkovChain(operator=op, start=q), MarkovChain(operator=dense, start=q)
        densities = evolve(chain, steps)
        np.testing.assert_allclose(densities, evolve(dense_chain, steps), rtol=0, atol=1e-12)
        np.testing.assert_array_equal(densities[0], q)
        purities = np.sort([np.trace(d @ d).real for d in densities])
        gap = int(np.argmax(np.diff(purities)))
        bound = float(purities[gap : gap + 2].mean())  # between two purities, far from both
        report, expected = boundedness_probe(chain, steps, bound), boundedness_probe(dense_chain, steps, bound)
        assert report.max_value == pytest.approx(expected.max_value, rel=0, abs=1e-12)
        assert report.first_exceeded == expected.first_exceeded
        probabilities = walk(self.GRAPH, op, q, steps).node_probabilities
        np.testing.assert_allclose(probabilities, walk(self.GRAPH, dense, q, steps).node_probabilities, atol=1e-12)
        assert "matrix" not in op.__dict__

    @pytest.mark.parametrize("form", ["kraus", "unitary", "dense"])
    def test_first_step_is_apply(self, form):
        rng = np.random.default_rng(121)
        mats = [random_unitary(rng, 4)] if form == "unitary" else random_kraus_family(rng, 4, 3)
        op = MarkovOperator(n=4, matrix=kraus_superop(mats)) if form == "dense" else from_kraus(mats)
        q = random_quantum_density(4, rng)
        np.testing.assert_array_equal(evolve(MarkovChain(operator=op, start=q), 1)[1], apply(op, q))


class TestSharedOrbit:
    """Images, paths and Cesaro sums step through one generator, so their first steps agree to the bit."""

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("form", ["dense", "kraus", "unitary"])
    def test_first_step_agrees_to_the_bit(self, form, seed):
        rng = np.random.default_rng([122, seed])
        mats = [random_unitary(rng, 4)] if form == "unitary" else random_kraus_family(rng, 4, 2)
        op = MarkovOperator(n=4, matrix=kraus_superop(mats)) if form == "dense" else from_kraus(mats)
        c0 = coords(random_quantum_density(4, rng))
        image = _image(op, c0)
        np.testing.assert_array_equal(next(qchain._path_blocks(op, c0, 1))[1], image)
        t, partial, _ = next(qchain._window_sums(op, c0))
        assert t == 1
        np.testing.assert_array_equal(partial, image)


class TestStationarity:
    def test_identity(self):
        rng = np.random.default_rng(66)
        q = random_quantum_density(2, rng)
        assert is_stationary(MarkovChain(operator=identity_operator(2), start=q), tol=1e-12)

    def test_swap_not_stationary(self):
        chain = MarkovChain(operator=from_unitary(SIGMA_X), start=np.diag([1.0, 0.0]))
        assert not is_stationary(chain, tol=1e-8)

    def test_cesaro_average_is_stationary(self):
        rng = np.random.default_rng(67)
        op = from_kraus(random_kraus_family(rng, 2, 2))
        chain = MarkovChain(operator=op, start=random_quantum_density(2, rng))
        result = cesaro_average(chain, tol=1e-9)
        assert is_stationary(MarkovChain(operator=op, start=result.average), tol=1e-9)


class TestFunctionalAverage:
    def test_identity_functional(self):
        rng = np.random.default_rng(68)
        op = from_kraus(random_kraus_family(rng, 2, 2))
        chain = MarkovChain(operator=op, start=random_quantum_density(2, rng))
        assert functional_average(chain, np.eye(2)) == pytest.approx(1.0, abs=1e-9)

    def test_period_two_projector(self):
        chain = MarkovChain(
            operator=from_stochastic(np.array([[0.0, 1.0], [1.0, 0.0]])),
            start=np.diag([1.0, 0.0]),
        )
        assert functional_average(chain, np.diag([1.0, 0.0])) == pytest.approx(0.5, abs=1e-10)

    def test_matches_running_average(self):
        rng = np.random.default_rng(69)
        op = from_kraus(random_kraus_family(rng, 3, 2))
        q = random_quantum_density(3, rng)
        x = random_hermitian(rng, 3)
        chain = MarkovChain(operator=op, start=q)
        value = functional_average(chain, x)
        # brute-force running mean over 10^4 steps
        k = op.matrix
        xc = coords(x)
        c = coords(q)
        total = 0.0
        for _ in range(10_000):
            c = k @ c
            total += float(xc @ c)
        assert value == pytest.approx(total / 10_000, abs=1e-3)


class TestUnitaryVectorAverage:
    def test_identity(self):
        v = np.array([1.0, 2.0j, -0.5])
        np.testing.assert_allclose(unitary_vector_average(np.eye(3), v, 100), v, atol=1e-12)

    def test_negated_identity_cancels(self):
        v = np.array([0.3, 0.8 - 0.1j])
        avg = unitary_vector_average(-np.eye(2), v, 1000)
        assert np.abs(avg).max() <= 1e-14

    def test_phase_decay(self):
        u = np.diag([np.exp(1j * np.pi / np.sqrt(2)), np.exp(1j)])
        v = np.array([1.0, 1.0]) / np.sqrt(2)
        t = 10_000
        avg = unitary_vector_average(u, v, t)
        assert np.linalg.norm(avg) <= 1e-3
        # closed-form geometric sum oracle per component
        for j, theta in enumerate((np.pi / np.sqrt(2), 1.0)):
            z = np.exp(1j * theta)
            expected = v[j] * z * (z**t - 1.0) / (z - 1.0) / t
            assert avg[j] == pytest.approx(expected, abs=1e-9)

    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError, match="not unitary"):
            unitary_vector_average(np.diag([1.0, 2.0]), np.ones(2), 10)

    @pytest.mark.parametrize("steps", [1, 2, 7, 100])
    @pytest.mark.parametrize("seed", range(3))
    def test_equals_step_loop(self, seed, steps):
        rng = np.random.default_rng([123, seed])
        u = random_unitary(rng, 5)
        v = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        np.testing.assert_array_equal(unitary_vector_average(u, v, steps), _vector_average_loop(u, v, steps))


def _vector_average_loop(u, v, steps):
    """Former unitary_vector_average: one mat-vec and one addition per step."""
    acc = np.zeros_like(v)
    w = v
    for _ in range(steps):
        w = u @ w
        acc += w
    return acc / steps


class TestContrast:
    def test_density_average_converges_but_vector_average_shrinks(self):
        u = np.diag([np.exp(1j * np.pi / np.sqrt(2)), np.exp(1j)])
        v = np.array([1.0, 1.0]) / np.sqrt(2)
        vec_avg = unitary_vector_average(u, v, 10_000)
        assert np.linalg.norm(vec_avg) <= 1e-3
        chain = MarkovChain(operator=from_unitary(u), start=pure_state(v))
        result = cesaro_average(chain, tol=1e-8)
        assert result.residual <= 1e-8
        assert np.trace(result.average).real == pytest.approx(1.0, abs=1e-10)
        assert is_nonnegative(result.average, 1e-9)


class TestChainValidation:
    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            MarkovChain(operator=identity_operator(2), start=np.eye(3) / 3)

    def test_trace_checked(self):
        with pytest.raises(ValueError, match="trace 1"):
            MarkovChain(operator=identity_operator(2), start=np.eye(2))


def _step_loop(k: np.ndarray, c: np.ndarray, steps: int) -> np.ndarray:
    """Coordinates of K^t c for t = 0..steps, one mat-vec per step."""
    rows = [c]
    for _ in range(steps):
        c = k @ c
        rows.append(c)
    return np.array(rows)


class TestPathBlocks:
    """The path kernel steps until steps > n^2 and steps >= PATH_BLOCK, then multiplies blocks."""

    @pytest.mark.parametrize("block", [2, 4, 8])
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_matches_step_loop(self, monkeypatch, block, n):
        monkeypatch.setattr(qchain, "PATH_BLOCK", block)
        rng = np.random.default_rng([80, n, block])
        op = MarkovOperator(n=n, matrix=kraus_superop(random_kraus_family(rng, n, 2)))
        q = random_quantum_density(n, rng)
        for steps in (n * n, n * n + 1, 3 * block + 5):
            expected = _step_loop(op.matrix, coords(q), steps)
            blocks = [b.copy() for b in qchain._path_blocks(op, coords(q), steps)]
            assert all(1 <= len(b) <= block for b in blocks)
            path = np.concatenate(blocks)
            densities = evolve(MarkovChain(operator=op, start=q), steps)
            assert path.shape == (steps + 1, n * n)
            assert densities.shape == (steps + 1, n, n)
            np.testing.assert_array_equal(path[:block], expected[:block])
            if steps > n * n and steps >= block:
                np.testing.assert_allclose(path, expected, rtol=0, atol=1e-12)
                np.testing.assert_allclose(densities, from_coords(expected), rtol=0, atol=1e-12)
                np.testing.assert_array_equal(densities[1:], from_coords(path[1:]))
            else:
                np.testing.assert_array_equal(path, expected)
                np.testing.assert_array_equal(densities[1:], from_coords(expected[1:]))

    def test_rejects_negative_steps(self):
        with pytest.raises(ValueError, match="nonnegative"):
            evolve(MarkovChain(operator=identity_operator(2), start=np.eye(2) / 2), -3)

    def test_negative_steps_raise_at_the_first_block(self):
        blocks = qchain._path_blocks(identity_operator(2), coords(np.eye(2) / 2), -1)
        with pytest.raises(ValueError, match="steps must be nonnegative"):
            next(blocks)

    def test_probe_reads_squared_norms_of_the_path(self):
        # horizon 60 > n^2 = 4 and >= PATH_BLOCK: the probe reads blocked rows
        chain = MarkovChain(
            operator=off_diagonal_amplifier(1.1),
            start=pure_state(np.array([1.0, 1.0]) / np.sqrt(2)),
        )
        values = (_step_loop(chain.operator.matrix, coords(chain.start), 60) ** 2).sum(axis=1)
        report = boundedness_probe(chain, horizon=60, bound=10.0)
        assert report.max_value == pytest.approx(values.max(), rel=1e-12)
        assert report.first_exceeded == int(np.flatnonzero(values > 10.0)[0])


def _low_rank(n: int, rank: int, seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """The dense matrix of a seeded Kraus family of ``rank`` matrices on H_n, and a start density."""
    rng = np.random.default_rng([140, n, rank, seed])
    return kraus_superop(random_kraus_family(rng, n, rank)), random_quantum_density(n, rng)


def _refused(kind: str, n: int) -> np.ndarray:
    """A trace-preserving dense matrix that ``_recover_kraus`` must refuse."""
    rng = np.random.default_rng([141, n])
    if kind == "stochastic":  # Choi rank n^2
        m = rng.random((n, n))
        return diagonal_superop(m / m.sum(axis=0))
    if kind == "jordan":  # a negative entry: not completely positive
        m = np.zeros((n, n))
        m[:2, :2] = [[2.0, 1.0], [-1.0, 0.0]]
        rest = rng.random((n - 2, n - 2)) + 0.05
        m[2:, 2:] = rest / rest.sum(axis=0)
        return diagonal_superop(m)
    if kind == "random":
        k = 0.5 * rng.standard_normal((n * n, n * n)) / n
        k[0] = (np.arange(n * n) < n) - k[1:n].sum(axis=0)  # the basis traces: 1 for E_jj, else 0
        return k
    k = kraus_superop(random_kraus_family(rng, n, 2))  # rank 2, perturbed off the trace rows
    k[n:] += 1e-8 * rng.standard_normal((n * n - n, n * n))
    return k


def _path(op: MarkovOperator, c0: np.ndarray, steps: int) -> np.ndarray:
    return np.concatenate([block.copy() for block in qchain._path_blocks(op, c0, steps)])


class TestRecoveredKraus:
    """A dense operator of low Choi rank steps as its recovered Kraus stack where the cost rule picks it.

    The dense route is forced by a recovery that returns None.
    """

    @staticmethod
    def _dense_route(monkeypatch, call):
        with monkeypatch.context() as patch:
            patch.setattr(qoperators, "_recover_kraus", lambda k, n: None)
            return call()

    @pytest.mark.parametrize("rank", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("n", [4, 8, 20])
    def test_recovers_the_stack(self, n, rank):
        matrix, _ = _low_rank(n, rank)
        stack = _recover_kraus(matrix, n)
        assert stack.shape == (rank, n, n) and not stack.flags.writeable
        np.testing.assert_allclose(kraus_superop(stack), matrix, rtol=0, atol=1e-13)

    def test_no_gap_past_the_probes(self):
        matrix, _ = _low_rank(20, qoperators.RECOVERY_PROBES)
        assert _recover_kraus(matrix, 20) is None

    def test_check_catches_what_the_probes_miss(self):
        # a traceless change in a column whose pair the probes do not read leaves
        # their core of rank 2; only the check on coordinate probes sees it
        n = 24
        matrix, _ = _low_rank(n, 2)
        rng = np.random.default_rng(qoperators.RECOVERY_SEED)
        probed = rng.choice(n, size=qoperators.RECOVERY_PROBES, replace=False)
        j, k = np.setdiff1d(np.arange(n), probed)[:2]
        matrix[n:, n + 2 * (j * (2 * n - j - 1) // 2 + k - j - 1)] += 1e-6
        assert _recover_kraus(matrix, n) is None

    @pytest.mark.parametrize("rank", [1, 2, 3, 4])
    @pytest.mark.parametrize("n", [20, 24, 32])
    def test_path_agrees_with_the_dense_route(self, monkeypatch, n, rank):
        matrix, q = _low_rank(n, rank)
        steps = 2 * n * n + 5  # past n^2, so the dense route multiplies blocks
        op = MarkovOperator(n=n, matrix=matrix)
        path = _path(op, coords(q), steps)
        if n < 24:  # the cost rule keeps it dense without trying
            assert "_recovered_kraus" not in op.__dict__
        else:
            assert len(op._recovered_kraus) == rank and op.kraus is None
        dense = self._dense_route(monkeypatch, lambda: _path(MarkovOperator(n=n, matrix=matrix), coords(q), steps))
        np.testing.assert_allclose(path, dense, rtol=0, atol=1e-12)

    def test_path_agrees_at_n48(self, monkeypatch):
        matrix, q = _low_rank(48, 2)
        op = MarkovOperator(n=48, matrix=matrix)
        path = _path(op, coords(q), 100)
        assert len(op._recovered_kraus) == 2
        dense = self._dense_route(monkeypatch, lambda: _path(MarkovOperator(n=48, matrix=matrix), coords(q), 100))
        np.testing.assert_allclose(path, dense, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("rank", [1, 2, 3, 4])
    @pytest.mark.parametrize("n", [20, 24, 32])
    def test_cesaro_agrees_with_the_dense_route(self, monkeypatch, n, rank):
        matrix, q = _low_rank(n, rank)
        op = MarkovOperator(n=n, matrix=matrix)
        result = cesaro_average(MarkovChain(operator=op, start=q))
        assert ("_recovered_kraus" in op.__dict__) == (n >= 24)
        dense = self._dense_route(
            monkeypatch, lambda: cesaro_average(MarkovChain(operator=MarkovOperator(n=n, matrix=matrix), start=q))
        )
        assert result.iterations == dense.iterations
        np.testing.assert_allclose(result.average, dense.average, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("kind", ["stochastic", "jordan", "random", "perturbed"])
    def test_refused_matrix_steps_densely_bit_for_bit(self, monkeypatch, kind):
        n = 24
        matrix = _refused(kind, n)
        c0 = coords(random_quantum_density(n, np.random.default_rng(142)))
        op = MarkovOperator(n=n, matrix=matrix)
        path = _path(op, c0, 300)
        assert op._recovered_kraus is None
        dense = self._dense_route(monkeypatch, lambda: _path(MarkovOperator(n=n, matrix=matrix), c0, 300))
        np.testing.assert_array_equal(path, dense)

    def test_cost_rule(self):
        matrix, _ = _low_rank(16, 2)
        op = MarkovOperator(n=16, matrix=matrix)
        assert _stepping_kraus(op, 10**9) is None  # n <= 16 steps its matrix, however long the path
        assert "_recovered_kraus" not in op.__dict__
        matrix, _ = _low_rank(24, 2)
        op = MarkovOperator(n=24, matrix=matrix)
        assert _stepping_kraus(op, 40) is None and "_recovered_kraus" not in op.__dict__
        assert _stepping_kraus(op, 24 * 24) is op._recovered_kraus is not None
        kraus = from_kraus(random_kraus_family(np.random.default_rng(143), 3, 2))
        assert _stepping_kraus(kraus, 0) is kraus.kraus

    def test_rerouted_run_forms_no_superoperator(self, monkeypatch):
        matrix, q = _low_rank(24, 2)
        op = MarkovOperator(n=24, matrix=matrix)

        def refuse(family):
            raise AssertionError("a superoperator was formed")

        monkeypatch.setattr(qoperators, "kraus_superop", refuse)
        _path(op, coords(q), 300)
        cesaro_average(MarkovChain(operator=op, start=q))
        assert op._recovered_kraus is not None

    def test_recovery_peak_below_half_the_matrix(self):
        matrix, _ = _low_rank(24, 2)
        tracemalloc.start()
        try:
            stack = _recover_kraus(matrix, 24)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert stack is not None
        assert peak < matrix.nbytes / 2
