"""Acceptance suite: one test per shipped guarantee, at its stated tolerance.

Each test prints a single pass/fail line (visible with ``pytest -s`` or in
failure reports), so the suite doubles as a checklist.
"""

import functools
import itertools
import json
import time

import numpy as np

from conftest import (
    hmm_word_probability_bruteforce,
    random_hermitian,
    random_hmm,
    random_kraus_family,
    random_oom,
    random_unitary,
)
from qmarkov import (
    HiddenStateSpace,
    InformationFunction,
    MarkovChain,
    MarkovState,
    ObservableOperatorModel,
    Scale,
    bell_check,
    cesaro_average,
    coords,
    feynman_state,
    from_kraus,
    from_stochastic,
    from_unitary,
    functional_average,
    hmm_to_oom,
    is_t_observable,
    is_trace_preserving,
    lift_hidden_states,
    limiting_node_distribution,
    min_eigenvalue,
    prediction_matrix,
    pure_state,
    random_quantum_density,
    shift_unitary,
    spectral_decompose,
    step_distribution,
    to_markov_measurement,
    unitary_vector_average,
    walk,
    word_probability,
)
from qmarkov.cli import run
from qmarkov.walk import DirectedGraph


def criterion(label):
    def decorate(func):
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            try:
                result = func(*args, **kwargs)
            except BaseException:
                print(f"[FAIL] {label}")
                raise
            print(f"[PASS] {label}")
            return result

        return wrapper

    return decorate


@criterion("criterion 1: five-state Bell violation via the CLI, under 10 ms")
def test_criterion_01_bell_five_state(capsys):
    run(["bell", "--builtin", "five-state"])  # warm-up
    capsys.readouterr()
    start = time.perf_counter()
    code = run(["bell", "--builtin", "five-state"])
    elapsed = time.perf_counter() - start
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert abs(out["e_xy"] - 1.0) <= 1e-12
    assert abs(out["e_yz"] + 1.0 / 3.0) <= 1e-12
    assert abs(out["e_xz"] - 1.0) <= 1e-12
    assert out["pairwise_observable"] is True
    assert out["jointly_observable"] is False
    assert out["satisfied"] is False
    assert elapsed < 0.010, f"took {elapsed * 1e3:.2f} ms"


@criterion("criterion 2: spin-average table point and normalization failure")
def test_criterion_02_feynman_point(capsys):
    state = feynman_state(0.5, 0.5, 0.5)
    expected = np.array([5 / 8, 1 / 8, 3 / 8, -1 / 8])
    assert np.abs(state.values - expected).max() <= 1e-12

    code = run(["feynman", "--sx", "0.5", "--sy", "0.5", "--sz", "0.5"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert np.abs(np.array(out["q"]) - expected).max() <= 1e-12

    code = run(["feynman", "--sx", "0.3", "--sy", "0.1", "--sz", "0.5"])
    err = capsys.readouterr().err
    assert code == 2
    assert "1.2" in err


@criterion("criterion 3: 1000 random nonnegative states never violate Bell")
def test_criterion_03_bell_property_suite():
    rng = np.random.default_rng(2024)
    start = time.perf_counter()
    for _ in range(1000):
        n = int(rng.integers(2, 9))
        space = HiddenStateSpace(states=tuple(range(n)))
        scale = Scale((-1, 1))
        funcs = [
            InformationFunction(
                space=space,
                scale=scale,
                values=tuple(int(v) for v in rng.choice([-1, 1], size=n)),
            )
            for _ in range(3)
        ]
        q = rng.random(n) + 1e-12
        state = MarkovState(space=space, values=q / q.sum())
        result = bell_check(funcs[0], funcs[1], funcs[2], state, tol=1e-12)
        assert result.satisfied
        assert result.jointly_observable
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"took {elapsed:.2f} s"


@criterion("criterion 4: Cesaro averages of 100 random Kraus channels")
def test_criterion_04_cesaro_random_channels():
    rng = np.random.default_rng(4242)
    start = time.perf_counter()
    brute_steps = 10_000
    for _ in range(100):
        n = int(rng.integers(2, 7))
        op = from_kraus(random_kraus_family(rng, n, int(rng.integers(2, 4))))
        density = random_quantum_density(n, rng)
        chain = MarkovChain(operator=op, start=density)
        result = cesaro_average(chain, tol=1e-8, max_doublings=40)
        assert result.residual <= 1e-8
        assert min_eigenvalue(result.average) >= -1e-9

        functional = random_hermitian(rng, n)
        value = functional_average(chain, functional, tol=1e-8, max_doublings=40)
        k = op.matrix
        xc = coords(functional)
        c = coords(density)
        total = 0.0
        for _ in range(brute_steps):
            c = k @ c
            total += float(xc @ c)
        assert abs(value - total / brute_steps) <= 1e-3
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"took {elapsed:.2f} s"


@criterion("criterion 5: wave-function averages vanish, density averages converge")
def test_criterion_05_contrast():
    u = np.diag([np.exp(1j * np.pi / np.sqrt(2)), np.exp(1j)])
    v = np.array([1.0, 1.0]) / np.sqrt(2)
    avg = unitary_vector_average(u, v, 10_000)
    assert np.linalg.norm(avg) <= 1e-3

    chain = MarkovChain(operator=from_unitary(u), start=pure_state(v))
    result = cesaro_average(chain, tol=1e-8, max_doublings=40)
    assert result.residual <= 1e-8
    assert abs(np.trace(result.average).real - 1.0) <= 1e-10
    assert min_eigenvalue(result.average) >= -1e-9


@criterion("criterion 6: three-cycle walk rotates exactly and averages to uniform")
def test_criterion_06_three_cycle_walk():
    graph = DirectedGraph(node_count=3, edges=((0, 1), (1, 2), (2, 0)))
    op = from_unitary(shift_unitary(graph))
    start = pure_state(np.eye(3)[0])
    trace = walk(graph, op, start, 100)
    for t, probs in enumerate(trace.node_probabilities):
        expected = np.zeros(3)
        expected[t % 3] = 1.0
        assert np.abs(probs - expected).max() <= 1e-12

    dist = limiting_node_distribution(graph, op, start, tol=1e-8, max_doublings=40)
    assert np.abs(dist - 1.0 / 3.0).max() <= 1e-8


@criterion("criterion 7: hidden-state lifts reproduce 100 random OOMs")
def test_criterion_07_lift_equivalence():
    rng = np.random.default_rng(777)
    for _ in range(100):
        m = int(rng.integers(1, 5))
        n_symbols = int(rng.integers(1, 4))
        symbols = tuple("abc"[:n_symbols])
        model = random_oom(rng, m, symbols)
        lift = lift_hidden_states(model)
        for length in range(6):
            for word in itertools.product(symbols, repeat=length):
                x = lift.pi
                for s in word:
                    x = lift.operator(s) @ x
                assert abs(float(x.sum()) - word_probability(model, word)) <= 1e-10

        t = 3
        dist = step_distribution(lift, t)
        for i, symbol in enumerate(model.scale):
            marginal = sum(
                word_probability(model, w + (symbol,))
                for w in itertools.product(symbols, repeat=t - 1)
            )
            assert abs(dist.values[i] - marginal) <= 1e-12


@criterion("criterion 8: HMM conversions match hidden-path enumeration")
def test_criterion_08_hmm_oracle():
    rng = np.random.default_rng(888)
    for _ in range(50):
        m = int(rng.integers(1, 5))
        symbols = tuple("ab" if rng.random() < 0.5 else "abc")
        t, emissions, pi = random_hmm(rng, m, symbols)
        model = hmm_to_oom(t, emissions, pi)
        for length in range(5):
            for word in itertools.product(symbols, repeat=length):
                oracle = hmm_word_probability_bruteforce(t, emissions, pi, word)
                assert abs(word_probability(model, word) - oracle) <= 1e-12
        _, rank = prediction_matrix(model, 3)
        assert rank <= m


@criterion("criterion 9: t-observability flips exactly at the first negative depth")
def test_criterion_09_observability_lemmas():
    shear = 2.0 / 7.0
    model = ObservableOperatorModel(
        scale=Scale(("a", "b")),
        operators=(
            np.array([[0.5, shear], [0.0, 0.5]]),
            np.array([[0.5, -shear], [0.0, 0.5]]),
        ),
        pi=np.array([0.5, 0.5]),
    )
    # independent oracle: brute-force word probabilities at every depth
    def depth_min(t: int) -> float:
        worst = np.inf
        for word in itertools.product(range(2), repeat=t):
            x = model.pi
            for s in word:
                x = model.operators[s] @ x
            worst = min(worst, float(x.sum()))
        return worst

    oracle_verdicts = [depth_min(t) >= -1e-12 for t in range(7)]
    t_star = oracle_verdicts.index(False)
    assert t_star == 4
    assert all(oracle_verdicts[:t_star])
    assert not any(oracle_verdicts[t_star:])

    meas = to_markov_measurement(model)
    density = np.diag(model.pi).astype(complex)
    for t in range(7):
        assert is_t_observable(meas, density, t, tol=1e-12) == oracle_verdicts[t]


@criterion("criterion 10: spectral floor and trace preservation of constructors")
def test_criterion_10_linear_algebra_floor():
    rng = np.random.default_rng(1010)
    for _ in range(1000):
        n = int(rng.integers(1, 33))
        q = random_hermitian(rng, n)
        dec = spectral_decompose(q)
        assert np.linalg.norm(dec.reconstruct() - q) <= 1e-10
        gram = dec.eigenvectors.conj().T @ dec.eigenvectors
        assert np.linalg.norm(gram - np.eye(n)) <= 1e-10

    for _ in range(50):
        n = int(rng.integers(1, 7))
        ops = [
            from_kraus(random_kraus_family(rng, n, int(rng.integers(1, 5)))),
            from_unitary(random_unitary(rng, n)),
        ]
        m = rng.standard_normal((n, n))
        m += (1.0 - m.sum(axis=0)) / n
        ops.append(from_stochastic(m))
        for op in ops:
            assert is_trace_preserving(op, 1e-10)
