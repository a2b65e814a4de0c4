import dataclasses
import itertools

import numpy as np
import pytest

from qmarkov import (
    BellCheckResult,
    HiddenStateSpace,
    InformationFunction,
    MarkovState,
    OutcomeDistribution,
    Scale,
    bell_check,
    diagonal_povm,
    expectation,
    feynman_state,
    five_state_example,
    is_jointly_observable,
    joint,
    observe_distribution,
    outcome_distribution,
    product_expectation,
    raw_moment,
)
from qmarkov.hermitian import BELL_TOL, SIGN_TOL, _require_tol
from qmarkov.hidden import _numeric_values, _pm_one_values, _require_same_space
from qmarkov.measurement import _diagonal_projectors, _label_sums

FEYNMAN_SPACE = HiddenStateSpace(states=("++", "+-", "-+", "--"))
X_SIGN = InformationFunction(
    space=FEYNMAN_SPACE, scale=Scale(("+", "-")), values=("+", "+", "-", "-")
)
Z_SIGN = InformationFunction(
    space=FEYNMAN_SPACE, scale=Scale(("+", "-")), values=("+", "-", "+", "-")
)


def random_pm_table(rng, n_states, n_funcs):
    space = HiddenStateSpace(states=tuple(f"s{i}" for i in range(n_states)))
    scale = Scale((-1, 1))
    funcs = [
        InformationFunction(
            space=space,
            scale=scale,
            values=tuple(int(v) for v in rng.choice([-1, 1], size=n_states)),
        )
        for _ in range(n_funcs)
    ]
    q = rng.random(n_states) + 1e-9
    q = q / q.sum()
    return space, funcs, MarkovState(space=space, values=q)


class TestObserveDistribution:
    def test_feynman_first_sign(self):
        state = feynman_state(0.5, 0.5, 0.5)
        dist = observe_distribution(X_SIGN, state)
        assert dist.value("+") == pytest.approx(6 / 8, abs=1e-12)
        assert dist.value("-") == pytest.approx(2 / 8, abs=1e-12)
        assert dist.is_observable()

    def test_feynman_second_sign(self):
        state = feynman_state(0.5, 0.5, 0.5)
        dist = observe_distribution(Z_SIGN, state)
        assert dist.value("+") == pytest.approx(1.0, abs=1e-12)
        assert dist.value("-") == pytest.approx(0.0, abs=1e-12)
        assert dist.is_observable()

    def test_uniform_always_nonnegative(self):
        rng = np.random.default_rng(80)
        space = HiddenStateSpace(states=tuple(range(5)))
        state = MarkovState(space=space, values=np.full(5, 0.2))
        func = InformationFunction(
            space=space,
            scale=Scale(("a", "b")),
            values=tuple(rng.choice(["a", "b"]) for _ in range(5)),
        )
        assert observe_distribution(func, state).min_value() >= 0

    def test_space_mismatch(self):
        other = MarkovState(
            space=HiddenStateSpace(states=("a", "b")), values=np.array([0.5, 0.5])
        )
        with pytest.raises(ValueError, match="space"):
            observe_distribution(X_SIGN, other)


class TestExpectation:
    def test_constant_function(self):
        space = HiddenStateSpace(states=("a", "b", "c"))
        func = InformationFunction(space=space, scale=Scale((2.5,)), values=(2.5, 2.5, 2.5))
        state = MarkovState(space=space, values=np.array([0.7, 0.6, -0.3]))
        assert expectation(func, state) == pytest.approx(2.5, abs=1e-12)

    def test_five_state_x(self):
        ex = five_state_example()
        assert expectation(ex.x, ex.state) == pytest.approx(-1 / 3, abs=1e-12)

    def test_symmetric_pm(self):
        space = HiddenStateSpace(states=("a", "b"))
        func = InformationFunction(space=space, scale=Scale((-1, 1)), values=(1, -1))
        state = MarkovState(space=space, values=np.array([0.5, 0.5]))
        assert expectation(func, state) == pytest.approx(0.0, abs=1e-12)

    def test_unobservable_errors(self):
        space = HiddenStateSpace(states=("a", "b"))
        func = InformationFunction(space=space, scale=Scale((0, 1)), values=(0, 1))
        state = MarkovState(space=space, values=np.array([1.5, -0.5]))
        with pytest.raises(ValueError, match="not statistically observable"):
            expectation(func, state)
        moment = raw_moment(func, state)
        assert moment.value == pytest.approx(-0.5, abs=1e-12)
        assert not moment.observable


class TestJoint:
    def test_single_function_wraps(self):
        j = joint([X_SIGN])
        assert j.values == tuple((v,) for v in X_SIGN.values)
        assert j.scale.symbols == (("+",), ("-",))

    def test_feynman_bijection(self):
        j = joint([X_SIGN, Z_SIGN])
        assert j.values == (("+", "+"), ("+", "-"), ("-", "+"), ("-", "-"))
        assert set(j.values) == set(j.scale.symbols)

    def test_five_state_triples(self):
        ex = five_state_example()
        j = joint([ex.x, ex.y, ex.z])
        assert len(set(j.values)) == 5
        assert j.values == (
            (-1, 1, 1),
            (1, 1, 1),
            (-1, -1, 1),
            (-1, 1, -1),
            (-1, -1, -1),
        )


class TestJointObservability:
    def test_nonnegative_states_always(self):
        rng = np.random.default_rng(81)
        for _ in range(50):
            _, funcs, state = random_pm_table(rng, 6, 3)
            assert is_jointly_observable(funcs, state)

    def test_five_state_pairs(self):
        ex = five_state_example()
        assert is_jointly_observable([ex.x, ex.y], ex.state)
        assert is_jointly_observable([ex.y, ex.z], ex.state)
        assert is_jointly_observable([ex.x, ex.z], ex.state)

    def test_five_state_triple_fails(self):
        ex = five_state_example()
        assert not is_jointly_observable([ex.x, ex.y, ex.z], ex.state)
        dist = observe_distribution(joint([ex.x, ex.y, ex.z]), ex.state)
        assert dist.value((-1, 1, 1)) == pytest.approx(-1 / 3, abs=1e-12)

    def test_subcollections_inherit(self):
        # joint observability of the full collection passes to subsets
        rng = np.random.default_rng(82)
        for _ in range(30):
            _, funcs, state = random_pm_table(rng, 5, 3)
            if is_jointly_observable(funcs, state):
                for r in (1, 2):
                    for subset in itertools.combinations(funcs, r):
                        assert is_jointly_observable(list(subset), state)

    def test_any_iterable_of_functions(self):
        # the functions are read once, by joint; an empty collection is refused there
        ex = five_state_example()
        assert is_jointly_observable((f for f in (ex.x, ex.y)), ex.state)
        assert not is_jointly_observable(iter([ex.x, ex.y, ex.z]), ex.state)
        with pytest.raises(ValueError, match="at least one information function"):
            is_jointly_observable([], ex.state)
        other = MarkovState(space=HiddenStateSpace(states=("a",)), values=np.array([1.0]))
        with pytest.raises(ValueError, match="different hidden-state space"):
            is_jointly_observable([ex.x, ex.y], other)


class TestProductExpectation:
    def test_five_state_values(self):
        ex = five_state_example()
        assert product_expectation(ex.x, ex.y, ex.state) == pytest.approx(1.0, abs=1e-12)
        assert product_expectation(ex.y, ex.z, ex.state) == pytest.approx(-1 / 3, abs=1e-12)
        assert product_expectation(ex.x, ex.z, ex.state) == pytest.approx(1.0, abs=1e-12)

    def test_square_is_one(self):
        rng = np.random.default_rng(83)
        space = HiddenStateSpace(states=tuple(range(4)))
        func = InformationFunction(space=space, scale=Scale((-1, 1)), values=(1, -1, -1, 1))
        values = rng.standard_normal(4)
        values = values / values.sum()
        state = MarkovState(space=space, values=values)
        assert product_expectation(func, func, state) == pytest.approx(1.0, abs=1e-12)

    def test_unobservable_pair_errors(self):
        space = HiddenStateSpace(states=("a", "b"))
        f = InformationFunction(space=space, scale=Scale((-1, 1)), values=(-1, 1))
        state = MarkovState(space=space, values=np.array([-0.5, 1.5]))
        with pytest.raises(ValueError, match="not jointly observable"):
            product_expectation(f, f, state)


class TestBellCheck:
    def test_five_state_violation(self):
        ex = five_state_example()
        result = bell_check(ex.x, ex.y, ex.z, ex.state)
        assert result.lhs == pytest.approx(4 / 3, abs=1e-12)
        assert result.rhs == pytest.approx(0.0, abs=1e-12)
        assert not result.satisfied
        assert result.pairwise_observable
        assert not result.jointly_observable

    def test_equal_functions_trivial(self):
        ex = five_state_example()
        result = bell_check(ex.x, ex.x, ex.x, ex.state)
        assert result.lhs == pytest.approx(0.0, abs=1e-12)
        assert result.rhs == pytest.approx(0.0, abs=1e-12)
        assert result.satisfied

    def test_uniform_state_satisfied(self):
        ex = five_state_example()
        uniform = MarkovState(space=ex.space, values=np.full(5, 0.2))
        assert bell_check(ex.x, ex.y, ex.z, uniform).satisfied

    def test_random_nonnegative_states_never_violate(self):
        rng = np.random.default_rng(84)
        for _ in range(200):
            _, funcs, state = random_pm_table(rng, int(rng.integers(2, 9)), 3)
            result = bell_check(funcs[0], funcs[1], funcs[2], state)
            assert result.satisfied
            assert result.jointly_observable

    def test_rejects_non_pm_scale(self):
        space = HiddenStateSpace(states=("a", "b"))
        f = InformationFunction(space=space, scale=Scale((0, 1)), values=(0, 1))
        state = MarkovState(space=space, values=np.array([0.5, 0.5]))
        with pytest.raises(ValueError, match=r"\{-1, \+1\}"):
            bell_check(f, f, f, state)

    def test_string_pm_scale_accepted(self):
        space = HiddenStateSpace(states=("a", "b"))
        f = InformationFunction(space=space, scale=Scale(("-1", "+1")), values=("-1", "+1"))
        state = MarkovState(space=space, values=np.array([0.5, 0.5]))
        assert bell_check(f, f, f, state).satisfied

    def test_unobservable_pair_errors(self):
        space = HiddenStateSpace(states=("a", "b"))
        f = InformationFunction(space=space, scale=Scale((-1, 1)), values=(-1, 1))
        g = InformationFunction(space=space, scale=Scale((-1, 1)), values=(1, -1))
        state = MarkovState(space=space, values=np.array([-0.5, 1.5]))
        with pytest.raises(ValueError, match="not jointly observable"):
            bell_check(f, g, f, state)


class TestFeynmanState:
    def test_worked_point(self):
        state = feynman_state(0.5, 0.5, 0.5)
        np.testing.assert_allclose(state.values, [5 / 8, 1 / 8, 3 / 8, -1 / 8], atol=1e-15)

    def test_zero_point_uniform(self):
        state = feynman_state(0.0, 0.0, 0.0)
        np.testing.assert_allclose(state.values, np.full(4, 0.25), atol=1e-15)

    def test_x_axis_point(self):
        state = feynman_state(1.0, 0.0, 0.0)
        np.testing.assert_allclose(state.values, [0.5, 0.0, 0.5, 0.0], atol=1e-15)

    def test_normalization_failure_reported(self):
        with pytest.raises(ValueError, match="component sum 1.2"):
            feynman_state(0.3, 0.1, 0.5)


class TestFiveStateExample:
    def test_state_sums_to_one(self):
        ex = five_state_example()
        assert ex.state.values.sum() == pytest.approx(1.0, abs=1e-12)

    def test_table_rows(self):
        ex = five_state_example()
        assert ex.x.values == (-1, 1, -1, -1, -1)
        assert ex.y.values == (1, 1, -1, 1, -1)
        assert ex.z.values == (1, 1, 1, -1, -1)


class TestDiagonalPovmBridge:
    def test_matches_measurement_module(self):
        rng = np.random.default_rng(85)
        space = HiddenStateSpace(states=tuple(range(5)))
        func = InformationFunction(
            space=space,
            scale=Scale(("a", "b", "c")),
            values=("a", "b", "a", "c", "b"),
        )
        q = rng.standard_normal(5)
        q = q / q.sum()
        state = MarkovState(space=space, values=q)
        from_hidden = observe_distribution(func, state)
        povm = diagonal_povm(func)
        from_measurement = outcome_distribution(povm, np.diag(q).astype(complex))
        np.testing.assert_allclose(from_hidden.values, from_measurement.values, atol=1e-12)


def _observe_loop(func, state):
    """Former observe_distribution: one scale lookup and one addition per hidden state."""
    values = np.zeros(len(func.scale))
    for component, symbol in zip(state.values, func.values):
        values[func.scale.index(symbol)] += component
    return values


def _diagonal_povm_loop(func):
    """Former diagonal_povm: one diagonal per symbol, filled by comparing every value."""
    n = len(func.space)
    mats = []
    for symbol in func.scale:
        d = np.zeros(n, dtype=complex)
        for i, v in enumerate(func.values):
            if v == symbol:
                d[i] = 1.0
        mats.append(np.diag(d))
    return mats


def _random_function(rng, space, kind):
    """An information function with an int, str or joint (tuple) scale; some symbols may go unused."""
    n = len(space)
    if kind == "joint":
        parts = [_random_function(rng, space, str(k)) for k in rng.choice(["int", "str"], size=2)]
        return joint(parts)
    k = int(rng.integers(1, 6))
    symbols = [int(s) for s in rng.permutation(10)[:k] - 3] if kind == "int" else [f"v{s}" for s in rng.permutation(k)]
    values = tuple(symbols[i] for i in rng.integers(0, k, size=n))
    return InformationFunction(space=space, scale=Scale(tuple(symbols)), values=values)


class TestLabelReadout:
    """observe_distribution and diagonal_povm against their former loops, bit for bit."""

    @pytest.mark.parametrize("kind", ["int", "str", "joint"])
    def test_matches_former_loops(self, kind):
        rng = np.random.default_rng({"int": 861, "str": 862, "joint": 863}[kind])
        for _ in range(70):
            n = int(rng.integers(1, 12))
            space = HiddenStateSpace(states=tuple(range(n)))
            func = _random_function(rng, space, kind)
            q = rng.standard_normal(n)
            q[-1] = 1.0 - q[:-1].sum()
            state = MarkovState(space=space, values=q)
            np.testing.assert_array_equal(observe_distribution(func, state).values, _observe_loop(func, state))
            kraus = diagonal_povm(func).kraus
            assert len(kraus) == len(func.scale)
            for got, expected in zip(kraus, _diagonal_povm_loop(func)):
                np.testing.assert_array_equal(got, expected)


class TestExpectationIsRawMoment:
    def test_equals_raw_moment_value(self):
        rng = np.random.default_rng(2006)
        checked = 0
        for _ in range(60):
            n = int(rng.integers(1, 10))
            space = HiddenStateSpace(states=tuple(range(n)))
            func = _random_function(rng, space, "int")
            q = rng.random(n) - 0.1
            q[-1] = 1.0 - q[:-1].sum()
            state = MarkovState(space=space, values=q)
            moment = raw_moment(func, state)
            if moment.observable:
                assert expectation(func, state) == moment.value
                checked += 1
            else:
                with pytest.raises(ValueError, match="not statistically observable"):
                    expectation(func, state)
        assert 10 <= checked <= 50


def _parent_labels(func):
    """Former hidden._labels: a position dict rebuilt at every readout."""
    position = {symbol: k for k, symbol in enumerate(func.scale)}
    return np.array([position[v] for v in func.values], dtype=np.intp)


def _parent_product_expectation(x, y, state, tol=SIGN_TOL):
    """Former product_expectation, with its own pair check and product."""
    xv = _numeric_values(x, "first information function")
    yv = _numeric_values(y, "second information function")
    if not is_jointly_observable([x, y], state, tol):
        raise ValueError("pair is not jointly observable; the product expectation is undefined")
    return float((xv * yv) @ state.values)


def _parent_bell_check(x, y, z, state, tol=BELL_TOL):
    """Former bell_check: every pair checked first, then the three products written out."""
    _require_same_space([x, y, z], state)
    xv = _pm_one_values(x, "X")
    yv = _pm_one_values(y, "Y")
    zv = _pm_one_values(z, "Z")
    for name, (f, g) in (("X,Y", (x, y)), ("Y,Z", (y, z)), ("X,Z", (x, z))):
        if not is_jointly_observable([f, g], state):
            raise ValueError(f"pair ({name}) is not jointly observable; Bell expectations undefined")
    q = state.values
    e_xy = float((xv * yv) @ q)
    e_yz = float((yv * zv) @ q)
    e_xz = float((xv * zv) @ q)
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


def _outcome(call):
    """A call's result, or the part of its ValueError before the ';' (the pair it names)."""
    try:
        return call()
    except ValueError as err:
        return str(err).split(";")[0]


def _signed_pm_table(rng, symbols):
    """Three +-1 functions on 2-9 states and a state whose components may be negative."""
    n = int(rng.integers(2, 10))
    space = HiddenStateSpace(states=tuple(range(n)))
    scale = Scale(symbols)
    funcs = [InformationFunction(space=space, scale=scale, values=tuple(rng.choice(symbols, size=n).tolist())) for _ in range(3)]
    q = rng.random(n) - 0.15 * rng.random()
    q[-1] = 1.0 - q[:-1].sum()
    return funcs, MarkovState(space=space, values=q)


class TestPairProductMatchesParent:
    """bell_check and product_expectation through the one pair product, against the former code."""

    @pytest.mark.parametrize("symbols", [(-1, 1), ("-1", "+1")], ids=["int", "str"])
    def test_bell_check_every_field(self, symbols):
        rng = np.random.default_rng(2401 if symbols[0] == -1 else 2402)
        refused = 0
        for _ in range(200):
            (x, y, z), state = _signed_pm_table(rng, symbols)
            got = _outcome(lambda: bell_check(x, y, z, state))
            expected = _outcome(lambda: _parent_bell_check(x, y, z, state))
            if isinstance(expected, str):
                refused += 1
                assert got == expected
                continue
            for field in dataclasses.fields(BellCheckResult):
                a, b = getattr(got, field.name), getattr(expected, field.name)
                assert type(a) is type(b) and np.array([a]).tobytes() == np.array([b]).tobytes(), field.name
        assert 10 <= refused <= 190  # both the refusal and the value path are exercised

    def test_product_expectation(self):
        rng = np.random.default_rng(2403)
        refused = 0
        for _ in range(200):
            (x, y, _), state = _signed_pm_table(rng, (-1, 1))
            got = _outcome(lambda: product_expectation(x, y, state))
            expected = _outcome(lambda: _parent_product_expectation(x, y, state))
            refused += isinstance(expected, str)
            assert type(got) is type(expected)
            assert got == expected if isinstance(got, str) else np.float64(got).tobytes() == np.float64(expected).tobytes()
        assert 10 <= refused <= 190

    def test_non_pm_value_raises_before_any_pair(self):
        # every pair of this table fails joint observability, but Z's value 0 is named first
        space = HiddenStateSpace(states=("a", "b"))
        scale = Scale((-1, 0, 1))
        f = InformationFunction(space=space, scale=scale, values=(-1, 1))
        g = InformationFunction(space=space, scale=scale, values=(1, -1))
        z = InformationFunction(space=space, scale=scale, values=(0, 1))
        state = MarkovState(space=space, values=np.array([-0.5, 1.5]))
        for check in (bell_check, _parent_bell_check):
            with pytest.raises(ValueError, match=r"Z must have scale \{-1, \+1\}, got value 0"):
                check(f, g, z, state)
        with pytest.raises(ValueError, match=r"pair \(X,Y\) is not jointly observable; its product"):
            bell_check(f, g, g, state)


class TestStoredPositions:
    """Readouts from the positions stored at construction, against the former per-readout dict."""

    @pytest.mark.parametrize("kind", ["int", "str", "joint"])
    def test_readouts_match_parent(self, kind):
        rng = np.random.default_rng({"int": 2411, "str": 2412, "joint": 2413}[kind])
        for _ in range(60):
            n = int(rng.integers(1, 12))
            space = HiddenStateSpace(states=tuple(range(n)))
            func = _random_function(rng, space, kind)
            q = rng.standard_normal(n)
            q[-1] = 1.0 - q[:-1].sum()
            state = MarkovState(space=space, values=q)
            labels = _parent_labels(func)
            expected = _label_sums(state.values, labels, np.zeros(len(func.scale)))
            assert observe_distribution(func, state).values.tobytes() == expected.tobytes()
            got = diagonal_povm(func).kraus
            assert [k.tobytes() for k in got] == [p.tobytes() for p in _diagonal_projectors(labels, len(func.scale))]

    def test_unhashable_value_refused_at_construction(self):
        space = HiddenStateSpace(states=("a", "b"))
        with pytest.raises(ValueError, match=r"value array\(-1\) is not in the scale \(-1, 1\)"):
            InformationFunction(space=space, scale=Scale((-1, 1)), values=(np.array(-1), 1))
        # a tuple value that holds an unhashable part compares equal but cannot be looked up
        pairs = Scale(((-1, -1), (-1, 1), (1, -1), (1, 1)))
        with pytest.raises(ValueError, match="is not in the scale"):
            InformationFunction(space=space, scale=pairs, values=((np.array(-1), 1), (1, 1)))


class TestInformationFunctionCalls:
    def test_rejects_wrong_value_count(self):
        with pytest.raises(ValueError, match="need one value per hidden state: 3 values, 4 states"):
            InformationFunction(space=FEYNMAN_SPACE, scale=Scale(("+", "-")), values=("+", "-", "+"))

    def test_call_reads_the_state_value(self):
        assert [X_SIGN(w) for w in FEYNMAN_SPACE.states] == ["+", "+", "-", "-"]
        assert Z_SIGN("+-") == "-"

    def test_joint_refuses_two_spaces(self):
        other = InformationFunction(space=HiddenStateSpace(states=("a",)), scale=Scale(("+",)), values=("+",))
        with pytest.raises(ValueError, match="different hidden-state spaces"):
            joint([X_SIGN, other])

    def test_raw_moment_refuses_string_values(self):
        with pytest.raises(ValueError, match="information function must be real-valued, got value '\\+'"):
            raw_moment(X_SIGN, feynman_state(0.5, 0.5, 0.5))


class TestStateLookup:
    """A state is found by the one lookup rule of a scale: by hash and ``==``."""

    def test_unknown_state_names_state_and_space(self):
        ex = five_state_example()
        message = r"unknown state 'zz', hidden-state space is \('w1', 'w2', 'w3', 'w4', 'w5'\)"
        with pytest.raises(ValueError, match=message):
            ex.x("zz")

    def test_unhashable_state_is_unknown(self):
        with pytest.raises(ValueError, match=r"unknown state \[1\], hidden-state space is \('w1'"):
            five_state_example().x([1])

    def test_membership_and_index(self):
        space = five_state_example().space
        assert "w1" in space
        assert space.index("w3") == 2
        assert [1] not in space
        assert "zz" not in space


class TestSpaceIsScale:
    """A hidden-state space is a scale of states; a Markov state is an outcome distribution over one."""

    def test_subclasses(self):
        ex = five_state_example()
        assert isinstance(ex.space, Scale)
        assert isinstance(ex.state, OutcomeDistribution)
        assert ex.state.space is ex.state.scale is ex.space
        assert ex.space.states == ex.space.symbols == ("w1", "w2", "w3", "w4", "w5")

    def test_keyword_and_positional_construction(self):
        space = HiddenStateSpace(("a", "b"))
        assert HiddenStateSpace(states=["a", "b"]) == space
        state = MarkovState(space, [0.25, 0.75])
        assert MarkovState(space=space, values=np.array([0.25, 0.75])).values.tolist() == state.values.tolist()
        assert state.space == space

    def test_equality_and_hash(self):
        first, second = HiddenStateSpace(("a", "b")), HiddenStateSpace(("a", "b"))
        assert first == second and hash(first) == hash(second)
        assert first != Scale(("a", "b"))
        assert first != HiddenStateSpace(("b", "a"))

    def test_observable_split(self):
        # the paper's classical states against its "negative probability" ones
        ex = five_state_example()
        assert not ex.state.is_observable()
        assert ex.state.min_value() == pytest.approx(-1 / 3)
        assert MarkovState(ex.space, np.full(5, 0.2)).is_observable()

    def test_distribution_reads(self):
        state = MarkovState(HiddenStateSpace(("a", "b")), [1.5, -0.5])
        assert state.value("b") == -0.5
        assert state.as_dict() == {"a": 1.5, "b": -0.5}
        with pytest.raises(ValueError, match="unknown state 'c', hidden-state space is"):
            state.value("c")

    def test_reprs_name_the_fields(self):
        space = HiddenStateSpace(("a",))
        assert repr(space) == "HiddenStateSpace(symbols=('a',))"
        assert repr(MarkovState(space, [1.0])).startswith("MarkovState(scale=HiddenStateSpace(symbols=('a',)), values=")

    @pytest.mark.parametrize(
        "values",
        [[np.nan, 1.0], [0.5, 0.6], [1.0]],
        ids=["nan", "sum", "length"],
    )
    def test_bad_components_named(self, values):
        with pytest.raises(ValueError, match="Markov state components"):
            MarkovState(HiddenStateSpace(("a", "b")), values)

    @pytest.mark.parametrize("states", [(), ("a", "b", "a")], ids=["empty", "duplicate"])
    def test_bad_space_named(self, states):
        with pytest.raises(ValueError, match="hidden-state space must hold at least one state"):
            HiddenStateSpace(states)
