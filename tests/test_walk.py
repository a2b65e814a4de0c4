import re
import sys
import tracemalloc

import numpy as np
import pytest

from conftest import random_kraus_family, random_unitary
from qmarkov import (
    DirectedGraph,
    MarkovChain,
    MarkovOperator,
    cesaro_average,
    evolve,
    from_kraus,
    from_unitary,
    identity_operator,
    limiting_node_distribution,
    node_povm,
    pure_state,
    random_quantum_density,
    shift_unitary,
    walk,
)
import qmarkov
from qmarkov import chain as qchain

THREE_CYCLE = DirectedGraph(node_count=3, edges=((0, 1), (1, 2), (2, 0)))


def test_package_walk_is_the_function_over_the_module_name():
    # the package binds the function over its submodule; renaming either must be deliberate
    module = sys.modules["qmarkov.walk"]
    assert module.walk is qmarkov.walk
    assert module.limiting_node_distribution is limiting_node_distribution


class TestDirectedGraph:
    def test_edge_order_fixed(self):
        assert THREE_CYCLE.edges == ((0, 1), (1, 2), (2, 0))
        assert THREE_CYCLE.edge_count == 3

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError, match="duplicate"):
            DirectedGraph(node_count=2, edges=((0, 1), (0, 1)))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            DirectedGraph(node_count=2, edges=((0, 5),))

    @pytest.mark.parametrize("end", [1.7, True, np.float64(1), -1])
    def test_endpoint_must_be_a_nonnegative_integer(self, end):
        # an endpoint is a node index, so 1.7, True and np.float64(1) do not name node 1
        with pytest.raises(ValueError, match=re.escape(f"edge endpoint must be nonnegative, got {end!r}")):
            DirectedGraph(node_count=3, edges=((0, end),))

    def test_node_count_beyond_numpy_index_type(self):
        # every walk would fail allocating its node values; the graph says why up front
        DirectedGraph(node_count=np.iinfo(np.intp).max, edges=((0, 1),))
        with pytest.raises(OverflowError, match="Python int too large"):
            DirectedGraph(node_count=np.iinfo(np.intp).max + 1, edges=((0, 1),))


class TestNodePOVM:
    def test_three_cycle(self):
        povm = node_povm(THREE_CYCLE)
        for v, proj in enumerate(povm.projectors):
            expected = np.zeros(3)
            expected[v] = 1.0
            np.testing.assert_array_equal(np.diagonal(proj).real, expected)

    def test_star_all_edges_at_source(self):
        star = DirectedGraph(node_count=3, edges=((0, 1), (0, 2)))
        with pytest.warns(UserWarning, match="no outgoing edges"):
            povm = node_povm(star)
        np.testing.assert_array_equal(povm.projectors[0], np.eye(2))
        assert np.abs(povm.projectors[1]).max() == 0.0
        assert np.abs(povm.projectors[2]).max() == 0.0

    def test_completeness_random_graph(self):
        rng = np.random.default_rng(70)
        edges = set()
        while len(edges) < 10:
            edges.add((int(rng.integers(0, 6)), int(rng.integers(0, 6))))
        graph = DirectedGraph(node_count=6, edges=tuple(sorted(edges)))
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            povm = node_povm(graph)
        total = sum(povm.projectors)
        np.testing.assert_array_equal(total.real, np.eye(10))

    def test_empty_edges_rejected(self):
        with pytest.raises(ValueError, match="empty edge set"):
            node_povm(DirectedGraph(node_count=2, edges=()))


class TestWalk:
    def test_node_values_match_evolved_diagonals(self):
        rng = np.random.default_rng(71)
        graph = DirectedGraph(node_count=3, edges=((0, 1), (1, 2), (2, 0), (0, 2)))
        op = from_unitary(random_unitary(rng, 4))
        start = pure_state(np.array([1.0, 1.0j, 0.0, -1.0]) / np.sqrt(3))
        trace = walk(graph, op, start, 12)
        diags = np.diagonal(evolve(MarkovChain(operator=op, start=start), 12), axis1=1, axis2=2).real
        ind = np.array([[1.0, 0.0, 0.0, 1.0], [0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0]])
        np.testing.assert_array_equal(trace.node_probabilities, np.ascontiguousarray(diags) @ ind.T)

    def test_rotating_point_mass(self):
        op = from_unitary(shift_unitary(THREE_CYCLE))
        trace = walk(THREE_CYCLE, op, pure_state(np.eye(3)[0]), 9)
        for t, probs in enumerate(trace.node_probabilities):
            expected = np.zeros(3)
            expected[t % 3] = 1.0
            np.testing.assert_allclose(probs, expected, atol=1e-12)

    def test_identity_constant(self):
        start = pure_state(np.array([1.0, 1.0, 1.0]) / np.sqrt(3))
        trace = walk(THREE_CYCLE, identity_operator(3), start, 5)
        for probs in trace.node_probabilities:
            np.testing.assert_allclose(probs, trace.node_probabilities[0], atol=1e-14)

    def test_distribution_preserved_under_coin(self):
        rng = np.random.default_rng(71)
        coin = from_unitary(random_unitary(rng, 3))
        start = pure_state(np.array([1.0, 1.0, 1.0]) / np.sqrt(3))
        trace = walk(THREE_CYCLE, coin, start, 100)
        sums = trace.node_probabilities.sum(axis=1)
        np.testing.assert_allclose(sums, np.ones(101), atol=1e-10)
        assert trace.node_probabilities.min() >= -1e-10
        assert trace.node_probabilities.max() <= 1 + 1e-10

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            walk(THREE_CYCLE, identity_operator(2), np.diag([0.5, 0.5]), 1)

    def test_steps_past_the_index_type_named_before_allocating(self):
        with pytest.raises(OverflowError, match=f"numpy's index type: steps = {10**21}$"):
            walk(THREE_CYCLE, identity_operator(3), np.eye(3) / 3, 10**21)

    @pytest.mark.parametrize("steps", [-1, -2, -50])
    def test_negative_steps_refused_by_the_path_kernel(self, steps):
        with pytest.raises(ValueError, match="steps must be nonnegative"):
            walk(THREE_CYCLE, identity_operator(3), np.eye(3) / 3, steps)


class TestLimitingDistribution:
    def test_cycle_orbit_average(self):
        op = from_unitary(shift_unitary(THREE_CYCLE))
        dist = limiting_node_distribution(THREE_CYCLE, op, pure_state(np.eye(3)[0]))
        np.testing.assert_allclose(dist, np.full(3, 1 / 3), atol=1e-8)
        assert dist.sum() == pytest.approx(1.0, abs=1e-9)

    def test_identity_returns_start(self):
        start = np.diag([0.2, 0.3, 0.5]).astype(complex)
        dist = limiting_node_distribution(THREE_CYCLE, identity_operator(3), start)
        np.testing.assert_allclose(dist, [0.2, 0.3, 0.5], atol=1e-10)

    def test_four_cycle_phase_unitary(self):
        # off-diagonal phase differences average to zero, diagonal is uniform
        graph = DirectedGraph(node_count=4, edges=((0, 1), (1, 2), (2, 3), (3, 0)))
        op = from_unitary(np.diag([1.0, 1.0j, -1.0, -1.0j]))
        start = pure_state(np.array([1.0, 1.0, 1.0, 1.0]) / 2.0)
        dist = limiting_node_distribution(graph, op, start)
        np.testing.assert_allclose(dist, np.full(4, 0.25), atol=1e-8)

    def test_matches_brute_force_average(self):
        rng = np.random.default_rng(72)
        coin = from_unitary(random_unitary(rng, 3))
        start = pure_state(np.array([1.0, 0.5, 0.25]))
        dist = limiting_node_distribution(THREE_CYCLE, coin, start)
        trace = walk(THREE_CYCLE, coin, start, 10_000)
        running = trace.node_probabilities[:-1].mean(axis=0)
        np.testing.assert_allclose(dist, running, atol=1e-3)

    @pytest.mark.parametrize("seed", range(20))
    def test_equals_bincount_of_the_average(self, seed):
        # the former readout: one weighted bincount over edge sources, in edge order
        rng = np.random.default_rng([93, seed])
        nodes = int(rng.integers(1, 6))
        pairs = [(u, v) for u in range(nodes) for v in range(nodes)]
        picks = rng.choice(len(pairs), size=int(rng.integers(1, len(pairs) + 1)), replace=False)
        graph = DirectedGraph(node_count=nodes, edges=tuple(pairs[i] for i in picks))
        m = graph.edge_count
        op = from_kraus(random_kraus_family(rng, m, 2))
        start = random_quantum_density(m, rng)
        dist = limiting_node_distribution(graph, op, start)
        average = cesaro_average(MarkovChain(operator=op, start=start)).average
        sources = np.array([u for u, _ in graph.edges])
        expected = np.bincount(sources, weights=np.diagonal(average).real, minlength=nodes)
        np.testing.assert_array_equal(dist, expected)
        np.testing.assert_array_equal(np.signbit(dist), np.signbit(expected))


class TestShiftUnitary:
    def test_three_cycle(self):
        perm = shift_unitary(THREE_CYCLE)
        expected = np.array([[0, 0, 1], [1, 0, 0], [0, 1, 0]], dtype=complex)
        np.testing.assert_array_equal(perm, expected)

    def test_disjoint_two_cycles(self):
        graph = DirectedGraph(node_count=4, edges=((0, 1), (1, 0), (2, 3), (3, 2)))
        perm = shift_unitary(graph)
        # edge (0,1) -> edge (1,0), etc.: a block permutation
        expected = np.zeros((4, 4))
        expected[1, 0] = expected[0, 1] = expected[3, 2] = expected[2, 3] = 1.0
        np.testing.assert_array_equal(perm.real, expected)

    def test_degree_two_rejected(self):
        graph = DirectedGraph(node_count=3, edges=((0, 1), (0, 2), (1, 0), (2, 0)))
        with pytest.raises(ValueError, match="1-regular"):
            shift_unitary(graph)

    def test_error_names_first_irregular_node(self):
        # node 0 touches no edge; node 1 is the first with (in, out) degrees (0, 1)
        graph = DirectedGraph(node_count=5, edges=((3, 4), (4, 3), (1, 2)))
        with pytest.raises(ValueError, match=r"1-regular.*node 1 has \(in, out\) degrees \(0, 1\)"):
            shift_unitary(graph)

    def test_edgeless_graph_rejected(self):
        with pytest.raises(ValueError, match="graph has an empty edge set"):
            shift_unitary(DirectedGraph(node_count=2, edges=()))


def _peak_bytes(fn):
    """Result of fn() and the peak of traced memory while it ran."""
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestReadoutMemory:
    """Node values are summed per edge source: memory stays near the size of the result."""

    # 2 * 10**6 nodes, of which only 0, 1, 2 carry edges (a 3-cycle)
    GRAPH = DirectedGraph(node_count=2 * 10**6, edges=THREE_CYCLE.edges)

    def test_limiting_distribution_peak(self):
        op = from_unitary(shift_unitary(self.GRAPH))
        start = pure_state(np.eye(3)[0])
        dist, peak = _peak_bytes(lambda: limiting_node_distribution(self.GRAPH, op, start))
        np.testing.assert_allclose(dist[:3], np.full(3, 1 / 3), atol=1e-8)
        assert peak <= 1.3 * dist.nbytes

    def test_walk_step_peak(self):
        op = from_unitary(shift_unitary(self.GRAPH))
        start = pure_state(np.eye(3)[0])
        trace, peak = _peak_bytes(lambda: walk(self.GRAPH, op, start, 1))
        np.testing.assert_array_equal(trace.node_probabilities[:, :3], [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        assert peak <= 1.3 * trace.node_probabilities.nbytes

    def test_shift_unitary_sized_by_edges(self):
        perm, peak = _peak_bytes(lambda: shift_unitary(self.GRAPH))
        np.testing.assert_array_equal(perm, shift_unitary(THREE_CYCLE))
        assert peak < 2**16


class TestBlockedWalk:
    """Long walks read node values block by block off the path kernel."""

    # node 0 has two out-edges, so each of its values is one exact sum of two
    GRAPH = DirectedGraph(node_count=3, edges=((0, 1), (1, 2), (2, 0), (0, 2)))

    @pytest.mark.parametrize("block", [2, 4, 8, 32])
    def test_node_values_equal_evolved_diagonals(self, monkeypatch, block):
        monkeypatch.setattr(qchain, "PATH_BLOCK", block)
        rng = np.random.default_rng(90 + block)
        op = from_kraus(random_kraus_family(rng, 4, 2))
        start = random_quantum_density(4, rng)
        steps = 3 * block + 21  # longer than n^2 = 16 and than one block
        trace = walk(self.GRAPH, op, start, steps)
        diags = np.diagonal(evolve(MarkovChain(operator=op, start=start), steps), axis1=1, axis2=2).real
        expected = np.stack([diags[:, 0] + diags[:, 3], diags[:, 1], diags[:, 2]], axis=1)
        np.testing.assert_array_equal(trace.node_probabilities, expected)

    def test_memory_below_half_the_path(self):
        # 16 edges on 4 nodes (every ordered pair); the path would hold
        # (steps + 1) * 256 coordinates
        graph = DirectedGraph(node_count=4, edges=tuple((u, v) for u in range(4) for v in range(4)))
        rng = np.random.default_rng(91)
        op = from_kraus(random_kraus_family(rng, 16, 2))
        start = random_quantum_density(16, rng)
        steps = 4000
        trace, peak = _peak_bytes(lambda: walk(graph, op, start, steps))
        assert trace.node_probabilities.shape == (steps + 1, 4)
        np.testing.assert_allclose(trace.node_probabilities.sum(axis=1), 1.0, atol=1e-10)
        assert peak < (steps + 1) * 16**2 * 8 / 2


class TestKrausWalk:
    """A Kraus-form walk operator steps its stack, whatever the number of steps."""

    # two disjoint 6-cycles: node u's one out-edge is edge u, and the shift moves it along its cycle
    CYCLES = DirectedGraph(12, tuple((c + k, c + (k + 1) % 6) for c in (0, 6) for k in range(6)))

    @pytest.mark.parametrize("steps", [100, 144, 145, 200])  # n^2 = 144
    def test_shift_walk_rotates_each_cycle(self, steps):
        op = from_unitary(shift_unitary(self.CYCLES))
        start = random_quantum_density(12, np.random.default_rng(92))
        trace = walk(self.CYCLES, op, start, steps)
        diag = np.diagonal(start).real.reshape(2, 6)
        rotated = [np.roll(diag, t, axis=1).reshape(-1) for t in range(steps + 1)]
        np.testing.assert_array_equal(trace.node_probabilities, rotated)  # permuting is exact
        assert "matrix" not in op.__dict__
        dense = MarkovOperator(n=12, matrix=op.matrix)
        np.testing.assert_allclose(walk(self.CYCLES, dense, start, steps).node_probabilities, rotated, atol=1e-12)


class TestNodeValueLimit:
    """Node values whose float64 bytes numpy's index type cannot count are refused by one message."""

    LIMIT = np.iinfo(np.intp).max // 8
    SHIFT = from_unitary(shift_unitary(THREE_CYCLE))
    START = pure_state(np.eye(3)[0])

    @staticmethod
    def _graph(nodes):
        return DirectedGraph(node_count=nodes, edges=((0, 1), (1, nodes - 1), (nodes - 1, 0)))

    @staticmethod
    def _message(rows, nodes):
        return re.escape(f"node values of {rows} x {nodes} (rows x nodes) exceed {np.iinfo(np.intp).max // 8}, ")

    @pytest.mark.parametrize("nodes, steps", [(LIMIT, 1), (10**17, 40), (2**62 + 1, 1), (np.iinfo(np.intp).max, 0)])
    def test_walk_names_rows_and_node_count(self, nodes, steps):
        with pytest.raises(ValueError, match=self._message(steps + 1, nodes)):
            walk(self._graph(nodes), self.SHIFT, self.START, steps)

    @pytest.mark.parametrize("nodes", [LIMIT + 1, 2**62 + 1, np.iinfo(np.intp).max])
    def test_limiting_refuses_before_the_average(self, nodes, monkeypatch):
        monkeypatch.setattr(sys.modules["qmarkov.walk"], "cesaro_average", lambda *a, **k: pytest.fail("averaged"))
        with pytest.raises(ValueError, match=self._message(1, nodes)):
            limiting_node_distribution(self._graph(nodes), self.SHIFT, self.START)

    def test_at_the_limit_numpy_refuses_the_allocation(self):
        # LIMIT values pass the check; their 2^63 - 8 bytes cannot be allocated
        with pytest.raises(MemoryError, match="Unable to allocate"):
            limiting_node_distribution(self._graph(self.LIMIT), self.SHIFT, self.START)
