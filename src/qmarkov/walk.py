"""Quantum walks on arbitrary directed graphs.

Edges are identified with the standard basis of C^|E| (file order fixes the
index of each edge).  Every node contributes a diagonal 0/1 projector
selecting its outgoing edges; together these form a POVM, so any Markov
operator on H_|E| drives a walk with per-node outcome values p_t(v).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .chain import MarkovChain, _path_blocks, cesaro_average
from .hermitian import CESARO_MAX_DOUBLINGS, CESARO_TOL, _require_count, _require_same_dim, coords
from .measurement import _diagonal_projectors, _label_sums
from .operators import MarkovOperator

__all__ = [
    "DirectedGraph",
    "NodePOVM",
    "WalkTrace",
    "node_povm",
    "walk",
    "limiting_node_distribution",
    "shift_unitary",
]

_MAX_NODE_VALUES = np.iinfo(np.intp).max // 8  # float64 values past it have more bytes than numpy's index type counts


@dataclass(frozen=True)
class DirectedGraph:
    """Directed graph with an ordered edge list; edge order fixes basis indices."""

    node_count: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        count = _require_count(self.node_count, "node count", least=1)  # past numpy's index type no node values fit
        edges = tuple((_require_count(u, "edge endpoint"), _require_count(v, "edge endpoint")) for u, v in self.edges)
        for u, v in edges:
            if not (u < count and v < count):
                raise ValueError(
                    f"edge ({u}, {v}) out of range for {count} nodes"
                )
        if len(set(edges)) != len(edges):
            raise ValueError("duplicate edges are not allowed")
        object.__setattr__(self, "node_count", count)
        object.__setattr__(self, "edges", edges)

    @property
    def edge_count(self) -> int:
        return len(self.edges)


@dataclass(frozen=True, eq=False)
class NodePOVM:
    """One diagonal 0/1 projector per node, selecting edges by source; sums to I."""

    graph: DirectedGraph
    projectors: tuple[np.ndarray, ...]


@dataclass(frozen=True, eq=False)
class WalkTrace:
    """Per-node outcome values of a walk, one row per step t = 0, 1, ..."""

    graph: DirectedGraph
    node_probabilities: np.ndarray


def _endpoints(graph: DirectedGraph) -> np.ndarray:
    """Integer array of shape (2, edges): the source and the target of each edge."""
    return np.array(graph.edges, dtype=np.intp).reshape(-1, 2).T


def node_povm(graph: DirectedGraph) -> NodePOVM:
    """The node POVM of a graph; completeness holds because every edge has one source.

    It is the diagonal POVM of the function edge -> source node.  Nodes
    without outgoing edges get the zero projector (and can never carry
    probability); a warning points them out.
    """
    if graph.edge_count == 0:
        raise ValueError("graph has an empty edge set; the node POVM needs at least one edge")
    sources = _endpoints(graph)[0]
    sinks = np.flatnonzero(np.bincount(sources, minlength=graph.node_count) == 0).tolist()
    if sinks:
        warnings.warn(
            f"nodes {sinks} have no outgoing edges; their projectors are zero",
            stacklevel=2,
        )
    return NodePOVM(graph=graph, projectors=_diagonal_projectors(sources, graph.node_count))


def _path(graph: DirectedGraph, operator: MarkovOperator, start: np.ndarray, steps: int):
    """The walk's coordinate path in the blocks of :func:`~qmarkov.chain._path_blocks`.

    The graph, operator and start are checked here, ``steps`` at the first block.
    """
    _require_same_dim(operator.n, graph.edge_count, "operator", "graph edges")
    chain = MarkovChain(operator=operator, start=start)
    return _path_blocks(operator, coords(chain.start), steps)


class _NodeValueLimitError(ValueError):
    """The refusal of :func:`_node_values`, which the CLI completes with the graph file."""


def _node_values(graph: DirectedGraph, rows: int) -> np.ndarray:
    """A zero (rows, nodes) float64 array of node values, refused when numpy's index type cannot count its bytes."""
    if rows * graph.node_count > _MAX_NODE_VALUES:
        raise _NodeValueLimitError(
            f"node values of {rows} x {graph.node_count} (rows x nodes) exceed {_MAX_NODE_VALUES}, "
            "the most float64 values whose bytes numpy's index type counts"
        )
    return np.zeros((rows, graph.node_count))


def _node_blocks(graph: DirectedGraph, operator: MarkovOperator, start: np.ndarray, steps: int):
    """Node values for t = 0..steps as (rows, nodes) arrays, one per block of :func:`_path`."""
    # the first n coordinates of a Hermitian matrix are its diagonal entries
    blocks, sources = _path(graph, operator, start, steps), _endpoints(graph)[0]
    return (_label_sums(block, sources, _node_values(graph, len(block))) for block in blocks)


def walk(
    graph: DirectedGraph,
    operator: MarkovOperator,
    start: np.ndarray,
    steps: int,
) -> WalkTrace:
    """Run the walk for the given number of steps, recording node values.

    The operator may be any Markovian on H_|E|; it does not have to respect
    the graph structure.  When all iterates are nonnegative the node values
    are genuine probabilities.  The iterates come in blocks from the path
    kernel behind :func:`~qmarkov.chain.evolve` and are never held whole.
    """
    blocks, sources = _path(graph, operator, start, steps), _endpoints(graph)[0]
    probabilities = _node_values(graph, _require_count(steps, "steps") + 1)
    t = 0
    for block in blocks:
        _label_sums(block, sources, probabilities[t : t + len(block)])
        t += len(block)
    return WalkTrace(graph=graph, node_probabilities=probabilities)


def limiting_node_distribution(
    graph: DirectedGraph,
    operator: MarkovOperator,
    start: np.ndarray,
    tol: float = CESARO_TOL,
    max_doublings: int = CESARO_MAX_DOUBLINGS,
) -> np.ndarray:
    """Long-run average node distribution tr(X_v times Cesaro average), read like one row of :func:`walk`."""
    _require_same_dim(operator.n, graph.edge_count, "operator", "graph edges")
    (row,) = _node_values(graph, 1)  # sized before the average is computed
    result = cesaro_average(MarkovChain(operator=operator, start=start), tol=tol, max_doublings=max_doublings)
    return _label_sums(np.diagonal(result.average).real, _endpoints(graph)[0], row)


def shift_unitary(graph: DirectedGraph) -> np.ndarray:
    """Permutation matrix moving each edge (u, v) to the unique edge (v, w).

    Requires every node incident to an edge to have in-degree and out-degree
    exactly 1, i.e. the edges form node-disjoint cycles.
    """
    if graph.edge_count == 0:
        raise ValueError("graph has an empty edge set")
    ends = _endpoints(graph)
    sources, targets = ends
    size = int(ends.max()) + 1  # degree arrays reach the largest endpoint only
    out_deg = np.bincount(sources, minlength=size)
    in_deg = np.bincount(targets, minlength=size)
    bad = np.flatnonzero((in_deg != out_deg) | (out_deg > 1))
    if bad.size:
        v = int(bad[0])
        raise ValueError(
            f"graph is not 1-regular in/out: node {v} has (in, out) degrees "
            f"({in_deg[v]}, {out_deg[v]}), expected (0, 0) or (1, 1)"
        )
    m = graph.edge_count
    out_edge = np.zeros(size, dtype=np.intp)
    out_edge[sources] = np.arange(m)
    perm = np.zeros((m, m), dtype=complex)
    perm[out_edge[targets], np.arange(m)] = 1.0
    return perm
