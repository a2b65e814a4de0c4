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

from .chain import MarkovChain, _coordinate_path, cesaro_average
from .hermitian import CESARO_MAX_DOUBLINGS, CESARO_TOL, _require_same_dim
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


@dataclass(frozen=True)
class DirectedGraph:
    """Directed graph with an ordered edge list; edge order fixes basis indices."""

    node_count: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if self.node_count < 1:
            raise ValueError("graph needs at least one node")
        edges = tuple((int(u), int(v)) for u, v in self.edges)
        for u, v in edges:
            if not (0 <= u < self.node_count and 0 <= v < self.node_count):
                raise ValueError(
                    f"edge ({u}, {v}) out of range for {self.node_count} nodes"
                )
        if len(set(edges)) != len(edges):
            raise ValueError("duplicate edges are not allowed")
        object.__setattr__(self, "edges", edges)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def out_degree(self, node: int) -> int:
        return sum(1 for u, _ in self.edges if u == node)


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


def _source_indicators(graph: DirectedGraph) -> np.ndarray:
    """0/1 matrix of shape (nodes, edges); row v selects edges with source v."""
    ind = np.zeros((graph.node_count, graph.edge_count))
    for e, (u, _) in enumerate(graph.edges):
        ind[u, e] = 1.0
    return ind


def node_povm(graph: DirectedGraph) -> NodePOVM:
    """The node POVM of a graph; completeness holds because every edge has one source.

    Nodes without outgoing edges get the zero projector (and can never carry
    probability); a warning points them out.
    """
    if graph.edge_count == 0:
        raise ValueError("graph has an empty edge set; the node POVM needs at least one edge")
    ind = _source_indicators(graph)
    sinks = [v for v in range(graph.node_count) if ind[v].sum() == 0]
    if sinks:
        warnings.warn(
            f"nodes {sinks} have no outgoing edges; their projectors are zero",
            stacklevel=2,
        )
    projectors = tuple(np.diag(ind[v].astype(complex)) for v in range(graph.node_count))
    for p in projectors:
        p.setflags(write=False)
    return NodePOVM(graph=graph, projectors=projectors)


def walk(
    graph: DirectedGraph,
    operator: MarkovOperator,
    start: np.ndarray,
    steps: int,
) -> WalkTrace:
    """Run the walk for the given number of steps, recording node values.

    The operator may be any Markovian on H_|E|; it does not have to respect
    the graph structure.  When all iterates are nonnegative the node values
    are genuine probabilities.
    """
    _require_same_dim(operator.n, graph.edge_count, "operator", "graph edges")
    path = _coordinate_path(MarkovChain(operator=operator, start=start), steps)
    # the first n coordinates of a Hermitian matrix are its diagonal entries
    diags = np.ascontiguousarray(path[:, : graph.edge_count])
    probabilities = diags @ _source_indicators(graph).T
    return WalkTrace(graph=graph, node_probabilities=probabilities)


def limiting_node_distribution(
    graph: DirectedGraph,
    operator: MarkovOperator,
    start: np.ndarray,
    tol: float = CESARO_TOL,
    max_doublings: int = CESARO_MAX_DOUBLINGS,
) -> np.ndarray:
    """Long-run average node distribution tr(X_v times Cesaro average)."""
    _require_same_dim(operator.n, graph.edge_count, "operator", "graph edges")
    result = cesaro_average(MarkovChain(operator=operator, start=start), tol=tol, max_doublings=max_doublings)
    ind = _source_indicators(graph)
    return ind @ np.diagonal(result.average).real


def shift_unitary(graph: DirectedGraph) -> np.ndarray:
    """Permutation matrix moving each edge (u, v) to the unique edge (v, w).

    Requires every node incident to an edge to have in-degree and out-degree
    exactly 1, i.e. the edges form node-disjoint cycles.
    """
    if graph.edge_count == 0:
        raise ValueError("graph has an empty edge set")
    out_edge: dict[int, int] = {}
    in_deg: dict[int, int] = {}
    for e, (u, v) in enumerate(graph.edges):
        if u in out_edge:
            raise ValueError(
                f"graph is not 1-regular in/out: node {u} has out-degree > 1"
            )
        out_edge[u] = e
        in_deg[v] = in_deg.get(v, 0) + 1
        if in_deg[v] > 1:
            raise ValueError(
                f"graph is not 1-regular in/out: node {v} has in-degree > 1"
            )
    touched = set(out_edge) | set(in_deg)
    for node in touched:
        if node not in out_edge or node not in in_deg:
            raise ValueError(
                f"graph is not 1-regular in/out: node {node} lacks an incoming or outgoing edge"
            )
    m = graph.edge_count
    perm = np.zeros((m, m), dtype=complex)
    for e, (_, v) in enumerate(graph.edges):
        perm[out_edge[v], e] = 1.0
    return perm
