"""Directed communication topologies and their structural constants.

A digraph is stored as a dense boolean arc matrix ``arcs`` with the
receiver on the row and the sender on the column: ``arcs[i, j]`` is
True when agent j transmits information to agent i.  Two derived
quantities drive every threshold formula downstream: the smallest
spanning-tree depth (minimum over roots of the BFS eccentricity) and
the maximal in-neighborhood size.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

INF = math.inf


class GraphError(ValueError):
    """Invalid digraph construction or query."""


@dataclass(frozen=True)
class Digraph:
    """Fixed directed graph on vertices 0..n-1.

    ``arcs[i, j]`` means j -> i (information flows from j to i).
    Self-loops are rejected.  Immutable after construction.
    """

    arcs: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.arcs, dtype=bool)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise GraphError(f"arc matrix must be square, got shape {a.shape}")
        if a.shape[0] < 1:
            raise GraphError("need at least one vertex")
        if np.any(np.diag(a)):
            raise GraphError("self-loops are not allowed")
        a.setflags(write=False)
        object.__setattr__(self, "arcs", a)

    @property
    def n_vertices(self) -> int:
        return self.arcs.shape[0]

    @classmethod
    def from_arc_list(cls, n: int, arcs: list[tuple[int, int]],
                      one_based: bool = False) -> "Digraph":
        """Build from (sender, receiver) pairs.

        ``one_based=True`` accepts 1-based labels as used in scenario
        files and the reference figures.
        """
        m = np.zeros((n, n), dtype=bool)
        off = 1 if one_based else 0
        for j, i in arcs:
            j, i = j - off, i - off
            if not (0 <= i < n and 0 <= j < n):
                raise GraphError(f"arc ({j + off}, {i + off}) out of range for n={n}")
            if i == j:
                raise GraphError(f"self-loop at vertex {i + off}")
            m[i, j] = True
        return cls(m)

    @classmethod
    def complete(cls, n: int) -> "Digraph":
        """All-to-all network without self-loops."""
        m = np.ones((n, n), dtype=bool)
        np.fill_diagonal(m, False)
        return cls(m)

    def neighbor_set(self, i: int) -> set[int]:
        """Vertices that transmit to i (in-neighbors)."""
        self._check_index(i)
        return set(np.flatnonzero(self.arcs[i]).tolist())

    def distance(self, i: int, j: int) -> float:
        """Length of the shortest information-flow path i -> j.

        Returns 0 for i == j and math.inf when j is unreachable.
        """
        self._check_index(i)
        self._check_index(j)
        return _bfs(self.arcs.T, i)[j]

    def _check_index(self, i: int):
        if not (0 <= i < self.n_vertices):
            raise GraphError(f"vertex index {i} out of range [0, {self.n_vertices})")


@dataclass(frozen=True)
class GraphMetrics:
    """Derived constants of a digraph.

    gamma_g is math.inf when no root (spanning tree) exists.
    """

    roots: frozenset = field(default_factory=frozenset)
    gamma_g: float = INF
    n_infinity: int = 0

    @property
    def has_spanning_tree(self) -> bool:
        return bool(self.roots)


def _bfs(succ: np.ndarray, src: int) -> np.ndarray:
    """Distances from src, one frontier per level; ``succ[u]`` marks the
    vertices that u transmits to (the transposed arc matrix)."""
    dist = np.full(succ.shape[0], INF)
    dist[src] = 0
    front = dist == 0
    level = 0
    while front.any():
        level += 1
        front = succ[front].any(axis=0) & (dist == INF)
        dist[front] = level
    return dist


def compute_metrics(g: Digraph) -> GraphMetrics:
    """Roots, smallest spanning-tree depth, and max in-neighborhood size.

    A root is a vertex from which every other vertex is reachable.  The
    depth of a root is its BFS eccentricity; gamma_g is the minimum
    depth over roots (inf when there is no root).  A single vertex is
    its own root with depth 0.
    """
    succ = np.ascontiguousarray(g.arcs.T)
    ecc = np.array([_bfs(succ, r).max() for r in range(g.n_vertices)])
    roots = np.flatnonzero(ecc < INF)
    gamma_g = int(ecc[roots].min()) if roots.size else INF
    n_inf = int(g.arcs.sum(axis=1).max())
    return GraphMetrics(roots=frozenset(roots.tolist()), gamma_g=gamma_g,
                        n_infinity=n_inf)
