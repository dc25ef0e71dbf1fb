"""Directed communication topologies and their structural constants.

A digraph is stored as a dense boolean arc matrix ``arcs`` with the
receiver on the row and the sender on the column: ``arcs[i, j]`` is
True when agent j transmits information to agent i.  Two derived
quantities drive every threshold formula downstream: the smallest
spanning-tree depth gamma_g (the least BFS eccentricity of a root; one
reachability closure over all sources finds it, stopping at the first
full row) and the maximal in-neighborhood size.
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
    vertices one step from u (``arcs.T`` along arcs, ``arcs`` against)."""
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

    A root is a vertex from which every other vertex is reachable; its
    depth is its BFS eccentricity, and gamma_g is the minimum depth over
    roots (inf when there is no root).  All sources advance together:
    after level l, ``reach[r]`` holds the vertices within distance l of
    r, one float32 matrix product per level (exact for N < 2^24).  The
    first level at which a row fills is gamma_g, so the closure stops
    there, and the roots are the vertices that reach that row's vertex:
    whoever reaches a root reaches everything.  A rootless graph stops
    when no row grows.  A single vertex is its own root, depth 0.
    """
    if "_metrics" in g.__dict__:   # the graph is frozen: one closure, kept on it
        return g._metrics
    succ = g.arcs.T.astype(np.float32)
    reach = np.eye(g.n_vertices, dtype=bool)
    front, level = reach, 0
    while not (full := reach.all(axis=1)).any() and front.any():
        front = ((front.astype(np.float32) @ succ) > 0) & ~reach
        reach |= front
        level += 1
    n_inf = int(g.arcs.sum(axis=1).max())
    m = GraphMetrics(n_infinity=n_inf)
    if full.any():
        roots = np.flatnonzero(_bfs(g.arcs, int(full.argmax())) < INF)
        m = GraphMetrics(roots=frozenset(roots.tolist()), gamma_g=level, n_infinity=n_inf)
    object.__setattr__(g, "_metrics", m)
    return m
