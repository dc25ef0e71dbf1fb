"""Directed communication topologies and their structural constants.

A digraph is stored as its vertex count and its arc list, the receivers
and the senders: agent ``senders[k]`` transmits information to agent
``receivers[k]``.  Two derived quantities drive every threshold formula
downstream: the smallest spanning-tree depth gamma_g (the least BFS
eccentricity of a root; one bitset closure over all sources finds it,
stopping at the first level where a source reaches all) and the maximal
in-neighborhood size.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain

import numpy as np

INF = math.inf


class GraphError(ValueError):
    """Invalid digraph construction or query."""


def label_pairs(labels: list) -> np.ndarray:
    """Integer labels, sender then receiver of each arc, as (k, 2) int64, or objects past it."""
    try:
        return np.array(labels, dtype=np.int64).reshape(-1, 2)
    except OverflowError:
        return np.array(labels, dtype=object).reshape(-1, 2)


def _check_arcs(n: int, i, j, labels=None):
    """Name the first arc j -> i out of range or a self-loop by its (sender, receiver)
    ``labels``, by default its vertices; else refuse fewer than one vertex."""
    out = (i < 0) | (i >= n) | (j < 0) | (j >= n)
    if (bad := out | (i == j)).any():
        k = int(bad.argmax())
        sender, receiver = (j[k], i[k]) if labels is None else labels[k]
        if out[k]:
            raise GraphError(f"arc ({sender}, {receiver}) out of range for n={n}")
        raise GraphError(f"self-loop at vertex {receiver}")
    if n < 1:
        raise GraphError("need at least one vertex")


@dataclass(frozen=True)
class Digraph:
    """Fixed directed graph on vertices 0..n-1, immutable.  ``arc_list`` is the
    (receivers, senders) pair of int64 arrays, sorted by receiver, then sender, each arc
    once, read-only; information flows from sender to receiver.  Self-loops are rejected.
    """

    n_vertices: int
    arc_list: tuple[np.ndarray, np.ndarray]

    def __post_init__(self):
        n = operator.index(self.n_vertices)
        i, j = (np.array(x, dtype=np.int64) for x in self.arc_list)   # copies, frozen below
        _check_arcs(n, i, j)
        keys = i * n + j   # by receiver, then sender, each arc once
        if not (np.diff(keys) > 0).all():   # complete(n) and most listings come so already
            keys = np.sort(keys)
            i, j = np.divmod(keys[np.diff(keys, prepend=-1) > 0], n)
        for x in (i, j):
            x.setflags(write=False)
        object.__setattr__(self, "arc_list", (i, j))

    def _key(self):
        return self.n_vertices, self.arc_list[0].tobytes(), self.arc_list[1].tobytes()

    def __eq__(self, other):   # the same vertex count and arc list
        return isinstance(other, Digraph) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    @cached_property
    def arcs(self) -> np.ndarray:
        """The n x n matrix, ``arcs[i, j]`` for j -> i; derived, read-only.  Its last reader is
        ``bench/spans.py`` (``g.arcs.sum()``); it goes once that counts the arc list."""
        a = np.zeros((self.n_vertices, self.n_vertices), dtype=bool)
        a[self.arc_list] = True
        a.setflags(write=False)
        return a

    @classmethod
    def from_arc_list(cls, n: int, arcs, one_based: bool = False) -> "Digraph":
        """Build from (sender, receiver) integer pairs or their ``label_pairs``, labelled from 1
        with ``one_based``; the first bad pair is named by its labels."""
        a = (arcs if isinstance(arcs, np.ndarray) and arcs.dtype == np.int64 else
             label_pairs(list(map(operator.index, chain.from_iterable(arcs))))).reshape(-1, 2)
        j, i = a.T - (1 if one_based else 0)
        _check_arcs(n, i, j, a)
        return cls(n, (i, j))

    @classmethod
    def complete(cls, n: int) -> "Digraph":
        """All-to-all network without self-loops."""
        k = max(n, 0)
        i = np.repeat(np.arange(k), max(k - 1, 0))   # k - 1 in-arcs a vertex, in order
        j = np.tile(np.arange(max(k - 1, 0)), k)
        j += j >= i   # every sender but the receiver itself
        return cls(n, (i, j))

    @property
    def max_in_degree(self) -> int:
        """The largest number of vertices transmitting to one vertex."""
        return int(np.bincount(self.arc_list[0], minlength=self.n_vertices).max(initial=0))

    def distance(self, i: int, j: int) -> float:
        """Length of the shortest information-flow path i -> j: 0 if i == j, math.inf if none."""
        for k in (i, j):
            if not 0 <= k < self.n_vertices:
                raise GraphError(f"vertex index {k} out of range [0, {self.n_vertices})")
        return _bfs(*self.arc_list[::-1], self.n_vertices, i)[j]


@dataclass(frozen=True)
class GraphMetrics:
    """Derived constants of a digraph; gamma_g is math.inf when no root (spanning tree) exists."""

    roots: frozenset = field(default_factory=frozenset)
    gamma_g: float = INF
    n_infinity: int = 0

    @property
    def has_spanning_tree(self) -> bool:
        return bool(self.roots)


def _bfs(tail: np.ndarray, head: np.ndarray, n: int, src: int) -> np.ndarray:
    """Distances from src, one frontier per level over the arcs tail -> head: the
    ``arc_list`` as (senders, receivers) along the arcs, (receivers, senders) against."""
    dist = np.full(n, INF)
    dist[src] = 0
    front = dist == 0
    level = 0
    while front.any():
        level += 1
        front = (np.bincount(head[front[tail]], minlength=n) > 0) & (dist == INF)
        dist[front] = level
    return dist


def compute_metrics(g: Digraph) -> GraphMetrics:
    """Roots, smallest spanning-tree depth, and max in-neighborhood size.

    A root is a vertex from which every other vertex is reachable; its
    depth is its BFS eccentricity, and gamma_g is the minimum depth over
    roots (inf when there is no root).  All sources advance together:
    after level l, ``reach[i]`` packs the sources within distance l of i
    64 to a ``uint64``; a level ORs into each row its senders' rows,
    gathered on the arc list, in one ``reduceat``.  The first level at
    which the AND of all rows, the sources that reach everyone, is
    nonzero is gamma_g; the roots are the vertices that reach one of
    those sources (whoever reaches a root reaches everything).  A
    rootless graph stops at a level that changes nothing.  A single
    vertex is its own root, depth 0.
    """
    if "_metrics" in g.__dict__:   # the graph is frozen: one closure, kept on it
        return g._metrics
    n, (ei, ej), v = g.n_vertices, g.arc_list, np.arange(g.n_vertices)
    first = np.searchsorted(ei, v)   # each receiver's first arc
    rows = np.insert(ej, first, v)   # its own row, then its senders': no segment is empty
    reach = np.zeros((n, -(-n // 64)), dtype="<u8")
    reach[v, v // 64] = np.uint64(1) << (v % 64).astype(np.uint64)   # each source reaches itself
    level = 0
    while not (full := np.bitwise_and.reduce(reach, axis=0)).any():
        grown = np.bitwise_or.reduceat(reach[rows], first + v, axis=0)
        if np.array_equal(grown, reach):
            break
        reach, level = grown, level + 1
    roots = frozenset()
    if full.any():
        root = int(np.unpackbits(full.view(np.uint8), bitorder="little").argmax())
        roots = frozenset(np.flatnonzero(_bfs(ei, ej, n, root) < INF).tolist())
    m = GraphMetrics(roots, level if roots else INF, g.max_in_degree)
    object.__setattr__(g, "_metrics", m)
    return m
