import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delayflock.digraph import Digraph, GraphError, compute_metrics

from oracles import (
    all_digraphs,
    bfs_metrics,
    closure_metrics,
    floyd_warshall_metrics,
    matrix_digraph,
    random_rooted_arcs,
)
from oracles import arc_matrix as labelled_arc_matrix

# the four-agent topology of the reference experiments:
# arcs (sender -> receiver) 1->2, 2->3, 3->1, 3->4 in 1-based labels
FIG_ARCS = [(1, 2), (2, 3), (3, 1), (3, 4)]


@pytest.fixture
def fig_graph():
    return Digraph.from_arc_list(4, FIG_ARCS, one_based=True)


def in_neighbors(g, i):
    """The vertices that transmit to i: the senders of i's arcs."""
    receivers, senders = g.arc_list
    return set(senders[receivers == i].tolist())


def test_neighbor_sets_fig_graph(fig_graph):
    # agent 1 listens to 3, 2 to 1, 3 to 2, 4 to 3 (1-based labels)
    assert [in_neighbors(fig_graph, i) for i in range(4)] == [{2}, {0}, {1}, {2}]


def test_neighbor_set_single_vertex():
    assert in_neighbors(Digraph.from_arc_list(1, []), 0) == set()


def test_neighbor_set_complete():
    assert in_neighbors(Digraph.complete(4), 2) == {0, 1, 3}


def test_distance_index_error(fig_graph):
    with pytest.raises(GraphError):
        fig_graph.distance(4, 0)
    with pytest.raises(GraphError):
        fig_graph.distance(0, -1)


def test_distance_fig_graph(fig_graph):
    # arc 3 -> 4 gives dist 1 (0-based: 2 -> 3)
    assert fig_graph.distance(2, 3) == 1
    for i in range(4):
        assert fig_graph.distance(i, i) == 0


def test_distance_directed_path():
    g = Digraph.from_arc_list(4, [(1, 2), (2, 3), (3, 4)], one_based=True)
    assert g.distance(0, 3) == 3
    assert g.distance(3, 0) == math.inf


def test_metrics_fig_graph(fig_graph):
    m = compute_metrics(fig_graph)
    assert m.gamma_g == 2
    assert m.n_infinity == 1
    assert m.roots == frozenset({0, 1, 2})


def test_metrics_complete():
    m = compute_metrics(Digraph.complete(4))
    assert m.gamma_g == 1
    assert m.n_infinity == 3


def test_metrics_directed_path():
    g = Digraph.from_arc_list(4, [(1, 2), (2, 3), (3, 4)], one_based=True)
    m = compute_metrics(g)
    assert m.roots == frozenset({0})
    assert m.gamma_g == 3
    assert m.n_infinity == 1


def test_metrics_isolated_vertices():
    m = compute_metrics(Digraph.from_arc_list(2, []))
    assert m.roots == frozenset()
    assert m.gamma_g == math.inf
    assert not m.has_spanning_tree


def test_metrics_single_vertex():
    m = compute_metrics(Digraph.from_arc_list(1, []))
    assert m.gamma_g == 0
    assert m.roots == frozenset({0})


@pytest.mark.parametrize("g, roots, gamma, n_inf", [
    # the fig graph with the path 1 -> 5 -> 6 -> 7 hanging off root 1:
    # roots 2 and 3 have eccentricities 5 and 4, above gamma_g = 3, and
    # the closure stops at level 3, before their rows fill
    (Digraph.from_arc_list(7, FIG_ARCS + [(1, 5), (5, 6), (6, 7)], one_based=True),
     {0, 1, 2}, 3, 1),
    (Digraph.from_arc_list(400, [(k, k + 1) for k in range(399)]), {0}, 399, 1),
    # two directed 5-cycles with no arc between them: no vertex reaches all
    (Digraph.from_arc_list(10, [(k, (k + 1) % 5 + k // 5 * 5) for k in range(10)]),
     set(), math.inf, 1),
    (Digraph.from_arc_list(3, []), set(), math.inf, 0),
    (Digraph.complete(400), set(range(400)), 1, 399),
    # rooted at its last vertex, the first of the third 64-vertex word
    (Digraph.from_arc_list(129, [(k + 1, k) for k in range(128)]), {128}, 128, 1),
], ids=["fig-with-tail", "path-400", "two-cycles", "arcless-3", "complete-400",
        "reversed-path-129"])
def test_metrics_early_stop_cases(g, roots, gamma, n_inf):
    m = compute_metrics(g)
    assert (m.roots, m.gamma_g, m.n_infinity) == (frozenset(roots), gamma, n_inf)
    arcs = np.zeros((g.n_vertices, g.n_vertices), dtype=bool)
    arcs[g.arc_list] = True
    assert bfs_metrics(arcs) == (roots, gamma, n_inf)


@st.composite
def word_boundary_digraph(draw):
    # sizes on both sides of the 64-source words of the bitset closure;
    # random arcs, an optional directed path under them (deep graphs, rooted
    # at the first vertex or at the last), and vertices whose in-arcs are all cut
    n = draw(st.sampled_from([1, 2, 63, 64, 65, 128, 129]) | st.integers(1, 140))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    m = rng.random((n, n)) < draw(st.sampled_from([0.0, 0.5 / n, 2.0 / n, 0.1, 0.5]))
    path = draw(st.sampled_from(["none", "forward", "backward"]))
    if path != "none":
        up, down = np.arange(1, n), np.arange(n - 1)
        m[(up, down) if path == "forward" else (down, up)] = True
    m[rng.random(n) < draw(st.sampled_from([0.0, 0.02, 0.3, 1.0]))] = False
    np.fill_diagonal(m, False)
    return m


@given(word_boundary_digraph())
@settings(max_examples=120, deadline=None)
def test_bitset_closure_matches_oracles(m):
    want = bfs_metrics(m)
    assert closure_metrics(m) == want
    got = compute_metrics(matrix_digraph(m))
    assert (got.roots, got.gamma_g, got.n_infinity) == want


@pytest.mark.parametrize("arcs, one_based, message", [
    ([(1, 3), (2, 2)], True, "arc (1, 3) out of range for n=2"),
    ([(2, 2), (1, 3)], True, "self-loop at vertex 2"),
    ([(0, 1), (1, 1), (0, 2)], False, "self-loop at vertex 1"),
    ([(1, 2), (0, 1), (1, 1)], True, "arc (0, 1) out of range for n=2"),
    ([(1, 2), (1, 2 ** 70), (2, 2)], True,
     "arc (1, 1180591620717411303424) out of range for n=2"),
    ([(2, 2), (-2 ** 70, 1)], True, "self-loop at vertex 2"),
    ([(1, 2), (2 ** 63 - 1, 1)], True, "arc (9223372036854775807, 1) out of range for n=2"),
    ([(-2 ** 63, 1)], True, "arc (-9223372036854775808, 1) out of range for n=2"),
], ids=["range-before-loop", "loop-before-range", "zero-based-loop", "label-zero",
        "past-int64", "loop-before-past-int64", "int64-max", "int64-min"])
def test_first_bad_arc_is_named(arcs, one_based, message):
    with pytest.raises(GraphError) as e:
        Digraph.from_arc_list(2, arcs, one_based=one_based)
    assert str(e.value) == message


@pytest.mark.parametrize("label", [1.5, 2.0, np.float64(1.0), "1"])
def test_arc_labels_must_be_integers(label):
    with pytest.raises(TypeError):
        Digraph.from_arc_list(3, [(1, 2), (label, 3)], one_based=True)


def test_duplicate_arcs_and_empty_arc_list_accepted():
    g = Digraph.from_arc_list(3, [(1, 2), (3, 2), (1, 2)], one_based=True)
    assert [in_neighbors(g, i) for i in range(3)] == [set(), {0, 2}, set()]
    assert compute_metrics(g).n_infinity == 2
    g = Digraph.from_arc_list(3, [])
    assert not g.arc_list[0].size and compute_metrics(g).n_infinity == 0


def test_arc_list_is_the_kept_read_only_nonzero(fig_graph):
    ei, ej = fig_graph.arc_list
    want_i, want_j = np.nonzero(labelled_arc_matrix(4, FIG_ARCS))
    assert np.array_equal(ei, want_i) and np.array_equal(ej, want_j)
    assert fig_graph.arc_list is fig_graph.arc_list      # held on the instance
    for a in (ei, ej):
        with pytest.raises(ValueError):
            a[0] = 1


@pytest.mark.parametrize("n, arcs", [
    (4, [(1, 2), (2, 3), (1, 2), (3, 1), (2, 3), (3, 4), (1, 2)]),
    (6, [(6, 1), (1, 2), (5, 4), (3, 5), (2, 4), (1, 6), (4, 3), (2, 1), (6, 4)]),
    (3, []),
    (1, []),
    (5, np.array([[5, 1], [2, 5], [1, 2], [2, 5], [4, 1]])),
], ids=["duplicated", "any-order", "no-arcs", "single-vertex", "int64-label-array"])
def test_from_arc_list_keeps_the_parsed_arc_list(n, arcs):
    g = Digraph.from_arc_list(n, arcs, one_based=True)
    ref = labelled_arc_matrix(n, arcs)
    derived = matrix_digraph(ref)
    for kept, want in zip(g.arc_list, np.nonzero(ref)):
        assert np.array_equal(kept, want) and kept.dtype == want.dtype
        assert not kept.flags.writeable
    for a, b in zip(g.arc_list, derived.arc_list):
        assert np.array_equal(a, b) and a.dtype == b.dtype and not b.flags.writeable
    assert compute_metrics(g) == compute_metrics(derived)
    assert g.max_in_degree == derived.max_in_degree


def test_equality_and_hash_follow_the_arc_matrix(fig_graph):
    a, b = Digraph.complete(3), Digraph.complete(3)
    assert a == b and not a != b and hash(a) == hash(b)
    # built another way, and after its arc list and constants are kept on it
    compute_metrics(a)
    assert a == Digraph.from_arc_list(3, [(i, j) for i in range(3) for j in range(3) if i != j])
    assert {a: "complete"}[b] == "complete"
    path = Digraph.from_arc_list(3, [(0, 1), (1, 2)])
    for other in (Digraph.complete(4), path, fig_graph, a.arc_list, None):
        assert a != other and not a == other
    assert len({a, b, path, Digraph.complete(4)}) == 3


@pytest.mark.parametrize("n, arc_list, message", [
    (3, ([0, 2], [1, 2]), "self-loop at vertex 2"),
    (3, ([0, 3], [1, 0]), "arc (0, 3) out of range for n=3"),
    (3, ([1], [-1]), "arc (-1, 1) out of range for n=3"),
    (0, ([], []), "need at least one vertex"),
], ids=["self-loop", "receiver-out-of-range", "negative-sender", "no-vertex"])
def test_constructor_refuses_bad_graphs(n, arc_list, message):
    with pytest.raises(GraphError) as e:
        Digraph(n, arc_list)
    assert str(e.value) == message


def test_an_isolated_vertex_makes_another_graph():
    arcs = [(1, 2), (2, 3), (3, 1)]
    small, big = (Digraph.from_arc_list(n, arcs, one_based=True) for n in (3, 4))
    assert all(np.array_equal(a, b) for a, b in zip(small.arc_list, big.arc_list))
    assert small != big and not small == big
    assert hash(small) != hash(big) and len({small, big}) == 2


def test_self_loop_rejected():
    m = np.zeros((2, 2), dtype=bool)
    m[0, 0] = True
    with pytest.raises(GraphError):
        matrix_digraph(m)
    with pytest.raises(GraphError):
        Digraph.from_arc_list(2, [(1, 1)], one_based=True)


def test_oracle_agreement_small():
    for n in (1, 2, 3):
        for arcs in all_digraphs(n):
            g = matrix_digraph(arcs)
            roots, gamma, n_inf = floyd_warshall_metrics(arcs)
            m = compute_metrics(g)
            assert m.roots == frozenset(roots)
            assert m.gamma_g == gamma
            assert m.n_infinity == n_inf


@st.composite
def arc_matrix(draw, n_max=6, symmetric=False):
    n = draw(st.integers(min_value=1, max_value=n_max))
    bits = draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n))
    m = np.array(bits, dtype=bool).reshape(n, n)
    np.fill_diagonal(m, False)
    if symmetric:
        m = m | m.T
        np.fill_diagonal(m, False)
    return m


@st.composite
def sparse_arc_matrix(draw, n_max=8):
    # one arc in `spread` of the possible ones, so that sparse, rootless
    # and deep graphs come up as often as dense ones
    n = draw(st.integers(min_value=1, max_value=n_max))
    spread = draw(st.integers(min_value=1, max_value=6))
    bits = draw(st.lists(st.integers(0, spread - 1), min_size=n * n, max_size=n * n))
    m = np.array(bits).reshape(n, n) == 0
    np.fill_diagonal(m, False)
    return m


@given(sparse_arc_matrix())
@settings(max_examples=300, deadline=None)
def test_metrics_match_floyd_warshall(m):
    roots, gamma, n_inf = floyd_warshall_metrics(m)
    metrics = compute_metrics(matrix_digraph(m))
    assert (metrics.roots, metrics.gamma_g, metrics.n_infinity) == (
        frozenset(roots), gamma, n_inf)


@given(arc_matrix())
@settings(max_examples=150, deadline=None)
def test_gamma_at_most_n_minus_one(m):
    metrics = compute_metrics(matrix_digraph(m))
    if metrics.has_spanning_tree:
        assert metrics.gamma_g <= m.shape[0] - 1
    assert metrics.n_infinity <= m.shape[0] - 1


@given(arc_matrix(symmetric=True))
@settings(max_examples=150, deadline=None)
def test_gamma_bound_undirected(m):
    metrics = compute_metrics(matrix_digraph(m))
    if metrics.has_spanning_tree:
        assert metrics.gamma_g <= m.shape[0] // 2


@given(arc_matrix(n_max=5), st.randoms())
@settings(max_examples=100, deadline=None)
def test_adding_arcs_monotone(m, rnd):
    base = compute_metrics(matrix_digraph(m))
    m2 = m.copy()
    n = m.shape[0]
    for _ in range(3):
        i, j = rnd.randrange(n), rnd.randrange(n)
        if i != j:
            m2[i, j] = True
    bigger = compute_metrics(matrix_digraph(m2))
    assert bigger.n_infinity >= base.n_infinity
    assert bigger.gamma_g <= base.gamma_g


@pytest.mark.parametrize("n, k_in, seed", [(200, 5, 0), (200, 2, 1),
                                           (400, 5, 2), (400, 8, 3)])
def test_closure_oracle_large_rooted(n, k_in, seed):
    arcs = random_rooted_arcs(np.random.default_rng(seed), n, k_in)
    roots, gamma, n_inf = closure_metrics(arcs)
    assert bfs_metrics(arcs) == (roots, gamma, n_inf)
    m = compute_metrics(matrix_digraph(arcs))
    assert roots and m.roots == frozenset(roots)
    assert (m.gamma_g, m.n_infinity) == (gamma, n_inf)


@pytest.mark.parametrize("n, seed", [(200, 4), (400, 5)])
def test_closure_oracle_large_rootless(n, seed):
    # two rooted halves with no arc between them: no vertex reaches all
    rng = np.random.default_rng(seed)
    arcs = np.zeros((n, n), dtype=bool)
    half = n // 2
    arcs[:half, :half] = random_rooted_arcs(rng, half, 4)
    arcs[half:, half:] = random_rooted_arcs(rng, n - half, 4)
    m = compute_metrics(matrix_digraph(arcs))
    assert closure_metrics(arcs) == (set(), math.inf, m.n_infinity)
    assert bfs_metrics(arcs) == (set(), math.inf, m.n_infinity)
    assert m.roots == frozenset() and m.gamma_g == math.inf


def test_distance_matches_queue_bfs():
    arcs = random_rooted_arcs(np.random.default_rng(6), 60, 2)
    arcs[:, 7] = False                   # vertex 7 transmits to nobody
    g = matrix_digraph(arcs)
    for src in (0, 7, 31):
        want = {src: 0}
        queue = [src]
        for u in queue:
            for v in range(60):
                if arcs[v, u] and v not in want:
                    want[v] = want[u] + 1
                    queue.append(v)
        for j in range(60):
            assert g.distance(src, j) == want.get(j, math.inf)
