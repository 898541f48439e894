import time
from fractions import Fraction
from itertools import combinations, permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import all_arc_plans, all_vertex_plans, brute_contains, contains_oracle, ex_labeled_oracle, random_graph
from distgraphs import extremal, graphs
from distgraphs.errors import BudgetExceeded, EmptyPattern, NotBipartite, BadDimension, TooLarge, TooSmall
from distgraphs.extremal import (
    _certificate,
    _edge_list,
    _extend,
    _free_classes,
    _is_free,
    _window,
    AKS,
    BONDY_SIMONOVITS,
    ERDOS_SIMONOVITS,
    JANZER_SUDAKOV,
    aks_exponent,
    best_known_exponent,
    ex_branch_bound,
    ex_exhaustive,
    threshold_exponent,
    verify_extremal_witness,
)
from distgraphs.graphs import (
    Graph,
    _Budget,
    _copy_through,
    _plans,
    complete_graph,
    contains_induced_subgraph,
    contains_subgraph,
    cycle_graph,
    hypercube_graph,
    path_graph,
    shattering_graph,
)

# Patterns with an isolated vertex or several components.
DISCONNECTED = {
    "S2": shattering_graph(2),
    "K2+K1": Graph(3, [(0, 1)]),
    "2K2": Graph(4, [(0, 1), (2, 3)]),
    "P3+K1": Graph(4, [(0, 1), (1, 2)]),
}


def test_ex_known_values():
    c4 = cycle_graph(4)
    assert ex_exhaustive(3, c4).value == 3
    assert ex_exhaustive(4, c4).value == 4
    # C_6 needs 6 vertices, so nothing on 5 vertices contains it.
    assert ex_branch_bound(5, cycle_graph(6)).value == 10
    # Any edge is a K_2.
    for n in (2, 4, 6):
        assert ex_exhaustive(n, complete_graph(2)).value == 0


def test_ex_rejects_degenerate_patterns():
    with pytest.raises(EmptyPattern):
        ex_exhaustive(4, Graph(1))
    with pytest.raises(EmptyPattern):
        ex_branch_bound(4, Graph(3))


def test_ex_rejects_negative_n():
    for oracle in (ex_exhaustive, ex_branch_bound):
        with pytest.raises(TooSmall, match="nonnegative"):
            oracle(-2, cycle_graph(4))


def test_ex_caps(monkeypatch):
    with pytest.raises(TooLarge):
        ex_exhaustive(12, cycle_graph(4))
    with pytest.raises(TooLarge):
        ex_branch_bound(13, cycle_graph(4))
    # The environment caps override the defaults.
    monkeypatch.setenv("DISTGRAPHS_MAX_EXHAUSTIVE_N", "4")
    monkeypatch.setenv("DISTGRAPHS_MAX_BRANCH_N", "4")
    with pytest.raises(TooLarge):
        ex_exhaustive(5, cycle_graph(4))
    with pytest.raises(TooLarge):
        ex_branch_bound(5, cycle_graph(4))


def test_branch_bound_budget():
    with pytest.raises(BudgetExceeded):
        ex_branch_bound(7, cycle_graph(4), budget=50)


def test_oracle_equivalence_small():
    patterns = [cycle_graph(4), path_graph(3), path_graph(4), complete_graph(3)]
    for pattern in patterns:
        for n in range(1, 7):
            a = ex_exhaustive(n, pattern)
            b = ex_branch_bound(n, pattern)
            assert a.value == b.value, (pattern, n)
            assert verify_extremal_witness(a) and verify_extremal_witness(b)
            # Independent freeness check on both witnesses.
            assert brute_contains(a.witness, pattern) is None
            assert brute_contains(b.witness, pattern) is None


def _random_connected_graph(n: int, rng) -> Graph:
    """A random spanning tree on n vertices plus random extra edges."""
    edges = {(int(rng.integers(v)), v) for v in range(1, n)}
    edges |= set(random_graph(n, 0.4, rng).edges())
    return Graph(n, edges)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10_000), st.integers(2, 5), st.integers(0, 6))
def test_oracles_agree_on_value_and_witness(seed, pattern_n, n):
    # Both oracles return the lexicographically first maximum G-free
    # edge set, so the witnesses are equal, not just both valid.
    pattern = _random_connected_graph(pattern_n, np.random.default_rng(seed))
    a = ex_exhaustive(n, pattern)
    b = ex_branch_bound(n, pattern)
    assert a.value == b.value
    assert a.witness == b.witness


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 5), st.integers(0, 6))
def test_exhaustive_matches_labeled_scan(seed, pattern_n, n):
    # Random patterns, isolated vertices and several components included.
    rng = np.random.default_rng(seed)
    pattern = random_graph(pattern_n + 1, float(rng.uniform(0.2, 0.9)), rng)
    if pattern.edge_count == 0:
        pattern = Graph(pattern.n, [(0, pattern.n - 1)])
    a, b = ex_exhaustive(n, pattern), ex_labeled_oracle(n, pattern)
    assert (a.value, a.witness) == (b.value, b.witness)


@pytest.mark.parametrize("name", sorted(DISCONNECTED))
def test_exhaustive_matches_labeled_scan_on_disconnected_patterns(name):
    pattern = DISCONNECTED[name]
    for n in range(7):
        a, b = ex_exhaustive(n, pattern), ex_labeled_oracle(n, pattern)
        assert (a.value, a.witness) == (b.value, b.witness), n


@pytest.mark.parametrize(
    "pattern",
    [path_graph(9), hypercube_graph(3), cycle_graph(8), shattering_graph(3)],
    ids=["P9", "Q3", "C8", "S3"],
)
def test_fewer_vertices_than_the_pattern_give_k_n(pattern):
    for n in range(min(pattern.n, 9)):
        a = ex_exhaustive(n, pattern)
        assert (a.value, a.witness) == (n * (n - 1) // 2, Graph(n, combinations(range(n), 2))), n
        for b in (ex_labeled_oracle(n, pattern), ex_branch_bound(n, pattern)):
            assert (a.value, a.witness) == (b.value, b.witness), n


def test_fewer_vertices_than_the_pattern_build_no_class(monkeypatch):
    t0 = time.perf_counter()
    assert ex_exhaustive(8, path_graph(9)).value == 28
    assert time.perf_counter() - t0 < 0.1
    monkeypatch.setattr(extremal, "_free_classes", None)  # any class build would now fail
    assert ex_exhaustive(8, path_graph(9)).value == 28


LEVEL_PATTERNS = {
    "P3": path_graph(3),
    "P4": path_graph(4),
    "S2": shattering_graph(2),
    "K3": complete_graph(3),
    "C4": cycle_graph(4),
    "C5": cycle_graph(5),
    "C6": cycle_graph(6),
    "2K2": DISCONNECTED["2K2"],
    "P3+K1": DISCONNECTED["P3+K1"],
}


@pytest.mark.parametrize("oracle, n", [(ex_exhaustive, 8), (ex_branch_bound, 6)], ids=["scan", "branch-bound"])
@pytest.mark.parametrize("name", ["P3", "C4", "K3", "P4", "C6", "2K2"])
def test_each_level_equals_a_call_at_that_k(oracle, n, name):
    pattern = LEVEL_PATTERNS[name]
    chain = oracle(n, pattern)
    assert [level.n for level in chain.levels] == list(range(n + 1))
    assert chain.levels[n] == chain and chain.levels[n].witness == chain.witness
    for k, level in enumerate(chain.levels):
        alone = oracle(k, pattern)
        assert (level.pattern, level.value, level.witness) == (pattern, alone.value, alone.witness), k
        assert level.levels == () and len(alone.levels) == k + 1


@pytest.mark.parametrize("name", sorted(LEVEL_PATTERNS))
def test_scan_levels_match_branch_bound_levels(name):
    pattern = LEVEL_PATTERNS[name]
    scan, bb = ex_exhaustive(9, pattern), ex_branch_bound(7, pattern)
    assert len(scan.levels) == 10 and len(bb.levels) == 8
    for a, b in zip(scan.levels, bb.levels):
        assert (a.n, a.value, a.witness) == (b.n, b.value, b.witness), a.n
        assert verify_extremal_witness(a)


@pytest.mark.parametrize("oracle", [ex_exhaustive, ex_branch_bound], ids=["scan", "branch-bound"])
@pytest.mark.parametrize("name", ["C6", "P3+K1", "K3"])
def test_levels_below_the_pattern_are_complete(oracle, name):
    pattern = LEVEL_PATTERNS[name]
    for n in range(pattern.n):
        chain = oracle(n, pattern)
        assert [(level.value, level.witness) for level in chain.levels] == [
            (k * (k - 1) // 2, Graph(k, combinations(range(k), 2))) for k in range(n + 1)
        ]
    # and the levels of a longer chain start the same way
    levels = oracle(pattern.n + 1, pattern).levels
    assert all(levels[k].witness == complete_graph(k) for k in range(2, pattern.n))


def test_levels_stay_out_of_equality_and_repr():
    chain = ex_exhaustive(5, cycle_graph(4))
    assert chain == chain.levels[5] and chain.levels[5].levels == ()
    assert "levels" not in repr(chain)


def test_patterns_that_cannot_fit_build_no_plan():
    # K60 has 3,540 arcs; with no room for it, branch-and-bound answers
    # K_4 before any orbit probe or plan is built.
    k60 = complete_graph(60)
    t0 = time.perf_counter()
    assert ex_branch_bound(4, k60) == ex_exhaustive(4, k60)
    assert time.perf_counter() - t0 < 0.5
    assert k60._plans == {}


def test_every_plan_comes_from_one_cache(monkeypatch):
    # Both searches and both oracles read their plans from pattern._plans
    # under (width, induced), and a second round builds no plan.
    pattern = cycle_graph(4)
    built = []
    real = graphs._Plan
    monkeypatch.setattr(graphs, "_Plan", lambda *args: built.append(args) or real(*args))

    def calls():
        assert contains_subgraph(complete_graph(5), pattern) is not None
        assert contains_induced_subgraph(complete_graph(5), pattern) is None
        assert _is_free(list(cycle_graph(5).rows), pattern)
        assert ex_branch_bound(5, pattern).value == 6

    calls()
    assert set(pattern._plans) == {(0, False), (0, True), (1, False), (2, False)}
    assert built
    built.clear()
    calls()
    assert built == []


def _relabeled(g: Graph, perm) -> Graph:
    return Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def _isomorphic(a: Graph, b: Graph) -> bool:
    # An edge-preserving bijection between equal edge counts is an isomorphism.
    return a.n == b.n and a.edge_count == b.edge_count and brute_contains(a, b) is not None


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10_000), st.integers(0, 7))
def test_certificate_is_relabeling_invariant(seed, n):
    rng = np.random.default_rng(seed)
    g = random_graph(n, float(rng.uniform(0.1, 0.9)), rng)
    h = _relabeled(g, [int(v) for v in rng.permutation(n)])
    assert _certificate(g.rows) == _certificate(h.rows)
    # The certificate is itself a labeling of the graph.
    assert _isomorphic(g, Graph._from_rows(n, _certificate(g.rows)))


def test_certificate_on_regular_graphs_that_are_not_vertex_transitive():
    # Every vertex has the same degree, so the first label may go to
    # any of them, and not every choice gives the greatest rows:
    # C3 + C4 and its complement.
    c3c4 = Graph(7, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (5, 6), (3, 6)])
    complement = Graph(7, [(u, v) for u in range(7) for v in range(u + 1, 7) if not c3c4.has_edge(u, v)])
    rng = np.random.default_rng(3)
    for g in (c3c4, complement):
        for _ in range(20):
            h = _relabeled(g, [int(v) for v in rng.permutation(7)])
            assert _certificate(h.rows) == _certificate(g.rows)


def test_certificates_of_networkx_atlas():
    # Every graph on at most 7 vertices, once each up to isomorphism:
    # the certificates are distinct, and a relabeling keeps each one.
    nx = pytest.importorskip("networkx")
    rng = np.random.default_rng(7)
    seen = set()
    for h in nx.graph_atlas_g():
        g = Graph(h.number_of_nodes(), list(h.edges()))
        cert = _certificate(g.rows)
        assert cert not in seen
        seen.add(cert)
        assert _certificate(_relabeled(g, [int(v) for v in rng.permutation(g.n)]).rows) == cert
    assert len(seen) == 1253


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.integers(0, 6))
def test_first_edge_list_is_least_over_all_relabelings(seed, n):
    rng = np.random.default_rng(seed)
    g = random_graph(n, float(rng.uniform(0.1, 0.9)), rng)
    least = min(sorted(_relabeled(g, perm).edges()) for perm in permutations(range(n)))
    assert _edge_list(_certificate(g.rows)) == least


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 6))
def test_equal_certificates_only_for_isomorphic_graphs(seed, n):
    # Equal edge counts on few vertices, so that both outcomes occur.
    rng = np.random.default_rng(seed)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    m = int(rng.integers(len(pairs) + 1))
    a, b = (Graph(n, [pairs[i] for i in rng.choice(len(pairs), m, replace=False)]) for _ in range(2))
    assert (_certificate(a.rows) == _certificate(b.rows)) == _isomorphic(a, b)


# ex(n, C4), OEIS A006855, n = 0..11
EX_C4 = [0, 0, 1, 3, 4, 6, 7, 9, 11, 13, 16, 18]


def test_branch_bound_known_values():
    c4, k3, p4 = cycle_graph(4), complete_graph(3), path_graph(4)
    for n in range(11):
        assert ex_branch_bound(n, c4).value == EX_C4[n], n
        # Mantel.
        assert ex_branch_bound(n, k3).value == n * n // 4, n
    for n in range(10):
        # Faudree-Schelp: disjoint triangles, with a clique on the rest.
        a, r = divmod(n, 3)
        assert ex_branch_bound(n, p4).value == 3 * a + r * (r - 1) // 2, n


def test_arc_orbit_counts():
    counts = {
        "C4": (cycle_graph(4), 1),
        "K3": (complete_graph(3), 1),
        "C6": (cycle_graph(6), 1),
        "Q3": (hypercube_graph(3), 1),
        "P3": (path_graph(3), 2),
        "P4": (path_graph(4), 3),
    }
    for name, (pattern, expected) in counts.items():
        assert len(_plans(pattern, 2)) == expected, name


@pytest.mark.parametrize("width", [1, 2])
@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_orbit_plans_find_the_same_copies(width, seed):
    # One plan per vertex (arc) orbit finds a copy through a host vertex
    # (edge) exactly when one plan per vertex (arc) does.
    rng = np.random.default_rng(seed)
    pattern = random_graph(int(rng.integers(2, 6)), 0.6, rng)
    host = random_graph(int(rng.integers(2, 9)), 0.5, rng)
    u, v = (int(x) for x in rng.choice(host.n, 2, replace=False))
    host = Graph(host.n, set(host.edges()) | {(min(u, v), max(u, v))})
    degs = host.degrees()
    through = (u, v)[:width]
    every = all_vertex_plans(pattern) if width == 1 else all_arc_plans(pattern)

    def copy_through(plans) -> bool:
        return _copy_through(host.rows, degs, through, plans, _Budget(None))

    assert copy_through(_plans(pattern, width)) == copy_through(every)


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from(["random", "random", *DISCONNECTED]))
def test_is_free_on_extensions_of_free_graphs_matches_the_oracle(seed, kind):
    # `_is_free` only searches through the new vertex, which is exact
    # when the graph extended is G-free.
    rng = np.random.default_rng(seed)
    pattern = DISCONNECTED.get(kind) or random_graph(int(rng.integers(2, 6)), 0.6, rng)
    if pattern.edge_count == 0:
        pattern = Graph(pattern.n, [(0, pattern.n - 1)])
    base = random_graph(int(rng.integers(0, 8)), float(rng.uniform(0.2, 0.9)), rng)
    while (copy := contains_oracle(base, pattern)) is not None:
        a, b = next(pattern.edges())
        base = Graph(base.n, set(base.edges()) - {tuple(sorted((copy.mapping[a], copy.mapping[b])))})
    rows = _extend(base.rows, int(rng.integers(1 << base.n)))
    extension = Graph(len(rows), [(u, w) for u, r in enumerate(rows) for w in range(u + 1, len(rows)) if r >> w & 1])
    assert _is_free(rows, pattern) == (contains_oracle(extension, pattern) is None)


def test_oracles_match_networkx_atlas():
    nx = pytest.importorskip("networkx")
    from networkx.algorithms.isomorphism import GraphMatcher

    atlas = nx.graph_atlas_g()
    patterns = {"C4": cycle_graph(4), "K3": complete_graph(3), "P4": path_graph(4), "C6": cycle_graph(6)}
    for name, pattern in patterns.items():
        g = nx.Graph(list(pattern.edges()))
        for n in range(1, 8):
            expected = max(
                h.number_of_edges()
                for h in atlas
                if h.number_of_nodes() == n and not GraphMatcher(h, g).subgraph_is_monomorphic()
            )
            assert ex_branch_bound(n, pattern).value == expected, (name, n)
            assert ex_exhaustive(n, pattern).value == expected, (name, n)
    # One vertex past the atlas.
    assert ex_exhaustive(8, patterns["C4"]).value == EX_C4[8]


def test_free_class_counts_match_networkx_atlas():
    nx = pytest.importorskip("networkx")
    from networkx.algorithms.isomorphism import GraphMatcher

    atlas = nx.graph_atlas_g()
    for pattern in (cycle_graph(4), complete_graph(3)):
        g = nx.Graph(list(pattern.edges()))
        expected = [0] * 8
        for h in atlas:
            if h.number_of_nodes() <= 7 and not GraphMatcher(h, g).subgraph_is_monomorphic():
                expected[h.number_of_nodes()] += 1
        assert [len(_free_classes(k, pattern, _window(k, 0))) for k in range(8)] == expected


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 5), st.integers(0, 6), st.integers(0, 16))
def test_windowed_classes_are_the_classes_meeting_the_window(seed, pattern_n, k, top):
    # A window loses no G-free graph with at least `top` edges on k
    # vertices, and keeps no graph with fewer.
    rng = np.random.default_rng(seed)
    pattern = random_graph(pattern_n + 1, float(rng.uniform(0.2, 0.9)), rng)
    if pattern.edge_count == 0:
        pattern = Graph(pattern.n, [(0, pattern.n - 1)])
    every = _free_classes(k, pattern, _window(k, 0))
    meeting = [rows for rows in every if sum(r.bit_count() for r in rows) // 2 >= top]
    assert sorted(_free_classes(k, pattern, _window(k, top))) == sorted(meeting)


def test_window_follows_the_deletion_bound():
    # C4 with L = 21 at n = 12: w(j) = w(j+1) - floor(2 w(j+1) / (j+1)).
    assert _window(12, 21)[8:] == [10, 12, 15, 18, 21]
    assert _window(0, 0) == [0]


@pytest.mark.parametrize(
    "pattern, n",
    [(cycle_graph(4), 10), (cycle_graph(6), 9), (shattering_graph(2), 7)],
    ids=["C4-10", "C6-9", "S2-7"],
)
def test_exhaustive_matches_branch_bound_past_the_old_cap(pattern, n):
    # ex(S2) falls 10 -> 7 -> 9 over n = 5 .. 7, and no one-vertex
    # extension of K_5 is S2-free (L = 0 at n = 6), so the kept classes
    # at n = 6 run below their maximum.
    a, b = ex_exhaustive(n, pattern), ex_branch_bound(n, pattern)
    assert (a.value, a.witness) == (b.value, b.witness)


def test_extension_bound_reads_every_kept_class(monkeypatch):
    # Q3 at n = 10: L = 30 from the maxima on 9 vertices alone, but a
    # kept class below the maximum extends to 31 = ex(10, Q3).
    bounds = []
    bound = extremal._extension_bound

    def record(classes, pattern):
        bounds.append(bound(classes, pattern))
        return bounds[-1]

    monkeypatch.setattr(extremal, "_extension_bound", record)
    res = ex_exhaustive(10, hypercube_graph(3))
    assert bounds == [23, 26, 31]
    assert res.value == 31
    assert verify_extremal_witness(res)


def test_exhaustive_at_the_default_cap():
    res = ex_exhaustive(11, cycle_graph(4))
    assert res.value == EX_C4[11]
    assert verify_extremal_witness(res)


def test_exhaustive_scan_never_calls_branch_bound(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the exhaustive scan called branch-and-bound")

    monkeypatch.setattr(extremal, "ex_branch_bound", refuse)
    monkeypatch.setattr(extremal, "_ex_given_previous", refuse)
    for n in range(9):
        assert ex_exhaustive(n, cycle_graph(4)).value == EX_C4[n]


def test_ex_monotone_and_bounded():
    c4 = cycle_graph(4)
    values = [ex_branch_bound(n, c4).value for n in range(1, 8)]
    assert values == sorted(values)
    for n, v in enumerate(values, start=1):
        assert v <= n * (n - 1) // 2
    # Patterns larger than the host leave the complete graph pattern-free.
    assert ex_branch_bound(4, cycle_graph(6)).value == 6


def test_aks_exponent():
    info = aks_exponent(cycle_graph(8))
    assert info.alpha == Fraction(1, 2) and info.r == 2 and info.source == AKS
    assert aks_exponent(hypercube_graph(4)).alpha == Fraction(1, 4)
    assert aks_exponent(shattering_graph(3)).alpha == Fraction(1, 3)
    with pytest.raises(NotBipartite):
        aks_exponent(cycle_graph(3))


def test_best_known_exponent():
    c6 = best_known_exponent(cycle_graph(6))
    assert c6.alpha == Fraction(2, 3) and c6.source == BONDY_SIMONOVITS
    q3 = best_known_exponent(hypercube_graph(3))
    assert q3.alpha == Fraction(2, 5) and q3.source == ERDOS_SIMONOVITS
    q4 = best_known_exponent(hypercube_graph(4))
    assert q4.alpha == Fraction(7, 24) and q4.source == JANZER_SUDAKOV
    assert best_known_exponent(cycle_graph(4)).alpha == Fraction(1, 2)
    assert best_known_exponent(path_graph(4)).source == AKS


def test_best_known_at_least_aks():
    catalog = [
        cycle_graph(4),
        cycle_graph(6),
        cycle_graph(8),
        hypercube_graph(2),
        hypercube_graph(3),
        hypercube_graph(4),
        shattering_graph(1),
        shattering_graph(2),
        shattering_graph(3),
        path_graph(2),
        path_graph(5),
    ]
    for g in catalog:
        assert best_known_exponent(g).alpha >= aks_exponent(g).alpha


def test_threshold_examples():
    res = threshold_exponent(cycle_graph(4), 3)
    assert res.s_star == Fraction(2) and res.binding == "both"
    assert threshold_exponent(cycle_graph(6), 2).s_star == Fraction(3, 2)
    res = threshold_exponent(hypercube_graph(3), 3)
    assert res.s_star == Fraction(5, 2) and res.binding == "extremal"
    with pytest.raises(BadDimension):
        threshold_exponent(cycle_graph(4), 1)
    with pytest.raises(NotBipartite):
        threshold_exponent(cycle_graph(5), 3)


def test_even_cycle_threshold_case_split():
    # (d+1)/2 binds for all even cycles when d >= 3, and for C_6 and
    # longer when d = 2; C_4 in the plane needs exponent 2.
    for d in (3, 4, 5):
        for k in (2, 3, 4):
            assert threshold_exponent(cycle_graph(2 * k), d).s_star == Fraction(d + 1, 2)
    for k in (3, 4, 5):
        assert threshold_exponent(cycle_graph(2 * k), 2).s_star == Fraction(3, 2)
    assert threshold_exponent(cycle_graph(4), 2).s_star == Fraction(2)


def test_witness_edge_counts():
    res = ex_exhaustive(5, cycle_graph(4))
    assert res.witness.edge_count == res.value == 6
    assert res.witness.n == 5
