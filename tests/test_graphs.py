import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import brute_contains, random_graph
from distgraphs.errors import BudgetExceeded, NoEdges, NotBipartite, TooLarge, TooSmall
from distgraphs.graphs import (
    MAX_CATALOG_EDGES,
    Graph,
    _Plan,
    bipartition,
    complete_graph,
    contains_induced_subgraph,
    contains_subgraph,
    cycle_graph,
    graph_from_name,
    graph_from_text,
    graph_to_text,
    hypercube_graph,
    min_side_max_degree,
    path_graph,
    shattering_graph,
    verify_embedding,
)


# -- catalog ---------------------------------------------------------------


def test_cycle_path_complete():
    c4 = cycle_graph(4)
    assert c4.n == 4 and c4.edge_count == 4 and set(c4.degrees()) == {2}
    p2 = path_graph(2)
    assert p2.edge_count == 1 and p2 == complete_graph(2)
    assert complete_graph(4).edge_count == 6
    for bad in (cycle_graph, lambda n: path_graph(n), complete_graph):
        with pytest.raises(TooSmall):
            bad(0)
    with pytest.raises(TooSmall):
        cycle_graph(2)


def test_hypercube():
    q2 = hypercube_graph(2)
    assert q2.n == 4 and q2.edge_count == 4 and set(q2.degrees()) == {2}
    # Q_2 is a 4-cycle.
    assert contains_subgraph(q2, cycle_graph(4)) is not None
    q3 = hypercube_graph(3)
    assert q3.n == 8 and q3.edge_count == 12 and set(q3.degrees()) == {3}
    assert hypercube_graph(1) == complete_graph(2)
    bi = bipartition(q3)
    assert bi is not None
    even = frozenset(v for v in range(8) if bin(v).count("1") % 2 == 0)
    assert bi.part_x in (even, frozenset(range(8)) - even)
    assert len(bi.part_x) == len(bi.part_y) == 4
    with pytest.raises(TooSmall):
        hypercube_graph(0)


def test_shattering():
    s1 = shattering_graph(1)
    assert s1.n == 3 and s1.edge_count == 1
    s2 = shattering_graph(2)
    assert s2.n == 6 and s2.edge_count == 4
    # Path {1} - 1 - {1,2} - 2 - {2} plus the isolated empty set.
    assert contains_subgraph(s2, path_graph(5)) is not None
    assert sum(1 for v in range(s2.n) if s2.degree(v) == 0) == 1
    # Edge count for k = 3 equals sum over subsets of their size.
    total = sum(
        len(subset)
        for r in range(4)
        for subset in itertools.combinations(range(3), r)
    )
    assert shattering_graph(3).edge_count == total == 12
    with pytest.raises(TooSmall):
        shattering_graph(0)


def test_shattering_without_empty_set():
    for k in (1, 2, 3):
        g = shattering_graph(k, include_empty=False)
        assert g.n == k + 2**k - 1
        assert g.edge_count == shattering_graph(k).edge_count
        assert all(g.degree(v) > 0 for v in range(g.n))


def test_graph_from_name():
    assert graph_from_name("C4") == cycle_graph(4)
    assert graph_from_name("Q3") == hypercube_graph(3)
    assert graph_from_name("S2") == shattering_graph(2)
    assert graph_from_name("K5") == complete_graph(5)
    assert graph_from_name("P3") == path_graph(3)
    with pytest.raises(ValueError):
        graph_from_name("X7")


def test_graph_from_name_edge_cap():
    # the largest of each kind under 2^16 edges, then the smallest over it
    assert graph_from_name("K362").edge_count == 65341
    assert graph_from_name("Q13").edge_count == graph_from_name("S13").edge_count == 13 * 2**12
    assert graph_from_name("C65536").edge_count == graph_from_name("P65537").edge_count == 65536
    for name in ("K363", "Q14", "S14", "C65537", "P65538", "K1000", "Q30", "S" + "9" * 40):
        with pytest.raises(TooLarge):
            graph_from_name(name)


@pytest.mark.parametrize("n", [0, 1, 7, 8, 9, 17])
def test_from_bool_matrix_matches_edge_list(n):
    rng = np.random.default_rng(n)
    for density in (0.0, 0.3, 0.7, 1.0):
        upper = np.triu(rng.random((n, n)) < density, 1)
        adj = upper | upper.T
        adj[np.diag_indices(n)] = True  # the diagonal is ignored
        before = adj.copy()
        g = Graph.from_bool_matrix(adj)
        assert g == Graph(n, [(int(u), int(v)) for u, v in zip(*np.nonzero(upper))])
        assert g.edge_count == int(upper.sum())
        assert np.array_equal(adj, before)


# -- bipartition and part degrees -------------------------------------------


def test_bipartition_examples():
    bi = bipartition(cycle_graph(4))
    assert bi.part_x == frozenset({0, 2}) and bi.part_y == frozenset({1, 3})
    assert bipartition(cycle_graph(3)) is None
    assert bipartition(cycle_graph(5)) is None


def test_bipartition_stable():
    g = shattering_graph(3)
    assert bipartition(g) == bipartition(g)


def test_min_side_max_degree():
    for k in (2, 3, 4):
        assert min_side_max_degree(cycle_graph(2 * k)) == 2
    for k in (1, 2, 3, 4):
        assert min_side_max_degree(hypercube_graph(k)) == k
    assert min_side_max_degree(shattering_graph(2)) == 2
    assert min_side_max_degree(shattering_graph(3)) == 3
    with pytest.raises(NotBipartite):
        min_side_max_degree(cycle_graph(5))
    with pytest.raises(NoEdges):
        min_side_max_degree(Graph(4))


def test_min_side_max_degree_per_component():
    # A star K_{1,3} next to an edge: the star picks its leaf side (max
    # degree 1), the edge contributes 1, so r = 1 despite the hub.
    g = Graph(6, [(0, 1), (0, 2), (0, 3), (4, 5)])
    assert min_side_max_degree(g) == 1


# -- containment -------------------------------------------------------------


def test_containment_examples():
    c4, c6, q3 = cycle_graph(4), cycle_graph(6), hypercube_graph(3)
    p3 = path_graph(3)
    w = contains_subgraph(c4, p3)
    assert w is not None and verify_embedding(c4, p3, w.mapping)
    assert contains_subgraph(c6, c4) is None
    assert brute_contains(c6, c4) is None
    w = contains_subgraph(q3, c6)
    assert w is not None and verify_embedding(q3, c6, w.mapping)


def test_induced_examples():
    c4, p3, k4 = cycle_graph(4), path_graph(3), complete_graph(4)
    w = contains_induced_subgraph(c4, p3)
    assert w is not None and verify_embedding(c4, p3, w.mapping, induced=True)
    assert contains_induced_subgraph(k4, p3) is None


def test_shattering_with_extra_edge_induced_vs_plain():
    s3 = shattering_graph(3)
    # Extra edge from index vertex 0 to the subset {2, 3} (bitmask 0b110).
    host = Graph(s3.n, list(s3.edges()) + [(0, 3 + 0b110)])
    w = contains_subgraph(host, s3)
    assert w is not None and verify_embedding(host, s3, w.mapping)
    assert contains_induced_subgraph(host, s3) is None


def test_budget_is_not_absence():
    with pytest.raises(BudgetExceeded):
        contains_subgraph(complete_graph(8), cycle_graph(7), budget=2)
    # Same query without a budget succeeds.
    assert contains_subgraph(complete_graph(8), cycle_graph(7)) is not None


def test_pattern_larger_than_host_builds_no_plan():
    # Ordering a 2000-vertex pattern would take seconds; no pattern fits a
    # smaller host, so the answer comes before any search order is built.
    pattern = Graph(2000)
    assert contains_subgraph(cycle_graph(4), pattern) is None
    assert contains_induced_subgraph(cycle_graph(4), pattern) is None
    assert pattern._plans == {}


@pytest.mark.parametrize(
    "pattern, anchor, order",
    [
        ("C4", None, (0, 1, 2, 3)),
        ("C6", None, (0, 1, 2, 3, 4, 5)),
        ("P4", None, (1, 2, 0, 3)),
        ("K4", None, (0, 1, 2, 3)),
        ("Q3", None, (0, 1, 2, 3, 4, 5, 6, 7)),
        ("S2", None, (0, 5, 1, 3, 4, 2)),
        ("C6", (2, 3), (2, 3, 1, 0, 4, 5)),
        ("Q3", (5, 7), (5, 7, 1, 3, 0, 2, 4, 6)),
    ],
)
def test_plan_order_is_pinned(pattern, anchor, order):
    # Most placed neighbours first, then higher degree, then lower index.
    g = graph_from_name(pattern)
    assert _Plan(g, False, anchor).order == order
    if anchor is None:
        assert _Plan(g, True).order == order


def test_pattern_with_isolated_vertices_needs_spare_room():
    pat = Graph(3, [(0, 1)])  # one edge plus an isolated vertex
    assert contains_subgraph(complete_graph(2), pat) is None
    w = contains_subgraph(complete_graph(3), pat)
    assert w is not None and verify_embedding(complete_graph(3), pat, w.mapping)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from([0.2, 0.5, 0.8]), st.sampled_from([0.2, 0.5, 0.8]))
def test_search_matches_brute_force(seed, dg, dh):
    rng = np.random.default_rng(seed)
    pattern = random_graph(int(rng.integers(1, 6)), dg, rng)
    host = random_graph(int(rng.integers(1, 9)), dh, rng)
    w = contains_subgraph(host, pattern)
    brute = brute_contains(host, pattern)
    assert (w is None) == (brute is None)
    if w is not None:
        assert verify_embedding(host, pattern, w.mapping)
    wi = contains_induced_subgraph(host, pattern)
    brute_i = brute_contains(host, pattern, induced=True)
    assert (wi is None) == (brute_i is None)
    if wi is not None:
        assert verify_embedding(host, pattern, wi.mapping, induced=True)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_monotonicity_in_host_edges(seed):
    rng = np.random.default_rng(seed)
    pattern = random_graph(int(rng.integers(2, 5)), 0.5, rng)
    host = random_graph(7, 0.3, rng)
    if contains_subgraph(host, pattern) is None:
        return
    extra = [(u, v) for u in range(7) for v in range(u + 1, 7) if not host.has_edge(u, v)]
    bigger = Graph(7, list(host.edges()) + extra[:2])
    assert contains_subgraph(bigger, pattern) is not None


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_monotonicity_in_pattern(seed):
    rng = np.random.default_rng(seed)
    pattern = random_graph(4, 0.6, rng)
    host = random_graph(7, 0.5, rng)
    if contains_subgraph(host, pattern) is None:
        return
    edges = list(pattern.edges())
    sub = Graph(4, edges[:-1]) if edges else pattern
    assert contains_subgraph(host, sub) is not None


# -- text format -------------------------------------------------------------


def test_text_round_trip():
    for g in (cycle_graph(5), hypercube_graph(3), Graph(4), shattering_graph(2)):
        assert graph_from_text(graph_to_text(g)) == g


def test_text_format_shape():
    text = graph_to_text(path_graph(3))
    assert text.splitlines()[0] == "3 2"
    assert text.splitlines()[1:] == ["0 1", "1 2"]


def test_text_parse_errors():
    with pytest.raises(ValueError):
        graph_from_text("3")
    with pytest.raises(ValueError):
        graph_from_text("3 1\n1 0\n")  # u < v violated
    with pytest.raises(ValueError):
        graph_from_text("3 2\n0 1\n0 1\n")  # duplicate
    with pytest.raises(ValueError):
        graph_from_text("2 1\n0 5\n")  # out of range


def test_text_vertex_cap():
    assert graph_from_text(f"{MAX_CATALOG_EDGES} 1\n0 1\n").n == MAX_CATALOG_EDGES
    for n in (MAX_CATALOG_EDGES + 1, 10**7, 10**100):
        with pytest.raises(TooLarge):
            graph_from_text(f"{n} 0\n")
