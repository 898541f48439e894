import itertools
import sys
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    all_arc_plans,
    automorphisms,
    brute_contains,
    contains_oracle,
    random_graph,
    search_rows_oracle,
)
from distgraphs.errors import BudgetExceeded, NoEdges, NotBipartite, TooLarge, TooSmall
from distgraphs.extremal import _arc_orbit_plans
from distgraphs.ffgeom import distance_graph, graph_distance_set, random_subset
from distgraphs.field import make_field
from distgraphs.graphs import (
    _ORBIT_BUDGET,
    MAX_CATALOG_EDGES,
    Graph,
    _Budget,
    _Plan,
    _chain_floors,
    _search_rows,
    _self_embedding,
    _witness_from_plan,
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
        expected = Graph(n, [(int(u), int(v)) for u, v in zip(*np.nonzero(upper))])
        # the whole matrix as one block, then as blocks of 1 to 3 rows
        for blocks in ([adj], np.array_split(adj, np.arange(1, n, 3)), np.array_split(adj, np.arange(2, n, 2))):
            g = Graph.from_bool_blocks(blocks)
            assert g == expected and g.edge_count == int(upper.sum())
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


# -- symmetry-broken search -----------------------------------------------------

ORBIT_CATALOG = ["C4", "C6", "P4", "K3", "S2", "Q3"]
SPENT_CAP = 10**9  # a budget no test search reaches; nodes spent = cap - remaining


def _run(search, host, plan, pre=()):
    """The search's mapping in plan order and the budget nodes it spent."""
    budget = _Budget(SPENT_CAP)
    images = search(host.rows, host.degrees(), host.n, plan, budget, pre)
    return images, SPENT_CAP - budget.remaining


def _symmetric_pattern(rng) -> Graph:
    """Copies of one small random graph, a few isolated vertices and maybe
    one more random component, so that orbits are large and patterns have
    several components."""
    part = random_graph(int(rng.integers(1, 4)), 0.7, rng)
    extra = random_graph(int(rng.integers(0, 3)), 0.7, rng)
    blocks = [part] * int(rng.integers(1, 3)) + [extra, Graph(int(rng.integers(0, 3)))]
    edges, n = [], 0
    for b in blocks:
        edges += [(u + n, v + n) for u, v in b.edges()]
        n += b.n
    # shuffle the labels so order[0] is not always vertex 0
    perm = rng.permutation(n)
    return Graph(n, [(int(perm[u]), int(perm[v])) for u, v in edges])


def _brute_floors(g: Graph, plan: _Plan) -> tuple[tuple[int, ...], ...]:
    """The stabilizer chain's floors from every automorphism: position j
    gets floor i when order[j] is in the orbit of order[i] under the
    automorphisms that fix order[0..i-1]."""
    order, floors = plan.order, [()] * g.n
    stabilizer = automorphisms(g)
    for i, v in enumerate(order):
        orbit = {perm[v] for perm in stabilizer}
        for j in range(i + 1, g.n):
            if order[j] in orbit:
                floors[j] += (i,)
        stabilizer = [perm for perm in stabilizer if perm[v] == v]
    return tuple(floors)


def _floor_counts(plan: _Plan) -> list[int]:
    """The number of positions with a floor at each level."""
    counts = [0] * plan.n
    for floors in plan.floors:
        for i in floors:
            counts[i] += 1
    return counts


@pytest.mark.parametrize("name", ORBIT_CATALOG)
def test_orbits_match_brute_force_automorphisms_catalog(name):
    g = graph_from_name(name)
    for induced in (False, True):
        plan = _Plan(g, induced)
        assert plan.floors == _brute_floors(g, plan)
    # C4, C6, K3 and Q3 are vertex-transitive; in P4 and S2 order[0] has
    # one other vertex in its orbit and the rest of the chain is trivial.
    expected = {
        "C4": [3, 1],
        "C6": [5, 1],
        "K3": [2, 1],
        "P4": [1],
        "S2": [1],
        "Q3": [7, 2, 1],
    }[name]
    assert _floor_counts(plan) == expected + [0] * (g.n - len(expected))


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10_000), st.booleans())
def test_orbits_match_brute_force_automorphisms_random(seed, symmetric):
    rng = np.random.default_rng(seed)
    g = _symmetric_pattern(rng) if symmetric else random_graph(int(rng.integers(1, 8)), 0.5, rng)
    if not 1 <= g.n <= 7:
        return
    for induced in (False, True):
        plan = _Plan(g, induced)
        assert plan.floors == _brute_floors(g, plan)


class _CountingBudget(_Budget):
    """A budget that also counts every spend, refused ones included."""

    __slots__ = ("calls",)

    def __init__(self, budget):
        super().__init__(budget)
        self.calls = 0

    def spend(self):
        self.calls += 1
        super().spend()


@pytest.mark.parametrize(
    "pattern",
    [hypercube_graph(7), cycle_graph(200), path_graph(300), Graph(1200, [(0, 1)]), Graph(1200)],
    ids=["Q7", "C200", "P300", "1200 with one edge", "1200 edgeless"],
)
def test_plan_builds_are_bounded(pattern):
    # The ordering takes a heap and the chain's probes share one budget,
    # so even a pattern whose probes exhaust it plans in milliseconds.
    start = time.perf_counter()
    plan = _Plan(pattern, False)
    assert time.perf_counter() - start < 0.1
    budget = _CountingBudget(_ORBIT_BUDGET)
    assert _chain_floors(pattern, plan, budget) == plan.floors
    # at most one refused spend: no probe starts once the budget is out
    assert budget.calls <= _ORBIT_BUDGET + 1


def test_arc_orbit_representatives_match_brute_force():
    # One representative per arc orbit, each the first arc of its orbit in
    # the order edges() lists them, (a, b) before (b, a): what the
    # unbudgeted probes of the first branch-and-bound gave.
    rng = np.random.default_rng(7)
    graphs = [graph_from_name(name) for name in ORBIT_CATALOG]
    graphs += [random_graph(int(rng.integers(2, 8)), 0.5, rng) for _ in range(30)]
    for g in graphs:
        auts = automorphisms(g)
        arcs = [arc for a, b in g.edges() for arc in ((a, b), (b, a))]
        firsts = []
        for a, b in arcs:
            if not any((perm[c], perm[d]) == (a, b) for c, d in firsts for perm in auts):
                firsts.append((a, b))
        assert [plan.order[:2] for plan in _arc_orbit_plans(g)] == firsts


@pytest.mark.parametrize("name", ORBIT_CATALOG)
def test_probes_return_the_unbudgeted_search(name):
    # Below the probe budget a probe is the plain preassigned search.
    g = graph_from_name(name)
    plans = [_Plan(g, False), _Plan(g, True), *all_arc_plans(g)]
    for plan in plans:
        k = 1 if len(plan.order) < 2 or not g.has_edge(*plan.order[:2]) else 2
        for images in itertools.permutations(range(g.n), k):
            expected, _ = _run(search_rows_oracle, g, plan, tuple(enumerate(images)))
            found = _self_embedding(g, plan, images, _Budget(_ORBIT_BUDGET))
            assert found == (None if expected is None else _witness_from_plan(plan, expected).mapping)


def test_spent_probe_budget_finds_nothing():
    g = graph_from_name("C6")
    plan = _Plan(g, False)
    assert _self_embedding(g, plan, (3,), _Budget(0)) is None
    assert _self_embedding(g, plan, (3,), _Budget(6)) is not None


# Patterns whose chains go past level 0: C6 and Q3 are vertex-transitive
# with nontrivial stabilizers, and K_{2,3} has two orbits.
DEEP_CHAIN_PATTERNS = {
    "C6": cycle_graph(6),
    "Q3": hypercube_graph(3),
    "K23": Graph(5, [(a, b) for a in range(2) for b in range(2, 5)]),
}


def _test_pattern(kind: str, rng) -> Graph:
    return _symmetric_pattern(rng) if kind == "symmetric" else DEEP_CHAIN_PATTERNS[kind]


# Half the examples keep the random symmetric patterns.
PATTERN_KINDS = st.sampled_from(["symmetric", "symmetric", *DEEP_CHAIN_PATTERNS])


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 100_000), st.sampled_from([0.2, 0.5, 0.8]), st.booleans(), PATTERN_KINDS)
def test_symmetry_broken_search_matches_the_oracle(seed, density, induced, kind):
    rng = np.random.default_rng(seed)
    pattern = _test_pattern(kind, rng)
    host = random_graph(int(rng.integers(0, 12)), density, rng)
    plan = _Plan(pattern, induced)
    images, spent = _run(_search_rows, host, plan)
    expected, oracle_spent = _run(search_rows_oracle, host, plan)
    assert images == expected
    assert spent <= oracle_spent


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 100_000), st.booleans(), PATTERN_KINDS)
def test_preassigned_search_is_unchanged(seed, induced, kind):
    # Searches with fixed first images keep the plain search, node for node.
    rng = np.random.default_rng(seed)
    pattern = _test_pattern(kind, rng)
    host = random_graph(int(rng.integers(1, 10)), 0.6, rng)
    plans = [_Plan(pattern, induced)] + (all_arc_plans(pattern) if not induced else [])
    for plan in plans:
        k = 2 if plan.prior_nbrs[1:2] == ((0,),) else 1
        for images in itertools.permutations(range(host.n), min(k, host.n)):
            pre = tuple(enumerate(images))
            assert _run(_search_rows, host, plan, pre) == _run(search_rows_oracle, host, plan, pre)


def test_searches_deeper_than_the_recursion_limit_answer():
    # The search is a loop, so a pattern deeper than the interpreter's
    # recursion limit gets an answer, and so does the plan's probe that
    # finds the swap of vertices 0 and 1.
    assert sys.getrecursionlimit() < 1200
    pattern = Graph(1200, [(0, 1)])
    assert contains_subgraph(Graph(1200), pattern) is None
    plan = pattern._plans[False]
    assert plan.order[:2] == (0, 1) and plan.floors[1] == (0,)
    host, edgeless = Graph(1500), Graph(1200)
    w = contains_subgraph(host, edgeless)
    assert w is not None and verify_embedding(host, edgeless, w.mapping)


def test_q3_distance_set_witnesses_match_the_oracle_search():
    # GraphDistanceSet compares without its witnesses, so compare them here.
    q3 = hypercube_graph(3)
    E = random_subset(make_field(13, 1), 3, 80, seed=1)
    ds = graph_distance_set(E, q3)
    assert 0 < len(ds.contained) < 13
    for t in range(13):
        expected = contains_oracle(distance_graph(E, t), q3)
        assert (t in ds.contained) == (expected is not None)
        if expected is not None:
            assert ds.witnesses[t].mapping == expected.mapping


def test_budget_counts_nodes_of_the_symmetry_reduced_search():
    # Q3 is vertex-transitive with a three-level chain, and this absence
    # proof takes about an eighth of the plain search's nodes; a budget
    # between the two counts decides what the plain search could not.
    q3 = hypercube_graph(3)
    E = random_subset(make_field(13, 1), 3, 80, seed=1)
    host = distance_graph(E, 2)
    plan = _Plan(q3, False)
    (images, spent), (expected, oracle_spent) = _run(_search_rows, host, plan), _run(search_rows_oracle, host, plan)
    assert images is None and expected is None
    assert 0 < spent < oracle_spent
    assert contains_subgraph(host, q3, budget=spent) is None
    with pytest.raises(BudgetExceeded):
        contains_subgraph(host, q3, budget=spent - 1)
    with pytest.raises(BudgetExceeded):
        contains_oracle(host, q3, budget=spent)


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
