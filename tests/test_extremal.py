from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import all_arc_plans, brute_contains, random_graph
from distgraphs.errors import BudgetExceeded, EmptyPattern, NotBipartite, BadDimension, TooLarge
from distgraphs.extremal import (
    _arc_orbit_plans,
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
    _search_rows,
    complete_graph,
    cycle_graph,
    hypercube_graph,
    path_graph,
    shattering_graph,
)


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


def test_ex_caps():
    with pytest.raises(TooLarge):
        ex_exhaustive(9, cycle_graph(4))
    with pytest.raises(TooLarge):
        ex_branch_bound(13, cycle_graph(4))
    # An explicit max_n overrides the default cap.
    with pytest.raises(TooLarge):
        ex_exhaustive(5, cycle_graph(4), max_n=4)


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


# ex(n, C4), OEIS A006855, n = 0..10
EX_C4 = [0, 0, 1, 3, 4, 6, 7, 9, 11, 13, 16]


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
        assert len(_arc_orbit_plans(pattern)) == expected, name


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000))
def test_arc_orbit_plans_find_the_same_copies(seed):
    rng = np.random.default_rng(seed)
    pattern = random_graph(int(rng.integers(2, 6)), 0.6, rng)
    host = random_graph(int(rng.integers(2, 9)), 0.5, rng)
    u, v = (int(x) for x in rng.choice(host.n, 2, replace=False))
    host = Graph(host.n, set(host.edges()) | {(min(u, v), max(u, v))})
    degs = host.degrees()

    def copy_through(plans) -> bool:
        pre = ((0, u), (1, v))
        return any(
            _search_rows(host.rows, degs, host.n, plan, _Budget(None), pre) is not None
            for plan in plans
        )

    assert copy_through(_arc_orbit_plans(pattern)) == copy_through(all_arc_plans(pattern))


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
            # The labeled scan takes 3 to 23 s per pattern at n = 7, where
            # test_criterion_3 already ties it to branch-and-bound for C4,
            # C6 and P4.
            if n <= 6 or name == "K3":
                assert ex_exhaustive(n, pattern).value == expected, (name, n)


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
