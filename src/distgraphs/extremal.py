"""Exact extremal numbers ex(n, G) at desk scale, the bipartite exponent
catalog, and threshold-exponent arithmetic.

Two independent oracles compute ex(n, G), and both return the
lexicographically first maximum G-free edge set as the witness:

- a labeled exhaustive scan, edge counts descending, so the first
  G-free edge set found fixes the value;
- a hereditary branch-and-bound that proves ex(k, G) for k = 1 .. n in
  turn.  At each k it branches on edges with incremental anchored
  searches, one per arc orbit of G, and cuts with ex(k-1, G): a G-free
  graph minus a vertex is G-free, so every vertex of a graph beating
  the best has degree at least its edge count minus ex(k-1, G).
  Vertex 0's neighbours are taken to be a prefix 1 .. deg(0).

Exponents are exact rationals throughout; the case splits they
feed are equality-sensitive, so no floats are allowed here.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Optional

from .errors import BadDimension, EmptyPattern, TooLarge, env_cap
from .graphs import (
    Graph,
    _Budget,
    _Plan,
    _components,
    _get_plan,
    _search_rows,
    contains_subgraph,
    min_side_max_degree,
)

DEFAULT_MAX_EXHAUSTIVE = 8
DEFAULT_MAX_BRANCH = 12
ENV_MAX_EXHAUSTIVE = "DISTGRAPHS_MAX_EXHAUSTIVE_N"
ENV_MAX_BRANCH = "DISTGRAPHS_MAX_BRANCH_N"


@dataclass(frozen=True)
class ExtremalResult:
    n: int
    pattern: Graph
    value: int
    witness: Graph  # a G-free graph on n vertices attaining the value


def _check_pattern(pattern: Graph) -> None:
    if pattern.edge_count == 0:
        raise EmptyPattern("extremal numbers are undefined for edgeless patterns")


def ex_exhaustive(n: int, pattern: Graph, max_n: Optional[int] = None) -> ExtremalResult:
    """ex(n, G) by scanning all labeled graphs on n vertices.

    Scans edge counts descending; within a count the first G-free edge
    set found settles the value, so the worst case is the sum of
    C(C(n,2), m) over m above the answer.
    """
    _check_pattern(pattern)
    cap = max_n if max_n is not None else env_cap(ENV_MAX_EXHAUSTIVE, DEFAULT_MAX_EXHAUSTIVE)
    if n > cap:
        raise TooLarge(f"n = {n} exceeds the exhaustive cap {cap}")
    all_edges = list(combinations(range(n), 2))
    plan = _get_plan(pattern, induced=False)
    budget = _Budget(None)
    for m in range(len(all_edges), -1, -1):
        for combo in combinations(all_edges, m):
            rows = [0] * n
            for u, v in combo:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
            degs = [r.bit_count() for r in rows]
            if _search_rows(rows, degs, n, plan, budget) is None:
                return ExtremalResult(n, pattern, m, Graph(n, combo))
    raise AssertionError("unreachable: the empty graph is always pattern-free")


def _arc_orbit_plans(pattern: Graph) -> list[_Plan]:
    """One anchored plan per orbit of directed pattern edges under
    Aut(G), positions 0 and 1 anchored at the orbit's first arc.

    Arc (c, d) joins the orbit of a representative (a, b) when a
    self-embedding of G maps a to c and b to d; such a map is a bijection
    carrying the edges onto the edges, so it is an automorphism.  Any
    copy of G through a host edge then has some representative arc on
    it, so the representatives answer every "copy through (u, v)?"."""
    degs = pattern.degrees()
    plans: list[_Plan] = []
    for a, b in pattern.edges():
        for arc in ((a, b), (b, a)):
            pre = ((0, arc[0]), (1, arc[1]))
            if all(
                _search_rows(pattern.rows, degs, pattern.n, plan, _Budget(None), pre) is None
                for plan in plans
            ):
                plans.append(_Plan(pattern, False, arc))
    return plans


def ex_branch_bound(
    n: int,
    pattern: Graph,
    max_n: Optional[int] = None,
    budget: Optional[int] = None,
) -> ExtremalResult:
    """ex(n, G) by proving ex(k, G) for k = 1 .. n in turn, each by
    branching on the edges of K_k in lexicographic order, include first.

    Including an edge needs only a search for copies of G through it,
    one anchored search per arc orbit of G.  A branch is cut when its
    count plus the undecided edges cannot beat the best graph found, and
    by two further cuts:

    - hereditary degrees: deleting a vertex of a G-free graph H leaves a
      G-free graph on k - 1 vertices, so deg(x) >= e(H) - ex(k-1, G).
      After excluding edge (u, v), the branch is cut when u or v can no
      longer reach that degree for any H beating the best;
    - vertex 0's neighbours form a prefix 1 .. deg(0): once (0, j) is
      excluded, so is every (0, j') with j' > j (swapping j and j'
      gives a lexicographically earlier copy of the same graph).

    Neither cut removes the lexicographically first maximum G-free edge
    set, which is the witness returned, as ex_exhaustive's is; the two
    oracles agree on value and witness wherever both run.  One budget of
    search nodes is spent across the whole chain.
    """
    _check_pattern(pattern)
    cap = max_n if max_n is not None else env_cap(ENV_MAX_BRANCH, DEFAULT_MAX_BRANCH)
    if n > cap:
        raise TooLarge(f"n = {n} exceeds the branch-and-bound cap {cap}")
    plans = _arc_orbit_plans(pattern)
    search_budget = _Budget(budget)
    value, rows = 0, ()
    for k in range(1, n + 1):
        value, rows = _ex_given_previous(k, value, plans, search_budget)
    return ExtremalResult(n, pattern, value, Graph._from_rows(n, rows))


def _ex_given_previous(
    k: int, ex_prev: int, plans: list[_Plan], search_budget: _Budget
) -> tuple[int, tuple[int, ...]]:
    """ex(k, G) and the rows of its lexicographically first witness,
    given ex(k-1, G) = ex_prev."""
    all_edges = list(combinations(range(k), 2))
    total = len(all_edges)
    rows = [0] * k
    degs = [0] * k
    left = [k - 1] * k  # undecided edges at each vertex
    best = -1
    best_rows: tuple[int, ...] = ()

    def creates_copy(u: int, v: int) -> bool:
        pre = ((0, u), (1, v))
        for plan in plans:
            if _search_rows(rows, degs, k, plan, search_budget, preassigned=pre) is not None:
                return True
        return False

    def dfs(i: int, count: int) -> None:
        nonlocal best, best_rows
        search_budget.spend()
        if count + (total - i) <= best:
            return
        if i == total:
            if count > best:
                best, best_rows = count, tuple(rows)
            return
        u, v = all_edges[i]
        left[u] -= 1
        left[v] -= 1
        # Vertex 0's neighbours form a prefix: (0, v) only after (0, v - 1).
        if u or v == 1 or rows[0] >> (v - 1) & 1:
            rows[u] |= 1 << v
            rows[v] |= 1 << u
            degs[u] += 1
            degs[v] += 1
            if not creates_copy(u, v):
                dfs(i + 1, count + 1)
            rows[u] ^= 1 << v
            rows[v] ^= 1 << u
            degs[u] -= 1
            degs[v] -= 1
        # Every vertex of a G-free graph with more than best edges has
        # at least best + 1 - ex(k-1) of them.
        need = best + 1 - ex_prev
        if degs[u] + left[u] >= need and degs[v] + left[v] >= need:
            dfs(i + 1, count)
        left[u] += 1
        left[v] += 1

    dfs(0, 0)
    return best, best_rows


def verify_extremal_witness(result: ExtremalResult) -> bool:
    """Independent check: the witness has `value` edges and is G-free."""
    return (
        result.witness.n == result.n
        and result.witness.edge_count == result.value
        and contains_subgraph(result.witness, result.pattern) is None
    )


# -- exponent catalog ------------------------------------------------------

AKS = "AKS"
BONDY_SIMONOVITS = "BondySimonovits"
ERDOS_SIMONOVITS = "ErdosSimonovits"
JANZER_SUDAKOV = "JanzerSudakov"


@dataclass(frozen=True)
class ExponentInfo:
    """An exponent alpha with ex(n, G) = O(n^(2 - alpha)), tagged with
    the bound that supplies it."""

    alpha: Fraction
    source: str
    r: Optional[int] = None  # part-wise max degree, when source is AKS


def aks_exponent(pattern: Graph) -> ExponentInfo:
    """alpha = 1/r where r is the smaller part-wise maximum degree."""
    r = min_side_max_degree(pattern)
    return ExponentInfo(Fraction(1, r), AKS, r)


def _cycle_length(g: Graph) -> Optional[int]:
    if g.n >= 3 and all(d == 2 for d in g.degrees()) and len(_components(g)) <= 1:
        return g.n
    return None


def _hypercube_order(g: Graph) -> Optional[int]:
    k = g.n.bit_length() - 1
    if k < 1 or g.n != 1 << k:
        return None
    if g.edge_count != k * (1 << (k - 1)) or any(d != k for d in g.degrees()):
        return None
    from .graphs import hypercube_graph

    # Same vertex and edge counts, so any embedding is an isomorphism.
    if contains_subgraph(g, hypercube_graph(k)) is None:
        return None
    return k


def best_known_exponent(pattern: Graph) -> ExponentInfo:
    """Largest applicable alpha: Bondy-Simonovits for even cycles,
    Erdos-Simonovits for Q_3, Janzer-Sudakov for Q_k (k >= 4), and the
    part-degree bound as the general fallback.  Ties go to the
    specialized bound."""
    best = aks_exponent(pattern)
    cyc = _cycle_length(pattern)
    if cyc is not None and cyc % 2 == 0:
        k = cyc // 2
        cand = ExponentInfo(Fraction(k - 1, k), BONDY_SIMONOVITS)
        if cand.alpha >= best.alpha:
            best = cand
    hk = _hypercube_order(pattern)
    if hk == 3:
        cand = ExponentInfo(Fraction(2, 5), ERDOS_SIMONOVITS)
        if cand.alpha >= best.alpha:
            best = cand
    elif hk is not None and hk >= 4:
        half = 1 << (hk - 1)
        cand = ExponentInfo(Fraction(half - 1, (hk - 1) * half), JANZER_SUDAKOV)
        if cand.alpha >= best.alpha:
            best = cand
    return best


@dataclass(frozen=True)
class ThresholdResult:
    """s* = max((d+1)/2, 1/alpha): sets of size >= c q^(s*) must realize
    the pattern at every nonzero distance."""

    pattern: Graph
    d: int
    s_star: Fraction
    binding: str  # "dimension", "extremal", or "both"
    exponent: ExponentInfo


def threshold_exponent(pattern: Graph, d: int) -> ThresholdResult:
    if d < 2:
        raise BadDimension(f"need d >= 2, got {d}")
    info = best_known_exponent(pattern)
    dim_side = Fraction(d + 1, 2)
    ext_side = 1 / info.alpha
    s_star = max(dim_side, ext_side)
    if dim_side == ext_side:
        binding = "both"
    elif dim_side > ext_side:
        binding = "dimension"
    else:
        binding = "extremal"
    return ThresholdResult(pattern, d, s_star, binding, info)
