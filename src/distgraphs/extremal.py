"""Exact extremal numbers ex(n, G) at desk scale, the bipartite exponent
catalog, and threshold-exponent arithmetic.

Two independent oracles compute ex(n, G): a labeled exhaustive scan
(edge-count descending, so the first G-free graph found fixes the value)
and a branch-and-bound over edge inclusion with incremental freeness
checks.  Exponents are exact rationals throughout; the case splits they
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


def _anchored_plans(pattern: Graph) -> list[_Plan]:
    """One plan per directed pattern edge, anchored so positions 0 and 1
    are that edge's endpoints."""
    plans = []
    for a, b in pattern.edges():
        plans.append(_Plan(pattern, induced=False, anchor=(a, b)))
        plans.append(_Plan(pattern, induced=False, anchor=(b, a)))
    return plans


def ex_branch_bound(
    n: int,
    pattern: Graph,
    max_n: Optional[int] = None,
    budget: Optional[int] = None,
) -> ExtremalResult:
    """ex(n, G) by branching on edges in a fixed order.

    Adding an edge only requires searching for pattern copies through
    that edge (anchored search), and branches are cut when the current
    count plus the remaining undecided edges cannot beat the best graph
    found so far.  Agrees with ex_exhaustive wherever both run.
    """
    _check_pattern(pattern)
    cap = max_n if max_n is not None else env_cap(ENV_MAX_BRANCH, DEFAULT_MAX_BRANCH)
    if n > cap:
        raise TooLarge(f"n = {n} exceeds the branch-and-bound cap {cap}")
    all_edges = list(combinations(range(n), 2))
    total = len(all_edges)
    anchored = _anchored_plans(pattern)
    search_budget = _Budget(budget)
    rows = [0] * n
    degs = [0] * n
    best = -1
    best_rows: tuple[int, ...] = ()

    def creates_copy(u: int, v: int) -> bool:
        for plan in anchored:
            pre = ((0, u), (1, v))
            if _search_rows(rows, degs, n, plan, search_budget, preassigned=pre) is not None:
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
        rows[u] |= 1 << v
        rows[v] |= 1 << u
        degs[u] += 1
        degs[v] += 1
        fresh_copy = creates_copy(u, v)
        if not fresh_copy:
            dfs(i + 1, count + 1)
        rows[u] ^= 1 << v
        rows[v] ^= 1 << u
        degs[u] -= 1
        degs[v] -= 1
        dfs(i + 1, count)

    dfs(0, 0)
    return ExtremalResult(n, pattern, best, Graph._from_rows(n, best_rows))


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
