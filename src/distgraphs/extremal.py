"""Exact extremal numbers ex(n, G) at desk scale, the bipartite exponent
catalog, and threshold-exponent arithmetic.

Two independent oracles compute ex(n, G), and both return the
lexicographically first maximum G-free edge set as the witness:

- a hereditary exhaustive scan over isomorphism classes: a G-free graph
  minus a vertex is G-free, so the G-free graphs on k vertices are the
  G-free one-vertex extensions of the classes on k - 1 vertices.  Each
  extension is searched through its new vertex, and one graph per class
  is kept: its relabeling with the least sorted edge list, which is
  also the labeling the witness is read from.  For k = |V(G)| .. n in
  turn it builds the classes on k vertices with at least L edges, L
  the best extension of the classes kept at k - 1, keeping at each
  level only the classes with enough edges to descend from such a
  graph: deleting a minimum-degree vertex of a G-free graph with e
  edges on j + 1 vertices leaves at least e - floor(2e / (j+1)) of
  them;
- a hereditary branch-and-bound that proves ex(k, G) for k = 1 .. n in
  turn.  At each k it branches on edges, searching through each new
  edge, and cuts with ex(k-1, G): a G-free
  graph minus a vertex is G-free, so every vertex of a graph beating
  the best has degree at least its edge count minus ex(k-1, G).
  Vertex 0's neighbours are taken to be a prefix 1 .. deg(0).

Exponents are exact rationals throughout; the case splits they
feed are equality-sensitive, so no floats are allowed here.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from itertools import combinations
from typing import Callable, Optional, Sequence

from .errors import BadDimension, EmptyPattern, TooLarge, TooSmall, env_cap
from .graphs import (
    Graph,
    _Budget,
    _coloring,
    _copy_through,
    _plans,
    contains_subgraph,
    hypercube_graph,
    iter_bits,
    min_side_max_degree,
)

DEFAULT_MAX_EXHAUSTIVE = 11
DEFAULT_MAX_BRANCH = 12
ENV_MAX_EXHAUSTIVE = "DISTGRAPHS_MAX_EXHAUSTIVE_N"
ENV_MAX_BRANCH = "DISTGRAPHS_MAX_BRANCH_N"


def max_exhaustive_n() -> int:
    """ex_exhaustive's cap on n; override with DISTGRAPHS_MAX_EXHAUSTIVE_N."""
    return env_cap(ENV_MAX_EXHAUSTIVE, DEFAULT_MAX_EXHAUSTIVE)


def max_branch_n() -> int:
    """ex_branch_bound's cap on n; override with DISTGRAPHS_MAX_BRANCH_N."""
    return env_cap(ENV_MAX_BRANCH, DEFAULT_MAX_BRANCH)


@dataclass(frozen=True)
class ExtremalResult:
    n: int
    pattern: Graph
    value: int
    witness: Graph  # a G-free graph on n vertices attaining the value
    # levels[k] is the result at k = 0 .. n, read off the same chain and
    # equal to a call at k; its own levels are left empty.
    levels: tuple["ExtremalResult", ...] = field(default=(), compare=False, repr=False)


def _levels_below_pattern(n: int, pattern: Graph, max_n: Callable[[], int], oracle: str) -> list[ExtremalResult]:
    """Checks the arguments and the oracle's cap, and returns the levels
    below |V(G)| vertices, up to n: nothing there holds a copy of G, so
    each is K_k, given before any plan is built."""
    if n < 0:
        raise TooSmall(f"vertex count must be nonnegative, got {n}")
    if pattern.edge_count == 0:
        raise EmptyPattern("extremal numbers are undefined for edgeless patterns")
    cap = max_n()
    if n > cap:
        raise TooLarge(f"n = {n} exceeds the {oracle} cap {cap}")
    return [
        ExtremalResult(k, pattern, k * (k - 1) // 2, Graph(k, combinations(range(k), 2)))
        for k in range(min(n + 1, pattern.n))
    ]


def _chain(levels: list[ExtremalResult]) -> ExtremalResult:
    """The result at the last level, carrying every level."""
    return replace(levels[-1], levels=tuple(levels))


def ex_exhaustive(n: int, pattern: Graph) -> ExtremalResult:
    """ex(n, G) by building, for k = |V(G)| .. n in turn, every G-free
    isomorphism class on k vertices with at least L edges.

    With fewer than |V(G)| vertices nothing holds a copy of G, so those
    maxima are K_k, and no class is built.  Step k takes:

    - a lower bound L <= ex(k, G): the edge count of the best G-free
      one-vertex extension of the classes step k - 1 kept (K_{k-1} at
      k = |V(G)|; `_extension_bound`), a graph the scan has built
      itself, never a value taken from branch-and-bound;
    - the window w(k) = L, w(j) = w(j+1) - floor(2 w(j+1) / (j+1))
      (`_window`).  Deleting a minimum-degree vertex of a G-free graph
      with e edges on j + 1 vertices leaves a G-free graph with at least
      e - floor(2e / (j+1)) edges, and that bound is nondecreasing in e,
      so every G-free graph on k vertices with at least L edges, and so
      every maximum one, descends one vertex at a time through graphs
      meeting the window.  `_free_classes` builds the classes on k
      vertices that meet it.

    After step k the greatest edge count among the kept classes is
    ex(k, G).  The witness is the lexicographically first maximum
    G-free edge set over all labeled graphs on k vertices.  Each class
    is kept as its relabeling with the least sorted edge list
    (`_certificate`), so the witness is the least edge list among the
    classes of that count.  Every step's value and witness are kept as
    the result's `levels`.
    """
    levels = _levels_below_pattern(n, pattern, max_exhaustive_n, "exhaustive")
    below = pattern.n - 1
    classes = [tuple(((1 << below) - 1) ^ (1 << v) for v in range(below))]  # K_{|V(G)|-1}
    for k in range(pattern.n, n + 1):
        classes = _free_classes(k, pattern, _window(k, _extension_bound(classes, pattern)))
        value = max(map(_edge_count, classes))
        witness = min(_edge_list(rows) for rows in classes if _edge_count(rows) == value)
        levels.append(ExtremalResult(k, pattern, value, Graph(k, witness)))
    return _chain(levels)


def _extension_bound(classes: Sequence[Sequence[int]], pattern: Graph) -> int:
    """The edge count of the best G-free one-vertex extension of the
    given classes, or 0 if none is G-free.  Larger neighbour sets are
    tried first, and a class is left once no smaller set can beat the
    best so far."""
    best = 0
    for rows in classes:
        size = _edge_count(rows)
        for s in range(len(rows), max(best - size, -1), -1):
            if any(
                _is_free(_extend(rows, sum(1 << v for v in nbrs)), pattern)
                for nbrs in combinations(range(len(rows)), s)
            ):
                best = size + s
                break
    return best


def _window(k: int, top: int) -> list[int]:
    """Edge floors w(0), ..., w(k) with w(k) = top and
    w(j) = w(j+1) - floor(2 w(j+1) / (j+1)): deleting a minimum-degree
    vertex of a graph on j + 1 vertices with at least w(j+1) edges
    leaves at least w(j) edges."""
    floors = [top]
    for j in range(k - 1, -1, -1):
        floors.append(floors[-1] - 2 * floors[-1] // (j + 1))
    return floors[::-1]


def _free_classes(n: int, pattern: Graph, floors: Sequence[int]) -> list[tuple[int, ...]]:
    """The G-free graphs on n vertices with at least floors[n] edges,
    one canonical rows tuple per isomorphism class.

    Deleting a vertex of a G-free graph leaves a G-free graph, so every
    class on j vertices is a class on j - 1 vertices plus a vertex j - 1
    joined to some subset S of the others.  Level j keeps only classes
    with at least floors[j] edges: the extension of a class with e edges
    by S is skipped before its search when e + |S| < floors[j].  Each
    other extension is searched for a copy of G through vertex j - 1,
    and the G-free ones are cut to one per class by `_certificate`,
    which relabels each to its least sorted edge list.

    With floors all zero (`_window(n, 0)`) every class is built.  With
    a `_window`, every G-free graph with at least floors[n] edges is
    still reached: deleting minimum-degree vertices one at a time takes
    it down through graphs with at least floors[j] edges on j vertices."""
    classes: list[tuple[int, ...]] = [()] if floors[0] <= 0 else []
    for j in range(1, n + 1):
        free = (
            ext
            for rows, size in zip(classes, map(_edge_count, classes))
            for nbrs in range(1 << (j - 1))
            if size + nbrs.bit_count() >= floors[j] and _is_free(ext := _extend(rows, nbrs), pattern)
        )
        classes = list(dict.fromkeys(map(_certificate, free)))
    return classes


def _edge_count(rows: Sequence[int]) -> int:
    return sum(r.bit_count() for r in rows) // 2


def _extend(rows: Sequence[int], nbrs: int) -> list[int]:
    """The graph plus a new last vertex joined to the vertex set `nbrs`."""
    new = len(rows)
    return [r | (nbrs >> v & 1) << new for v, r in enumerate(rows)] + [nbrs]


def _is_free(rows: Sequence[int], pattern: Graph) -> bool:
    """No copy of G in a one-vertex extension of a G-free graph.  Any copy
    maps some pattern vertex u, isolated or not, to the new vertex, and
    an automorphism moves u onto its orbit's representative."""
    degs = [r.bit_count() for r in rows]
    return not _copy_through(rows, degs, (len(rows) - 1,), _plans(pattern, 1), _Budget(None))


def _twins(rows: Sequence[int], u: int, v: int) -> bool:
    """Same neighbours apart from each other, so that swapping u and v
    is an automorphism."""
    return rows[u] & ~(1 << v) == rows[v] & ~(1 << u)


def _certificate(rows: Sequence[int]) -> tuple[int, ...]:
    """The relabeling whose sorted edge list is least, which is the one
    whose upper triangle, read row by row, is greatest.  Two graphs get
    the same certificate iff they are isomorphic.

    Labels are given in order, each to a vertex of the first cell of an
    ordered partition of the unlabeled vertices.  The cells start as
    one, and each labeled vertex splits every cell into its neighbours,
    then the rest.  A vertex outside the first cell misses a labeled
    vertex that the first cell's vertices are joined to, so labeling it
    next would put a 0 where another choice puts a 1 in an earlier row.
    The new vertex's row is then its neighbours in each cell, as leading
    ones, and of all branches only those with the greatest row go on.
    Swapping two twins of the first cell is an automorphism fixing the
    labels so far, so only the first of them is tried.

    The rows are returned in reversed label order: vertex i holds label
    n - 1 - i, so label 0, of maximum degree, is the last vertex.  The
    `_is_free` searches on extensions of the classes take fewer nodes
    that way (Q3 at n = 10: 0.35M, against 1.03M in label order)."""
    n = len(rows)
    branches = [((), [(1 << n) - 1])]  # vertices in label order, cells as bitsets
    for _ in range(n):
        best, kept = -1, []
        for order, (first, *rest) in branches:
            tried: list[int] = []
            for v in iter_bits(first):
                if any(_twins(rows, u, v) for u in tried):
                    continue
                tried.append(v)
                cells = [first ^ 1 << v, *rest]
                row = 0
                for cell in cells:
                    size, ones = cell.bit_count(), (cell & rows[v]).bit_count()
                    row = row << size | ((1 << ones) - 1) << (size - ones)
                if row < best:
                    continue
                if row > best:
                    best, kept = row, []
                split = [part for cell in cells for part in (cell & rows[v], cell & ~rows[v]) if part]
                kept.append(((*order, v), split))
        branches = kept
    order = branches[0][0][::-1]
    pos = {v: i for i, v in enumerate(order)}
    return tuple(sum(1 << pos[w] for w in iter_bits(rows[v])) for v in order)


def _edge_list(cert: Sequence[int]) -> list[tuple[int, int]]:
    """The sorted edge list of a certificate, in label order."""
    last = len(cert) - 1
    return sorted((last - v, last - u) for u, r in enumerate(cert) for v in iter_bits(r) if u < v)


def ex_branch_bound(n: int, pattern: Graph, *, budget: Optional[int] = None) -> ExtremalResult:
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
    set, which is the witness returned.  ex_exhaustive finds the same
    set by another route, as the least labeling of the maximum classes
    of its isomorph-free scan; the two oracles agree on value and
    witness wherever both run.  One budget of search nodes is spent
    across the whole chain, and every step's value and witness are kept
    as the result's `levels`.
    """
    levels = _levels_below_pattern(n, pattern, max_branch_n, "branch-and-bound")
    if n < pattern.n:
        return _chain(levels)
    plans = _plans(pattern, 2)
    search_budget = _Budget(budget)
    levels = levels[:1]  # the chain proves every k >= 1 itself
    for k in range(1, n + 1):
        value, rows = _ex_given_previous(k, levels[-1].value, plans, search_budget)
        levels.append(ExtremalResult(k, pattern, value, Graph._from_rows(k, rows)))
    return _chain(levels)


def _ex_given_previous(
    k: int, ex_prev: int, plans: Sequence, search_budget: _Budget
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
            if not _copy_through(rows, degs, (u, v), plans, search_budget):
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


def method_for(n: int, top: Optional[int] = None) -> str:
    """extremal-table's method at n: the scan up to `top` (exhaustive_max), by default its default cap."""
    return "exhaustive" if n <= (DEFAULT_MAX_EXHAUSTIVE if top is None else top) else "branch-bound"


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
    if g.n >= 3 and all(d == 2 for d in g.degrees()) and len(_coloring(g)[1]) <= 1:
        return g.n
    return None


def _hypercube_order(g: Graph) -> Optional[int]:
    k = g.n.bit_length() - 1
    if k < 1 or g.n != 1 << k:
        return None
    if g.edge_count != k * (1 << (k - 1)) or any(d != k for d in g.degrees()):
        return None
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
