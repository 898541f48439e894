"""Independent brute-force oracles used by the test suite.

These deliberately avoid the library's search and table machinery: the
embedding oracle enumerates every injective map, `automorphisms` tries
every permutation, the histogram and
pairwise-norm oracles run scalar field arithmetic point by point, the
sampler oracle draws its swap indices one numpy.random call at a time
(the library computes the same stream in pure Python), and the net
and annulus oracles scan the whole cloud for every center, with the
same distance predicates as the library's row-interval kernels.
`search_rows_oracle` is the library's former embedding search, recursive
and with no stabilizer-chain floors, and `contains_oracle` runs it on a whole host.
`all_arc_plans` is the extremal branch-and-bound's former plan set, one
anchored plan per directed pattern edge, not one per orbit;
`all_vertex_plans` is its one-vertex counterpart, one anchored plan per
pattern vertex, for the exhaustive scan's search through a new vertex;
`ex_labeled_oracle` is the former exhaustive ex(n, G) oracle, a scan of
every labeled graph on n vertices, and `graph_distance_set_oracle` is the
former G-distance set, which builds every t-distance graph whole from one
n x n norm matrix.  `degree_table_oracle` is the block degree table,
counted apart from the library's row store, which checks the degrees
that dense sets read from their packed rows.
`approx_distance_graph_oracle` is the former approximate distance
graph, built from the whole (k, k, d) difference array of the net's
centers.
"""

from itertools import combinations, permutations

import numpy as np

from distgraphs.adreg import GUARD, Net
from distgraphs.errors import BudgetExceeded
from distgraphs.extremal import ExtremalResult
from distgraphs.ffgeom import GraphDistanceSet, PointSet, _norm_blocks, _norm_kernel, pairwise_norms
from distgraphs.graphs import (
    Graph,
    _Budget,
    _Plan,
    _plans,
    _witness_from_plan,
    contains_subgraph,
    iter_bits,
)


def brute_contains(host: Graph, pattern: Graph, induced: bool = False):
    """First injective map preserving edges (and non-edges when induced),
    by exhaustive enumeration; None if there is none."""
    for mapping in permutations(range(host.n), pattern.n):
        ok = True
        for u in range(pattern.n):
            for v in range(u + 1, pattern.n):
                edge = pattern.has_edge(u, v)
                himg = host.has_edge(mapping[u], mapping[v])
                if edge and not himg:
                    ok = False
                    break
                if induced and not edge and himg:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return mapping
    return None


def automorphisms(g: Graph) -> list[tuple[int, ...]]:
    """Every permutation of the vertices that maps the edges onto the
    edges; keep n <= 8."""
    edges = list(g.edges())
    return [
        perm
        for perm in permutations(range(g.n))
        if all(g.has_edge(perm[u], perm[v]) for u, v in edges)
    ]


def search_rows_oracle(host_rows, host_degs, n_host, plan, budget, preassigned=()):
    """The embedding search with no symmetry breaking: backtracking in
    plan order over bitset rows, candidates ascending, one budget node
    per candidate that passes the degree test, with `preassigned` the
    images of positions 0, 1, ... in turn.  The mapping in plan order,
    or None."""
    if plan.n > n_host:
        return None
    full = (1 << n_host) - 1
    images = [-1] * plan.n
    used = 0
    for pos, img in enumerate(preassigned):
        if host_degs[img] < plan.degrees[pos] or used >> img & 1:
            return None
        for i in plan.prior_nbrs[pos]:
            if not host_rows[images[i]] >> img & 1:
                return None
        if plan.induced:
            for i in plan.prior_nonnbrs[pos]:
                if host_rows[images[i]] >> img & 1:
                    return None
        images[pos] = img
        used |= 1 << img

    def extend(pos):
        nonlocal used
        if pos == plan.n:
            return True
        cand = full & ~used
        for i in plan.prior_nbrs[pos]:
            cand &= host_rows[images[i]]
        for i in plan.prior_nonnbrs[pos] if plan.induced else ():
            cand &= ~host_rows[images[i]]
        for v in iter_bits(cand):
            if host_degs[v] < plan.degrees[pos]:
                continue
            budget.spend()
            images[pos] = v
            used |= 1 << v
            if extend(pos + 1):
                return True
            used ^= 1 << v
        images[pos] = -1
        return False

    return tuple(images) if extend(len(preassigned)) else None


def contains_oracle(host: Graph, pattern: Graph, induced: bool = False, budget=None):
    """contains_subgraph (or the induced search) by `search_rows_oracle`
    over the library's plan order: a witness or None."""
    if pattern.n > host.n:
        return None
    (plan,) = _plans(pattern, 0, induced)
    images = search_rows_oracle(host.rows, host.degrees(), host.n, plan, _Budget(budget))
    return None if images is None else _witness_from_plan(plan, images)


def all_arc_plans(pattern: Graph) -> list[_Plan]:
    """One plan per directed pattern edge, anchored so positions 0 and 1
    are that edge's endpoints."""
    plans = []
    for a, b in pattern.edges():
        plans.append(_Plan(pattern, induced=False, anchor=(a, b)))
        plans.append(_Plan(pattern, induced=False, anchor=(b, a)))
    return plans


def all_vertex_plans(pattern: Graph) -> list[_Plan]:
    """One plan per pattern vertex, anchored so position 0 is that
    vertex."""
    return [_Plan(pattern, induced=False, anchor=(v,)) for v in range(pattern.n)]


def ex_labeled_oracle(n: int, pattern: Graph) -> ExtremalResult:
    """ex(n, G) by scanning the labeled graphs on n vertices, edge
    counts descending, each edge count's edge sets in lexicographic
    order: the first G-free edge set found is the value and the
    lexicographically first maximum witness.  The worst case is the sum
    of C(C(n, 2), m) over m above the answer, so keep n <= 6."""
    all_edges = list(combinations(range(n), 2))
    (plan,) = _plans(pattern, 0)
    budget = _Budget(None)
    for m in range(len(all_edges), -1, -1):
        for combo in combinations(all_edges, m):
            rows = [0] * n
            for u, v in combo:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
            degs = [r.bit_count() for r in rows]
            if search_rows_oracle(rows, degs, n, plan, budget) is None:
                return ExtremalResult(n, pattern, m, Graph(n, combo))
    raise AssertionError("unreachable: the empty graph is always pattern-free")


def histogram_oracle(E: PointSet) -> dict[int, int]:
    """Ordered-pair distance counts via scalar FieldElement arithmetic."""
    pts = E.points()
    counts: dict[int, int] = {}
    for x in pts:
        for y in pts:
            t = (x - y).norm().code
            counts[t] = counts.get(t, 0) + 1
    return counts


def pairwise_norms_oracle(E: PointSet) -> np.ndarray:
    """The (n, n) matrix of norm codes ||x_i - x_j||, one scalar
    FieldElement computation per pair."""
    pts = E.points()
    norms = [[(x - y).norm().code for y in pts] for x in pts]
    return np.array(norms, dtype=np.int64).reshape(len(pts), len(pts))


def graph_distance_set_oracle(E: PointSet, pattern: Graph, budget=None) -> GraphDistanceSet:
    """Delta_G(E) from whole graphs: one pairwise norm matrix, then one
    contains_subgraph call on the t-distance graph for every t."""
    if pattern.n > len(E):
        return GraphDistanceSet(E.spec, frozenset(), frozenset())
    norms = pairwise_norms(E)
    contained = set()
    indeterminate = set()
    witnesses = {}
    for t in range(E.spec.q):
        try:
            w = contains_subgraph(Graph.from_bool_blocks([norms == t]), pattern, budget=budget)
        except BudgetExceeded:
            indeterminate.add(t)
            continue
        if w is not None:
            contained.add(t)
            witnesses[t] = w
    return GraphDistanceSet(E.spec, frozenset(contained), frozenset(indeterminate), witnesses)


def degree_table_oracle(E: PointSet) -> np.ndarray:
    """(n, q) int64 table deg[i, t] = #{j != i : ||x_i - x_j|| = t}, from
    one bincount per norm block over (row - block start) * q + norm."""
    n, q = len(E), E.spec.q
    deg = np.empty((n, q), dtype=np.int64)
    for rows, block in _norm_blocks(E, _norm_kernel(E)):
        offsets = np.arange(rows.stop - rows.start, dtype=np.int64)[:, None] * q
        deg[rows] = np.bincount((offsets + block).ravel(), minlength=offsets.size * q).reshape(-1, q)
    deg[:, 0] -= 1  # the diagonal, ||x_i - x_i|| = 0
    return deg


def partial_fisher_yates_oracle(n: int, size: int, rng: np.random.Generator) -> list[int]:
    """First `size` entries of a Fisher-Yates shuffle of range(n), one
    rng.integers(i, n) call per step."""
    swap: dict[int, int] = {}
    out = []
    for i in range(size):
        j = int(rng.integers(i, n))
        vi = swap.get(i, i)
        vj = swap.get(j, j)
        swap[i], swap[j] = vj, vi
        out.append(vj)
    return out


def random_graph(n: int, density: float, rng) -> Graph:
    edges = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if rng.random() < density
    ]
    return Graph(n, edges)


def approx_distance_graph_oracle(net: Net, t: float) -> Graph:
    """The graph on net centers with x ~ y iff | |x - y| - t | < 10
    epsilon, from one (k, k, d) difference array."""
    diff = net.centers[:, None, :] - net.centers[None, :, :]
    dist = np.sqrt((diff**2).sum(axis=2))
    return Graph.from_bool_blocks([np.abs(dist - t) < 10.0 * net.epsilon])


def greedy_net_oracle(points: np.ndarray, epsilon: float) -> np.ndarray:
    """Indices of the greedy net's centers: repeatedly the first
    uncovered point in order, each covering what lies within 3 epsilon."""
    r_cov = 3.0 * epsilon * (1.0 + GUARD)
    r2 = r_cov * r_cov
    uncovered = np.arange(len(points))
    chosen = []
    while uncovered.size:
        i = int(uncovered[0])
        chosen.append(i)
        delta = points[uncovered] - points[i]
        keep = (delta**2).sum(axis=1) > r2
        uncovered = uncovered[keep]
    return np.array(chosen, dtype=np.int64)


def verify_net_oracle(points: np.ndarray, centers: np.ndarray, epsilon: float) -> bool:
    """Pairwise separation > 3 epsilon and 3 epsilon coverage, every
    pair and every point tested."""
    sep2 = (3.0 * epsilon * (1.0 - GUARD)) ** 2
    for i in range(len(centers)):
        delta = centers[i + 1 :] - centers[i]
        if delta.size and np.min((delta**2).sum(axis=1)) <= sep2:
            return False
    if not len(centers):
        return not len(points)
    cov2 = (3.0 * epsilon * (1.0 + GUARD)) ** 2
    step = max(1, (1 << 22) // max(len(centers), 1))
    for lo in range(0, len(points), step):
        block = points[lo : lo + step]
        d2 = ((block[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        if np.min(d2, axis=1).max() > cov2:
            return False
    return True


def annulus_counts_oracle(points: np.ndarray, centers: np.ndarray, t: float, epsilon: float) -> np.ndarray:
    """Per center, the number of points with t < |x - y| <= t + epsilon."""
    counts = np.empty(len(centers), dtype=np.int64)
    for i, c in enumerate(centers):
        dist = np.linalg.norm(points - c, axis=1)
        counts[i] = int(np.count_nonzero((dist > t) & (dist <= t + epsilon)))
    return counts
