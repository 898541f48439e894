"""Independent brute-force oracles used by the test suite.

These deliberately avoid the library's search and table machinery: the
embedding oracle enumerates every injective map, the histogram and
pairwise-norm oracles run scalar field arithmetic point by point, the
sampler oracle draws its swap indices one call at a time, and the net
and annulus oracles scan the whole cloud for every center, with the
same distance predicates as the library's grid-filtered kernels.
`all_arc_plans` is the extremal branch-and-bound's former plan set, one
anchored plan per directed pattern edge with no symmetry reduction.
"""

from itertools import permutations

import numpy as np

from distgraphs.adreg import GUARD
from distgraphs.ffgeom import PointSet
from distgraphs.graphs import Graph, _Plan


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


def all_arc_plans(pattern: Graph) -> list[_Plan]:
    """One plan per directed pattern edge, anchored so positions 0 and 1
    are that edge's endpoints."""
    plans = []
    for a, b in pattern.edges():
        plans.append(_Plan(pattern, induced=False, anchor=(a, b)))
        plans.append(_Plan(pattern, induced=False, anchor=(b, a)))
    return plans


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
        keep = np.einsum("ij,ij->i", delta, delta) > r2
        uncovered = uncovered[keep]
    return np.array(chosen, dtype=np.int64)


def verify_net_oracle(points: np.ndarray, centers: np.ndarray, epsilon: float) -> bool:
    """Pairwise separation > 3 epsilon and 3 epsilon coverage, every
    pair and every point tested."""
    sep2 = (3.0 * epsilon * (1.0 - GUARD)) ** 2
    for i in range(len(centers)):
        delta = centers[i + 1 :] - centers[i]
        if delta.size and np.min(np.einsum("ij,ij->i", delta, delta)) <= sep2:
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
