"""Finite simple graphs with bitset adjacency and subgraph search.

Adjacency rows are Python ints used as bitsets (bit j of rows[i] set iff
{i, j} is an edge), which keeps candidate filtering in the embedding
search down to a few bitwise ops per node.  Graphs are immutable after
construction; searches allocate private state, so concurrent searches
over shared graphs are safe.  A pattern's search plans are built on
first use and cached on it by width, the number of positions a search
fixes in advance (`_plans`).
"""

from __future__ import annotations

import heapq
import re
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .errors import BudgetExceeded, NoEdges, NotBipartite, TooLarge, TooSmall


class Graph:
    """Undirected simple graph on vertices 0..n-1."""

    __slots__ = ("n", "rows", "_m", "_plans")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        rows = [0] * n
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        self.n = n
        self.rows = tuple(rows)
        self._m = sum(r.bit_count() for r in rows) // 2
        self._plans = {}

    @classmethod
    def _from_rows(cls, n: int, rows: Sequence[int]) -> "Graph":
        """Trusted constructor from prebuilt symmetric bitset rows."""
        g = cls.__new__(cls)
        g.n = n
        g.rows = tuple(rows)
        g._m = sum(r.bit_count() for r in rows) // 2
        g._plans = {}
        return g

    @classmethod
    def from_bool_blocks(cls, blocks: Iterable[np.ndarray]) -> "Graph":
        """Graph from a symmetric boolean adjacency matrix given as
        consecutive blocks of its rows (diagonal ignored), so only one
        block need exist at a time."""
        rows: list[int] = []
        for block in blocks:
            packed = np.packbits(np.asarray(block, dtype=bool), axis=1, bitorder="little")
            first = len(rows)
            rows.extend(int.from_bytes(row.tobytes(), "little") & ~(1 << i) for i, row in enumerate(packed, first))
        return cls._from_rows(len(rows), rows)

    @property
    def edge_count(self) -> int:
        return self._m

    def degree(self, v: int) -> int:
        return self.rows[v].bit_count()

    def degrees(self) -> list[int]:
        return [r.bit_count() for r in self.rows]

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.rows[u] >> v & 1)

    def neighbors(self, v: int) -> Iterator[int]:
        return iter_bits(self.rows[v])

    def edges(self) -> Iterator[tuple[int, int]]:
        for u in range(self.n):
            for v in iter_bits(self.rows[u] >> (u + 1)):
                yield (u, v + u + 1)

    def __eq__(self, other):
        return isinstance(other, Graph) and self.n == other.n and self.rows == other.rows

    def __hash__(self):
        return hash((self.n, self.rows))

    def __repr__(self):
        return f"Graph(n={self.n}, m={self._m})"


def iter_bits(mask: int) -> Iterator[int]:
    """Indices of the set bits of mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


# -- catalog ------------------------------------------------------------


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise TooSmall(f"cycle needs n >= 3, got {n}")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def path_graph(n: int) -> Graph:
    if n < 1:
        raise TooSmall(f"path needs n >= 1, got {n}")
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def complete_graph(n: int) -> Graph:
    if n < 1:
        raise TooSmall(f"complete graph needs n >= 1, got {n}")
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def hypercube_graph(k: int) -> Graph:
    """Vertices are bitstrings of length k; edges flip exactly one bit."""
    if k < 1:
        raise TooSmall(f"hypercube needs k >= 1, got {k}")
    edges = [(v, v ^ (1 << b)) for v in range(1 << k) for b in range(k) if v < v ^ (1 << b)]
    return Graph(1 << k, edges)


def shattering_graph(k: int, include_empty: bool = True) -> Graph:
    """Bipartite graph between indices 1..k and subsets of {1..k} under
    the element relation.

    Vertices 0..k-1 are the indices; vertex k + j is the subset with
    bitmask j (the empty set, j = 0, is isolated).  With
    include_empty=False the isolated empty-set vertex is dropped and
    subset bitmask j maps to vertex k + j - 1.
    """
    if k < 1:
        raise TooSmall(f"shattering graph needs k >= 1, got {k}")
    base = 0 if include_empty else 1
    n = k + (1 << k) - base
    edges = []
    for j in range(base, 1 << k):
        for i in iter_bits(j):
            edges.append((i, k + j - base))
    return Graph(n, edges)


_NAME_RE = re.compile(r"^([CPKQS])(\d+)$")
MAX_CATALOG_EDGES = 1 << 16


def _cube_edges(k: int) -> int:
    """k 2^(k-1), the edge count of Q_k and S_k, with k clipped at 17,
    where it is already over the cap."""
    k = min(k, 17)
    return k << (k - 1) if k else 0


# kind -> (constructor, edge count of kind<num>)
_CATALOG = {
    "C": (cycle_graph, lambda n: n),
    "P": (path_graph, lambda n: n - 1),
    "K": (complete_graph, lambda n: n * (n - 1) // 2),
    "Q": (hypercube_graph, _cube_edges),
    "S": (shattering_graph, _cube_edges),
}


def graph_from_name(name: str) -> Graph:
    """Catalog lookup: C<n> cycle, P<n> path, K<n> complete, Q<k>
    hypercube, S<k> shattering.  A graph with more than
    MAX_CATALOG_EDGES edges is rejected before it is built."""
    m = _NAME_RE.match(name.strip())
    if not m:
        raise ValueError(f"unrecognized graph name {name!r}")
    make, edge_count = _CATALOG[m.group(1)]
    num = int(m.group(2))
    if edge_count(num) > MAX_CATALOG_EDGES:
        raise TooLarge(f"{m.group(0)} has more than {MAX_CATALOG_EDGES} edges")
    return make(num)


# -- text format --------------------------------------------------------


def graph_to_text(g: Graph) -> str:
    """Serialize: first line `n m`, then one `u v` line per edge, u < v."""
    lines = [f"{g.n} {g.edge_count}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def graph_from_text(text: str) -> Graph:
    """Inverse of graph_to_text.  A header n over MAX_CATALOG_EDGES is
    rejected before any row is allocated: no pattern that large embeds
    in a host this package builds."""
    tokens = text.split()
    if len(tokens) < 2:
        raise ValueError("graph text needs a header line `n m`")
    n, m = int(tokens[0]), int(tokens[1])
    if n > MAX_CATALOG_EDGES:
        raise TooLarge(f"graph text has n = {n} vertices, over the cap {MAX_CATALOG_EDGES}")
    body = tokens[2:]
    if len(body) != 2 * m:
        raise ValueError(f"expected {2*m} edge endpoints, got {len(body)}")
    seen = set()
    edges = []
    for i in range(m):
        u, v = int(body[2 * i]), int(body[2 * i + 1])
        if not u < v:
            raise ValueError(f"edge ({u}, {v}) must satisfy u < v")
        if (u, v) in seen:
            raise ValueError(f"duplicate edge ({u}, {v})")
        seen.add((u, v))
        edges.append((u, v))
    return Graph(n, edges)


# -- bipartition --------------------------------------------------------


@dataclass(frozen=True)
class Bipartition:
    part_x: frozenset[int]
    part_y: frozenset[int]


def _coloring(g: Graph) -> tuple[Optional[list[int]], list[list[int]]]:
    """One walk of g: each vertex's color in a 2-coloring that gives the
    lowest-index vertex of each component color 0, or None if g has an
    odd cycle, and the components."""
    color = [-1] * g.n
    comps = []
    odd = False
    for start in range(g.n):
        if color[start] != -1:
            continue
        color[start] = 0
        comp = [start]
        queue = [start]
        while queue:
            u = queue.pop()
            for v in iter_bits(g.rows[u]):
                if color[v] == -1:
                    color[v] = 1 - color[u]
                    comp.append(v)
                    queue.append(v)
                elif color[v] == color[u]:
                    odd = True
        comps.append(comp)
    return (None if odd else color), comps


def bipartition(g: Graph) -> Optional[Bipartition]:
    """Deterministic 2-coloring; the lowest-index vertex of each
    component gets color 0 (part_x).  Returns None on an odd cycle."""
    color, _ = _coloring(g)
    if color is None:
        return None
    part_x = frozenset(v for v in range(g.n) if color[v] == 0)
    return Bipartition(part_x, frozenset(range(g.n)) - part_x)


def min_side_max_degree(g: Graph) -> int:
    """Smallest achievable max degree over one part of a bipartition.

    Each connected component's two color classes may be assigned to the
    parts independently, so the answer is the max over components of the
    smaller of the two class-wise maximum degrees.  Edgeless components
    contribute nothing.
    """
    if g.edge_count == 0:
        raise NoEdges("graph has no edges")
    color, comps = _coloring(g)
    if color is None:
        raise NotBipartite("graph contains an odd cycle")
    r = 0
    for comp in comps:
        if all(g.degree(v) == 0 for v in comp):
            continue
        side0 = max(g.degree(v) for v in comp if color[v] == 0)
        side1 = max(g.degree(v) for v in comp if color[v] == 1)
        r = max(r, min(side0, side1))
    return r


# -- subgraph embedding search ------------------------------------------


@dataclass(frozen=True)
class EmbeddingWitness:
    """Injective map from pattern vertices to host vertices; mapping[u]
    is the host image of pattern vertex u."""

    mapping: tuple[int, ...]


class _Plan:
    """Precomputed search order for one pattern, led by its 0-2 anchors.

    Order is connectivity-first with descending degree: after the anchor,
    repeatedly take the vertex with the most already-placed neighbors,
    breaking ties by higher degree then lower index.  Vertices with no
    placed neighbor (new components, isolated vertices) are ranked the
    same way, which pushes isolated vertices to the end.  For each
    position we record the placed neighbors and, for induced search, the
    placed non-neighbors.  `floors` is a stabilizer chain of the
    pattern's automorphisms read along the order past the anchor:
    floors[j] lists each earlier position i past the anchor such that
    order[j] is in the orbit of order[i] under the automorphisms that
    fix order[0..i-1], as far as `_chain_floors` finds them.
    """

    __slots__ = ("n", "order", "prior_nbrs", "prior_nonnbrs", "degrees", "induced", "anchored", "floors")

    def __init__(self, pattern: Graph, induced: bool, anchor: tuple[int, ...] = ()):
        n, rows = pattern.n, pattern.rows
        degs = pattern.degrees()
        placed: list[int] = list(anchor)
        placed_mask = sum(1 << v for v in placed)
        # Max-rank selection by a heap of (-placed neighbours, -degree,
        # index).  Counts only grow, so an entry whose count is stale is
        # skipped when popped.
        count = [(rows[v] & placed_mask).bit_count() for v in range(n)]
        heap = [(-count[v], -degs[v], v) for v in range(n) if not placed_mask >> v & 1]
        heapq.heapify(heap)
        while heap:
            c, _, best = heapq.heappop(heap)
            if placed_mask >> best & 1 or -c != count[best]:
                continue
            placed.append(best)
            placed_mask |= 1 << best
            for u in iter_bits(rows[best] & ~placed_mask):
                count[u] += 1
                heapq.heappush(heap, (-count[u], -degs[u], u))

        self.n = n
        self.order = tuple(placed)
        self.degrees = tuple(degs[v] for v in placed)
        self.induced = induced
        position = {v: pos for pos, v in enumerate(placed)}
        prior_nbrs = []
        prior_nonnbrs = []
        for pos, v in enumerate(placed):
            nbrs = tuple(sorted(i for i in map(position.__getitem__, iter_bits(rows[v])) if i < pos))
            prior_nbrs.append(nbrs)
            if induced:
                prior_nonnbrs.append(tuple(sorted(set(range(pos)).difference(nbrs))))
            else:
                prior_nonnbrs.append(())
        self.prior_nbrs = tuple(prior_nbrs)
        self.prior_nonnbrs = tuple(prior_nonnbrs)
        self.anchored = len(anchor)
        self.floors: tuple[tuple[int, ...], ...] = ((),) * n  # read by the chain's probes
        self.floors = _chain_floors(pattern, self, _Budget(_ORBIT_BUDGET))


def _plans(pattern: Graph, width: int, induced: bool = False) -> list[_Plan]:
    """The plans of searches that fix `width` positions in advance,
    cached on pattern under (width, induced).

    Width 0 is the one unanchored plan.  Width 1 (2) is one plan per
    orbit of Aut(G) on vertices (arcs), anchored at its first member.  A
    member joins a representative's orbit when `_self_embedding` finds
    an automorphism mapping the one onto the other, so any copy of G
    through a host vertex (edge) has some representative on it.  A probe
    that runs out of the shared `_ORBIT_BUDGET` only leaves a member as
    its own representative."""
    key = (width, induced)
    plans = pattern._plans.get(key)
    if plans is None:
        if width == 2:
            anchors = [arc for a, b in pattern.edges() for arc in ((a, b), (b, a))]
        else:
            anchors = [(v,) for v in range(pattern.n)] if width else [()]
        plans, budget = [], _Budget(_ORBIT_BUDGET)
        for anchor in anchors:
            if all(_self_embedding(pattern, plan, anchor, budget) is None for plan in plans):
                plans.append(_Plan(pattern, induced, anchor))
        pattern._plans[key] = plans
    return plans


class _Budget:
    __slots__ = ("remaining",)

    def __init__(self, budget: Optional[int]):
        self.remaining = budget

    def spend(self):
        if self.remaining is not None:
            self.remaining -= 1
            if self.remaining < 0:
                raise BudgetExceeded("embedding search budget exhausted")


def _search_rows(
    host_rows: Sequence[int],
    host_degs: Sequence[int],
    n_host: int,
    plan: _Plan,
    budget: _Budget,
    preassigned: Sequence[int] = (),
) -> Optional[tuple[int, ...]]:
    """Backtracking engine over bitset rows.  Returns the mapping in plan
    order, or None.  `preassigned` lists the images of positions 0, 1,
    ... in turn, which the search keeps fixed.

    The search is a loop over an explicit stack, cands[pos] holding the
    candidates position pos has yet to try, so its depth is bounded by
    the pattern's size, not by the interpreter's recursion limit.  It
    visits the images in lexicographic order, position by position.

    Every position j is mapped above the image of each position i in
    plan.floors[j] with i at least the number of preassigned positions.
    This cuts no embedding that the plain search would find first.  That
    embedding f is the lexicographically least image tuple.  Take an
    automorphism s of the pattern that fixes order[0..i-1] and maps
    order[i] to order[j].  Then f composed with s is an embedding that
    agrees with f before position i, the preassigned ones included, so
    f(order[i]) < f(order[j]): f meets every floor kept.  So the first
    embedding found is the same, and absence is still a proof.
    """
    n = plan.n
    if n > n_host:
        return None
    full = (1 << n_host) - 1
    nbrs_at, nonnbrs_at, need_at = plan.prior_nbrs, plan.prior_nonnbrs, plan.degrees
    induced = plan.induced
    images = [-1] * n
    used = 0
    start = len(preassigned)
    for pos, img in enumerate(preassigned):
        if host_degs[img] < need_at[pos] or used >> img & 1:
            return None
        for i in nbrs_at[pos]:
            if not host_rows[images[i]] >> img & 1:
                return None
        if induced:
            for i in nonnbrs_at[pos]:
                if host_rows[images[i]] >> img & 1:
                    return None
        images[pos] = img
        used |= 1 << img
    if start == n:
        return tuple(images)
    floors = plan.floors
    if start > plan.anchored:
        floors = [f and tuple(i for i in f if i >= start) for f in floors]

    cands = [0] * n
    pos = start
    fresh = True  # cands[pos] is still to be built from the placed images
    while True:
        if fresh:
            nbrs = nbrs_at[pos]
            if nbrs:
                cand = host_rows[images[nbrs[0]]]
                for i in nbrs[1:]:
                    cand &= host_rows[images[i]]
            else:
                cand = full
            cand &= ~used
            for i in floors[pos]:
                cand &= -(2 << images[i])
            if induced:
                for i in nonnbrs_at[pos]:
                    cand &= ~host_rows[images[i]]
        else:
            cand = cands[pos]
        need = need_at[pos]
        while cand:
            low = cand & -cand
            cand ^= low
            v = low.bit_length() - 1
            if host_degs[v] >= need:
                break
        else:
            pos -= 1
            if pos < start:
                return None
            used ^= 1 << images[pos]
            fresh = False
            continue
        budget.spend()
        cands[pos] = cand
        images[pos] = v
        used |= low
        pos += 1
        if pos == n:
            return tuple(images)
        fresh = True


def _copy_through(
    rows: Sequence[int], degs: Sequence[int], through: Sequence[int], plans: Sequence[_Plan], budget: _Budget
) -> bool:
    """Whether some plan, its anchor mapped onto the host vertices
    `through`, finds a copy of its pattern in the host of `rows`."""
    for plan in plans:
        if _search_rows(rows, degs, len(rows), plan, budget, through) is not None:
            return True
    return False


def _witness_from_plan(plan: _Plan, images: tuple[int, ...]) -> EmbeddingWitness:
    mapping = [-1] * plan.n
    for pos, v in enumerate(plan.order):
        mapping[v] = images[pos]
    return EmbeddingWitness(tuple(mapping))


# Search nodes for all the self-embedding probes of one plan's chain
# (plus one node per probe) or of a pattern's vertex or arc orbits.
# Once it is spent, later probes find nothing.
_ORBIT_BUDGET = 1 << 13


def _self_embedding(
    pattern: Graph, plan: _Plan, images: Sequence[int], budget: _Budget
) -> Optional[tuple[int, ...]]:
    """A self-embedding of pattern that maps plan.order[i] to images[i]
    for each i < len(images), as mapping[u] per pattern vertex u, or
    None if the search finds none before `budget` runs out.

    A self-embedding is a bijection that carries the edges onto the
    edges, so it is an automorphism.  None is a proof of absence only
    while budget.remaining >= 0."""
    try:
        found = _search_rows(pattern.rows, pattern.degrees(), pattern.n, plan, budget, images)
    except BudgetExceeded:
        return None
    return None if found is None else _witness_from_plan(plan, found).mapping


def _chain_floors(pattern: Graph, plan: _Plan, budget: _Budget) -> tuple[tuple[int, ...], ...]:
    """The floors of a plan: per position j, the earlier positions i
    past the anchor whose orbit at level i holds order[j].

    Level i's orbit is that of order[i] under the automorphisms that fix
    order[0..i-1], the anchor included, and that the probes find, a
    subset of its orbit under that pointwise stabilizer, so
    `_search_rows` may use it.  An
    automorphism there keeps a vertex's sorted neighbour degrees and its
    neighbours among the fixed prefix.  Each vertex that matches order[i]
    in both and that the orbit has not yet reached is probed for one
    mapping order[i] to it, with order[0..i-1] preassigned to
    themselves, and the orbit is closed under every automorphism this
    level found.  All probes share `budget`, one node each plus their
    search nodes; once it runs out, later levels keep no floors."""
    rows, order, n = pattern.rows, plan.order, plan.n
    degs = pattern.degrees()
    profiles = [tuple(sorted(degs[u] for u in iter_bits(r))) for r in rows]
    classes: dict[tuple[int, ...], int] = {}
    for v, key in enumerate(profiles):
        classes[key] = classes.get(key, 0) | 1 << v
    position = {v: pos for pos, v in enumerate(order)}
    floors: list[tuple[int, ...]] = [()] * n
    prefix = sum(1 << v for v in order[: plan.anchored])
    for i, v in enumerate(order[plan.anchored :], plan.anchored):
        cand = classes[profiles[v]] & ~prefix
        for k in plan.prior_nbrs[i]:
            cand &= rows[order[k]]
        inside = rows[v] & prefix
        orbit = {v}
        found: list[tuple[int, ...]] = []
        for w in iter_bits(cand):
            if budget.remaining < 1:
                break
            if w in orbit or rows[w] & prefix != inside:
                continue
            budget.spend()
            aut = _self_embedding(pattern, plan, order[:i] + (w,), budget)
            if aut is None:
                continue
            found.append(aut)
            stack = list(orbit)
            while stack:
                x = stack.pop()
                for g in found:
                    y = g[x]
                    if y not in orbit:
                        orbit.add(y)
                        stack.append(y)
        for w in orbit - {v}:
            floors[position[w]] += (i,)
        if budget.remaining < 1:
            break
        prefix |= 1 << v
    return tuple(floors)


def _contains(host: Graph, pattern: Graph, induced: bool, budget: Optional[int]) -> Optional[EmbeddingWitness]:
    if pattern.n > host.n:
        return None  # before any plan is built: ordering a large pattern is itself costly
    (plan,) = _plans(pattern, 0, induced)
    images = _search_rows(host.rows, host.degrees(), host.n, plan, _Budget(budget))
    return None if images is None else _witness_from_plan(plan, images)


def contains_subgraph(
    host: Graph, pattern: Graph, budget: Optional[int] = None
) -> Optional[EmbeddingWitness]:
    """Find an injective map of pattern into host preserving edges.

    Not-necessarily-induced containment: extra host edges are permitted.
    Returns a witness or None (a proof of absence).  A node-expansion
    budget may be set; exhausting it raises BudgetExceeded rather than
    returning None.  The budget counts nodes of the symmetry-reduced
    search (`_search_rows`, which the ex(n, G) oracles run anchored at a
    new vertex or edge, through `_copy_through`):
    along a stabilizer chain of Aut(G), each pattern vertex in the orbit
    of a placed vertex under the automorphisms fixing the vertices
    placed before it maps above that vertex's image.  The witness is
    the one the plain search finds first, and an absence proof no
    longer visits each copy of G once per automorphism the chain finds.

    The search reads three members of host: `n`, `rows[v]` (the bitset
    of v's neighbours) and `degrees()`, so a host may pack its rows on
    first read instead of being a whole Graph.
    """
    return _contains(host, pattern, False, budget)


def contains_induced_subgraph(
    host: Graph, pattern: Graph, budget: Optional[int] = None
) -> Optional[EmbeddingWitness]:
    """As contains_subgraph, additionally rejecting maps where a pattern
    non-edge lands on a host edge."""
    return _contains(host, pattern, True, budget)


def verify_embedding(
    host: Graph, pattern: Graph, mapping: Sequence[int], induced: bool = False
) -> bool:
    """Independent witness check: injectivity plus edge preservation
    (plus non-edge preservation when induced)."""
    if len(mapping) != pattern.n or len(set(mapping)) != pattern.n:
        return False
    if not all(0 <= v < host.n for v in mapping):
        return False
    for u in range(pattern.n):
        for v in range(u + 1, pattern.n):
            if pattern.has_edge(u, v):
                if not host.has_edge(mapping[u], mapping[v]):
                    return False
            elif induced and host.has_edge(mapping[u], mapping[v]):
                return False
    return True
