"""Point sets in F_q^d: distance histograms, t-distance graphs, the
square-root-cancellation bound check, and G-distance sets.

Points are stored as an (n, d) array of packed element codes so the
pairwise-norm kernel runs through the field's cached numpy operation
tables.  Per pass over E, the kernel tabulates for each coordinate j
the (q, n) codes of (a - y_j)^2, for every a in F_q and every point y
of E, from one q x q squared-difference table.  The norm codes of a
block of points, or of one point, against all of E are then one row
gather per coordinate summed through the addition table, with no
(rows, n, d) temporary.  All theorem-level comparisons are exact
integer arithmetic.

No t-distance graph holds an n x n array; only the pairwise_norms
export builds one.  distance_graph packs rows one norm block at a time.
The G-distance set's searches pack row i of each t's graph the first
time they read it, from x_i's norm row in one store per point set
(_NormRows).  A sparse set first counts its (n, q) degree table
deg[i, t] = #{j != i : ||x_i - x_j|| = t}, one bincount per norm
block, and the blocks fill the store; a dense set builds no table, and
each degree is the popcount of the row it is read from.
graph_distance_set states the rule.

The distance histogram takes one of two paths, chosen from |E| alone.
When |E|^2 >= 4 q^d it is the Fourier picture of the count: F_q^d is
additively Z_p^{dk}, so the autocorrelation r(v) = #{(x, y) in E^2 :
x - y = v} is one real FFT pair of the indicator 1_E, and nu(t) sums
r over the sphere ||v|| = t.  Every r(v) is an integer in [0, |E|], so
rounding the transform's output recovers it exactly as long as the
floating-point error stays below 1/2; the rounding guard raises
InexactTransform if any residual exceeds 1/4, if any count is negative,
if r(0) != |E|, or if the mass is not |E|^2, and the counts are then
summed in int64.  Smaller sets, such as sparse samples of a large
space, take the O(|E|^2 d) pairwise-norm kernel instead of a transform
over all q^d vectors.  Floats appear elsewhere only in report slack
columns.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import sqrt
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from . import _pcg64
from .errors import (
    BudgetExceeded,
    DimensionTooSmall,
    InexactTransform,
    SizeTooLarge,
    SpecMismatch,
    TooLarge,
    env_cap,
)
from .field import FieldElement, FieldSpec, Point
from .graphs import Graph, contains_subgraph

DEFAULT_MAX_POINTS = 5000
ENV_MAX_POINTS = "DISTGRAPHS_MAX_POINTS"

_CHUNK = 1 << 22  # target cells per pairwise block, or of norm rows kept
# The least n^2 d at which a dense set reads its degrees from the rows
# its searches pack (see graph_distance_set): below it one degree table
# costs less than the rows the searches pack for it.
_DEMAND_CELLS = 1 << 18


def max_point_count() -> int:
    """Configured cap on the points of every set point_count passes;
    override with the DISTGRAPHS_MAX_POINTS env var."""
    return env_cap(ENV_MAX_POINTS, DEFAULT_MAX_POINTS)


def point_count(q: int, d: int, size) -> int:
    """`size`, once it passes the check every set of F_q^d the package
    builds passes before q^d is formed or a point drawn: d >= 2, q^d < 2^63
    (int64 point indices), size an integer (not a bool), 0 <= size <= q^d,
    size <= max_point_count().  A callable size is called once q^d < 2^63
    is known.  No message prints q^d."""
    if d < 2:
        raise DimensionTooSmall(f"need d >= 2, got {d}")
    # q >= 3 gives q^64 > 2^63, so capping the exponent keeps the test exact
    if q ** min(d, 64) >= 1 << 63:
        raise TooLarge(f"q^d = {q}^{d} is not below 2^63, the int64 range of point indices")
    if callable(size):
        size = size()
    if isinstance(size, bool) or not isinstance(size, (int, np.integer)):
        raise TypeError(f"size must be an integer, got {size!r}")
    if size < 0:
        raise ValueError(f"size must be >= 0, got {size}")
    if size > q**d:
        raise SizeTooLarge(f"size {size} exceeds q^d = {q}^{d}")
    cap = max_point_count()
    if size > cap:
        raise TooLarge(f"{size} points exceed the configured cap {cap} ({ENV_MAX_POINTS})")
    return size


class PointSet:
    """An ordered set of distinct points of F_q^d, d >= 2.

    codes is an (n, d) int32 array of packed element codes; row order is
    the set's canonical order.
    """

    def __init__(self, spec: FieldSpec, d: int, codes: np.ndarray):
        if d < 2:
            raise DimensionTooSmall(f"need d >= 2, got {d}")
        codes = np.asarray(codes)
        if codes.dtype.kind not in "iu" or codes.shape[1:] != (d,):
            raise ValueError(f"codes must be an integer array of shape (n, {d}), got {codes.dtype} {codes.shape}")
        if codes.size and (codes.min() < 0 or codes.max() >= spec.q):
            raise ValueError("element code out of range")
        # Rows compared as opaque byte strings: np.unique(axis=0) would
        # build a d-field record type, costly for a wide set of few rows.
        if len(codes) > 1:
            rows = np.ascontiguousarray(codes).view(np.dtype((np.void, codes.itemsize * d)))
            if len(np.unique(rows)) != len(codes):
                raise ValueError("points must be distinct")
        self.spec = spec
        self.d = d
        self.codes = codes.astype(np.int32)
        self.codes.setflags(write=False)

    @classmethod
    def _from_codes(cls, spec: FieldSpec, d: int, codes: np.ndarray) -> "PointSet":
        """Trusted constructor from an (n, d) int32 array of distinct,
        in-range codes, for the sets this module makes distinct by
        construction."""
        E = cls.__new__(cls)
        E.spec = spec
        E.d = d
        E.codes = codes
        E.codes.setflags(write=False)
        return E

    def __len__(self) -> int:
        return len(self.codes)

    def point(self, i: int) -> Point:
        return Point(self.spec.from_code(int(c)) for c in self.codes[i])

    def points(self) -> list[Point]:
        return [self.point(i) for i in range(len(self))]

    def translate(self, shift: Point) -> "PointSet":
        """The set E + z."""
        if shift.spec != self.spec or shift.d != self.d:
            raise SpecMismatch("shift from a different space")
        add = self.spec.add_table
        zc = np.array([c.code for c in shift.coords], dtype=np.int32)
        return PointSet._from_codes(self.spec, self.d, add[self.codes, zc[None, :]])

    def permute_coordinates(self, perm: Sequence[int]) -> "PointSet":
        return PointSet(self.spec, self.d, self.codes[:, list(perm)])

    def __repr__(self):
        return f"PointSet(q={self.spec.q}, d={self.d}, n={len(self)})"


def all_points(spec: FieldSpec, d: int) -> PointSet:
    """All q^d points in lexicographic order (first coordinate varies
    slowest), once q^d passes point_count."""
    total = point_count(spec.q, d, lambda: spec.q**d)
    return PointSet._from_codes(spec, d, _unflatten(np.arange(total), spec.q, d))


def _unflatten(idx: np.ndarray, q: int, d: int) -> np.ndarray:
    """(n, d) codes of the points with lexicographic indices `idx`."""
    cols = []
    for _ in range(d):
        idx, col = np.divmod(idx, q)
        cols.append(col)
    return np.stack(cols[::-1], axis=1).astype(np.int32)


def _flat_index(E: PointSet) -> np.ndarray:
    """Lexicographic index of each point of E, the inverse of _unflatten."""
    idx = np.zeros(len(E), dtype=np.int64)
    for j in range(E.d):
        idx = idx * E.spec.q + E.codes[:, j]
    return idx


def _seed_state(seed) -> list[int]:
    """The four 64-bit words PCG64 seeds from: an integer seed's, or a
    SeedSequence-like seed's own generate_state(4, np.uint64)."""
    if hasattr(seed, "generate_state"):
        return [int(w) for w in seed.generate_state(4, np.uint64)]
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)):
        raise TypeError(f"seed must be an integer >= 0 or a SeedSequence, got {seed!r}")
    if seed < 0:
        raise ValueError(f"seed must be an integer >= 0, got {seed}")
    return _pcg64.seed_state(int(seed))


def random_subset(spec: FieldSpec, d: int, size: int, seed) -> PointSet:
    """Uniform random subset of F_q^d without replacement.

    Reproducible: `seed` (an integer >= 0, or a SeedSequence-like object
    read through its generate_state(4, np.uint64)) seeds PCG64, which
    drives a partial Fisher-Yates shuffle of the lexicographic point
    indices: step i swaps index i with rng.integers(i, q^d), rng =
    default_rng(seed).  _pcg64 computes that stream bit for bit without
    importing numpy.random.  Any other seed, None included, is a
    TypeError or ValueError, and the size passes point_count first.
    """
    size = point_count(spec.q, d, size)
    picks = np.array(_pcg64.partial_fisher_yates(_seed_state(seed), spec.q**d, size), dtype=np.int64)
    return PointSet._from_codes(spec, d, _unflatten(picks, spec.q, d))


# -- pairwise norms and histograms ---------------------------------------


def _norm_kernel(E: PointSet) -> Callable:
    """norms(xs): the norm codes ||x - y|| for every y of E, in E's order,
    from the d coordinate codes xs[j] of x.  Each xs[j] is an int, or an
    array of some shape s, all alike, for an s + (n,) block.

    For each coordinate j it keeps the (q, n) table of (a - y_j)^2 for
    every a in F_q and every y of E, so x's norms are d row gathers
    summed through the addition table, read flat at acc * q + b.
    q^2 < 2^31 for any q whose tables fit in memory."""
    spec, q = E.spec, E.spec.q
    sqdiff = spec.square_table[spec.sub_table]
    add = spec.add_table.ravel()
    tables = [sqdiff[:, col] for col in E.codes.T]

    def norms(xs) -> np.ndarray:
        acc = tables[0][xs[0]]
        for table, xj in zip(tables[1:], xs[1:]):
            acc = acc * q
            acc += table[xj]
            acc = add[acc]
        return acc

    return norms


def _norm_blocks(E: PointSet, norms: Callable) -> Iterator[tuple[slice, np.ndarray]]:
    """(rows, norm codes ||x_i - x_j|| for i in `rows` and every j), over
    blocks of about _CHUNK / d cells, from E's kernel `norms`."""
    n = len(E)
    step = max(1, _CHUNK // (max(n, 1) * max(E.d, 1)))
    for lo in range(0, n, step):
        rows = slice(lo, min(lo + step, n))
        yield rows, norms(E.codes[rows].T)


def pairwise_norms(E: PointSet) -> np.ndarray:
    """Full (n, n) matrix of pairwise norm codes; no library path calls it."""
    n = len(E)
    out = np.empty((n, n), dtype=np.int32)
    for rows, block in _norm_blocks(E, _norm_kernel(E)):
        out[rows] = block
    return out


@dataclass(frozen=True)
class DistanceHistogram:
    """Ordered-pair distance counts nu(t) over all of E x E, diagonal
    included (the diagonal contributes |E| to nu(0))."""

    spec: FieldSpec
    counts: np.ndarray  # length q, int64
    size: int  # |E|

    def nu(self, t) -> int:
        return int(self.counts[_t_code(self.spec, t)])

    def total(self) -> int:
        return int(self.counts.sum())

    def as_dict(self) -> dict[FieldElement, int]:
        return {self.spec.from_code(c): int(v) for c, v in enumerate(self.counts)}


def _t_code(spec: FieldSpec, t) -> int:
    """The code of t: a FieldElement of `spec`, or an integer code in
    [0, q).  Anything else is rejected rather than coerced."""
    if isinstance(t, FieldElement):
        if t.spec != spec:
            raise SpecMismatch("t from a different field")
        return t.code
    if isinstance(t, bool) or not isinstance(t, (int, np.integer)) or not 0 <= t < spec.q:
        raise ValueError(f"t must be an element of F_{spec.q} or an integer code in [0, {spec.q}), got {t!r}")
    return int(t)


def _all_norms(spec: FieldSpec, d: int) -> np.ndarray:
    """Norm code of every vector of F_q^d, in lexicographic order."""
    sq, add = spec.square_table, spec.add_table
    acc = sq
    for _ in range(d - 1):
        acc = add[acc[..., None], sq]
    return acc.ravel()


def _exact_counts(approx: np.ndarray, what: str) -> np.ndarray:
    """The int64 counts a transform's float output approximates.  Counts
    are integers, so rounding recovers them exactly as long as the
    floating-point error stays below 1/2: InexactTransform if any
    residual exceeds 1/4 or any rounded count is negative."""
    counts = np.rint(approx)
    residual = float(np.abs(approx - counts).max())
    if residual > 0.25:
        raise InexactTransform(f"{what} residual {residual:.3g} exceeds 1/4")
    if counts.min() < 0:
        raise InexactTransform(f"{what} has a negative count")
    return counts.astype(np.int64)


def _digit_grid(E: PointSet) -> tuple[tuple[int, ...], np.ndarray]:
    """The (p,) * dk shape of F_q^d as Z_p^{dk}, and the indicator 1_E
    over it.  Each axis of size p is one base-p coefficient digit of one
    coordinate, and addition in F_q^d is digit-wise mod p, so sums and
    differences of vectors are cyclic ones on this grid."""
    spec = E.spec
    shape = (spec.p,) * (E.d * spec.k)
    indicator = np.zeros(spec.q**E.d)
    indicator[_flat_index(E)] = 1.0
    return shape, indicator.reshape(shape)


def _autocorrelation(E: PointSet) -> np.ndarray:
    """r(v) = #{(x, y) in E^2 : x - y = v} for every v of F_q^d, in
    lexicographic order, from one real FFT pair of 1_E over Z_p^{dk}."""
    n = len(E)
    shape, indicator = _digit_grid(E)
    axes = tuple(range(len(shape)))
    spectrum = np.fft.rfftn(indicator, axes=axes)
    power = spectrum.real**2 + spectrum.imag**2
    r = _exact_counts(np.fft.irfftn(power, s=shape, axes=axes).ravel(), "autocorrelation")
    if r[0] != n:
        raise InexactTransform(f"autocorrelation has r(0) = {r[0]} for |E| = {n}")
    if int(r.sum()) != n * n:
        raise InexactTransform(f"autocorrelation has mass {int(r.sum())}, not |E|^2 = {n * n}")
    return r


def distance_histogram(E: PointSet) -> DistanceHistogram:
    """nu(t) for every t: by the Fourier autocorrelation when
    |E|^2 >= 4 q^d, else by pairwise norms."""
    spec, n = E.spec, len(E)
    counts = np.zeros(spec.q, dtype=np.int64)
    if n * n >= 4 * spec.q**E.d:
        np.add.at(counts, _all_norms(spec, E.d), _autocorrelation(E))
        return DistanceHistogram(spec, counts, n)
    for _, block in _norm_blocks(E, _norm_kernel(E)):
        counts += np.bincount(block.ravel(), minlength=spec.q)
    return DistanceHistogram(spec, counts, n)


def distance_graph(E: PointSet, t) -> Graph:
    """Simple graph on E's index set: {i, j} is an edge iff
    ||x_i - x_j|| = t (i != j).

    t = 0 is permitted; the resulting graph records isotropic differences
    only, since loops are excluded.
    """
    t = _t_code(E.spec, t)
    return Graph.from_bool_blocks(block == t for _, block in _norm_blocks(E, _norm_kernel(E)))


# -- exact remainder-term bound check -------------------------------------


@dataclass(frozen=True)
class IRRecord:
    t: int  # element code, nonzero
    nu: int
    main: Fraction  # |E|^2 / q
    remainder: Fraction  # nu - main
    bound: float  # 2 q^{(d-1)/2} |E|, display only
    slack: float  # bound - |remainder|, display only
    ok: bool


@dataclass(frozen=True)
class IRReport:
    """Per-t decomposition nu(t) = |E|^2/q + R(t) with the exact check
    |R(t)| <= 2 q^{(d-1)/2} |E| for every t != 0.

    The comparison is the integer inequality
    (q nu - |E|^2)^2 <= 4 q^(d+1) |E|^2, so no floats are involved in
    the verdict.
    """

    spec: FieldSpec
    d: int
    size: int
    records: tuple[IRRecord, ...]
    passed: bool

    def worst_slack(self) -> float:
        return min((r.slack for r in self.records), default=float("inf"))


def ir_check(E: PointSet, hist: Optional[DistanceHistogram] = None) -> IRReport:
    if hist is None:
        hist = distance_histogram(E)
    q, d, n = E.spec.q, E.d, len(E)
    rhs = 4 * q ** (d + 1) * n * n
    bound = 2.0 * sqrt(float(q ** (d - 1))) * n
    records = []
    for t in range(1, q):
        nu = int(hist.counts[t])
        scaled = q * nu - n * n  # q R(t), an integer
        ok = scaled * scaled <= rhs
        rem = Fraction(scaled, q)
        records.append(
            IRRecord(
                t=t,
                nu=nu,
                main=Fraction(n * n, q),
                remainder=rem,
                bound=bound,
                slack=bound - abs(float(rem)),
                ok=ok,
            )
        )
    return IRReport(E.spec, d, n, tuple(records), all(r.ok for r in records))


# -- G-distance sets -------------------------------------------------------


@dataclass(frozen=True)
class GraphDistanceSet:
    """Delta_G(E): the t for which the t-distance graph contains the
    pattern.  Per-t budget exhaustion is recorded as indeterminate,
    never as absence."""

    spec: FieldSpec
    contained: frozenset[int]  # element codes
    indeterminate: frozenset[int]
    witnesses: dict = field(default_factory=dict, compare=False)

    @property
    def covers_all_nonzero(self) -> bool:
        return all(t in self.contained for t in range(1, self.spec.q))

    def elements(self) -> set[FieldElement]:
        return {self.spec.from_code(t) for t in self.contained}


class _NormRows(dict):
    """The norm rows of one point set: row i is x_i's norm codes
    ||x_i - x_j|| for every j, in the smallest unsigned dtype that holds
    q - 1.  Rows are kept while rows kept * n <= _CHUNK; a row past that
    is computed again on each read.  The kernel is built on first use."""

    def __init__(self, E: PointSet):
        self.E = E
        self.room = _CHUNK // max(len(E), 1)
        self.dtype = np.min_scalar_type(E.spec.q - 1)

    @cached_property
    def norms(self) -> Callable:
        return _norm_kernel(self.E)

    def __missing__(self, i: int) -> np.ndarray:
        row = self.norms(self.E.codes[i])
        if len(self) < self.room:
            row = self[i] = row.astype(self.dtype)
        return row


def _degree_table(rows: _NormRows) -> np.ndarray:
    """(n, q) int64 table deg[i, t] = #{j != i : ||x_i - x_j|| = t}, for
    a set that graph_distance_set does not find dense: one bincount per
    norm block over (row - block start) * q + norm, and the blocks fill
    `rows`."""
    E = rows.E
    n, q = len(E), E.spec.q
    deg = np.empty((n, q), dtype=np.int64)
    for span, block in _norm_blocks(E, rows.norms):
        rows.update(enumerate(block[: rows.room - len(rows)].astype(rows.dtype), span.start))
        offsets = np.arange(len(block), dtype=np.int64)[:, None] * q
        deg[span] = np.bincount((offsets + block).ravel(), minlength=offsets.size * q).reshape(-1, q)
    deg[:, 0] -= 1  # the diagonal, ||x_i - x_i|| = 0
    return deg


class _DistanceHost(dict):
    """The t-distance graph as the embedding search reads it: `n`,
    `degrees()` and `rows`, the host itself, whose row i is packed from
    x_i's norm row the first time the search reads it.  Given no degree
    list, degrees() reads each degree from its row (_RowDegrees)."""

    __slots__ = ("n", "t", "norm_rows", "_degrees")

    def __init__(self, norm_rows: _NormRows, t: int, degrees: Optional[list[int]]):
        self.n = len(norm_rows.E)
        self.t = t
        self.norm_rows = norm_rows
        self._degrees = degrees

    @property
    def rows(self) -> "_DistanceHost":
        return self

    def degrees(self) -> Sequence[int]:
        return _RowDegrees(self) if self._degrees is None else self._degrees

    def __missing__(self, i: int) -> int:
        packed = np.packbits(self.norm_rows[i] == self.t, bitorder="little")
        row = self[i] = int.from_bytes(packed.tobytes(), "little") & ~(1 << i)
        return row


class _RowDegrees(dict):
    """Vertex v's degree in `host`: the popcount of row v, packed the
    first time the search reads either."""

    __slots__ = ("host",)

    def __init__(self, host: _DistanceHost):
        self.host = host

    def __missing__(self, v: int) -> int:
        degree = self[v] = self.host[v].bit_count()
        return degree


def _anisotropic(q: int, d: int) -> bool:
    """Whether v = 0 is the only vector of F_q^d with norm 0: exactly
    when d = 2 and q = 3 mod 4.  Then -1 is not a square in F_q, so
    x^2 + y^2 = 0 forces x = y = 0; with q = 1 mod 4, (1, sqrt(-1)) has
    norm 0, and for d >= 3 so does some nonzero vector (Chevalley-Warning)."""
    return d == 2 and q % 4 == 3


def graph_distance_set(E: PointSet, pattern: Graph, budget: Optional[int] = None) -> GraphDistanceSet:
    """Test every t in F_q for pattern containment in the t-distance
    graph.  No n x n array is built: each t's search packs row i of its
    graph, the points at norm t from x_i, the first time it reads that
    row, from x_i's norm row in one store per call (_NormRows).

    The degrees come one of two ways, chosen from n, d and q alone.
    By the bound ir_check verifies, every t != 0 has
    nu(t) >= n^2 / q - 2 q^((d-1)/2) n ordered pairs, a positive number
    once n^2 > 4 q^(d+1).  The searches over such a set read few of its
    rows (129 of 2401 norm rows over all 49 t on all of F_49^2), so if
    also n^2 d >= _DEMAND_CELLS it builds no degree table: vertex v's
    degree is the popcount of row v, packed the first time the search
    reads either.  Every other set, such as a sparse sample of a large
    space, first counts its (n, q) degree table (_degree_table), whose
    blocks fill the store.  Both give exact degrees, so the search
    visits the candidates it would visit in the whole graph, in the
    same order.

    Where only v = 0 has norm 0 (_anisotropic), the t = 0 graph is
    edgeless, and a pattern with an edge is absent there without a
    search.  Any other t no pair of E realizes also gives an edgeless
    graph, in which a pattern with edges has no candidate vertex, so its
    search ends before spending budget: absent, never indeterminate."""
    n, q, d = len(E), E.spec.q, E.d
    if pattern.n > n:
        return GraphDistanceSet(E.spec, frozenset(), frozenset())
    rows = _NormRows(E)
    dense = n * n > 4 * q ** (d + 1) and n * n * d >= _DEMAND_CELLS
    degrees = [None] * q if dense else _degree_table(rows).T.tolist()
    contained = set()
    indeterminate = set()
    witnesses = {}
    for t in range(1 if pattern.edge_count and _anisotropic(q, d) else 0, q):
        try:
            w = contains_subgraph(_DistanceHost(rows, t, degrees[t]), pattern, budget=budget)
        except BudgetExceeded:
            indeterminate.add(t)
            continue
        if w is not None:
            contained.add(t)
            witnesses[t] = w
    return GraphDistanceSet(E.spec, frozenset(contained), frozenset(indeterminate), witnesses)


# -- file format -----------------------------------------------------------


def write_points_file(E: PointSet, path) -> None:
    """Header `p k d n`, one modulus-coefficient line, then n lines of
    d*k integers, coefficient-major (coefficient index is the outer
    loop: first the constant terms of all d coordinates, then the X
    coefficients, ...)."""
    spec = E.spec
    cells = spec.digit_table[E.codes].transpose(0, 2, 1).reshape(len(E), spec.k * E.d)
    with open(path, "w") as fh:
        fh.write(f"{spec.p} {spec.k} {E.d} {len(E)}\n")
        fh.write(" ".join(str(c) for c in spec.modulus) + "\n")
        fh.writelines(" ".join(map(str, row)) + "\n" for row in cells.tolist())


def _digits(line: str, count: int, p: int, where: str) -> list[int]:
    """`count` integers in [0, p) from one line of a points file."""
    try:
        cells = [int(tok) for tok in line.split()]
    except ValueError:
        raise ValueError(f"{where}: non-integer token in {line.strip()!r}") from None
    if len(cells) != count:
        raise ValueError(f"{where} needs {count} integers, got {len(cells)}")
    if any(not 0 <= c < p for c in cells):
        raise ValueError(f"{where}: coefficient outside [0, {p})")
    return cells


def read_points_file(path) -> PointSet:
    """Inverse of write_points_file.  Strict: every coefficient lies in
    [0, p), the modulus line has k + 1 of them, and exactly n point lines
    follow (trailing blank lines aside)."""
    with open(path) as fh:
        lines = fh.read().rstrip().splitlines()
    header = lines[0].split() if lines else []
    if len(header) != 4 or not all(tok.isdigit() for tok in header):
        raise ValueError("points file header must be `p k d n`, four nonnegative integers")
    p, k, d, n = map(int, header)
    if len(lines) != n + 2:
        raise ValueError(f"header says {n} points but the file has {len(lines) - 2} point lines")
    spec = FieldSpec(p, k, _digits(lines[1], k + 1, p, "modulus line"))
    rows = [_digits(line, d * k, p, f"point line {i}") for i, line in enumerate(lines[2:])]
    digits = np.array(rows, dtype=np.int64).reshape(n, k, d).transpose(0, 2, 1)
    return PointSet(spec, d, spec.encode(digits))
