"""Point sets in F_q^d: distance histograms, t-distance graphs, the
square-root-cancellation bound check, and G-distance sets.

Points are stored as an (n, d) array of packed element codes so the
pairwise-norm kernel runs through the field's cached numpy operation
tables.  All theorem-level comparisons are exact integer arithmetic.

The distance histogram takes one of two paths, chosen from |E| alone.
When |E|^2 >= 4 q^d it is the Fourier picture of the count: F_q^d is
additively Z_p^{dk}, so the autocorrelation r(v) = #{(x, y) in E^2 :
x - y = v} is one real FFT pair of the indicator 1_E, and nu(t) sums
r over the sphere ||v|| = t.  Every r(v) is an integer in [0, |E|], so
rounding the transform's output recovers it exactly as long as the
floating-point error stays below 1/2; the rounding guard raises
InexactTransform if any residual exceeds 1/4, if r(0) != |E|, or if the
mass is not |E|^2, and the counts are then summed in int64.  Smaller
sets, such as sparse samples of a large space, take the O(|E|^2 d)
pairwise-norm kernel instead of a transform over all q^d vectors.
Floats appear elsewhere only in report slack columns.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import sqrt
from typing import Optional, Sequence

import numpy as np

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

_CHUNK = 1 << 22  # target cells per pairwise block


def max_point_count() -> int:
    """Configured cap on q^d for all_points; override with the
    DISTGRAPHS_MAX_POINTS env var."""
    return env_cap(ENV_MAX_POINTS, DEFAULT_MAX_POINTS)


class PointSet:
    """An ordered set of distinct points of F_q^d, d >= 2.

    codes is an (n, d) int32 array of packed element codes; row order is
    the set's canonical order.
    """

    def __init__(self, spec: FieldSpec, d: int, codes: np.ndarray):
        if d < 2:
            raise DimensionTooSmall(f"need d >= 2, got {d}")
        codes = np.asarray(codes, dtype=np.int32).reshape(-1, d)
        if codes.size and (codes.min() < 0 or codes.max() >= spec.q):
            raise ValueError("element code out of range")
        if len(np.unique(codes, axis=0)) != len(codes):
            raise ValueError("points must be distinct")
        self.spec = spec
        self.d = d
        self.codes = codes
        self.codes.setflags(write=False)

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
        return PointSet(self.spec, self.d, add[self.codes, zc[None, :]])

    def permute_coordinates(self, perm: Sequence[int]) -> "PointSet":
        return PointSet(self.spec, self.d, self.codes[:, list(perm)])

    def __repr__(self):
        return f"PointSet(q={self.spec.q}, d={self.d}, n={len(self)})"


def all_points(spec: FieldSpec, d: int) -> PointSet:
    """All q^d points in lexicographic order (first coordinate varies
    slowest)."""
    total = spec.q**d
    cap = max_point_count()
    if total > cap:
        raise TooLarge(f"q^d = {total} exceeds the configured cap {cap}")
    return PointSet(spec, d, _unflatten(np.arange(total), spec.q, d))


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


def _partial_fisher_yates(n: int, size: int, rng: np.random.Generator) -> list[int]:
    """First `size` entries of a Fisher-Yates shuffle of range(n); a
    uniform sample without replacement using O(size) memory.  Step i
    swaps with j uniform in [i, n); all the j are drawn in one call,
    which yields the same stream as one rng.integers(i, n) per step."""
    swap: dict[int, int] = {}
    out = []
    for i, j in enumerate(rng.integers(np.arange(size), n).tolist()):
        vi = swap.get(i, i)
        vj = swap.get(j, j)
        swap[i], swap[j] = vj, vi
        out.append(vj)
    return out


def random_subset(spec: FieldSpec, d: int, size: int, seed) -> PointSet:
    """Uniform random subset of F_q^d without replacement.

    Reproducible: PCG64 seeded from `seed` (an int or a numpy
    SeedSequence) drives a partial Fisher-Yates shuffle of the
    lexicographic point indices.
    """
    total = spec.q**d
    if size > total:
        raise SizeTooLarge(f"size {size} exceeds q^d = {total}")
    if size < 0:
        raise ValueError("size must be nonnegative")
    if d < 2:
        raise DimensionTooSmall(f"need d >= 2, got {d}")
    rng = np.random.default_rng(seed)
    picks = np.array(_partial_fisher_yates(total, size, rng), dtype=np.int64)
    return PointSet(spec, d, _unflatten(picks, spec.q, d))


# -- pairwise norms and histograms ---------------------------------------


def _norm_block(E: PointSet, rows: slice) -> np.ndarray:
    """Norms ||x_i - x_j|| (as codes) for i in `rows`, all j."""
    spec = E.spec
    sub, sq, add = spec.sub_table, spec.square_table, spec.add_table
    diff = sub[E.codes[rows, None, :], E.codes[None, :, :]]
    sqd = sq[diff]
    acc = sqd[..., 0]
    for jj in range(1, E.d):
        acc = add[acc, sqd[..., jj]]
    return acc


def _row_chunk(E: PointSet) -> int:
    n = max(len(E), 1)
    return max(1, _CHUNK // (n * max(E.d, 1)))


def pairwise_norms(E: PointSet) -> np.ndarray:
    """Full (n, n) matrix of pairwise norm codes."""
    n = len(E)
    out = np.empty((n, n), dtype=np.int32)
    step = _row_chunk(E)
    for lo in range(0, n, step):
        rows = slice(lo, min(lo + step, n))
        out[rows] = _norm_block(E, rows)
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


def _autocorrelation(E: PointSet) -> np.ndarray:
    """r(v) = #{(x, y) in E^2 : x - y = v} for every v of F_q^d, in
    lexicographic order, from one real FFT pair of 1_E over Z_p^{dk}.

    Each axis of size p is one base-p coefficient digit of one
    coordinate, and addition in F_q^d is digit-wise mod p, so the
    autocorrelation is the cyclic one of the (p,) * dk array."""
    spec, n = E.spec, len(E)
    shape = (spec.p,) * (E.d * spec.k)
    axes = tuple(range(len(shape)))
    indicator = np.zeros(spec.q**E.d)
    indicator[_flat_index(E)] = 1.0
    spectrum = np.fft.rfftn(indicator.reshape(shape), axes=axes)
    power = spectrum.real**2 + spectrum.imag**2
    approx = np.fft.irfftn(power, s=shape, axes=axes).ravel()
    r = np.rint(approx)
    residual = float(np.abs(approx - r).max())
    if residual > 0.25:
        raise InexactTransform(f"autocorrelation residual {residual:.3g} exceeds 1/4")
    r = r.astype(np.int64)
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
    step = _row_chunk(E)
    for lo in range(0, n, step):
        rows = slice(lo, min(lo + step, n))
        block = _norm_block(E, rows)
        counts += np.bincount(block.ravel(), minlength=spec.q)
    return DistanceHistogram(spec, counts, n)


def distance_graph(E: PointSet, t, norms: Optional[np.ndarray] = None) -> Graph:
    """Simple graph on E's index set: {i, j} is an edge iff
    ||x_i - x_j|| = t (i != j).

    t = 0 is permitted; the resulting graph records isotropic differences
    only, since loops are excluded.
    """
    code = _t_code(E.spec, t)
    if norms is None:
        norms = pairwise_norms(E)
    adj = norms == code
    return Graph.from_bool_matrix(adj)


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
    if E.d < 2:
        raise DimensionTooSmall(f"need d >= 2, got {E.d}")
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


def graph_distance_set(
    E: PointSet,
    pattern: Graph,
    budget: Optional[int] = None,
    norms: Optional[np.ndarray] = None,
) -> GraphDistanceSet:
    """Test every t in F_q for pattern containment in the t-distance
    graph.  The pairwise norm matrix is computed once and shared.

    A t no pair of E realizes gives an edgeless graph, in which a
    pattern with edges has no candidate vertex, so its search ends
    before spending budget: absent, never indeterminate."""
    if pattern.n > len(E):
        return GraphDistanceSet(E.spec, frozenset(), frozenset())
    if norms is None:
        norms = pairwise_norms(E)
    contained = set()
    indeterminate = set()
    witnesses = {}
    for t in range(E.spec.q):
        g = distance_graph(E, t, norms=norms)
        try:
            w = contains_subgraph(g, pattern, budget=budget)
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
    with open(path, "w") as fh:
        fh.write(f"{spec.p} {spec.k} {E.d} {len(E)}\n")
        fh.write(" ".join(str(c) for c in spec.modulus) + "\n")
        for row in E.codes:
            cells = []
            for c in range(spec.k):
                pc = spec.p**c
                cells.extend((int(code) // pc) % spec.p for code in row)
            fh.write(" ".join(str(c) for c in cells) + "\n")


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
    codes = [[sum(row[c * d + j] * p**c for c in range(k)) for j in range(d)] for row in rows]
    return PointSet(spec, d, codes)
