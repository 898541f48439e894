"""Euclidean simulator for regular fractal sets: Cantor-product point
clouds, greedy separated nets, annulus mass statistics, approximate
distance graphs, and edge-count scaling fits.

The cloud is the normalized counting measure on the depth-n cell centers
of a d-fold Cantor product; it behaves like an s-regular measure with
s = d ln 2 / ln(1/lambda) down to the cell scale lambda^depth, so scale
sweeps must keep epsilon >= 4 lambda^depth (enforced where a sweep is
requested).  Threshold comparisons against epsilon-scaled radii carry a
2^-40 relative guard band so re-verification with independently computed
distances cannot flap across the boundary.

The cloud is a product A^d of one sorted axis A, listed in lexicographic
order, so a row (the |A| points sharing their first d - 1 coordinates; a
1-D cloud is one row) is a run of consecutive indices whose last
coordinates are A in order.  A ball of radius r around c meets a row
whose first d - 1 coordinates lie at distance g from c's in the a with
|a - c_last| <= sqrt(r^2 - g^2), one interval of A that binary search
finds, and rows with g > r not at all.  No query is decided on these
intervals alone.  They are taken for radii moved by a rounding slack of
2^-30 times the radius plus the coordinate scale, which dwarfs the
rounding of any distance computed from these coordinates, and every
point they leave in doubt gets the same distance predicate as a
whole-cloud scan, so results are identical to that scan's, ties at the
boundaries included.  A radius, a center or a cloud axis whose square
with slack would overflow is a config error.

Nets and net checks split each row a ball reaches into a sure run, the
row's interval for r - slack, whose points all lie within r however
their distances round, and two doubt bands out to its interval for
r + slack.  A greedy net takes one slack for the whole call: every
center is a cloud point, so 2^-30 (r + 2 max |axis end|) bounds each
center's own, and a larger slack only moves points into doubt.  It scans
the cloud one row at a time; when it reaches a row, every earlier row is
covered.  Within a row two points lie |a - c| apart, so what a center
covers to its right is its sure run for gap 0 extended while
(a - c)^2 <= r^2, one end per axis position, found once per call; the
row's centers follow from these ends and the points that earlier rows
left uncovered.  They share one gap to each later row, so one pass per
row marks all their sure runs there covered through one index array and
evaluates only the doubt bands.  A net check takes the centers in
blocks and, in one difference array over the cloud, adds +1 at the
start and -1 past the end of every sure run and of every doubt point
that its predicate puts within 3 epsilon; one running sum then reads
off the coverage of every point.

`annulus_stats` takes a whole grid of t values at one epsilon in one
pass over the centers, and reads each t's count as
#{d <= t + epsilon} - #{d <= t}, which is exactly the number with
t < d <= t + epsilon; a single t is a one-element grid.  The radii t and
t + epsilon are sorted and each taken once, so the grid may be unsorted,
repeat a t, or be spaced below epsilon.  The centers go in blocks of at
most _CHUNK / 256 (center, radius, row) cells and (center, axis point)
offsets.  Per block, the rows that no center reaches within the largest
radius are left out, each center's squared last-coordinate offsets
(a - c_last)^2 are sorted once and its rows put in descending order of
their squared gap g, so that along each radius its sure bounds
max(r - slack, 0)^2 - g ascend, and one binary search per center
counts, for every (radius, row), the points below the bound unseen.
One gather of each such cell's next offset, compared with
(r + slack)^2 - g, finds the few cells with a doubt band, and only
their points are evaluated.  The mass quantiles come from one sort with
numpy's linear interpolation, without np.quantile, which imports
numpy.ma.

A net carries its scale epsilon, and the approximate distance graph,
the approximation search and the edge-count fit read epsilon from the
net: the 10 epsilon tolerance and 3 epsilon separation are always those
of the net's own scale.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from math import isfinite, log, sqrt
from typing import Iterator, Optional, Sequence

import numpy as np

from .errors import ConfigError, DegenerateFit, TooLarge, env_cap
from .ffgeom import _CHUNK
from .graphs import Graph, contains_subgraph

DEFAULT_MAX_CLOUD = 1 << 18
ENV_MAX_CLOUD = "DISTGRAPHS_MAX_CLOUD"

GUARD = 2.0**-40  # relative guard band for epsilon-scaled comparisons

DEFAULT_BAND = (0.125, 8.0)  # annulus regularity band: mass/epsilon in [c1, c2]


def max_cloud_size() -> int:
    return env_cap(ENV_MAX_CLOUD, DEFAULT_MAX_CLOUD)


@dataclass(frozen=True)
class FractalSpec:
    """d-fold product of the central Cantor construction with the given
    contraction ratio, iterated `depth` times."""

    d: int
    contraction: float
    depth: int

    def __post_init__(self):
        if self.d < 1:
            raise ConfigError(f"dimension must be >= 1, got {self.d}")
        if not 0.0 < self.contraction <= 0.5:
            raise ConfigError(f"contraction must lie in (0, 1/2], got {self.contraction}")
        if self.depth < 0:
            raise ConfigError(f"depth must be >= 0, got {self.depth}")

    @property
    def s(self) -> float:
        """Regularity exponent: 2^depth cells per axis of side
        contraction^depth gives s = d ln 2 / ln(1/contraction)."""
        return self.d * log(2.0) / log(1.0 / self.contraction)

    @property
    def cell_side(self) -> float:
        return self.contraction**self.depth

    @property
    def n_points(self) -> int:
        return 1 << (self.depth * self.d)


@dataclass(frozen=True)
class PointCloud:
    """Finite surrogate for an s-regular probability measure: uniform
    mass on the |A|^d points of the product A^d of a sorted axis A.

    `points` lists them in lexicographic order (first coordinate
    slowest), read-only; `axis` is a read-only copy of A, which must be
    1-D, nonempty, finite and strictly increasing, and d must be >= 1."""

    axis: np.ndarray  # (m,) float64
    d: int
    points: np.ndarray = field(init=False, repr=False)  # (m^d, d) float64

    def __post_init__(self):
        if isinstance(self.d, bool) or not isinstance(self.d, (int, np.integer)) or self.d < 1:
            raise ConfigError(f"cloud dimension must be an integer >= 1, got {self.d!r}")
        try:
            axis = np.array(self.axis, dtype=float)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"cloud axis must be an array of numbers: {exc}") from None
        if axis.ndim != 1 or not axis.size:
            raise ConfigError(f"cloud axis must be a nonempty 1-D array, got shape {axis.shape}")
        if not np.isfinite(axis).all():
            raise ConfigError("cloud axis must be finite")
        if np.any(axis[1:] <= axis[:-1]):
            raise ConfigError("cloud axis must be strictly increasing")
        # Cloud points as centers give _check_centers a span of twice the largest axis end.
        if not _squarable(2.0 * sqrt(self.d) * float(np.abs(axis[[0, -1]]).max())):
            raise ConfigError("cloud axis must lie where squared distances between its points are finite")
        axis.setflags(write=False)
        grids = np.meshgrid(*([axis] * self.d), indexing="ij")
        pts = np.stack([g.reshape(-1) for g in grids], axis=1)
        pts.setflags(write=False)
        object.__setattr__(self, "axis", axis)
        object.__setattr__(self, "d", int(self.d))
        object.__setattr__(self, "points", pts)

    @property
    def n(self) -> int:
        return len(self.points)

    @property
    def mass_denominator(self) -> int:
        """Each point carries mass 1/mass_denominator = 1/|A|^d."""
        return len(self.axis) ** self.d

    @property
    def unit_mass(self) -> Fraction:
        return Fraction(1, self.mass_denominator)

    def diameter(self) -> float:
        """Distance between the min and max corners; attained for
        product-structured clouds, where both corners are cloud points."""
        lo = self.points.min(axis=0)
        hi = self.points.max(axis=0)
        return float(np.linalg.norm(hi - lo))

    def write_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(",".join(f"x{j}" for j in range(self.d)) + ",weight\n")
            w = repr(1.0 / self.mass_denominator)
            for row in self.points:
                fh.write(",".join(repr(float(c)) for c in row) + f",{w}\n")


def _cantor_centers(contraction: float, depth: int) -> np.ndarray:
    """Ascending centers of the depth-n intervals of the central Cantor
    construction on [0, 1]."""
    starts = np.array([0.0])
    length = 1.0
    for _ in range(depth):
        starts = np.stack([starts, starts + (1.0 - contraction) * length], axis=1).reshape(-1)
        length *= contraction
    return starts + length / 2.0


def check_cloud(spec: FractalSpec) -> None:
    """Reject a spec whose cloud is over the DISTGRAPHS_MAX_CLOUD cap.
    2^(depth d) > cap exactly when depth d >= cap.bit_length(), so the
    point count itself is never formed."""
    cap = max_cloud_size()
    if spec.depth * spec.d >= cap.bit_length():
        raise TooLarge(f"cloud of 2^{spec.depth * spec.d} points exceeds the cap {cap}")


def cantor_product(spec: FractalSpec) -> PointCloud:
    """Centers of all depth-n cells of the d-fold Cantor product, in
    lexicographic order (first axis slowest), uniform weights."""
    check_cloud(spec)
    return PointCloud(_cantor_centers(spec.contraction, spec.depth), spec.d)


# -- ball queries on the product structure ---------------------------------


def _check_centers(cloud: PointCloud, centers) -> np.ndarray:
    """The centers as a finite (k, d) float array whose squared offsets
    to the cloud stay finite when widened by the slack, or a config
    error."""
    try:
        c = np.asarray(centers, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"centers must be a finite (k, {cloud.d}) array: {exc}") from None
    if c.ndim != 2 or c.shape[1] != cloud.d:
        raise ConfigError(f"centers must be a finite (k, {cloud.d}) array, got shape {c.shape}")
    if not np.isfinite(c).all():
        raise ConfigError("centers must be finite")
    # Every offset between a center and a cloud point, widened by its slack,
    # lies within 2 span on each axis, so their distance within 2 sqrt(d) span.
    span = float(np.abs(cloud.axis[[0, -1]]).max()) + float(np.abs(c).max(initial=0.0))
    if not _squarable(sqrt(cloud.d) * span):
        raise ConfigError("centers must lie where squared distances to the cloud are finite")
    return c


def _squarable(r: float) -> bool:
    """Whether (2 r)^2 is finite.  Then so is (r + slack)^2, the largest
    square a ball query at radius r forms, on any cloud and centers whose
    coordinates have finite squares."""
    return isfinite(4.0 * r * r)


def _slack(cloud: PointCloud, c: np.ndarray, r: float) -> float:
    """Rounding slack for radii up to r around the centers c (see the
    module docstring)."""
    return 2.0**-30 * (r + float(np.abs(cloud.axis[[0, -1]]).max()) + float(np.abs(c).max()))


def _row_gaps(cloud: PointCloud, centers: np.ndarray) -> np.ndarray:
    """Squared distance from each center's first d - 1 coordinates to each
    row's, (centers, rows)."""
    delta = cloud.points[:: len(cloud.axis), :-1] - centers[:, None, :-1]
    return np.einsum("bij,bij->bi", delta, delta)


def _reach(room: np.ndarray) -> np.ndarray:
    """sqrt(room), the half-width of a row's interval, or -1 (no point)
    where room < 0."""
    return np.where(room >= 0.0, np.sqrt(np.maximum(room, 0.0)), -1.0)


def _runs(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The ranges [s, s + k) for each start s and length k, concatenated."""
    first = np.repeat(starts - (np.cumsum(lengths) - lengths), lengths)
    return np.arange(len(first)) + first


def _row_bounds(
    cloud: PointCloud, row: np.ndarray, last, gaps: np.ndarray, r: float, slack: float
) -> tuple[np.ndarray, ...]:
    """Cloud indices lo <= sure_lo <= sure_hi <= hi bounding, in each given
    row (at squared gap `gaps` from a center whose last coordinate is
    `last`), the interval for r + slack widened by the slack, [lo, hi),
    and the sure run for r - slack, [sure_lo, sure_hi)."""
    axis, start = cloud.axis, row * len(cloud.axis)
    reach = np.sqrt((r + slack) ** 2 - gaps) + slack
    sure = _reach((r - slack) ** 2 - gaps) if r > slack else np.full(len(gaps), -1.0)  # no ball below radius 0
    lo = start + np.searchsorted(axis, last - reach, side="left")
    hi = start + np.searchsorted(axis, last + reach, side="right")
    # an empty sure run (sure = -1) sits inside [lo, hi) as sure_lo = sure_hi
    sure_lo = np.minimum(start + np.searchsorted(axis, last - sure, side="left"), hi)
    sure_hi = np.maximum(start + np.searchsorted(axis, last + sure, side="right"), sure_lo)
    return lo, sure_lo, sure_hi, hi


def _intervals(cloud: PointCloud, centers: np.ndarray, r: float) -> tuple[np.ndarray, ...]:
    """The balls of radius r around a (b, d) block of centers, row by row.

    For each (center, row) pair whose row can reach the ball, the cloud
    indices [sure_lo, sure_hi) are the row's interval for r - slack:
    every point in it lies within r of the center however its distance
    is rounded.  The interval for r + slack, widened by the slack again
    for the rounding of its ends, holds every point that may lie within
    r; the two bands it adds to the sure run are its doubt points.
    Returns sure_lo and sure_hi, one per pair, then the doubt points'
    cloud indices and the row of `centers` each is in doubt for."""
    slack = _slack(cloud, centers, r)
    gaps = _row_gaps(cloud, centers)
    which, row = np.nonzero(gaps <= (r + slack) ** 2)
    lo, sure_lo, sure_hi, hi = _row_bounds(cloud, row, centers[which, -1], gaps[which, row], r, slack)
    lengths = np.concatenate([sure_lo - lo, hi - sure_hi])
    doubt = _runs(np.concatenate([lo, sure_hi]), lengths)
    return sure_lo, sure_hi, doubt, np.repeat(np.concatenate([which, which]), lengths)


# -- greedy separated nets -------------------------------------------------


@dataclass(frozen=True)
class Net:
    """Centers with pairwise distance > 3 epsilon whose 3 epsilon balls
    cover the cloud."""

    center_indices: np.ndarray  # indices into the source cloud
    centers: np.ndarray  # (m, d) coordinates
    epsilon: float

    @property
    def size(self) -> int:
        return len(self.centers)


def _cover_radius(epsilon: float) -> float:
    """3 epsilon widened by the guard band; a scale that is not positive,
    or whose radius squared with slack is not finite (NaN, or overflow),
    is a config error."""
    r_cov = 3.0 * epsilon * (1.0 + GUARD)
    if not (epsilon > 0.0 and _squarable(r_cov)):
        raise ConfigError(f"epsilon must be positive with (6 epsilon)^2 finite, got {epsilon}")
    return r_cov


def _row_ends(cloud: PointCloud, r: float, slack: float) -> list[int]:
    """For a center at each axis position j, the end of the points it
    covers to its right in its own row: its sure run for gap 0 (j alone,
    where r <= slack leaves no sure run), extended over the doubt band
    while (a - c)^2 <= r^2.  Row offsets are |a - c|, so that test holds
    on a prefix of the band."""
    axis, m = cloud.axis, len(cloud.axis)
    at = np.arange(m)
    _, sure_lo, sure_hi, hi = _row_bounds(cloud, np.zeros(m, dtype=np.intp), axis, np.zeros(m), r, slack)
    start = np.where(sure_hi > sure_lo, sure_hi, at + 1)
    band, owner = _runs(start, hi - start), np.repeat(at, hi - start)
    within = (axis[band] - axis[owner]) ** 2 <= r * r
    return (start + np.bincount(owner[within], minlength=m)).tolist()


def greedy_net(cloud: PointCloud, epsilon: float) -> Net:
    """Deterministic greedy construction: repeatedly take the first
    uncovered point (in cloud order) as a center and cover everything
    within 3 epsilon of it.

    The scan takes one row at a time.  When it reaches a row's first
    uncovered point, every earlier row is covered, so the row's centers
    follow from its axis alone: each covers its points up to `_row_ends`,
    and the next is the row's first point past those that no earlier row's
    center covers.  The row's centers share one gap to every later row,
    so one `_row_bounds` pass over their (center, later row) pairs covers
    the later rows they reach, each doubt point evaluated by the predicate
    of a lone center."""
    r_cov = _cover_radius(epsilon)
    pts, m = cloud.points, len(cloud.axis)
    r2 = r_cov * r_cov
    # Every center is a cloud point, so the axis ends bound each center's slack.
    slack = _slack(cloud, cloud.axis[[0, -1]][:, None], r_cov)
    reach2 = (r_cov + slack) ** 2
    ends = _row_ends(cloud, r_cov, slack)
    uncovered = np.ones(cloud.n + 1, dtype=bool)
    uncovered[-1] = False  # a covered sentinel past the last row
    chosen = []
    i = 0
    while uncovered[i]:
        row = i // m
        base = row * m
        free = np.flatnonzero(uncovered[base : base + m]).tolist()
        cols, k = [], 0
        while k < len(free):
            cols.append(free[k])
            k = bisect_left(free, ends[free[k]], k + 1)
        centers = base + np.array(cols, dtype=np.int64)
        chosen.append(centers)
        gaps = _row_gaps(cloud, pts[base : base + 1])[0]
        rows = row + 1 + np.flatnonzero(gaps[row + 1 :] <= reach2)
        bounds = _row_bounds(cloud, rows, cloud.axis[cols, None], gaps[rows], r_cov, slack)  # each (centers, rows)
        lo, sure_lo, sure_hi, hi = (b.ravel() for b in bounds)
        uncovered[_runs(sure_lo, sure_hi - sure_lo)] = False
        bands = np.concatenate([sure_lo - lo, hi - sure_hi])
        if bands.any():  # most doubt bands are empty
            doubt = _runs(np.concatenate([lo, sure_hi]), bands)
            owner = np.repeat(np.tile(np.repeat(centers, len(rows)), 2), bands)
            delta = pts[doubt] - pts[owner]
            uncovered[doubt[np.einsum("ij,ij->i", delta, delta) <= r2]] = False
        i = base + m
        i += int(np.argmax(uncovered[i:]))  # the next uncovered point, or a covered one if none is left
    idx = np.concatenate(chosen)
    return Net(idx, pts[idx].copy(), epsilon)


def _net_block(cloud: PointCloud, k: int) -> int:
    """Centers per block in `verify_net` for k centers: each block's
    (center, center) and (center, row) cells stay within _CHUNK / 256."""
    return max(1, _CHUNK // (256 * max(cloud.n // len(cloud.axis), k) * cloud.d))


def verify_net(cloud: PointCloud, net: Net) -> bool:
    """Independent validity check: pairwise separation > 3 epsilon and
    3 epsilon coverage, under the documented guard band.  Centers that
    are not a finite (k, d) array are a config error.

    Both checks take the centers in blocks of `_net_block`.  Coverage
    counts, per cloud point, the sure runs and the evaluated doubt points
    that hold it, as +1 at each run's start and -1 past its end of one
    difference array, summed once at the end."""
    c = _check_centers(cloud, net.centers)
    r_cov = _cover_radius(net.epsilon)
    k, d = c.shape
    step = _net_block(cloud, k)
    sep2 = (3.0 * net.epsilon * (1.0 - GUARD)) ** 2
    for lo in range(0, k, step):
        block = c[lo : lo + step]
        delta = (c[None, lo + 1 :] - block[:, None]).reshape(-1, d)
        d2 = np.einsum("ij,ij->i", delta, delta).reshape(len(block), -1)
        later = np.arange(k - lo - 1) >= np.arange(len(block))[:, None]  # column j is center lo + 1 + j
        if np.any(d2[later] <= sep2):
            return False
    cov2 = r_cov**2
    cover = np.zeros(cloud.n + 1, dtype=np.int32)
    for lo in range(0, k, step):
        block = c[lo : lo + step]
        sure_lo, sure_hi, doubt, owner = _intervals(cloud, block, r_cov)
        near = doubt[((cloud.points[doubt] - block[owner]) ** 2).sum(axis=1) <= cov2]
        np.add.at(cover, np.concatenate([sure_lo, near]), 1)
        np.add.at(cover, np.concatenate([sure_hi, near + 1]), -1)
    return bool(np.cumsum(cover[:-1], out=cover[:-1]).all())


# -- annulus statistics ----------------------------------------------------


@dataclass(frozen=True)
class AnnulusStats:
    """Per-center cloud mass of the annulus t < |x - y| <= t + epsilon,
    and the fraction of centers whose mass/epsilon ratio lies in the
    configured band."""

    t: float
    epsilon: float
    counts: np.ndarray  # int64 per center
    masses: np.ndarray  # float per center
    band: tuple[float, float]
    in_band: np.ndarray  # bool per center
    fraction_in_band: float
    quantiles: tuple[float, ...]  # 0, 25, 50, 75, 100 percentiles of mass


def _annulus_block(cloud: PointCloud, n_radii: int) -> int:
    """Centers per block in `annulus_stats`: each block's (center, radius,
    row) cells, and its (center, axis point) offsets, stay within
    _CHUNK / 256."""
    m = len(cloud.axis)
    return max(1, _CHUNK // (256 * max(n_radii * (cloud.n // m), m + 1)))


def _within(cloud: PointCloud, block: np.ndarray, radii: np.ndarray) -> np.ndarray:
    """#{p : np.linalg.norm(p - c) <= r} for each center c of a (b, d)
    block and each r of the ascending, distinct radii, (b, radii).

    Per center, row (at squared gap g) and radius, a point whose squared
    offset (a - c_last)^2 lies below max(r - slack, 0)^2 - g is counted
    unseen, and one above (r + slack)^2 - g is not; only the points in
    between are evaluated.  Near a bound, the squared offset, g and the
    bound lie below (r + slack)^2 and round by a few units in its last
    place, while each bound lies at least 2^-30 r^2 from r^2 (the slack is
    at least 2^-30 r), so no rounded distance crosses r unseen.  Rows that
    no center of the block reaches within the largest radius plus slack
    are left out.  With each center's rows in descending g, its (radius,
    row) lower bounds ascend along each radius, which keeps its one binary
    search fast."""
    b, m = len(block), len(cloud.axis)
    slack = _slack(cloud, block, float(radii[-1]))
    gaps = _row_gaps(cloud, block)
    reached = np.flatnonzero((gaps <= (radii[-1] + slack) ** 2).any(axis=0))
    gaps = gaps[:, reached]
    rows = np.argsort(-gaps, axis=1, kind="stable")
    gaps = np.take_along_axis(gaps, rows, axis=1)[:, None, :]  # (b, 1, reached), descending
    rows = reached[rows]
    # Both orders come from runs: offsets fall then rise along the axis.
    order = np.argsort((cloud.axis - block[:, -1:]) ** 2, axis=1, kind="stable")
    offsets = np.empty((b, m + 1))  # each row ascending, then inf past its end
    offsets[:, :m] = (cloud.axis[order] - block[:, -1:]) ** 2
    offsets[:, m] = np.inf
    lower = np.maximum(radii - slack, 0.0)[:, None] ** 2 - gaps  # (b, radii, rows)
    lo = np.empty(lower.shape, dtype=np.intp)
    for i in range(b):
        lo[i] = np.searchsorted(offsets[i, :m], lower[i], side="left")
    room = ((radii + slack) ** 2)[:, None] - gaps
    base = np.arange(b)[:, None, None] * (m + 1)
    more = offsets.take(lo + base) <= room  # most doubt bands are empty
    within = lo.sum(axis=2)
    if more.any():
        ci, k, j = np.nonzero(more)  # center by center, as the searches below
        first = lo[ci, k, j]
        doubtful = np.flatnonzero(more.any(axis=(1, 2)))
        past = np.concatenate([np.searchsorted(offsets[i, :m], room[i][more[i]], side="right") for i in doubtful])
        cell = np.repeat(np.arange(len(first)), past - first)
        ci, k = ci[cell], k[cell]
        idx = rows[ci, j[cell]] * m + order[ci, _runs(first, past - first)]
        dist = np.linalg.norm(cloud.points[idx] - block[ci], axis=1)
        hit = dist <= radii[k]
        within += np.bincount(ci[hit] * len(radii) + k[hit], minlength=within.size).reshape(within.shape)
    return within


def _quantiles(values: np.ndarray, qs: Sequence[float]) -> np.ndarray:
    """np.quantile(values, qs, axis=1).T for a (k, n) array with n >= 1,
    bit for bit: the same virtual indices, neighbours and interpolation
    as numpy's default linear method, read off one sort."""
    n = values.shape[1]
    at = (n - 1) * np.asarray(qs, dtype=float)
    prev = np.floor(at)
    last = at >= n - 1
    prev[last] = -1.0  # numpy takes the last value at both ends here
    nxt = np.where(last, -1.0, prev + 1.0)
    gamma = at - prev
    ordered = np.sort(values, axis=1)
    a, b = ordered[:, prev.astype(np.intp)], ordered[:, nxt.astype(np.intp)]
    diff = b - a
    return np.where(gamma >= 0.5, b - diff * (1.0 - gamma), a + diff * gamma)


def annulus_stats(
    cloud: PointCloud,
    centers: np.ndarray,
    ts: Sequence[float],
    epsilon: float,
    band: tuple[float, float] = DEFAULT_BAND,
) -> list[AnnulusStats]:
    """One AnnulusStats per t of `ts`, in order, from one pass over the
    centers, which must be a finite (k, d) array."""
    for t in ts:
        if not (t > 0.0 and epsilon > 0.0 and _squarable(t + epsilon)):
            raise ConfigError(f"t and epsilon must be positive with (2 (t + epsilon))^2 finite, got {t}, {epsilon}")
    centers = _check_centers(cloud, centers)
    if not len(ts):
        return []
    radii = np.sort(np.ravel([(t, t + epsilon) for t in ts]))
    radii = radii[np.flatnonzero(np.diff(radii, prepend=-1.0))]  # ascending, each once
    at = np.searchsorted(radii, [(t, t + epsilon) for t in ts])  # (ts, 2) positions in radii
    step = _annulus_block(cloud, len(radii))
    within = np.empty((len(centers), len(radii)), dtype=np.int64)
    for lo in range(0, len(centers), step):
        within[lo : lo + step] = _within(cloud, centers[lo : lo + step], radii)
    counts = within.T[at[:, 1]] - within.T[at[:, 0]]  # (ts, centers)
    masses = counts / float(cloud.mass_denominator)
    in_band = (masses >= band[0] * epsilon) & (masses <= band[1] * epsilon)
    frac = in_band.mean(axis=1) if len(centers) else np.zeros(len(ts))
    quant = _quantiles(masses, (0.0, 0.25, 0.5, 0.75, 1.0)) if len(centers) else np.zeros((len(ts), 5))
    return [
        AnnulusStats(t, epsilon, counts[k], masses[k], band, in_band[k], float(frac[k]), tuple(map(float, quant[k])))
        for k, t in enumerate(ts)
    ]


# -- approximate distance graphs -------------------------------------------


def approx_distance_graph(net: Net, t: float) -> Graph:
    """Graph on net centers with x ~ y iff | |x - y| - t | < 10 epsilon,
    where epsilon is the net's scale.  It is built in blocks of rows,
    each block's (rows, k, d) difference array at most about a _CHUNK
    of cells, so no (k, k, d) array exists; each distance is the same
    float expression as from the whole array."""
    centers, tol = net.centers, 10.0 * net.epsilon
    step = max(1, _CHUNK // max(centers.size, 1))

    def blocks() -> Iterator[np.ndarray]:
        for lo in range(0, len(centers), step):
            block = centers[lo : lo + step, None, :]
            yield np.abs(np.sqrt(((block - centers[None, :, :]) ** 2).sum(axis=2)) - t) < tol

    return Graph.from_bool_blocks(blocks())


@dataclass(frozen=True)
class EdgeScaleRecord:
    epsilon: float
    net_size: int
    edges: int
    degrees: np.ndarray  # int64 per net center, in the net's order
    degree_reference: float  # epsilon^(1 - s)


@dataclass(frozen=True)
class EdgeScalingResult:
    spec: FractalSpec
    t: float
    records: tuple[EdgeScaleRecord, ...]
    slope: float  # least-squares slope of log e against log(1/epsilon)
    predicted_slope: float  # 2 s - 1


def check_scale(spec: FractalSpec, epsilon: float) -> None:
    """Scales below 4 cell sides leave the surrogate's regular regime."""
    _cover_radius(epsilon)
    if epsilon < 4.0 * spec.cell_side * (1.0 - GUARD):
        raise ConfigError(
            f"epsilon {epsilon} below 4 * cell side {4.0 * spec.cell_side}; increase depth"
        )


def _check_graph(net: Net, graph: Graph) -> None:
    """A net's approximate distance graph has one vertex per center."""
    if graph.n != net.size:
        raise ConfigError(f"the graph has {graph.n} vertices for a net of {net.size} centers")


def edge_scaling(spec: FractalSpec, scales: Sequence[tuple[Net, Graph]], t: float) -> EdgeScalingResult:
    """Edge counts and center degrees of the approximate distance graphs
    at t, given as one (net, approx_distance_graph(net, t)) pair per
    scale, in ascending epsilon, with the fitted log-log slope of edges
    against 1/epsilon (expected around 2s - 1)."""
    scales = sorted(scales, key=lambda scale: scale[0].epsilon)
    if len(scales) < 3:
        raise ConfigError(f"need at least 3 epsilon values, got {len(scales)}")
    for net, graph in scales:
        check_scale(spec, net.epsilon)
        _check_graph(net, graph)
    records = [
        EdgeScaleRecord(
            epsilon=net.epsilon,
            net_size=net.size,
            edges=graph.edge_count,
            degrees=np.array(graph.degrees(), dtype=np.int64),
            degree_reference=net.epsilon ** (1.0 - spec.s),
        )
        for net, graph in scales
    ]
    if any(r.edges == 0 for r in records):
        raise DegenerateFit("an approximate distance graph has no edges")
    xs = np.log(1.0 / np.array([r.epsilon for r in records]))
    ys = np.log(np.array([float(r.edges) for r in records]))
    slope = float(np.polyfit(xs, ys, 1)[0])
    return EdgeScalingResult(spec, t, tuple(records), slope, 2.0 * spec.s - 1.0)


# -- approximation witnesses -------------------------------------------------


@dataclass(frozen=True)
class ApproximationWitness:
    """Vertices of a pattern copy in the approximate distance graph: net
    points whose adjacent pairs sit within 10 epsilon of distance t and
    whose pairs are all more than 3 epsilon apart."""

    pattern: Graph
    t: float
    epsilon: float
    center_indices: tuple[int, ...]  # into the net's cloud
    points: np.ndarray  # (m, d)


def verify_approximation(
    points: np.ndarray, pattern: Graph, t: float, epsilon: float
) -> bool:
    """Independent validator: condition (a) at tolerance 10 epsilon on
    adjacent pairs, condition (b) separation > 3 epsilon on all pairs.
    Distances are recomputed pairwise from scratch."""
    points = np.asarray(points, dtype=float)
    if len(points) != pattern.n:
        return False
    tol_a = 10.0 * epsilon * (1.0 + GUARD)
    sep_b = 3.0 * epsilon * (1.0 - GUARD)
    for i in range(pattern.n):
        for j in range(i + 1, pattern.n):
            dist = float(np.linalg.norm(points[i] - points[j]))
            if dist <= sep_b:
                return False
            if pattern.has_edge(i, j) and abs(dist - t) >= tol_a:
                return False
    return True


def find_approximation(
    net: Net, graph: Graph, pattern: Graph, t: float, *, budget: Optional[int] = None
) -> Optional[ApproximationWitness]:
    """Search the net's approximate distance graph at t, which must be
    `approx_distance_graph(net, t)`, for the pattern, and return the
    witness point tuple, re-validated explicitly at the net's scale
    epsilon.  Budget exhaustion propagates as BudgetExceeded."""
    _check_graph(net, graph)
    w = contains_subgraph(graph, pattern, budget=budget)
    if w is None:
        return None
    pts = net.centers[list(w.mapping)]
    if not verify_approximation(pts, pattern, t, net.epsilon):
        raise AssertionError("embedding found but approximation validation failed")
    return ApproximationWitness(
        pattern,
        t,
        net.epsilon,
        tuple(int(net.center_indices[v]) for v in w.mapping),
        pts,
    )
