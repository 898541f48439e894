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
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction
from math import log
from typing import Optional, Sequence

import numpy as np

from .errors import ConfigError, DegenerateFit, TooLarge
from .graphs import Graph, contains_subgraph

DEFAULT_MAX_CLOUD = 1 << 18
ENV_MAX_CLOUD = "DISTGRAPHS_MAX_CLOUD"

GUARD = 2.0**-40  # relative guard band for epsilon-scaled comparisons

DEFAULT_BAND = (0.125, 8.0)  # annulus regularity band: mass/epsilon in [c1, c2]


def max_cloud_size() -> int:
    return int(os.environ.get(ENV_MAX_CLOUD, DEFAULT_MAX_CLOUD))


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
    mass on distinct cell centers inside [0,1]^d."""

    points: np.ndarray  # (n, d) float64, fixed construction order
    mass_denominator: int  # each point carries mass 1/mass_denominator

    @property
    def n(self) -> int:
        return len(self.points)

    @property
    def d(self) -> int:
        return self.points.shape[1]

    @property
    def unit_mass(self) -> Fraction:
        return Fraction(1, self.mass_denominator)

    def mass_of_count(self, count: int) -> Fraction:
        return Fraction(int(count), self.mass_denominator)

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


def cantor_product(spec: FractalSpec) -> PointCloud:
    """Centers of all depth-n cells of the d-fold Cantor product, in
    lexicographic order (first axis slowest), uniform weights."""
    cap = max_cloud_size()
    if spec.n_points > cap:
        raise TooLarge(f"cloud of {spec.n_points} points exceeds the cap {cap}")
    axis = _cantor_centers(spec.contraction, spec.depth)
    grids = np.meshgrid(*([axis] * spec.d), indexing="ij")
    pts = np.stack([g.reshape(-1) for g in grids], axis=1)
    pts.setflags(write=False)
    return PointCloud(pts, 1 << (spec.depth * spec.d))


# -- greedy separated nets -------------------------------------------------


@dataclass(frozen=True)
class Net:
    """Centers with pairwise distance > 3 epsilon whose 3 epsilon balls
    cover the cloud."""

    center_indices: np.ndarray  # indices into the source cloud
    centers: np.ndarray  # (m, d) coordinates
    epsilon: float
    covers: bool

    @property
    def size(self) -> int:
        return len(self.centers)


def greedy_net(cloud: PointCloud, epsilon: float) -> Net:
    """Deterministic greedy construction: repeatedly take the first
    uncovered point (in cloud order) as a center and cover everything
    within 3 epsilon of it."""
    if epsilon <= 0.0:
        raise ConfigError(f"epsilon must be positive, got {epsilon}")
    pts = cloud.points
    r_cov = 3.0 * epsilon * (1.0 + GUARD)
    r2 = r_cov * r_cov
    uncovered = np.arange(cloud.n)
    chosen = []
    while uncovered.size:
        i = int(uncovered[0])
        chosen.append(i)
        delta = pts[uncovered] - pts[i]
        keep = np.einsum("ij,ij->i", delta, delta) > r2
        uncovered = uncovered[keep]
    idx = np.array(chosen, dtype=np.int64)
    return Net(idx, pts[idx].copy(), epsilon, covers=True)


def verify_net(cloud: PointCloud, net: Net) -> bool:
    """Independent validity check: pairwise separation > 3 epsilon and
    3 epsilon coverage, under the documented guard band."""
    c = net.centers
    sep2 = (3.0 * net.epsilon * (1.0 - GUARD)) ** 2
    for i in range(net.size):
        delta = c[i + 1 :] - c[i]
        if delta.size and np.min(np.einsum("ij,ij->i", delta, delta)) <= sep2:
            return False
    cov2 = (3.0 * net.epsilon * (1.0 + GUARD)) ** 2
    step = max(1, (1 << 22) // max(net.size, 1))
    for lo in range(0, cloud.n, step):
        block = cloud.points[lo : lo + step]
        d2 = ((block[:, None, :] - c[None, :, :]) ** 2).sum(axis=2)
        if np.min(d2, axis=1).max() > cov2:
            return False
    return True


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


def annulus_stats(
    cloud: PointCloud,
    centers: np.ndarray,
    t: float,
    epsilon: float,
    band: tuple[float, float] = DEFAULT_BAND,
) -> AnnulusStats:
    if t <= 0.0 or epsilon <= 0.0:
        raise ConfigError("t and epsilon must be positive")
    centers = np.asarray(centers, dtype=float)
    counts = np.empty(len(centers), dtype=np.int64)
    pts = cloud.points
    for i, c in enumerate(centers):
        dist = np.linalg.norm(pts - c, axis=1)
        counts[i] = int(np.count_nonzero((dist > t) & (dist <= t + epsilon)))
    masses = counts / float(cloud.mass_denominator)
    lo, hi = band[0] * epsilon, band[1] * epsilon
    in_band = (masses >= lo) & (masses <= hi)
    quant = tuple(float(x) for x in np.quantile(masses, [0.0, 0.25, 0.5, 0.75, 1.0])) if len(
        centers
    ) else (0.0,) * 5
    frac = float(in_band.mean()) if len(centers) else 0.0
    return AnnulusStats(t, epsilon, counts, masses, band, in_band, frac, quant)


# -- approximate distance graphs -------------------------------------------


def _pairwise_dist(centers: np.ndarray) -> np.ndarray:
    diff = centers[:, None, :] - centers[None, :, :]
    return np.sqrt((diff**2).sum(axis=2))


def approx_distance_graph(net: Net, t: float, epsilon: float) -> Graph:
    """Graph on net centers with x ~ y iff | |x - y| - t | < 10 epsilon."""
    dist = _pairwise_dist(net.centers)
    adj = np.abs(dist - t) < 10.0 * epsilon
    return Graph.from_bool_matrix(adj)


@dataclass(frozen=True)
class EdgeScaleRecord:
    epsilon: float
    net_size: int
    edges: int
    band_fraction: float  # fraction of centers in the annulus band
    min_degree_band: int  # over band centers; -1 when none qualify
    median_degree_band: float
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
    if epsilon < 4.0 * spec.cell_side * (1.0 - GUARD):
        raise ConfigError(
            f"epsilon {epsilon} below 4 * cell side {4.0 * spec.cell_side}; increase depth"
        )


def edge_scaling(
    spec: FractalSpec,
    cloud: PointCloud,
    nets: Sequence[Net],
    t: float,
    band: tuple[float, float] = DEFAULT_BAND,
) -> EdgeScalingResult:
    """Edge counts of the approximate distance graphs on the given nets
    of `cloud` (one per scale, taken in ascending epsilon), with the
    fitted log-log slope (expected around 2s - 1) and the per-scale
    degree statistics of the annulus-regular centers."""
    nets = sorted(nets, key=lambda net: net.epsilon)
    if len(nets) < 3:
        raise ConfigError(f"need at least 3 epsilon values, got {len(nets)}")
    for net in nets:
        check_scale(spec, net.epsilon)
    records = []
    for net in nets:
        e = net.epsilon
        graph = approx_distance_graph(net, t, e)
        degrees = np.array(graph.degrees(), dtype=np.int64)
        stats = annulus_stats(cloud, net.centers, t, e, band)
        band_deg = degrees[stats.in_band]
        records.append(
            EdgeScaleRecord(
                epsilon=e,
                net_size=net.size,
                edges=graph.edge_count,
                band_fraction=stats.fraction_in_band,
                min_degree_band=int(band_deg.min()) if band_deg.size else -1,
                median_degree_band=float(np.median(band_deg)) if band_deg.size else float("nan"),
                degree_reference=e ** (1.0 - spec.s),
            )
        )
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
    net: Net,
    pattern: Graph,
    t: float,
    epsilon: float,
    budget: Optional[int] = None,
) -> Optional[ApproximationWitness]:
    """Search the approximate distance graph for the pattern and return
    the witness point tuple, re-validated explicitly.  Budget exhaustion
    propagates as BudgetExceeded."""
    h = approx_distance_graph(net, t, epsilon)
    w = contains_subgraph(h, pattern, budget=budget)
    if w is None:
        return None
    pts = net.centers[list(w.mapping)]
    if not verify_approximation(pts, pattern, t, epsilon):
        raise AssertionError("embedding found but approximation validation failed")
    return ApproximationWitness(
        pattern,
        t,
        epsilon,
        tuple(int(net.center_indices[v]) for v in w.mapping),
        pts,
    )
