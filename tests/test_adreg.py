import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from distgraphs import adreg
from distgraphs.adreg import (
    DEFAULT_BAND,
    FractalSpec,
    PointCloud,
    annulus_stats,
    approx_distance_graph,
    cantor_product,
    check_scale,
    edge_scaling,
    find_approximation,
    greedy_net,
    verify_approximation,
    verify_net,
)
from distgraphs.errors import BudgetExceeded, ConfigError, DegenerateFit, TooLarge
from distgraphs.graphs import complete_graph, cycle_graph, graph_from_name
from oracles import annulus_counts_oracle, approx_distance_graph_oracle, greedy_net_oracle, verify_net_oracle


def test_spec_validation():
    with pytest.raises(ConfigError):
        FractalSpec(0, 0.4, 3)
    with pytest.raises(ConfigError):
        FractalSpec(2, 0.6, 3)
    with pytest.raises(ConfigError):
        FractalSpec(2, 0.4, -1)


def test_regularity_exponent():
    assert FractalSpec(2, 0.25, 3).s == pytest.approx(1.0)
    assert FractalSpec(2, 0.5, 4).s == pytest.approx(2.0)
    assert FractalSpec(1, 1 / 3, 5).s == pytest.approx(math.log(2) / math.log(3))


def test_cantor_product_examples():
    c = cantor_product(FractalSpec(1, 1 / 3, 1))
    assert np.allclose(np.sort(c.points.ravel()), [1 / 6, 5 / 6])
    assert c.unit_mass == 1 / 2 * 2 / 2  # Fraction(1, 2)
    c0 = cantor_product(FractalSpec(2, 1 / 3, 0))
    assert c0.n == 1 and np.allclose(c0.points, 0.5)
    assert c0.unit_mass == 1
    c2 = cantor_product(FractalSpec(2, 0.25, 3))
    assert c2.n == 4**3


def test_cloud_mass_is_exactly_one():
    for spec in (FractalSpec(1, 0.45, 6), FractalSpec(2, 1 / 3, 4)):
        cloud = cantor_product(spec)
        assert cloud.n * cloud.unit_mass == 1


def test_cloud_cap(monkeypatch):
    monkeypatch.setenv("DISTGRAPHS_MAX_CLOUD", "100")
    with pytest.raises(TooLarge):
        cantor_product(FractalSpec(2, 0.4, 4))
    cantor_product(FractalSpec(2, 0.4, 3))  # 64 points


def test_cloud_cap_never_forms_the_point_count():
    # 2^(10^9) points: rejected at once, the exponent in the message
    with pytest.raises(TooLarge, match=r"2\^1000000000 points"):
        cantor_product(FractalSpec(1, 0.45, 10**9))


def test_cloud_points_distinct_and_inside_unit_cube():
    cloud = cantor_product(FractalSpec(2, 0.45, 4))
    assert len(np.unique(cloud.points, axis=0)) == cloud.n
    assert cloud.points.min() >= 0.0 and cloud.points.max() <= 1.0


def test_point_cloud_is_a_read_only_product():
    given_axis = np.array([0.0, 0.25, 1.0])
    cloud = PointCloud(given_axis, 2)
    given_axis[0] = -1.0  # the cloud keeps its own copy
    assert np.array_equal(cloud.axis, [0.0, 0.25, 1.0])
    assert cloud.d == 2 and cloud.n == 9 and cloud.mass_denominator == 9
    assert np.array_equal(cloud.points[:4], [[0.0, 0.0], [0.0, 0.25], [0.0, 1.0], [0.25, 0.0]])
    assert not cloud.axis.flags.writeable and not cloud.points.flags.writeable


@pytest.mark.parametrize(
    "axis, d",
    [([[0.0, 0.5], [0.25, 1.0]], 2), (0.5, 1), ([], 2), ([0.0, float("nan")], 2), ([0.0, float("inf")], 1),
     ([0.0, 0.5, 0.5], 2), ([1.0, 0.0], 2), ([0.0, 1.0], 0), ([0.0, 1.0], -1), ([0.0, 1.0], 1.5),
     (["a", "b"], 1)],
    ids=["2-D", "scalar", "empty", "nan", "inf", "repeated", "decreasing", "d0", "d-1", "d-float", "strings"],
)
def test_point_cloud_rejects_a_bad_axis_or_dimension(axis, d):
    with pytest.raises(ConfigError):
        PointCloud(axis, d)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_point_cloud_rejects_an_axis_whose_squares_overflow(d):
    # greedy_net on this cloud raised OverflowError from its row bounds,
    # because the slack grows with the axis.
    with pytest.raises(ConfigError, match="squared distances"):
        greedy_net(PointCloud([1e200, 2e200, 3e200], d), 0.1)
    # Axes at 1e150 still square finitely: every point is its own center.
    cloud = PointCloud([-3e150, 1e150, 2e150], d)
    net = greedy_net(cloud, 0.1)
    assert net.size == cloud.n and verify_net(cloud, net)


@pytest.mark.parametrize(
    "centers",
    [[[0.5]], [0.5, 0.5], [[0.5, float("nan")]], [[0.5, float("inf")]], [[0.5, 0.5, 0.5]], [["a", "b"]]],
    ids=["narrow", "1-D", "nan", "inf", "wide", "strings"],
)
def test_kernels_reject_malformed_centers(centers):
    # Each of these used to be broadcast against the 2-D cloud into a count.
    cloud = cantor_product(FractalSpec(2, 0.45, 4))
    with pytest.raises(ConfigError):
        annulus_stats(cloud, centers, [0.3], 0.1)
    net = greedy_net(cloud, 0.1)
    with pytest.raises(ConfigError):
        verify_net(cloud, dataclasses.replace(net, centers=centers))


def test_greedy_net_extremes():
    cloud = cantor_product(FractalSpec(1, 1 / 3, 5))
    one = greedy_net(cloud, cloud.diameter())
    assert one.size == 1 and verify_net(cloud, one)
    gaps = np.diff(np.sort(cloud.points.ravel()))
    tiny = greedy_net(cloud, gaps.min() / 6.01)
    assert tiny.size == cloud.n and verify_net(cloud, tiny)


@pytest.mark.parametrize("epsilon", [0.0, -0.1, float("nan"), float("inf"), 1e308, 1e200])
def test_scale_without_finite_cover_radius_is_rejected(epsilon):
    # NaN, and 3 epsilon overflowing to inf, would leave no radius to cover
    # with; at 1e200 the squared radius overflows in the ball queries.
    spec = FractalSpec(1, 1 / 3, 5)
    cloud = cantor_product(spec)
    with pytest.raises(ConfigError):
        greedy_net(cloud, epsilon)
    with pytest.raises(ConfigError):
        check_scale(spec, epsilon)
    with pytest.raises(ConfigError):
        verify_net(cloud, dataclasses.replace(greedy_net(cloud, 0.1), epsilon=epsilon))


def test_greedy_net_deterministic():
    cloud = cantor_product(FractalSpec(2, 0.45, 5))
    a = greedy_net(cloud, 0.1)
    b = greedy_net(cloud, 0.1)
    assert np.array_equal(a.center_indices, b.center_indices)
    assert verify_net(cloud, a)


def test_net_size_band_across_depths():
    # With eps fixed at the depth-3 cell scale, deeper refinements of the
    # same fractal keep n * eps^s in a narrow band.
    eps = 3.0**-3
    vals = []
    for depth in range(3, 8):
        spec = FractalSpec(1, 1 / 3, depth)
        net = greedy_net(cantor_product(spec), eps)
        vals.append(net.size * eps**spec.s)
    assert max(vals) / min(vals) < 2.0


def test_annulus_far_and_complement():
    cloud = cantor_product(FractalSpec(2, 0.45, 4))
    [far] = annulus_stats(cloud, cloud.points[:4], ts=[cloud.diameter() + 1.0], epsilon=0.1)
    assert far.counts.max() == 0
    t = 0.3
    [wide] = annulus_stats(cloud, cloud.points[:4], ts=[t], epsilon=100.0)
    for i in range(4):
        ball = np.count_nonzero(
            np.linalg.norm(cloud.points - cloud.points[i], axis=1) <= t
        )
        assert wide.counts[i] == cloud.n - ball


@pytest.mark.parametrize("d", [1, 2])
def test_centers_whose_squares_overflow_are_rejected(d):
    # Centers moved by 1e200 have squared offsets past the float range: both
    # kernels reject them, where verify_net raised OverflowError and
    # annulus_stats counted zeros under overflow warnings.  Centers moved by
    # 1e150 still square finitely and count nothing, without a warning.
    cloud = cantor_product(FractalSpec(d, 0.45, 4))
    net = greedy_net(cloud, 0.1)
    far = net.centers.copy()
    far[0] += 1e200
    with pytest.raises(ConfigError, match="squared distances"):
        annulus_stats(cloud, far, ts=[0.5], epsilon=0.1)
    with pytest.raises(ConfigError, match="squared distances"):
        verify_net(cloud, dataclasses.replace(net, centers=far))
    [stats] = annulus_stats(cloud, cloud.points[:3] + 1e150, ts=[0.5], epsilon=0.1)
    assert np.array_equal(stats.counts, [0, 0, 0])
    assert not verify_net(cloud, dataclasses.replace(net, centers=net.centers + 1e150))


def test_annulus_band_at_typical_scale():
    cloud = cantor_product(FractalSpec(2, 0.45, 7))
    net = greedy_net(cloud, 2.0**-5)
    [stats] = annulus_stats(cloud, net.centers, ts=[0.6], epsilon=2.0**-5, band=DEFAULT_BAND)
    assert stats.fraction_in_band >= 0.5
    assert stats.masses.min() >= 0.0 and stats.masses.max() <= 1.0


def test_annulus_validation():
    cloud = cantor_product(FractalSpec(1, 0.45, 3))
    with pytest.raises(ConfigError):
        annulus_stats(cloud, cloud.points[:1], ts=[-1.0], epsilon=0.1)
    for t, epsilon in [(float("nan"), 0.1), (0.5, float("nan")), (0.5, float("inf")), (1e308, 1e308), (1e200, 0.1)]:
        with pytest.raises(ConfigError):
            annulus_stats(cloud, cloud.points[:1], ts=[t], epsilon=epsilon)
        with pytest.raises(ConfigError):  # one bad t fails the whole grid
            annulus_stats(cloud, cloud.points[:1], ts=[0.25, t, 0.5], epsilon=epsilon)
    assert annulus_stats(cloud, cloud.points[:1], ts=[], epsilon=0.1) == []


def test_approx_graph_trivia():
    cloud = cantor_product(FractalSpec(2, 0.45, 4))
    net = greedy_net(cloud, 0.05)
    far = approx_distance_graph(net, cloud.diameter() + 10 * 0.05 + 1.0)
    assert far.edge_count == 0
    # Two centers at exactly distance t are adjacent.
    d01 = float(np.linalg.norm(net.centers[0] - net.centers[1]))
    g = approx_distance_graph(net, d01)
    assert g.has_edge(0, 1)


@pytest.mark.parametrize("rows_per_block", [1, 7, None])
@pytest.mark.parametrize(
    "spec, epsilon",
    [(FractalSpec(1, 0.5, 9), 2.0**-6), (FractalSpec(2, 0.5, 6), 2.0**-4), (FractalSpec(2, 0.45, 6), 0.03),
     (FractalSpec(3, 0.5, 4), 2.0**-3)],
)
def test_approx_distance_graph_matches_whole_matrix(monkeypatch, spec, epsilon, rows_per_block):
    net = greedy_net(cantor_product(spec), epsilon)
    if rows_per_block:
        monkeypatch.setattr(adreg, "_CHUNK", rows_per_block * net.centers.size)
    # A grid of t, and t = |x_0 - x_j| -+ 10 epsilon, which puts the pair
    # (0, j) on the boundary of the 10 epsilon band.
    dist0 = np.sqrt(((net.centers - net.centers[0]) ** 2).sum(axis=1))
    ts = [0.1, 0.4, 0.55, 0.8]
    ts += [float(dist0[j]) + sign * 10.0 * epsilon for j in (1, len(dist0) // 2, -1) for sign in (-1, 1)]
    on_boundary = 0
    for t in ts:
        on_boundary += int(np.count_nonzero(np.abs(dist0 - t) == 10.0 * epsilon))
        assert approx_distance_graph(net, t).rows == approx_distance_graph_oracle(net, t).rows
    assert on_boundary > 0  # some pair sits exactly on the band's edge


def test_approx_distance_graph_memory_is_row_blocks(monkeypatch):
    # 1591 centers in the plane: the (k, k, d) difference array alone
    # would take 8 k^2 d bytes (38.6 MiB).
    net = greedy_net(cantor_product(FractalSpec(2, 0.5, 8)), 2.0**-7)
    k, d = net.centers.shape
    monkeypatch.setattr(adreg, "_CHUNK", 64 * k * d)  # blocks of 64 rows
    tracemalloc.start()
    try:
        graph = approx_distance_graph(net, 0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 1400 <= k <= 1600 and graph.edge_count > 0
    assert peak < 8 * k * k * d // 4


def _with_graphs(nets, t):
    return [(net, approx_distance_graph(net, t)) for net in nets]


def test_edge_scaling_monotone_and_fit():
    spec = FractalSpec(2, 0.45, 7)
    cloud = cantor_product(spec)
    nets = [greedy_net(cloud, e) for e in (2.0**-3, 2.0**-4, 2.0**-5)]
    res = edge_scaling(spec, _with_graphs(nets, 0.6), 0.6)
    edges = [r.edges for r in sorted(res.records, key=lambda r: r.epsilon)]
    assert edges == sorted(edges, reverse=True)
    assert res.slope > 0


def test_edge_scaling_errors():
    spec = FractalSpec(2, 0.45, 7)
    cloud = cantor_product(spec)
    with pytest.raises(ConfigError):
        # fewer than 3 scales
        edge_scaling(spec, _with_graphs([greedy_net(cloud, e) for e in (0.125, 0.25)], 0.6), 0.6)
    with pytest.raises(ConfigError):
        check_scale(spec, spec.cell_side)  # below the 4-cell floor
    sparse = FractalSpec(1, 0.45, 5)
    sparse_cloud = cantor_product(sparse)
    sparse_nets = [greedy_net(sparse_cloud, e) for e in (0.125, 0.25, 0.5)]
    with pytest.raises(DegenerateFit):
        # t far beyond the diameter: every scale yields an edgeless graph.
        edge_scaling(sparse, _with_graphs(sparse_nets, 50.0), 50.0)


def test_graph_must_belong_to_its_net():
    spec = FractalSpec(2, 0.45, 7)
    cloud = cantor_product(spec)
    nets = [greedy_net(cloud, e) for e in (2.0**-3, 2.0**-4, 2.0**-5)]
    swapped = [(nets[0], approx_distance_graph(nets[1], 0.6))] + _with_graphs(nets[1:], 0.6)
    with pytest.raises(ConfigError):
        edge_scaling(spec, swapped, 0.6)
    with pytest.raises(ConfigError):
        find_approximation(*swapped[0], complete_graph(2), 0.6)


def test_find_approximation_k2_and_validator():
    spec = FractalSpec(2, 0.45, 5)
    cloud = cantor_product(spec)
    eps = 2.0**-4
    net = greedy_net(cloud, eps)
    w = find_approximation(net, approx_distance_graph(net, 0.6), complete_graph(2), 0.6)
    assert w is not None
    assert verify_approximation(w.points, complete_graph(2), 0.6, eps)
    # Perturbing a point inside the separation radius must fail (b).
    bad = w.points.copy()
    bad[1] = bad[0] + 1e-9
    assert not verify_approximation(bad, complete_graph(2), 0.6, eps)
    # A pair far from t must fail (a).
    bad2 = w.points.copy()
    bad2[1] = bad2[0] + np.array([0.6 + 20 * eps, 0.0])
    assert not verify_approximation(bad2, complete_graph(2), 0.6, eps)


def test_find_approximation_absent_and_budget():
    spec = FractalSpec(2, 0.45, 4)
    cloud = cantor_product(spec)
    eps = 2.0**-4
    net = greedy_net(cloud, eps)
    far = cloud.diameter() + 1.0
    assert find_approximation(net, approx_distance_graph(net, far), complete_graph(2), far) is None
    with pytest.raises(BudgetExceeded):
        find_approximation(net, approx_distance_graph(net, 0.6), cycle_graph(6), 0.6, budget=1)


def test_find_approximation_takes_budget_by_keyword_only():
    # An old call with epsilon after t must not bind it to budget.
    net = greedy_net(cantor_product(FractalSpec(1, 0.45, 4)), 2.0**-4)
    with pytest.raises(TypeError):
        find_approximation(net, approx_distance_graph(net, 0.6), complete_graph(2), 0.6, 2.0**-4)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(1, 3),
    st.floats(0.25, 0.5),
    st.integers(0, 8),
    st.integers(1, 7),
    st.floats(0.01, 1.8),
    st.sampled_from(["K2", "P3", "C4", "C6"]),
)
def test_find_approximation_witness_holds_at_the_nets_scale(d, contraction, depth, j, t, name):
    # The search reads epsilon from the net, so any witness it returns
    # passes the validator at that epsilon, whatever the scale and t.
    cloud = cantor_product(FractalSpec(d, contraction, min(depth, 8 // d)))
    net = greedy_net(cloud, 2.0**-j)
    pattern = graph_from_name(name)
    try:
        w = find_approximation(net, approx_distance_graph(net, t), pattern, t, budget=20_000)
    except BudgetExceeded:
        return
    if w is not None:
        assert w.epsilon == net.epsilon
        assert verify_approximation(w.points, pattern, t, net.epsilon)


def test_cloud_csv_export(tmp_path):
    cloud = cantor_product(FractalSpec(2, 1 / 3, 2))
    out = tmp_path / "cloud.csv"
    cloud.write_csv(out)
    lines = out.read_text().splitlines()
    assert lines[0] == "x0,x1,weight"
    assert len(lines) == cloud.n + 1


# -- product kernels against the whole-cloud oracles ----------------------


def _min_gap(points: np.ndarray) -> float:
    d2 = ((points[:, None, :] - points[None, :, :]) ** 2).sum(axis=2)
    return float(np.sqrt(d2[d2 > 0].min()))


def _assert_matches_oracles(cloud: PointCloud, epsilon: float, ts, off_cloud=None) -> None:
    net = greedy_net(cloud, epsilon)
    assert np.array_equal(net.center_indices, greedy_net_oracle(cloud.points, epsilon))
    assert verify_net(cloud, net) == verify_net_oracle(cloud.points, net.centers, epsilon) is True
    on_net = annulus_stats(cloud, net.centers, ts, epsilon)
    on_every_point = annulus_stats(cloud, cloud.points, ts, epsilon)
    assert [stats.t for stats in on_net] == [stats.t for stats in on_every_point] == list(ts)
    for t, stats, every in zip(ts, on_net, on_every_point):
        assert np.array_equal(stats.counts, annulus_counts_oracle(cloud.points, net.centers, t, epsilon))
        assert np.array_equal(every.counts, annulus_counts_oracle(cloud.points, cloud.points, t, epsilon))
    if off_cloud is not None:
        for t, stats in zip(ts, annulus_stats(cloud, off_cloud, ts, epsilon)):
            assert np.array_equal(stats.counts, annulus_counts_oracle(cloud.points, off_cloud, t, epsilon))


@pytest.mark.parametrize(
    "spec",
    [FractalSpec(1, 1 / 3, 8), FractalSpec(1, 0.5, 7), FractalSpec(2, 0.45, 4), FractalSpec(2, 0.5, 4),
     FractalSpec(3, 0.3, 2), FractalSpec(3, 0.5, 2)],
    ids=lambda s: f"d{s.d}-lam{s.contraction:.3f}-depth{s.depth}",
)
def test_grid_kernels_match_oracles_on_cantor_clouds(spec):
    # Scales from below the smallest gap (every point its own center) to
    # above the diameter (one center); t = 1 - lambda is the distance of
    # the two first-level cells, so each center has points at exactly t.
    # The t grid is unsorted and repeats 0.3.  The off-cloud centers are
    # every fifth cloud point moved half the smallest gap along each axis,
    # and the center of the unit cube.
    cloud = cantor_product(spec)
    gap, diam = _min_gap(cloud.points), cloud.diameter()
    off_cloud = np.vstack([cloud.points[::5] + gap / 2, np.full((1, spec.d), 0.5)])
    for eps in (gap / 7, gap / 3, 2.0**-5, 2.0**-3, diam / 3, diam * 1.5):
        _assert_matches_oracles(cloud, eps, (1.0 - spec.contraction, gap, 0.3, eps, abs(diam - eps), 0.3), off_cloud)


def _random_axis(rng: np.random.Generator, m: int, lattice, offset: float) -> np.ndarray:
    """A strictly increasing axis of at most m values in [offset, offset + 1):
    distinct multiples of 1/lattice, or uniform draws."""
    if lattice:
        return np.sort(rng.choice(lattice, size=min(m, lattice), replace=False)) / lattice + offset
    return np.unique(rng.random(m) + offset)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(0, 10_000),
    st.integers(1, 3),
    st.integers(1, 120),
    st.sampled_from([None, 4, 16]),
    st.sampled_from([0.0, -3.0, 1e3]),
    st.floats(0.001, 2.0),
    st.floats(0.01, 1.5),
)
def test_grid_kernels_match_oracles_on_random_clouds(seed, d, m, lattice, offset, epsilon, t):
    # Random product clouds of up to about 120 points.  Lattice axes put many
    # pairs at exactly equal distances, with t and t + epsilon among them
    # (all dyadic), and lattice centers off the cloud tie with cloud
    # points too; the offsets move the coordinate scale.  The t grid
    # repeats t.
    rng = np.random.default_rng(seed)
    axis = _random_axis(rng, 1 + (m - 1) % round(120 ** (1 / d)), lattice, offset)
    off_cloud = rng.random((6, d)) * 1.25 - 0.125
    if lattice:
        off_cloud = np.floor(off_cloud * lattice) / lattice
        epsilon, t = (max(1, round(v * lattice)) / lattice for v in (epsilon, t))
    cloud = PointCloud(axis, d)
    _assert_matches_oracles(cloud, epsilon, (t, 3.0 * epsilon, 1.0 / (lattice or 8), t), off_cloud + offset)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 3), st.floats(0.02, 0.2), st.floats(0.0, 0.999))
def test_verify_net_matches_oracle_on_corrupted_nets(seed, d, epsilon, shrink):
    _check_corrupted_nets(seed, d, epsilon, shrink)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 3), st.floats(0.02, 0.2), st.floats(0.0, 0.999), st.sampled_from([1, 7]))
def test_blocked_verify_net_matches_oracle_on_corrupted_nets(seed, d, epsilon, shrink, per_block):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(adreg, "_net_block", lambda cloud, k: per_block)
        _check_corrupted_nets(seed, d, epsilon, shrink)


def _check_corrupted_nets(seed, d, epsilon, shrink):
    rng = np.random.default_rng(seed)
    cloud = PointCloud(_random_axis(rng, {1: 150, 2: 12, 3: 5}[d], None, 0.0), d)
    net = greedy_net(cloud, epsilon)
    assert verify_net(cloud, net)
    # One center dropped: coverage may or may not survive.
    k = int(rng.integers(net.size))
    keep = np.delete(np.arange(net.size), k)
    dropped = dataclasses.replace(net, center_indices=net.center_indices[keep], centers=net.centers[keep])
    assert verify_net(cloud, dropped) == verify_net_oracle(cloud.points, dropped.centers, epsilon)
    if net.size > 1:
        # One center moved to within 3 epsilon of another: separation fails.
        j = (k + 1) % net.size
        step = rng.normal(size=d)
        moved_centers = net.centers.copy()
        moved_centers[k] = net.centers[j] + step / np.linalg.norm(step) * 3.0 * epsilon * shrink
        moved = dataclasses.replace(net, centers=moved_centers)
        assert verify_net(cloud, moved) == verify_net_oracle(cloud.points, moved_centers, epsilon) is False
    # A cloud point well within 3 epsilon of a center (the center itself,
    # at the least) appended as an extra center: the centers are a
    # superset of a covering set, so only separation fails.
    gaps = np.linalg.norm(cloud.points[:, None] - net.centers[None], axis=2).min(axis=1)
    i = int(rng.choice(np.flatnonzero(gaps < 2.9 * epsilon)))
    extra = dataclasses.replace(
        net, center_indices=np.append(net.center_indices, i), centers=np.vstack([net.centers, cloud.points[i]])
    )
    assert verify_net(cloud, extra) is verify_net_oracle(cloud.points, extra.centers, epsilon) is False


@pytest.mark.parametrize("offset", [0.0, -1.7])
def test_product_kernels_match_oracles_at_rounded_ties(offset):
    # On multiples of 1/13, pairs such as (3/13, 4/13) apart lie at 5/13
    # in exact arithmetic, and their float distance rounds to either side
    # of the float radius: only the evaluated slack bands get these right.
    cloud = PointCloud(np.arange(7) / 13 + offset, 2)
    for k in (1, 2, 5):
        _assert_matches_oracles(cloud, k / 13, [j / 13 for j in range(1, 9)], cloud.points[::3] + 0.5 / 13)


@pytest.mark.parametrize("per_block", [1, 7])
@pytest.mark.parametrize(
    "spec", [FractalSpec(1, 1 / 3, 8), FractalSpec(2, 0.45, 4), FractalSpec(3, 0.5, 2)],
    ids=lambda s: f"d{s.d}-lam{s.contraction:.3f}-depth{s.depth}",
)
def test_blocked_verify_net_matches_oracle_on_cantor_clouds(monkeypatch, spec, per_block):
    # Blocks of 1 and 7 centers, on whole nets, on nets with every fifth
    # center dropped, and on the empty net.
    monkeypatch.setattr(adreg, "_net_block", lambda cloud, k: per_block)
    cloud = cantor_product(spec)
    gap, diam = _min_gap(cloud.points), cloud.diameter()
    for eps in (gap / 3, 2.0**-5, 2.0**-3, diam / 3):
        net = greedy_net(cloud, eps)
        assert verify_net(cloud, net) is verify_net_oracle(cloud.points, net.centers, eps) is True
        keep = np.arange(net.size) % 5 != 2
        thinned = dataclasses.replace(net, center_indices=net.center_indices[keep], centers=net.centers[keep])
        assert verify_net(cloud, thinned) == verify_net_oracle(cloud.points, thinned.centers, eps)
        empty = dataclasses.replace(net, center_indices=net.center_indices[:0], centers=net.centers[:0])
        assert verify_net(cloud, empty) is verify_net_oracle(cloud.points, empty.centers, eps) is False


@pytest.mark.parametrize(
    "spec", [FractalSpec(1, 1 / 3, 8), FractalSpec(2, 0.45, 4), FractalSpec(3, 0.5, 2)],
    ids=lambda s: f"d{s.d}-lam{s.contraction:.3f}-depth{s.depth}",
)
def test_nets_below_the_slack_evaluate_every_point(monkeypatch, spec):
    # At epsilon = 1e-12, 3 epsilon is below the slack: every sure run is
    # empty, and each center's doubt bands hold the center itself.
    cloud = cantor_product(spec)
    eps = 1e-12
    r_cov = adreg._cover_radius(eps)
    assert r_cov < adreg._slack(cloud, cloud.points, r_cov)
    sure_lo, sure_hi, doubt, owner = adreg._intervals(cloud, cloud.points, r_cov)
    assert np.array_equal(sure_lo, sure_hi)
    assert np.array_equal(np.unique(doubt[doubt == owner]), np.arange(cloud.n))
    net = greedy_net(cloud, eps)
    assert np.array_equal(net.center_indices, greedy_net_oracle(cloud.points, eps))
    assert net.size == cloud.n
    for per_block in (1, 7):
        monkeypatch.setattr(adreg, "_net_block", lambda cloud, k: per_block)
        assert verify_net(cloud, net) is verify_net_oracle(cloud.points, net.centers, eps) is True


@pytest.mark.parametrize("per_block", [1, 7, None])
@pytest.mark.parametrize(
    "spec", [FractalSpec(1, 1 / 3, 7), FractalSpec(2, 0.45, 4), FractalSpec(3, 0.5, 2)],
    ids=lambda s: f"d{s.d}-lam{s.contraction:.3f}-depth{s.depth}",
)
def test_blocked_annulus_pass_matches_oracle(monkeypatch, spec, per_block):
    # Blocks of 1 and 7 centers and the default.  The t grid is unsorted,
    # repeats 0.25, is spaced below epsilon (so each t + epsilon lies past
    # the next t), has 0.25 + epsilon = 0.375 among its t, and holds
    # t = 1 - lambda, where every center has points at exactly t.  The
    # centers are a net's, off-cloud points, and none.
    if per_block:
        monkeypatch.setattr(adreg, "_annulus_block", lambda cloud, n_radii: per_block)
    cloud = cantor_product(spec)
    eps = 0.125
    ts = [0.55, 0.25, 0.375, 0.3, 0.25, 1.0 - spec.contraction, 0.35, 0.125]
    gap = _min_gap(cloud.points)
    net = greedy_net(cloud, 2.0**-4)
    for centers in (net.centers, np.vstack([cloud.points[::5] + gap / 2, np.full((1, spec.d), 0.5)])):
        stats = annulus_stats(cloud, centers, ts, eps)
        assert [s.t for s in stats] == ts
        for t, s in zip(ts, stats):
            assert np.array_equal(s.counts, annulus_counts_oracle(cloud.points, centers, t, eps))
            assert s.quantiles == tuple(np.quantile(s.masses, [0.0, 0.25, 0.5, 0.75, 1.0]))
    for s in annulus_stats(cloud, np.empty((0, spec.d)), ts, eps):
        assert s.counts.shape == (0,) and s.fraction_in_band == 0.0 and s.quantiles == (0.0,) * 5


def test_annulus_memory_is_per_block_on_a_deep_1d_cloud():
    # A 1-D cloud is one row, so few (center, radius, row) cells stand for
    # each center's 4,096 axis offsets; blocks sized by the cells alone
    # would take all 1,024 centers at once, 32 MiB per offset array.
    cloud = cantor_product(FractalSpec(1, 0.45, 12))
    centers = cloud.points[::4]
    annulus_stats(cloud, centers[:1], [0.3], 2.0**-6)  # lazy imports on a first call
    tracemalloc.start()
    try:
        [stats] = annulus_stats(cloud, centers, [0.3], 2.0**-6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(centers) == 1024 and stats.counts.shape == (1024,)
    assert peak < 2 << 20


@pytest.mark.parametrize("d", [1, 2, 3])
def test_greedy_net_matches_oracle_on_an_axis_with_negative_ends(d):
    # The one slack of a greedy net comes from the axis ends, here the
    # negative end; at epsilon = 1e-12 every point is in doubt.
    cloud = PointCloud([-7.5, -7.25, -3.0, -1.0, -0.25, 0.0, 0.5, 1.25], d)
    for eps in (1e-12, 0.05, 0.25, 1.0, 5.0):
        net = greedy_net(cloud, eps)
        assert np.array_equal(net.center_indices, greedy_net_oracle(cloud.points, eps))
        assert verify_net(cloud, net)


@settings(max_examples=80, deadline=None)
@given(
    st.integers(0, 10_000),
    st.integers(1, 4),
    st.integers(2, 60),
    st.sampled_from([1e-3, 1.0, 1e9, 1e150]),
    st.floats(-1.5, 0.5),
    st.sampled_from(["slack", "gap", "diameter"]),
    st.floats(0.25, 4.0),
)
def test_greedy_net_matches_oracle_on_irregular_axes(seed, d, m, scale, shift, kind, factor):
    # Axes of at least two points whose gaps spread over orders of
    # magnitude, spanning `scale` from shift * scale (negative ends for
    # shift < 0), at magnitudes up to 1e150.  3 epsilon lies below the
    # rounding slack, from a quarter to four times a drawn axis gap, or
    # from a quarter to four times the diameter.  The slack scales with
    # the axis ends, which lie far inside `scale` when one step dwarfs
    # the rest (seed 3, m = 2, shift 0: ends 0 and about 1e-4 scale).
    rng = np.random.default_rng(seed)
    steps = rng.lognormal(0.0, 2.0, 2 + (m - 2) % {1: 59, 2: 11, 3: 5, 4: 3}[d])
    cloud = PointCloud(np.unique((np.cumsum(steps) - steps[0]) / steps.sum() * scale + shift * scale), d)
    if kind == "slack":
        epsilon = 1e-12 * float(np.abs(cloud.axis[[0, -1]]).max())
        assert adreg._cover_radius(epsilon) < adreg._slack(cloud, cloud.points, adreg._cover_radius(epsilon))
    elif kind == "gap":
        epsilon = factor * float(rng.choice(np.diff(cloud.axis))) / 3.0
    else:
        epsilon = factor * cloud.diameter() / 3.0
    net = greedy_net(cloud, epsilon)
    assert np.array_equal(net.center_indices, greedy_net_oracle(cloud.points, epsilon))
    assert verify_net(cloud, net) is verify_net_oracle(cloud.points, net.centers, epsilon) is True


@pytest.mark.parametrize("d", [1, 2, 3])
def test_greedy_net_below_the_slack_on_points_within_the_slack(d):
    # Points 1e-10 apart near 1 lie within the slack (about 2^-29) of each
    # other, so at epsilon = 1e-12 each center's doubt band in its row
    # holds its neighbours, which its predicate leaves uncovered.
    cloud = PointCloud([1.0, 1.0 + 1e-10, 1.0 + 2e-10, 2.0], d)
    net = greedy_net(cloud, 1e-12)
    assert np.array_equal(net.center_indices, greedy_net_oracle(cloud.points, 1e-12))
    assert net.size == cloud.n


@pytest.mark.parametrize("d", [1, 2, 3])
def test_greedy_net_covers_a_row_point_at_exactly_the_cover_radius(d):
    # In the first row, the center at 0 has the point at r_cov with
    # (a - c)^2 == r_cov^2, which it covers; one float further out it does
    # not.  Both lie past the center's sure run, so the predicate decides.
    eps = 0.1
    r_cov = adreg._cover_radius(eps)
    beyond = float(np.nextafter(r_cov, np.inf))
    assert beyond**2 > r_cov**2
    for far, covered in ((r_cov, True), (beyond, False)):
        cloud = PointCloud([-1.0, 0.0, far], d)
        net = greedy_net(cloud, eps)
        assert np.array_equal(net.center_indices, greedy_net_oracle(cloud.points, eps))
        assert net.center_indices[:2].tolist() == [0, 1]
        assert (2 not in net.center_indices) is covered
        assert verify_net(cloud, net)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 3).flatmap(
        lambda k: st.integers(1, 9).flatmap(
            lambda n: arrays(np.float64, (k, n), elements=st.floats(0.0, 1.0) | st.sampled_from([0.0, 0.25, 1 / 3]))
        )
    ),
    st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6) | st.just([0.0, 0.25, 0.5, 0.75, 1.0]),
)
def test_quantiles_equal_numpy_bit_for_bit(values, qs):
    # Odd and even lengths, length 1, ties (from the sampled elements) and
    # no rows at all.
    got = adreg._quantiles(values, qs)
    want = np.quantile(values, qs, axis=1).T
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def test_quantiles_equal_numpy_on_seeded_arrays():
    # Above gamma = 1/2 numpy interpolates down from the upper neighbour,
    # which differs from a + (b - a) gamma in the last bit for about one
    # draw in eight here.
    rng = np.random.default_rng(7)
    for n in range(1, 40):
        values = rng.random((3, n))
        qs = np.concatenate([[0.0, 0.25, 0.5, 0.75, 1.0], rng.random(8)])
        assert adreg._quantiles(values, qs).tobytes() == np.quantile(values, qs, axis=1).T.tobytes()
