import math

import numpy as np
import pytest

from distgraphs.adreg import (
    DEFAULT_BAND,
    FractalSpec,
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
from distgraphs.graphs import complete_graph, cycle_graph


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


def test_cloud_points_distinct_and_inside_unit_cube():
    cloud = cantor_product(FractalSpec(2, 0.45, 4))
    assert len(np.unique(cloud.points, axis=0)) == cloud.n
    assert cloud.points.min() >= 0.0 and cloud.points.max() <= 1.0


def test_greedy_net_extremes():
    cloud = cantor_product(FractalSpec(1, 1 / 3, 5))
    one = greedy_net(cloud, cloud.diameter())
    assert one.size == 1 and verify_net(cloud, one)
    gaps = np.diff(np.sort(cloud.points.ravel()))
    tiny = greedy_net(cloud, gaps.min() / 6.01)
    assert tiny.size == cloud.n and verify_net(cloud, tiny)


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
    far = annulus_stats(cloud, cloud.points[:4], t=cloud.diameter() + 1.0, epsilon=0.1)
    assert far.counts.max() == 0
    t = 0.3
    wide = annulus_stats(cloud, cloud.points[:4], t=t, epsilon=100.0)
    for i in range(4):
        ball = np.count_nonzero(
            np.linalg.norm(cloud.points - cloud.points[i], axis=1) <= t
        )
        assert wide.counts[i] == cloud.n - ball


def test_annulus_band_at_typical_scale():
    cloud = cantor_product(FractalSpec(2, 0.45, 7))
    net = greedy_net(cloud, 2.0**-5)
    stats = annulus_stats(cloud, net.centers, t=0.6, epsilon=2.0**-5, band=DEFAULT_BAND)
    assert stats.fraction_in_band >= 0.5
    assert stats.masses.min() >= 0.0 and stats.masses.max() <= 1.0


def test_annulus_validation():
    cloud = cantor_product(FractalSpec(1, 0.45, 3))
    with pytest.raises(ConfigError):
        annulus_stats(cloud, cloud.points[:1], t=-1.0, epsilon=0.1)


def test_approx_graph_trivia():
    cloud = cantor_product(FractalSpec(2, 0.45, 4))
    net = greedy_net(cloud, 0.05)
    far = approx_distance_graph(net, cloud.diameter() + 10 * 0.05 + 1.0, 0.05)
    assert far.edge_count == 0
    # Two centers at exactly distance t are adjacent.
    d01 = float(np.linalg.norm(net.centers[0] - net.centers[1]))
    g = approx_distance_graph(net, d01, 0.05)
    assert g.has_edge(0, 1)


def test_edge_scaling_monotone_and_fit():
    spec = FractalSpec(2, 0.45, 7)
    cloud = cantor_product(spec)
    nets = [greedy_net(cloud, e) for e in (2.0**-3, 2.0**-4, 2.0**-5)]
    res = edge_scaling(spec, cloud, nets, 0.6)
    edges = [r.edges for r in sorted(res.records, key=lambda r: r.epsilon)]
    assert edges == sorted(edges, reverse=True)
    assert res.slope > 0


def test_edge_scaling_errors():
    spec = FractalSpec(2, 0.45, 7)
    cloud = cantor_product(spec)
    with pytest.raises(ConfigError):
        # fewer than 3 scales
        edge_scaling(spec, cloud, [greedy_net(cloud, e) for e in (0.125, 0.25)], 0.6)
    with pytest.raises(ConfigError):
        check_scale(spec, spec.cell_side)  # below the 4-cell floor
    sparse = FractalSpec(1, 0.45, 5)
    sparse_cloud = cantor_product(sparse)
    sparse_nets = [greedy_net(sparse_cloud, e) for e in (0.125, 0.25, 0.5)]
    with pytest.raises(DegenerateFit):
        # t far beyond the diameter: every scale yields an edgeless graph.
        edge_scaling(sparse, sparse_cloud, sparse_nets, 50.0)


def test_find_approximation_k2_and_validator():
    spec = FractalSpec(2, 0.45, 5)
    cloud = cantor_product(spec)
    eps = 2.0**-4
    net = greedy_net(cloud, eps)
    w = find_approximation(net, complete_graph(2), 0.6, eps)
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
    assert find_approximation(net, complete_graph(2), cloud.diameter() + 1.0, eps) is None
    with pytest.raises(BudgetExceeded):
        find_approximation(net, cycle_graph(6), 0.6, eps, budget=1)


def test_cloud_csv_export(tmp_path):
    cloud = cantor_product(FractalSpec(2, 1 / 3, 2))
    out = tmp_path / "cloud.csv"
    cloud.write_csv(out)
    lines = out.read_text().splitlines()
    assert lines[0] == "x0,x1,weight"
    assert len(lines) == cloud.n + 1
