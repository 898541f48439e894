"""Walkthrough: Cantor-product clouds, separated nets, and the edge
scaling law of approximate distance graphs.

A cloud with contraction 0.45 in the plane behaves like a measure of
dimension s = 2 ln 2 / ln(1/0.45) ~ 1.736.  Greedy nets at scale eps have
about eps^-s centers, and the graphs connecting centers at distance
within 10 eps of t carry about eps^(1-2s) edges.
"""

import numpy as np

from distgraphs import (
    FractalSpec,
    annulus_stats,
    cantor_product,
    cycle_graph,
    edge_scaling,
    find_approximation,
    greedy_net,
    verify_net,
)

spec = FractalSpec(d=2, contraction=0.45, depth=7)
cloud = cantor_product(spec)
print(f"cloud: {cloud.n} points, diameter {cloud.diameter():.3f}, s = {spec.s:.4f}")

# ---------------------------------------------------------------------------
# Net sizes track eps^-s.
print("\ngreedy nets (separation > 3 eps, coverage 3 eps):")
for j in (3, 4, 5, 6):
    eps = 2.0**-j
    net = greedy_net(cloud, eps)
    print(
        f"  eps=2^-{j}: {net.size:4d} centers, n * eps^s = {net.size * eps ** spec.s:.3f}, "
        f"valid = {verify_net(cloud, net)}"
    )

# ---------------------------------------------------------------------------
# Annulus regularity: at a typical radius the mass of a thin shell around
# a center is proportional to its thickness.
eps = 2.0**-5
net = greedy_net(cloud, eps)
print("\nannulus mass / eps at eps = 2^-5 (want it order 1):")
for t in (0.45, 0.60, 0.75):
    stats = annulus_stats(cloud, net.centers, t, eps)
    ratios = stats.masses / eps
    print(
        f"  t={t}: median ratio {np.median(ratios):.2f}, "
        f"in-band fraction {stats.fraction_in_band:.2f}"
    )

# ---------------------------------------------------------------------------
# Edge scaling: fitted slope of log(edges) against log(1/eps) should sit
# near 2s - 1.
nets = [greedy_net(cloud, 2.0**-j) for j in (3, 4, 5, 6)]
result = edge_scaling(spec, cloud, nets, t=0.6)
print(f"\nedge scaling at t=0.6: slope {result.slope:.3f}, prediction {result.predicted_slope:.3f}")
for rec in result.records:
    print(f"  eps={rec.epsilon:.5f}: {rec.net_size:4d} centers, {rec.edges:6d} edges")

# ---------------------------------------------------------------------------
# A 6-cycle approximation: six net points, adjacent ones within 10 eps of
# t, all pairs more than 3 eps apart.
witness = find_approximation(net, cycle_graph(6), t=0.6, epsilon=eps)
print(f"\n6-cycle approximation at t=0.6, eps=2^-5: found = {witness is not None}")
if witness:
    for i, p in enumerate(witness.points):
        print(f"  vertex {i}: ({p[0]:.4f}, {p[1]:.4f})")
