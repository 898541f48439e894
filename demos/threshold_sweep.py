"""Walkthrough: empirical containment thresholds in F_9^2.

Theory guarantees a constant c with: |E| >= c q^(3/2) forces a 6-cycle at
every nonzero distance.  The constant is not specified, so we sweep sizes
and watch the empirical success probability climb to 1.
"""

from distgraphs import ExperimentConfig, cycle_graph, run, threshold_exponent

c6 = cycle_graph(6)
marker = threshold_exponent(c6, 2)
print(f"threshold exponent for (C_6, d=2): s* = {marker.s_star} (binding: {marker.binding})")
print(f"q^(3/2) = 27 for q = 9; the constant in front is what we probe.\n")

config = ExperimentConfig(
    kind="threshold",
    seed=424242,
    params={
        "field": [3, 2],
        "d": 2,
        "graph": "C6",
        "sizes": [12, 18, 24, 27, 30, 36, 48, 64, 81],
        "trials": 20,
    },
)
report = run(config)

print("success probability that Delta_C6(E) covers all nonzero t:")
for point in report.summary["curve"]:
    rate = point["rate"]
    bar = "#" * int(round(20 * rate)) if rate is not None else "?"
    print(f"  |E| = {point['size']:3d}: {rate:5.2f}  {bar}")
print(
    f"\nsmallest tested size with full success: "
    f"{report.summary['smallest_size_fully_successful']}"
)
print(f"monotone within tolerance: {report.summary['monotone_ok']}")
