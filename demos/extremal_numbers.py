"""Walkthrough: exact extremal numbers and the exponent catalog.

Computes ex(n, G) with both oracles, shows a witness, and tabulates the
threshold exponents that decide how large a point set must be before a
pattern is forced at every distance.
"""

from distgraphs import (
    best_known_exponent,
    cycle_graph,
    ex_branch_bound,
    ex_exhaustive,
    graph_from_name,
    hypercube_graph,
    shattering_graph,
    threshold_exponent,
)

# ---------------------------------------------------------------------------
# ex(n, C_4): the largest edge count avoiding a 4-cycle.
# Each oracle proves ex(k, C_4) for every k <= n on its way to n and
# keeps them as `levels`, so one call per oracle gives the whole table.
c4 = cycle_graph(4)
print("ex(n, C_4) by two independent oracles:")
scan, bb = ex_exhaustive(7, c4), ex_branch_bound(7, c4)
for a, b in zip(scan.levels[3:], bb.levels[3:]):
    assert (a.value, a.witness) == (b.value, b.witness)
    print(f"  n={a.n}: ex = {a.value:2d}   witness edges: {list(a.witness.edges())}")

# ---------------------------------------------------------------------------
# Exponents alpha with ex(n, G) = O(n^(2 - alpha)), per pattern.
print("\nbest known exponents:")
for name in ("C4", "C6", "C8", "Q3", "Q4", "S2", "S3"):
    info = best_known_exponent(graph_from_name(name))
    print(f"  {name}: alpha = {info.alpha} ({info.source})")

# ---------------------------------------------------------------------------
# Threshold exponents s* = max((d+1)/2, 1/alpha): the size exponent above
# which every nonzero distance must realize the pattern.
print("\nthreshold exponents s*(G, d):")
patterns = [
    ("C4", cycle_graph(4)),
    ("C6", cycle_graph(6)),
    ("Q3", hypercube_graph(3)),
    ("S3", shattering_graph(3)),
]
header = "  G   " + "".join(f"d={d:<8}" for d in (2, 3, 4, 5))
print(header)
for name, g in patterns:
    cells = []
    for d in (2, 3, 4, 5):
        res = threshold_exponent(g, d)
        cells.append(f"{str(res.s_star):<9}")
    print(f"  {name:<4}" + "".join(cells))
print("\n(C_6 needs only q^(3/2) in the plane, while C_4 needs q^2 there;")
print(" in d >= 3 every even cycle threshold is the dimension side (d+1)/2.)")
