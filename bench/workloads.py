"""The benchmark's four workloads, as `experiments` config dicts built
from a seed.  Why each was chosen is in BENCHMARK.json and README.md.

Every workload is a list of sweep configs run back to back with
`jobs = 1`, as one caller would run them.  `ir-sweep` and `threshold`
draw their point sets from the seed; the extremal and fractal sweeps are
deterministic computations, so there the seed only permutes the order in
which the config lists its cells and scales (the records must not
depend on that order).
"""

from __future__ import annotations

import random

NAMES = ("ir-histogram", "threshold-search", "adreg-scales", "extremal-oracles")

# The share of each workload's sweep time spent in interpreted Python
# rather than in numpy kernels, which weights the calibration kernels
# (see calibrate.py).  The extremal oracles use no numpy; the fractal
# sweep is numpy work over whole point clouds; the finite-field sweeps
# mix numpy kernels with per-row and per-instance Python loops.
PYTHON_SHARE = {"ir-histogram": 0.5, "threshold-search": 0.5, "adreg-scales": 0.0, "extremal-oracles": 1.0}
# Set-up is importing modules and validating configs.
SETUP_PYTHON_SHARE = 1.0

ACCEPTANCE_T_GRID = [0.40, 0.45, 0.50, 0.55, 0.60, 0.65, 0.70, 0.75, 0.80]
ADREG_EPS = [2.0**-4, 2.0**-5, 2.0**-6]


def _shuffled(items: list, rng: random.Random) -> list:
    out = list(items)
    rng.shuffle(out)
    return out


def configs(name: str, seed: int) -> list[dict]:
    """The workload's sweep configs for `seed` (a nonnegative int)."""
    if name not in NAMES:
        raise ValueError(f"unknown workload {name!r}; expected one of {NAMES}")
    rng = random.Random(seed)
    if name == "ir-histogram":
        return [
            {"kind": "ir-sweep", "seed": seed, "jobs": 1, "params": {
                "fields": [[7, 2], [47, 1], [5, 2], [3, 3]], "dims": [2],
                "sizes": ["q^{(d+1)/2}", "q^d"], "trials": 1}},
            {"kind": "ir-sweep", "seed": seed + 1, "jobs": 1, "params": {
                "fields": [[17, 1], [13, 1], [3, 2]], "dims": [3],
                "sizes": ["q^d"], "trials": 1}},
        ]
    if name == "threshold-search":
        return [
            {"kind": "threshold", "seed": seed, "jobs": 1, "params": {
                "field": [7, 2], "d": 2, "graph": "C4",
                "sizes": [30, 40, 50, 60, 80, 120, 400, "q^d"], "trials": 1}},
            {"kind": "threshold", "seed": seed + 1, "jobs": 1, "params": {
                "field": [13, 1], "d": 3, "graph": "Q3",
                "sizes": [60, 80, 100, 120, 160, 300, "q^d"], "trials": 1}},
        ]
    if name == "adreg-scales":
        return [
            {"kind": "adreg-scan", "jobs": 1, "params": {
                "specs": [{"d": 2, "contraction": 0.45, "depth": 8}],
                "eps": _shuffled(ADREG_EPS, rng),
                "approx_eps": _shuffled(ADREG_EPS, rng),
                "t_grid": ACCEPTANCE_T_GRID, "graph": "C6"}},
        ]
    # extremal-oracles: n <= 6 through the exhaustive scan, the larger
    # cells through branch-and-bound (exhaustive_max below their n).
    return [
        {"kind": "extremal-table", "jobs": 1, "params": {
            "n_values": _shuffled([4, 5, 6], rng),
            "graphs": _shuffled(["C4", "K3", "P4"], rng), "exhaustive_max": 6}},
        {"kind": "extremal-table", "jobs": 1, "params": {
            "n_values": [7], "graphs": _shuffled(["C4", "K3"], rng), "exhaustive_max": 6}},
        {"kind": "extremal-table", "jobs": 1, "params": {
            "n_values": [8], "graphs": ["P4"], "exhaustive_max": 6}},
    ]
