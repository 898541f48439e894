"""Self-tests of the benchmark's checkers.

    python3 bench/selftest.py

Each checker must pass the program's real output on a small config and
reject a deliberately corrupted copy of it (a histogram count moved, a
witness vertex swapped, an ex value off by one, a net center dropped,
...), so that no check passes vacuously.  The own field arithmetic is
also checked against brute-force sphere counts.  Prints one line per
test and exits 1 if any fails.
"""

from __future__ import annotations

import copy
import sys
from itertools import product
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
from distgraphs import experiments  # noqa: E402
from distgraphs.field import make_field  # noqa: E402

CONFIGS = {
    "ir-sweep": {"kind": "ir-sweep", "seed": 5, "jobs": 1, "params": {
        "fields": [[3, 1], [3, 2], [5, 1], [7, 1]], "dims": [2, 3],
        "sizes": ["q^{(d+1)/2}", "q^d"], "trials": 1}},
    "threshold": {"kind": "threshold", "seed": 5, "jobs": 1, "params": {
        "field": [3, 2], "d": 2, "graph": "C4", "sizes": [20, "q^d"], "trials": 2}},
    "extremal-table": {"kind": "extremal-table", "jobs": 1, "params": {
        "n_values": [4, 5, 6], "graphs": ["C4", "K3", "P4"], "exhaustive_max": 5}},
    "adreg-scan": {"kind": "adreg-scan", "jobs": 1, "params": {
        "specs": [{"d": 2, "contraction": 0.45, "depth": 7}],
        "eps": [2.0**-4, 2.0**-5, 2.0**-6], "approx_eps": [2.0**-4, 2.0**-5],
        "t_grid": [0.4, 0.5, 0.6], "graph": "C6"}},
}


def real_output(kind: str):
    config = CONFIGS[kind]
    report = experiments.run(experiments.ExperimentConfig.from_dict(config))
    records = checks.parse_csv(report.records_csv())
    aux = checks.checker(config).gather()
    return config, records, aux


def failures(config: dict, records: list, aux: list) -> int:
    """Operations the checker rejects; a fresh checker each time, so no
    reference computed from other outputs is reused."""
    return sum(1 for errors in checks.checker(config).check(records, aux) if errors)


def test_sphere_sizes() -> bool:
    """Own norms of all of F_q^d, counted point by point, match the
    closed-form sphere sizes."""
    for (p, k), d in product([(3, 1), (5, 1), (7, 1), (3, 2), (5, 2)], [2, 3]):
        spec = make_field(p, k)
        field = checks.OwnField(p, k, spec.modulus)
        q = field.q
        pts = field.digits(np.arange(q))[np.stack(np.meshgrid(*[np.arange(q)] * d, indexing="ij"), -1).reshape(-1, d)]
        sphere = np.bincount(field.norm_codes(pts), minlength=q)
        if (q**d * sphere).tolist() != checks.sphere_histogram(field, d):
            return False
    return True


def test_own_histogram_prime() -> bool:
    """For a prime field the own histogram is the plain integer
    recomputation of sum (x_i - y_i)^2 mod p over all ordered pairs."""
    rng = np.random.default_rng(1)
    codes = np.unique(rng.integers(0, 11, size=(40, 3)), axis=0)
    plain = np.zeros(11, dtype=np.int64)
    for x in codes.tolist():
        for y in codes.tolist():
            plain[sum((a - b) ** 2 for a, b in zip(x, y)) % 11] += 1
    return np.array_equal(plain, checks.own_histogram(checks.OwnField(11, 1, (0, 1)), codes))


def test_ir() -> bool:
    config, records, aux = real_output("ir-sweep")
    if failures(config, records, aux):
        return False
    moved = copy.deepcopy(aux)
    moved[0]["counts"][1] -= 1
    moved[0]["counts"][2] += 1
    flipped = copy.deepcopy(records)
    flipped[1]["pass"] = "false"
    slack = copy.deepcopy(records)
    slack[2]["worst_slack"] = repr(float(slack[2]["worst_slack"]) + 0.5)
    return all(failures(config, r, a) == 1 for r, a in [(records, moved), (flipped, aux), (slack, aux)])


def test_threshold() -> bool:
    config, records, aux = real_output("threshold")
    if failures(config, records, aux):
        return False
    field = checks.OwnField(3, 2, aux[-1]["modulus"])
    digits = field.digits(aux[-1]["codes"])
    swapped = copy.deepcopy(aux)
    t, mapping = next(iter(swapped[-1]["witnesses"].items()))
    for v in range(len(digits)):
        if v not in mapping and field.norm_codes((digits[v] - digits[mapping[1]]) % 3) != t:
            mapping[0] = v
            break
    count = copy.deepcopy(records)
    count[0]["n_contained"] = str(int(count[0]["n_contained"]) + 1)
    return all(failures(config, r, a) == 1 for r, a in [(records, swapped), (count, aux)])


def test_extremal() -> bool:
    config, records, aux = real_output("extremal-table")
    if failures(config, records, aux):
        return False
    off = copy.deepcopy(records)
    off[0]["ex"] = str(int(off[0]["ex"]) + 1)
    swapped = copy.deepcopy(records)
    rec = next(r for r in swapped if r["graph"] == "K3" and r["n"] == "6")
    edges = [tuple(map(int, e.split("-"))) for e in rec["witness_edges"].split(";")]
    present = {frozenset(e) for e in edges}
    for i, v in product(range(len(edges)), range(6)):
        a, b = edges[i]
        if v not in (a, b) and frozenset((a, v)) not in present:
            trial = present - {frozenset((a, b))} | {frozenset((a, v))}
            if checks.brute_contains(6, trial, "K3"):
                edges[i] = tuple(sorted((a, v)))
                break
    rec["witness_edges"] = ";".join(f"{u}-{v}" for u, v in sorted(edges))
    return all(failures(config, r, aux) == 1 for r in (off, swapped))


def test_adreg() -> bool:
    config, records, aux = real_output("adreg-scan")
    if failures(config, records, aux):
        return False
    dropped = copy.deepcopy(aux)
    dropped[0]["nets"][2.0**-4] = dropped[0]["nets"][2.0**-4][:-1]
    swapped = copy.deepcopy(records)
    row = next(r for r in swapped if r["record"] == "approx")
    idx = row["witness_indices"].split(";")
    row["witness_indices"] = ";".join([idx[0], idx[0]] + idx[2:])
    slope = copy.deepcopy(records)
    row = next(r for r in slope if r["record"] == "summary")
    row["n_eps_s"] = repr(float(row["n_eps_s"]) + 0.01)
    return all(failures(config, r, a) == 1 for r, a in [(records, dropped), (swapped, aux), (slope, aux)])


def main() -> int:
    tests = [test_sphere_sizes, test_own_histogram_prime, test_ir, test_threshold, test_extremal, test_adreg]
    failed = 0
    for test in tests:
        ok = test()
        failed += not ok
        print(f"{'PASS' if ok else 'FAIL'} {test.__name__}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
