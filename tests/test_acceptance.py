"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line.  Shared sweeps run once in session fixtures; the determinism
criterion replays them at higher parallelism and compares raw CSV bytes.

Run with `pytest tests/test_acceptance.py -v -s`.
"""

import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest

from oracles import brute_contains, random_graph
from distgraphs.adreg import (
    FractalSpec,
    approx_distance_graph,
    cantor_product,
    find_approximation,
    greedy_net,
    verify_approximation,
    verify_net,
)
from distgraphs.experiments import (
    ExperimentConfig,
    instance_seed,
    run,
)
from distgraphs.extremal import (
    ex_branch_bound,
    ex_exhaustive,
    threshold_exponent,
    verify_extremal_witness,
)
from distgraphs.field import Point, make_field
from distgraphs.ffgeom import all_points, distance_histogram, graph_distance_set, random_subset
from distgraphs.graphs import (
    complete_graph,
    contains_induced_subgraph,
    contains_subgraph,
    cycle_graph,
    graph_from_name,
    hypercube_graph,
    path_graph,
    shattering_graph,
    verify_embedding,
)

MASTER_SEED = 20260809


@contextmanager
def criterion(number: int, name: str):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {number} ({name}): FAIL")
        raise
    print(f"\nACCEPTANCE {number} ({name}): PASS ({time.perf_counter() - t0:.1f}s)")


# -- shared sweeps -------------------------------------------------------------

IR_PARAMS = {
    "fields": [[3, 1], [5, 1], [7, 1], [3, 2], [11, 1], [13, 1]],
    "dims": [2, 3],
    "sizes": ["q", "q^{(d+1)/2}", "q^d/2", "q^d"],
    "trials": 5,
}

THRESHOLD_PARAMS = {
    "field": [3, 2],
    "d": 2,
    "graph": "C6",
    "sizes": [15, 20, 25, 30, 40, 60, 81],
    "trials": 30,
    "noise_tolerance": 0.1,
    "max_inversions": 1,
}

ANCHOR_INSTANCES = [
    {"p": 5, "k": 1, "d": 3, "graph": "C4"},
    {"p": 7, "k": 1, "d": 3, "graph": "C4"},
    {"p": 3, "k": 2, "d": 3, "graph": "C4"},
    {"p": 3, "k": 2, "d": 2, "graph": "C6"},
    {"p": 11, "k": 1, "d": 2, "graph": "C6"},
    {"p": 13, "k": 1, "d": 2, "graph": "C6"},
]

ADREG_PARAMS = {
    "specs": [
        {"d": 2, "contraction": 0.45, "depth": 8},
        {"d": 2, "contraction": 0.5, "depth": 9},
    ],
    "eps": [2.0**-4, 2.0**-5, 2.0**-6, 2.0**-7],
    "approx_eps": [2.0**-4, 2.0**-5, 2.0**-6, 2.0**-7],
    "t_grid": [0.40, 0.45, 0.50, 0.55, 0.60, 0.65, 0.70, 0.75, 0.80],
    "graph": "C6",
}


def _ir_config(jobs: int = 1) -> ExperimentConfig:
    return ExperimentConfig(kind="ir-sweep", seed=MASTER_SEED, jobs=jobs, params=IR_PARAMS)


@pytest.fixture(scope="session")
def ir_report():
    t0 = time.perf_counter()
    report = run(_ir_config())
    report.summary["elapsed"] = time.perf_counter() - t0
    return report


def _threshold_config(jobs: int = 1) -> ExperimentConfig:
    return ExperimentConfig(
        kind="threshold", seed=MASTER_SEED + 7, jobs=jobs, params=THRESHOLD_PARAMS
    )


@pytest.fixture(scope="session")
def threshold_report():
    return run(_threshold_config())


def _anchor_record(inst: dict) -> dict:
    spec = make_field(inst["p"], inst["k"])
    E = all_points(spec, inst["d"])
    ds = graph_distance_set(E, graph_from_name(inst["graph"]))
    return {
        "q": spec.q,
        "d": inst["d"],
        "graph": inst["graph"],
        "n": len(E),
        "covers": ds.covers_all_nonzero,
        "contained": " ".join(map(str, sorted(ds.contained))),
    }


def _anchor_rows(jobs: int = 1) -> list[str]:
    if jobs <= 1:
        records = [_anchor_record(inst) for inst in ANCHOR_INSTANCES]
    else:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            records = list(pool.map(_anchor_record, ANCHOR_INSTANCES))
    return [
        f"{r['q']},{r['d']},{r['graph']},{r['n']},{str(r['covers']).lower()},{r['contained']}"
        for r in records
    ]


@pytest.fixture(scope="session")
def anchor_rows():
    t0 = time.perf_counter()
    rows = _anchor_rows()
    return rows, time.perf_counter() - t0


def _pair_record(args: tuple[int, bool]) -> dict:
    """One random (host, pattern) comparison of the search against the
    brute-force oracle; a pure function of its index."""
    idx, induced = args
    rng = np.random.default_rng(instance_seed(MASTER_SEED + 11, idx + (10_000 if induced else 0)))
    densities = [0.2, 0.5, 0.8]
    n_g = int(rng.integers(2, 6))
    n_h = int(rng.integers(2, 9))
    d_g = densities[int(rng.integers(3))]
    d_h = densities[int(rng.integers(3))]
    pattern = random_graph(n_g, d_g, rng)
    host = random_graph(n_h, d_h, rng)
    found = (contains_induced_subgraph if induced else contains_subgraph)(host, pattern)
    brute = brute_contains(host, pattern, induced=induced)
    witness_ok = (
        verify_embedding(host, pattern, found.mapping, induced=induced) if found else None
    )
    return {
        "idx": idx,
        "induced": induced,
        "n_g": n_g,
        "m_g": pattern.edge_count,
        "n_h": n_h,
        "m_h": host.edge_count,
        "d_g": d_g,
        "d_h": d_h,
        "search": found is not None,
        "brute": brute is not None,
        "agree": (found is None) == (brute is None),
        "witness_ok": witness_ok,
    }


def _pair_rows(jobs: int = 1) -> list[str]:
    tasks = [(i, False) for i in range(200)] + [(i, True) for i in range(100)]
    if jobs <= 1:
        records = [_pair_record(t) for t in tasks]
    else:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            records = list(pool.map(_pair_record, tasks, chunksize=10))
    def cell(v):
        return "none" if v is None else str(v).lower() if isinstance(v, bool) else str(v)

    return [
        ",".join(
            cell(r[c])
            for c in ("idx", "induced", "n_g", "m_g", "n_h", "m_h", "d_g", "d_h",
                      "search", "brute", "agree", "witness_ok")
        )
        for r in records
    ]


@pytest.fixture(scope="session")
def pair_rows():
    t0 = time.perf_counter()
    rows = _pair_rows()
    return rows, time.perf_counter() - t0


@pytest.fixture(scope="session")
def adreg_report():
    t0 = time.perf_counter()
    report = run(ExperimentConfig(kind="adreg-scan", params=ADREG_PARAMS))
    report.summary["elapsed"] = time.perf_counter() - t0
    return report


# -- criteria ------------------------------------------------------------------


def test_criterion_1_ir_exactness(ir_report):
    with criterion(1, "Iosevich-Rudnev exactness"):
        assert len(ir_report.records) == 6 * 2 * 4 * 5
        assert all(r["pass"] for r in ir_report.records)
        assert ir_report.verdict is True
        assert ir_report.summary["elapsed"] < 120.0


def test_criterion_2_histogram_conservation(ir_report):
    with criterion(2, "histogram conservation"):
        assert all(r["sum_ok"] for r in ir_report.records)
        # Translation invariance on 50 seeded (E, z) pairs.
        grids = [(make_field(5, 1), 2), (make_field(7, 1), 2), (make_field(3, 2), 2)]
        checked = 0
        for i in range(50):
            spec, d = grids[i % len(grids)]
            rng = np.random.default_rng(instance_seed(MASTER_SEED + 2, i))
            size = int(rng.integers(2, spec.q**d // 2))
            E = random_subset(spec, d, size, seed=int(rng.integers(2**63)))
            shift = Point([spec.from_code(int(rng.integers(spec.q))) for _ in range(d)])
            base = distance_histogram(E)
            moved = distance_histogram(E.translate(shift))
            assert base.total() == size * size
            assert np.array_equal(base.counts, moved.counts)
            checked += 1
        assert checked == 50


def test_criterion_3_extremal_oracle_equivalence():
    with criterion(3, "extremal oracle equivalence"):
        t0 = time.perf_counter()
        patterns = {
            "C4": cycle_graph(4),
            "C6": cycle_graph(6),
            "P3": path_graph(3),
            "P4": path_graph(4),
        }
        for name, pattern in patterns.items():
            for n in range(1, 8):
                a = ex_exhaustive(n, pattern)
                b = ex_branch_bound(n, pattern)
                assert a.value == b.value, (name, n, a.value, b.value)
                assert verify_extremal_witness(a) and verify_extremal_witness(b)
                assert brute_contains(a.witness, pattern) is None
                assert brute_contains(b.witness, pattern) is None
        assert ex_exhaustive(4, patterns["C4"]).value == 4
        assert ex_exhaustive(3, patterns["C4"]).value == 3
        assert time.perf_counter() - t0 < 300.0


def test_criterion_4_subgraph_search_correctness(pair_rows):
    with criterion(4, "subgraph search vs brute force"):
        rows, elapsed = pair_rows
        assert len(rows) == 300
        for row in rows:
            cells = row.split(",")
            assert cells[10] == "true", f"disagreement: {row}"
            assert cells[11] in ("true", "none")


def test_criterion_5_exponent_arithmetic():
    with criterion(5, "threshold exponent case splits"):
        rows = []
        # Even cycles: (d+1)/2 binds for d >= 3 (k >= 2) and d = 2 (k >= 3).
        for d in (3, 4, 5):
            for k in (2, 3, 4):
                rows.append((cycle_graph(2 * k), d, Fraction(d + 1, 2)))
        for k in (3, 4, 5):
            rows.append((cycle_graph(2 * k), 2, Fraction(3, 2)))
        rows.append((cycle_graph(4), 2, Fraction(2)))
        # Hypercubes: Q_3 at 5/2, Q_k at 2^{k-1}(k-1)/(2^{k-1}-1).
        for d in (3, 4, 5, 6, 7):
            rows.append((hypercube_graph(3), d, max(Fraction(5, 2), Fraction(d + 1, 2))))
        for k in (4, 5):
            ext = Fraction((1 << (k - 1)) * (k - 1), (1 << (k - 1)) - 1)
            for d in (3, 8):
                rows.append((hypercube_graph(k), d, max(ext, Fraction(d + 1, 2))))
        # Shattering graphs: max((d+1)/2, k).
        for k in (1, 2, 3, 4):
            for d in (2, 3, 7):
                rows.append((shattering_graph(k), d, max(Fraction(d + 1, 2), Fraction(k))))
        for pattern, d, expected in rows:
            got = threshold_exponent(pattern, d).s_star
            assert got == expected, (pattern, d, got, expected)
        assert len(rows) == 9 + 3 + 1 + 5 + 4 + 12


def test_criterion_6_full_space_anchor(anchor_rows):
    with criterion(6, "full-space containment anchor"):
        rows, elapsed = anchor_rows
        assert len(rows) == 6
        for row in rows:
            assert ",true," in row, f"coverage failed: {row}"
        assert elapsed < 300.0


def test_criterion_7_threshold_monotonicity(threshold_report):
    with criterion(7, "threshold success monotonicity"):
        summary = threshold_report.summary
        curve = summary["curve"]
        rates = [c["rate"] for c in curve]
        assert summary["monotone_ok"], rates
        assert curve[-1]["size"] == 81 and rates[-1] == 1.0
        assert threshold_report.verdict is True


def test_criterion_8_net_lemma():
    with criterion(8, "separated-net construction"):
        eps_list = [2.0**-3, 2.0**-4, 2.0**-5, 2.0**-6]
        for d, lam, depth in [(1, 1 / 3, 12), (1, 0.45, 12), (2, 1 / 3, 7), (2, 0.45, 7)]:
            spec = FractalSpec(d, lam, depth)
            assert spec.n_points <= 2**16
            cloud = cantor_product(spec)
            sizes = []
            for eps in eps_list:
                net = greedy_net(cloud, eps)
                assert verify_net(cloud, net), (d, lam, eps)
                sizes.append(net.size * eps**spec.s)
            assert max(sizes) / min(sizes) < 4.0, (d, lam, sizes)


def test_criterion_9_edge_scaling(adreg_report):
    with criterion(9, "edge-count scaling law"):
        slopes = {
            (s["contraction"], s["depth"]): (s["slope"], s["predicted"], s["t"])
            for s in adreg_report.summary["slopes"]
        }
        slope, predicted, t_frac = slopes[(0.45, 8)]
        assert abs(slope - predicted) < 0.3, (slope, predicted, t_frac)
        assert predicted == pytest.approx(2 * FractalSpec(2, 0.45, 8).s - 1)
        slope_c, predicted_c, t_ctrl = slopes[(0.5, 9)]
        assert predicted_c == pytest.approx(3.0)
        assert abs(slope_c - 3.0) < 0.3, (slope_c, t_ctrl)
        assert adreg_report.summary["elapsed"] < 180.0


def test_criterion_10_approximation_witnesses(adreg_report):
    with criterion(10, "approximation witness validity"):
        approx = [r for r in adreg_report.records if r["record"] == "approx"]
        assert approx
        found = [r for r in approx if r["found"]]
        # Every returned witness passed the independent validator.
        assert all(r["witness_valid"] for r in found)
        # On the criterion-9 fractal a 6-cycle approximation exists at
        # some scanned scale.
        assert any(r["contraction"] == 0.45 for r in found)
        # Direct spot checks across patterns.
        spec = FractalSpec(2, 0.45, 7)
        cloud = cantor_product(spec)
        eps = 2.0**-5
        net = greedy_net(cloud, eps)
        graph = approx_distance_graph(net, 0.6)
        for pattern in (complete_graph(2), cycle_graph(4), cycle_graph(6)):
            w = find_approximation(net, graph, pattern, 0.6)
            assert w is not None
            assert verify_approximation(w.points, pattern, 0.6, eps)


def test_criterion_11_determinism(ir_report, pair_rows, anchor_rows, threshold_report):
    with criterion(11, "seeded determinism across parallelism"):
        assert run(_ir_config(jobs=1)).records_csv() == ir_report.records_csv()
        assert run(_ir_config(jobs=4)).records_csv() == ir_report.records_csv()
        assert _pair_rows(jobs=4) == pair_rows[0]
        assert _anchor_rows(jobs=4) == anchor_rows[0]
        rerun = run(_threshold_config(jobs=4))
        assert rerun.records_csv() == threshold_report.records_csv()
