import concurrent.futures
import contextlib
import copy
import csv
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import distgraphs
from distgraphs import adreg, experiments, extremal, ffgeom
from distgraphs.cli import main
from distgraphs.errors import ConfigError
from distgraphs.experiments import (
    SWEEPS,
    ExperimentConfig,
    instance_seed,
    resolve_size,
    run,
)
from distgraphs.field import make_field
from oracles import annulus_counts_oracle, graph_distance_set_oracle


def test_resolve_size():
    assert resolve_size("q", 9, 2) == 9
    assert resolve_size("q^{(d+1)/2}", 9, 2) == 27
    assert resolve_size("q^d/2", 9, 2) == 40
    assert resolve_size("q^d", 9, 2) == 81
    assert resolve_size(17, 9, 2) == 17
    assert resolve_size({"coef": 1.5, "exp": 1.0}, 9, 2) == 14
    with pytest.raises(ConfigError):
        resolve_size("q^2", 9, 2)
    with pytest.raises(ConfigError):
        resolve_size(100, 9, 2)
    with pytest.raises(ConfigError):
        resolve_size(-1, 9, 2)


_FIELDS = [(3, 1), (3, 2), (5, 1), (7, 1), (7, 2), (13, 1), (47, 1)]


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(_FIELDS),
    st.one_of(st.integers(-1, 8), st.integers(9, 45), st.integers(46, 10**6)),
    st.one_of(st.integers(-3, 100), st.integers(100, 5100), st.integers(5100, 2**70), st.just("q^d")),
)
def test_resolve_size_and_the_set_builders_agree(pk, d, size):
    # The sweeps and the library pass one gate: a size resolve_size takes
    # is one random_subset draws and all_points takes as a whole space,
    # and one it rejects they reject.
    spec = make_field(*pk)
    try:
        n = resolve_size(size, spec.q, d)
    except ConfigError:
        n = None
    build = (lambda: ffgeom.all_points(spec, d)) if size == "q^d" else (
        lambda: ffgeom.random_subset(spec, d, size, seed=1))
    try:
        E = build()
    except (TypeError, ValueError):
        assert n is None
    else:
        assert len(E) == n


def test_config_validation():
    with pytest.raises(ConfigError):
        ExperimentConfig(kind="nope", params={})
    with pytest.raises(ConfigError):
        ExperimentConfig(kind="ir-sweep", params={})  # randomized kinds need a seed
    with pytest.raises(ConfigError):
        ExperimentConfig(kind="threshold", params={}, seed=1, jobs=0)
    cfg = ExperimentConfig(kind="extremal-table", params={"n_values": [3], "graphs": ["C4"]})
    assert cfg.seed is None


def test_config_json_round_trip(tmp_path):
    doc = {
        "kind": "ir-sweep",
        "seed": 3,
        "jobs": 2,
        "params": {"fields": [[3, 1]], "dims": [2], "sizes": ["q"], "trials": 1},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    cfg = ExperimentConfig.from_json(path)
    assert cfg.kind == "ir-sweep" and cfg.seed == 3 and cfg.jobs == 2
    assert cfg.as_dict()["params"]["trials"] == 1


@pytest.mark.parametrize("text", [None, "{\"kind\": ", "\xff"])
def test_unreadable_config_file_is_a_config_error(tmp_path, text):
    path = tmp_path / "cfg.json"
    if text is not None:
        path.write_text(text, encoding="latin-1")
    with pytest.raises(ConfigError, match="unreadable config") as exc:
        ExperimentConfig.from_json(path)
    assert str(exc.value).startswith(f"unreadable config {path}: ")


def test_instance_seed_stability():
    # Pinned, so records never move with the installed numpy's stream.
    assert instance_seed(0, 0) == 8668861027912758289
    assert instance_seed(5, 0) == 15658875773272509128
    assert instance_seed(5, 1) == 6924645418555453511
    assert instance_seed(6, 0) == 10324823579957477319
    assert instance_seed(2**64 + 1, 7) == 13295464477647135773
    assert instance_seed(2**128, 2**40 - 1) == 9817263147192298299
    for master, index in [(-1, 0), (0, -1)]:
        with pytest.raises(ValueError):
            instance_seed(master, index)


def _spawned(master: int, index: int) -> int:
    return int(np.random.SeedSequence(entropy=master, spawn_key=(index,)).generate_state(1, np.uint64)[0])


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**130 - 1), st.integers(0, 2**40 - 1))
def test_instance_seed_matches_seedsequence(master, index):
    assert instance_seed(master, index) == _spawned(master, index)


@pytest.mark.parametrize("master", [0, 1, 2**32 - 1, 2**32, 2**96 - 1, 2**96, 2**128 + 5])
@pytest.mark.parametrize("index", [0, 1, 2**32 - 1, 2**32, 2**40 - 1])
def test_instance_seed_matches_seedsequence_on_seeded_cases(master, index):
    # Entropy of 1 to 5 words, on each side of the 4-word pool it is
    # padded to before the spawn key.
    assert instance_seed(master, index) == _spawned(master, index)


IR_PARAMS = {"fields": [[3, 1], [3, 2]], "dims": [2], "sizes": ["q", "q^d/2"], "trials": 2}


def test_ir_sweep_records_and_verdict():
    cfg = ExperimentConfig(kind="ir-sweep", seed=1, params=IR_PARAMS)
    report = run(cfg)
    assert report.verdict is True
    assert len(report.records) == 2 * 2 * 2
    assert all(r["pass"] and r["sum_ok"] for r in report.records)
    header = report.records_csv().splitlines()[0]
    assert header.startswith("p,k,q,d,")


def test_ir_sweep_whole_space_draws_nothing_and_obeys_the_point_cap(monkeypatch):
    # A whole-space instance reads the space in lexicographic order with
    # no draw; its record is the sampled path's.  Past DISTGRAPHS_MAX_POINTS
    # it is a config error, like every other set.
    spec = make_field(11, 1)
    cfg = ExperimentConfig(kind="ir-sweep", seed=4, params={"fields": [[11, 1]], "dims": [2], "sizes": ["q^d"], "trials": 1})
    E = ffgeom.random_subset(spec, 2, 121, seed=instance_seed(4, 0))
    hist = ffgeom.distance_histogram(E)
    report = ffgeom.ir_check(E, hist)
    monkeypatch.setattr(ffgeom, "random_subset", None)
    (record,) = run(cfg).records
    assert record == {
        "p": 11, "k": 1, "q": 11, "d": 2, "size_spec": "q^d", "size": 121, "trial": 0,
        "seed": instance_seed(4, 0), "pass": report.passed, "sum_ok": hist.total() == 121**2,
        "worst_slack": report.worst_slack(),
    }
    monkeypatch.setenv("DISTGRAPHS_MAX_POINTS", "120")
    with pytest.raises(ConfigError, match="121 points exceed the configured cap 120"):
        run(cfg)


THRESHOLD_SAMPLED = {"field": [3, 1], "d": 2, "graph": "C4", "sizes": [4, 6, "q^d"], "trials": 4}


def test_seeded_sweeps_do_not_load_numpy_random():
    # The sampling stream is computed in the package: a fresh process
    # running seeded sweeps never imports numpy.random, nor OpenSSL's
    # _hashlib, which numpy.random loads through secrets.
    root = str(Path(distgraphs.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [root, os.environ.get("PYTHONPATH")]))}
    code = (
        "import sys\n"
        "from distgraphs.experiments import ExperimentConfig, run\n"
        f"run(ExperimentConfig(kind='ir-sweep', seed=1, params={IR_PARAMS!r})).records_csv()\n"
        f"run(ExperimentConfig(kind='threshold', seed=2, params={THRESHOLD_SAMPLED!r})).records_csv()\n"
        "sys.exit(sorted({'numpy.random', '_hashlib'} & set(sys.modules)) or None)"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_ir_sweep_empty_schedule_vacuous():
    cfg = ExperimentConfig(
        kind="ir-sweep", seed=1,
        params={"fields": [[3, 1]], "dims": [2], "sizes": [], "trials": 5},
    )
    report = run(cfg)
    assert report.verdict is True and report.records == []


def test_ir_sweep_deterministic_across_jobs():
    a = run(ExperimentConfig(kind="ir-sweep", seed=9, params=IR_PARAMS))
    b = run(ExperimentConfig(kind="ir-sweep", seed=9, params=IR_PARAMS, jobs=4))
    assert a.records_csv() == b.records_csv()
    c = run(ExperimentConfig(kind="ir-sweep", seed=10, params=IR_PARAMS))
    assert a.records_csv() != c.records_csv()


def test_threshold_runner():
    cfg = ExperimentConfig(kind="threshold", seed=2, params=THRESHOLD_SAMPLED)
    report = run(cfg)
    curve = report.summary["curve"]
    assert [c["size"] for c in curve] == [4, 6, 9]
    assert curve[-1]["rate"] == 1.0  # the full plane realizes C_4 everywhere
    assert report.summary["full_space_ok"]


def test_threshold_records_match_whole_graph_oracle(monkeypatch):
    # Reduced copies of the benchmark's two threshold sweeps at seed 1:
    # the records are the same byte for byte when every G-distance set
    # comes from whole t-distance graphs.
    configs = [
        ExperimentConfig(kind="threshold", seed=1, jobs=1, params={
            "field": [7, 2], "d": 2, "graph": "C4", "sizes": [30, 40, 50, 60, 80, 120], "trials": 1}),
        ExperimentConfig(kind="threshold", seed=2, jobs=1, params={
            "field": [13, 1], "d": 3, "graph": "Q3", "sizes": [60, 80, 100, 120, 160], "trials": 1}),
    ]
    records = [run(cfg).records_csv() for cfg in configs]
    monkeypatch.setattr(ffgeom, "graph_distance_set", graph_distance_set_oracle)
    assert [run(cfg).records_csv() for cfg in configs] == records


def test_records_csv_quotes_cells_with_commas():
    # A graph_text pattern is named custom(n,m): its cell is quoted, so
    # the record reads back whole.
    report = run(ExperimentConfig(kind="threshold", seed=2, params={
        "field": [3, 1], "d": 2, "graph_text": "4 4\n0 1\n1 2\n2 3\n0 3\n", "sizes": [6, "q^d"], "trials": 2}))
    text = report.records_csv()
    assert '"custom(4,4)"' in text
    rows = list(csv.DictReader(io.StringIO(text)))
    assert len(rows) == len(report.records) == 4
    for row, rec in zip(rows, report.records):
        assert None not in row  # no cell spilled past the header
        assert row["graph"] == rec["graph"] == "custom(4,4)"
        for col in ("q", "d", "size", "trial", "seed", "n_contained", "n_indeterminate"):
            assert int(row[col]) == rec[col]
        assert row["success"] == {True: "true", False: "false", None: ""}[rec["success"]]


def test_threshold_trials_zero():
    cfg = ExperimentConfig(
        kind="threshold", seed=2,
        params={"field": [3, 1], "d": 2, "graph": "C4", "sizes": [4], "trials": 0},
    )
    report = run(cfg)
    assert report.records == [] and report.verdict is True


def test_extremal_table_cache(tmp_path):
    cache = tmp_path / "cache.json"
    cfg = ExperimentConfig(
        kind="extremal-table",
        params={"n_values": [3, 4], "graphs": ["C4"], "cache": str(cache)},
    )
    first = run(cfg)
    assert [r["ex"] for r in first.records] == [3, 4]
    assert cache.exists()
    again = run(cfg)
    assert all(r["cached"] for r in again.records)
    assert [r["ex"] for r in again.records] == [3, 4]


def test_extremal_table_skips_oversize_cells():
    cfg = ExperimentConfig(
        kind="extremal-table",
        params={"n_values": [3, 13], "graphs": ["C4"]},
    )
    report = run(cfg)
    skipped = [r for r in report.records if r["ex"] is None]
    assert len(skipped) == 1 and skipped[0]["n"] == 13
    assert report.summary["skipped"] == 1


def test_extremal_table_default_runs_the_scan_to_its_cap():
    cfg = ExperimentConfig(kind="extremal-table", params={"n_values": [8], "graphs": ["C4"]})
    (record,) = run(cfg).records
    assert (record["method"], record["ex"]) == ("exhaustive", 11)


def _extremal_reference(params: dict, cache: dict) -> tuple[list[dict], dict]:
    """The records of an extremal-table run and the cache it leaves,
    built from one direct oracle call per cell, in the config's order."""
    from distgraphs.errors import TooLarge
    from distgraphs.graphs import Graph, graph_from_name, graph_to_text

    rows, cache = [], dict(cache)
    for name in params["graphs"]:
        pattern = graph_from_name(name)
        for n in params["n_values"]:
            key = f"{n}|{graph_to_text(pattern)}"
            hit = cache.get(key)
            method = "exhaustive" if n <= params["exhaustive_max"] else "branch-bound"
            row = {"n": n, "graph": name, "method": method, "cached": bool(hit)}
            if hit:
                edges = [tuple(map(int, e.split("-"))) for e in hit["witness_edges"].split(";") if e]
                res = extremal.ExtremalResult(n, pattern, hit["value"], Graph(n, edges))
                row.update(ex=hit["value"], witness_edges=hit["witness_edges"], method=hit["method"],
                           verified=extremal.verify_extremal_witness(res))
                rows.append(row)
                continue
            oracle = extremal.ex_exhaustive if method == "exhaustive" else extremal.ex_branch_bound
            try:
                res = oracle(n, pattern)
            except TooLarge:
                rows.append({**row, "ex": None, "witness_edges": "skipped", "verified": None})
                continue
            edges = ";".join(f"{u}-{v}" for u, v in res.witness.edges())
            rows.append({**row, "ex": res.value, "witness_edges": edges, "verified": extremal.verify_extremal_witness(res)})
            cache[key] = {"value": res.value, "witness_edges": edges, "method": method}
    return sorted(rows, key=lambda r: (r["graph"], r["n"])), cache


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("seed", range(8))
def test_extremal_table_matches_one_oracle_call_per_cell(tmp_path, monkeypatch, seed, jobs):
    import random

    from distgraphs.graphs import graph_from_name, graph_to_text

    rng = random.Random(seed)
    params = {
        "n_values": rng.sample(range(9), rng.randint(4, 8)),
        "graphs": rng.sample(["P3", "P4", "C4", "C5", "K3", "S2", "K4"], rng.randint(2, 3)),
        "exhaustive_max": rng.randint(3, 6),
    }
    # hits for some cells (one of them poisoned) and an entry no cell asks for
    cache = {}
    for name in params["graphs"]:
        pattern = graph_from_name(name)
        for n in params["n_values"]:
            if rng.random() < 0.2:
                res = extremal.ex_exhaustive(n, pattern)
                edges = ";".join(f"{u}-{v}" for u, v in res.witness.edges())
                cache[f"{n}|{graph_to_text(pattern)}"] = {"value": res.value, "witness_edges": edges, "method": "old"}
    if cache:
        key = next(iter(cache))
        cache[key] = {**cache[key], "value": cache[key]["value"] + 1}
    cache["9|3 2\n0 1\n1 2\n"] = {"value": 4, "witness_edges": "0-1;2-3;4-5;6-7", "method": "exhaustive"}
    path = tmp_path / "cache.json"
    path.write_text(json.dumps(cache))
    # caps below some cells, so those are skipped
    monkeypatch.setenv("DISTGRAPHS_MAX_EXHAUSTIVE_N", str(rng.randint(4, 8)))
    monkeypatch.setenv("DISTGRAPHS_MAX_BRANCH_N", str(rng.randint(6, 8)))

    want_rows, want_cache = _extremal_reference(params, cache)
    report = run(ExperimentConfig(kind="extremal-table", jobs=jobs, params={**params, "cache": str(path)}))
    want = experiments.ExperimentReport({}, experiments.EXTREMAL_COLUMNS, want_rows, {}, None)
    assert report.records_csv() == want.records_csv()
    assert path.read_text() == json.dumps(want_cache, indent=1) + "\n"
    assert report.verdict == all(r["verified"] for r in want_rows if r["verified"] is not None)
    assert report.summary["skipped"] == sum(r["ex"] is None for r in want_rows)
    # every uncached cell is timed, and the cells of one chain share its time
    seconds = report.meta["cell_seconds"]
    assert set(seconds) == {f"{r['graph']}|{r['n']}" for r in want_rows if not r["cached"]}
    groups = {}
    for r in want_rows:
        if not r["cached"]:
            groups.setdefault((r["graph"], r["method"]), set()).add(seconds[f"{r['graph']}|{r['n']}"])
    assert all(len(times) == 1 for times in groups.values())


def test_extremal_table_calls_each_oracle_once_per_group(tmp_path, monkeypatch):
    from distgraphs.graphs import graph_from_name, graph_to_text

    calls = []
    for name in ("ex_exhaustive", "ex_branch_bound"):
        def counted(n, pattern, _oracle=getattr(extremal, name), _name=name, **kwargs):
            calls.append((_name, graph_to_text(pattern), n))
            return _oracle(n, pattern, **kwargs)

        monkeypatch.setattr(extremal, name, counted)
    monkeypatch.setenv("DISTGRAPHS_MAX_BRANCH_N", "7")
    path = tmp_path / "cache.json"
    params = {"n_values": [2, 6, 3, 8, 5, 7], "graphs": ["C4", "K3", "P4"], "exhaustive_max": 5, "cache": str(path)}
    report = run(ExperimentConfig(kind="extremal-table", jobs=1, params=params))
    assert len(report.records) == 18 and report.summary["skipped"] == 3 and report.verdict
    texts = {name: graph_to_text(graph_from_name(name)) for name in params["graphs"]}
    assert sorted(calls) == sorted(
        (oracle, texts[name], n) for name in texts for oracle, n in (("ex_exhaustive", 5), ("ex_branch_bound", 7))
    )
    # with ex(5, C4) cached, the C4 scan stops at the next largest cell
    calls.clear()
    path.write_text(json.dumps({k: v for k, v in json.loads(path.read_text()).items() if k.startswith("5|")}))
    run(ExperimentConfig(kind="extremal-table", jobs=1, params={**params, "graphs": ["C4"]}))
    assert sorted(calls) == [("ex_branch_bound", texts["C4"], 7), ("ex_exhaustive", texts["C4"], 3)]


def test_adreg_scan_runner():
    cfg = ExperimentConfig(
        kind="adreg-scan",
        params={
            "specs": [{"d": 1, "contraction": 0.45, "depth": 7}],
            "eps": [2.0**-3, 2.0**-4, 2.0**-5],
            "t_grid": [0.4, 0.6],
            "graph": "K2",
        },
    )
    report = run(cfg)
    assert report.verdict is True
    kinds = {r["record"] for r in report.records}
    assert kinds == {"net", "annulus", "scaling", "approx", "summary"}
    nets = [r for r in report.records if r["record"] == "net"]
    assert all(r["net_valid"] for r in nets)


ADREG_SCALES_EPS = [2.0**-4, 2.0**-5, 2.0**-6]
ADREG_SCALES = {"specs": [{"d": 2, "contraction": 0.45, "depth": 8}], "eps": ADREG_SCALES_EPS,
                "approx_eps": ADREG_SCALES_EPS, "t_grid": [0.40, 0.45, 0.50, 0.55, 0.60, 0.65, 0.70, 0.75, 0.80],
                "graph": "C6"}


def _adreg_scales_rows() -> list[dict]:
    sweep = SWEEPS["adreg-scan"]
    [inst] = sweep.expand(experiments._read_params(ADREG_SCALES, sweep.params), None)
    return sweep.worker(inst)


def test_adreg_scan_runs_one_annulus_pass_per_scale(monkeypatch):
    # The whole t scan at the middle scale is one call, which also serves
    # that scale's band statistics; every other scale gets one call at the
    # best t.  461 center queries in all: one per net center of the two
    # outer scales and of the middle one.
    calls = []
    annulus_stats = adreg.annulus_stats

    def counting(cloud, centers, ts, epsilon, band=adreg.DEFAULT_BAND):
        calls.append((len(ts), len(centers)))
        return annulus_stats(cloud, centers, ts, epsilon, band)

    monkeypatch.setattr(adreg, "annulus_stats", counting)
    rows = _adreg_scales_rows()
    assert sorted(n_ts for n_ts, _ in calls) == [1, 1, len(ADREG_SCALES["t_grid"])]
    assert sum(n_centers for _, n_centers in calls) == 461
    assert sum(r["record"] == "annulus" for r in rows) == 9


def test_adreg_scan_t_scan_memory_is_per_center():
    # The middle scale's t scan keeps only per-block (centers x radii x
    # rows) temporaries and nothing sized by the 65,536-point cloud, so its
    # tracemalloc peak stays under 2 MiB.
    cloud = adreg.cantor_product(adreg.FractalSpec(2, 0.45, 8))
    centers = adreg.greedy_net(cloud, 2.0**-5).centers
    adreg.annulus_stats(cloud, centers[:1], ADREG_SCALES["t_grid"], 2.0**-5)  # lazy imports on a first call
    tracemalloc.start()
    try:
        adreg.annulus_stats(cloud, centers, ADREG_SCALES["t_grid"], 2.0**-5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 << 20


def test_adreg_scan_does_not_load_numpy_ma():
    # np.quantile loads numpy.ma, through np.unique, which costs every fresh
    # sweep process its import; the annulus quantiles come from one sort.
    root = str(Path(distgraphs.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [root, os.environ.get("PYTHONPATH")]))}
    code = (
        "import sys\n"
        "from distgraphs.experiments import ExperimentConfig, run\n"
        f"run(ExperimentConfig(kind='adreg-scan', params={ADREG_SCALES!r})).records_csv()\n"
        "sys.exit('numpy.ma' in sys.modules)"
    )
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def test_adreg_scan_builds_one_graph_per_scale(monkeypatch):
    # The edge-count fit and the approximation searches share each
    # scale's graph at the best t: 3 builds, where each used to build its own.
    built = []
    approx_distance_graph = adreg.approx_distance_graph

    def counting(net, t):
        built.append(net.epsilon)
        return approx_distance_graph(net, t)

    monkeypatch.setattr(adreg, "approx_distance_graph", counting)
    rows = _adreg_scales_rows()
    assert sorted(built) == sorted(ADREG_SCALES_EPS)
    assert sum(r["record"] == "approx" and r["found"] for r in rows) == 3


@pytest.mark.parametrize("eps", [2.0**-6, 2.0**-4])
def test_verify_net_memory_is_per_block(eps):
    # One int32 difference array over the 65,536-point cloud (256 KiB) and
    # one block of centers' row intervals at a time: under 1 MiB, at
    # k = 320 centers and at k = 33.
    cloud = adreg.cantor_product(adreg.FractalSpec(2, 0.45, 8))
    net = adreg.greedy_net(cloud, eps)
    assert adreg.verify_net(cloud, net)  # lazy imports on a first call
    tracemalloc.start()
    try:
        adreg.verify_net(cloud, net)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert net.size == {2.0**-6: 320, 2.0**-4: 33}[eps]
    assert peak < 1 << 20


def test_adreg_scan_scaling_band_statistics_match_oracles():
    # Every scaling row, the middle scale's (read off the t scan) included,
    # against whole-cloud annulus counts and the scale's own graph degrees.
    rows = _adreg_scales_rows()
    cloud = adreg.cantor_product(adreg.FractalSpec(2, 0.45, 8))
    lo, hi = adreg.DEFAULT_BAND
    scaling = [r for r in rows if r["record"] == "scaling"]
    assert [r["eps"] for r in scaling] == sorted(ADREG_SCALES_EPS)
    for r in scaling:
        eps, t = r["eps"], r["t"]
        net = adreg.greedy_net(cloud, eps)
        masses = annulus_counts_oracle(cloud.points, net.centers, t, eps) / cloud.mass_denominator
        in_band = (masses >= lo * eps) & (masses <= hi * eps)
        degrees = np.array(adreg.approx_distance_graph(net, t).degrees())
        assert in_band.any()
        assert r["band_fraction"] == in_band.mean()
        assert r["min_degree_band"] == degrees[in_band].min()


def test_adreg_scan_pattern_larger_than_every_net():
    # 2000 isolated vertices fit in no net of the 128-point cloud: every
    # approx row is a proof of absence, reached without ordering the pattern.
    t0 = time.perf_counter()
    report = run(ExperimentConfig(kind="adreg-scan", params={
        "specs": [{"d": 1, "contraction": 0.45, "depth": 7}], "eps": [2.0**-3, 2.0**-4, 2.0**-5],
        "approx_eps": [2.0**-3, 2.0**-5], "t_grid": [0.6], "graph_text": "2000 0"}))
    approx = [r for r in report.records if r["record"] == "approx"]
    assert [r["found"] for r in approx] == [False, False]
    assert time.perf_counter() - t0 < 10.0


def test_report_write(tmp_path):
    cfg = ExperimentConfig(kind="ir-sweep", seed=1, params=IR_PARAMS, out=str(tmp_path / "o"))
    report = run(cfg)
    out = report.write(cfg.out)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["verdict"] is True
    assert manifest["meta"]["rng"].startswith("pcg64")
    assert (out / "records.csv").read_text() == report.records_csv()


# -- CLI ----------------------------------------------------------------------


def test_cli_ir_sweep_and_exit_codes(tmp_path, capsys):
    cfg_path = tmp_path / "ir.json"
    cfg_path.write_text(json.dumps({"kind": "ir-sweep", "seed": 4, "params": IR_PARAMS}))
    assert main(["ir-sweep", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 0
    assert (tmp_path / "out" / "records.csv").exists()
    # Config error: kind mismatch.
    assert main(["threshold", "--config", str(cfg_path)]) == 2
    # Config error: missing config.
    assert main(["ir-sweep"]) == 2


def test_cli_graph_distance_set(tmp_path, capsys):
    assert main(["graph-distance-set", "--p", "3", "--d", "2", "--graph", "C4"]) == 0
    out = capsys.readouterr().out
    assert "t,status" in out and "# covers_all_nonzero=true" in out
    # C_8 needs 8 vertices at a single distance; a 4-point set cannot cover.
    code = main([
        "graph-distance-set", "--p", "3", "--d", "2", "--size", "4", "--seed", "1",
        "--graph", "C8", "--require-coverage",
    ])
    assert code == 1


def test_python_dash_m_runs_the_cli():
    # The child imports the same package as this process, installed or not.
    root = str(Path(distgraphs.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [root, os.environ.get("PYTHONPATH")]))}
    argv = ["graph-distance-set", "--p", "5", "--d", "2", "--graph", "C4", "--budget", "-1"]
    proc = subprocess.run([sys.executable, "-m", "distgraphs", *argv], env=env, capture_output=True, text=True)
    assert proc.returncode == 2
    assert proc.stderr.startswith("config error:") and proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr and proc.stdout == ""


def test_cli_graph_file_and_points_file(tmp_path, capsys):
    from distgraphs.field import make_field
    from distgraphs.ffgeom import all_points, write_points_file
    from distgraphs.graphs import graph_to_text, path_graph

    pts = tmp_path / "pts.txt"
    write_points_file(all_points(make_field(3, 1), 2), pts)
    gf = tmp_path / "g.txt"
    gf.write_text(graph_to_text(path_graph(2)))
    code = main([
        "graph-distance-set", "--points-file", str(pts), "--graph-file", str(gf),
        "--out", str(tmp_path / "gds"),
    ])
    assert code == 0
    manifest = json.loads((tmp_path / "gds" / "manifest.json").read_text())
    assert manifest["summary"]["covers_all_nonzero"] is True


def test_cli_threshold_pattern_deeper_than_the_recursion_limit(tmp_path, capsys):
    # 1200 vertices, one edge: the search places every one of them, and
    # all 2187 points of F_3^7 leave room for a copy at every t.
    assert sys.getrecursionlimit() < 1200
    cfg = tmp_path / "deep.json"
    cfg.write_text(json.dumps({"kind": "threshold", "seed": 3, "jobs": 1, "params": {
        "field": [3, 1], "d": 7, "graph_text": "1200 1\n0 1\n", "sizes": ["q^d"], "trials": 1}}))
    assert main(["threshold", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    header, row = (tmp_path / "out" / "records.csv").read_text().splitlines()
    assert header == "q,d,graph,size,trial,seed,success,indeterminate,n_contained,n_indeterminate"
    # found at all three t, none indeterminate; the pattern's name holds a
    # comma, so its cell is quoted
    assert row.startswith('3,7,"custom(1200,1)",2187,0,') and row.endswith(",true,false,3,0")


def _extremal_cache_run(tmp_path, cache_text):
    cache = tmp_path / "cache.json"
    cache.write_text(cache_text)
    cfg = tmp_path / "ex.json"
    cfg.write_text(json.dumps({"kind": "extremal-table", "params": {"n_values": [4], "graphs": ["C4"]}}))
    return main(["extremal-table", "--config", str(cfg), "--cache", str(cache)])


def test_extremal_table_rechecks_cache_hits(tmp_path, capsys):
    from distgraphs.graphs import cycle_graph, graph_to_text

    key = f"4|{graph_to_text(cycle_graph(4))}"
    # ex(4, C4) is 3; K4 has 6 edges and contains C4.
    poisoned = {key: {"value": 6, "witness_edges": "0-1;0-2;0-3;1-2;1-3;2-3", "method": "exhaustive"}}
    assert _extremal_cache_run(tmp_path, json.dumps(poisoned)) == 1
    assert "4,C4,6,0-1;0-2;0-3;1-2;1-3;2-3,exhaustive,true,false\n" in capsys.readouterr().out
    honest = {key: {"value": 3, "witness_edges": "0-1;0-2;0-3", "method": "exhaustive"}}
    assert _extremal_cache_run(tmp_path, json.dumps(honest)) == 0
    assert ",true,true\n" in capsys.readouterr().out


@pytest.mark.parametrize(
    "cache_text",
    [
        "{",
        "[]",
        '{"4|x": 3}',
        '{"4|x": {"value": "3", "witness_edges": "", "method": "exhaustive"}}',
        '{"4|x": {"value": 3, "witness_edges": "", "method": "exhaustive", "extra": 1}}',
        '{"4|4 4\\n0 1\\n0 3\\n1 2\\n2 3\\n": '
        '{"value": 1, "witness_edges": "0-9", "method": "exhaustive"}}',
    ],
    ids=["not-json", "list", "bare-value", "string-value", "extra-key", "witness-out-of-range"],
)
def test_extremal_table_malformed_cache(tmp_path, capsys, cache_text):
    assert _extremal_cache_run(tmp_path, cache_text) == 2
    assert capsys.readouterr().err.startswith("config error:")


def test_extremal_table_unwritable_cache_exits_2(tmp_path, capsys):
    cfg = tmp_path / "ex.json"
    cfg.write_text(json.dumps({"kind": "extremal-table", "params": {"n_values": [4], "graphs": ["C4"]}}))
    cache = tmp_path / "missing" / "cache.json"
    assert main(["extremal-table", "--config", str(cfg), "--cache", str(cache)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1 and "Traceback" not in err
    assert str(cache) in err and not cache.parent.exists()


def test_extremal_table_unwritable_cache_fails_before_any_cell(tmp_path, capsys, monkeypatch):
    def no_oracle(*args, **kwargs):
        raise AssertionError("an oracle ran before the cache path was checked")

    monkeypatch.setattr(extremal, "ex_exhaustive", no_oracle)
    monkeypatch.setattr(extremal, "ex_branch_bound", no_oracle)
    cfg = tmp_path / "ex.json"
    cfg.write_text(json.dumps({"kind": "extremal-table", "jobs": 1, "params": {"n_values": [4, 5], "graphs": ["C4"]}}))
    cache = tmp_path / "missing" / "dir" / "cache.json"
    assert main(["extremal-table", "--config", str(cfg), "--cache", str(cache)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1 and str(cache) in err


IR_ONE = {"fields": [[3, 1]], "dims": [2], "sizes": ["q"], "trials": 1}
ADREG_ONE = {"d": 1, "contraction": 0.45, "depth": 7}
THRESHOLD_ONE = {"field": [3, 1], "d": 2, "graph": "C4", "sizes": [4], "trials": 1}


@pytest.mark.parametrize(
    "doc, flags",
    [
        # a top-level JSON list
        ([{"kind": "ir-sweep", "seed": 1, "params": IR_ONE}], ["ir-sweep"]),
        # a negative, non-integer or boolean seed
        ({"kind": "ir-sweep", "seed": -1, "params": IR_ONE}, ["ir-sweep"]),
        ({"kind": "ir-sweep", "seed": 1.5, "params": IR_ONE}, ["ir-sweep"]),
        ({"kind": "ir-sweep", "seed": "7", "params": IR_ONE}, ["ir-sweep"]),
        ({"kind": "threshold", "seed": True, "params": THRESHOLD_ONE}, ["threshold"]),
        ({"kind": "ir-sweep", "params": IR_ONE}, ["ir-sweep", "--seed", "-3"]),
        # an unknown graph name
        ({"kind": "threshold", "seed": 1, "params": {**THRESHOLD_ONE, "graph": "X9"}}, ["threshold"]),
        ({"kind": "threshold", "seed": 1, "params": {**THRESHOLD_ONE, "graph": "C2"}}, ["threshold"]),
        ({"kind": "extremal-table", "params": {"n_values": [3], "graphs": ["C4", "Z3"]}},
         ["extremal-table"]),
        ({"kind": "adreg-scan", "params": {"specs": [{"d": 1, "contraction": 0.45, "depth": 7}],
                                           "eps": [0.125, 0.0625, 0.03125], "graph": "nope"}},
         ["adreg-scan"]),
        (None, ["graph-distance-set", "--p", "3", "--d", "2", "--graph", "X9"]),
        # a non-odd-prime characteristic or a bad degree
        ({"kind": "ir-sweep", "seed": 1, "params": {**IR_ONE, "fields": [[4, 1]]}}, ["ir-sweep"]),
        ({"kind": "ir-sweep", "seed": 1, "params": {**IR_ONE, "fields": [[2, 1]]}}, ["ir-sweep"]),
        ({"kind": "ir-sweep", "seed": 1, "params": {**IR_ONE, "fields": [[3, 0]]}}, ["ir-sweep"]),
        ({"kind": "ir-sweep", "seed": 1, "params": {**IR_ONE, "fields": [[3]]}}, ["ir-sweep"]),
        ({"kind": "threshold", "seed": 1, "params": {**THRESHOLD_ONE, "field": [9, 1]}}, ["threshold"]),
        ({"kind": "threshold", "seed": 1, "params": {**THRESHOLD_ONE, "field": [3, 1.5]}}, ["threshold"]),
        # a field over the DISTGRAPHS_MAX_Q cap
        ({"kind": "ir-sweep", "seed": 1, "params": {**IR_ONE, "fields": [[7, 3]]}}, ["ir-sweep"]),
        # a non-integer count or dimension
        ({"kind": "ir-sweep", "seed": 1, "params": {**IR_ONE, "dims": ["x"]}}, ["ir-sweep"]),
        ({"kind": "ir-sweep", "seed": 1, "params": {**IR_ONE, "trials": "x"}}, ["ir-sweep"]),
        ({"kind": "threshold", "seed": 1, "params": {**THRESHOLD_ONE, "d": "x"}}, ["threshold"]),
        ({"kind": "threshold", "seed": 1, "params": {**THRESHOLD_ONE, "trials": 1.5}}, ["threshold"]),
        ({"kind": "threshold", "seed": 1, "params": {**THRESHOLD_ONE, "max_inversions": "x"}},
         ["threshold"]),
        ({"kind": "extremal-table", "params": {"n_values": ["x"], "graphs": ["C4"]}}, ["extremal-table"]),
        ({"kind": "extremal-table", "params": {"n_values": [3], "graphs": ["C4"], "exhaustive_max": "x"}},
         ["extremal-table"]),
        # an adreg-scan spec without d, contraction or depth
        ({"kind": "adreg-scan", "params": {"specs": [{"contraction": 0.45, "depth": 7}]}}, ["adreg-scan"]),
        ({"kind": "adreg-scan", "params": {"specs": [{"d": 1, "depth": 7}]}}, ["adreg-scan"]),
        ({"kind": "adreg-scan", "params": {"specs": [{"d": 1, "contraction": 0.45}]}}, ["adreg-scan"]),
        # a scale, radius or band that is not a usable number
        ({"kind": "adreg-scan", "params": {"specs": [{**ADREG_ONE, "eps": [float("nan"), 0.1, 0.05]}]}},
         ["adreg-scan"]),
        ({"kind": "adreg-scan", "params": {"specs": [{**ADREG_ONE, "eps": [1e308, 0.1, 0.05]}]}},
         ["adreg-scan"]),
        ({"kind": "adreg-scan", "params": {"specs": [{**ADREG_ONE, "eps": [1e200, 1e100, 0.25]}]}},
         ["adreg-scan"]),
        ({"kind": "adreg-scan", "params": {"specs": [ADREG_ONE], "t_grid": [1e200]}}, ["adreg-scan"]),
        ({"kind": "adreg-scan", "params": {"specs": [{**ADREG_ONE, "eps": ["x", 0.1, 0.05]}]}},
         ["adreg-scan"]),
        ({"kind": "adreg-scan", "params": {"specs": [ADREG_ONE], "t_grid": ["x"]}}, ["adreg-scan"]),
        ({"kind": "adreg-scan", "params": {"specs": [ADREG_ONE], "approx_eps": [0.0]}}, ["adreg-scan"]),
        ({"kind": "adreg-scan", "params": {"specs": [ADREG_ONE], "band": ["lo", 8]}}, ["adreg-scan"]),
        ({"kind": "adreg-scan", "params": {"specs": [ADREG_ONE], "band": [8, 0.125]}}, ["adreg-scan"]),
        ({"kind": "adreg-scan", "params": {"specs": [ADREG_ONE], "band": [-5, -1]}}, ["adreg-scan"]),
        # fewer than 3 distinct scales, or a repeated one
        ({"kind": "adreg-scan", "params": {"specs": [{**ADREG_ONE, "eps": [0.125, 0.125, 0.0625]}]}},
         ["adreg-scan"]),
        ({"kind": "adreg-scan", "params": {"specs": [ADREG_ONE], "eps": [0.125, 0.0625, 0.125, 0.03125]}},
         ["adreg-scan"]),
        # a repeated approximation scale, table size or pattern
        ({"kind": "adreg-scan", "params": {"specs": [ADREG_ONE], "approx_eps": [0.125, 0.125]}}, ["adreg-scan"]),
        ({"kind": "adreg-scan", "params": {"specs": [{**ADREG_ONE, "approx_eps": [0.125, 0.125]}]}},
         ["adreg-scan"]),
        ({"kind": "extremal-table", "params": {"n_values": [4, 4], "graphs": ["C4", "C4"]}}, ["extremal-table"]),
        ({"kind": "extremal-table", "params": {"n_values": [4, 5, 4], "graphs": ["C4"]}}, ["extremal-table"]),
        ({"kind": "extremal-table", "params": {"n_values": [4], "graphs": ["C4", "K3", "C4"]}}, ["extremal-table"]),
        ({"kind": "threshold", "seed": 1, "params": {**THRESHOLD_ONE, "noise_tolerance": "x"}},
         ["threshold"]),
        # a dimension below 2, a size spec that is not finite or overflows
        ({"kind": "ir-sweep", "seed": 1, "params": {**IR_ONE, "dims": [1]}}, ["ir-sweep"]),
        ({"kind": "ir-sweep", "seed": 1, "params": {**IR_ONE, "sizes": [{"coef": "x", "exp": 1}]}}, ["ir-sweep"]),
        ({"kind": "ir-sweep", "seed": 1, "params": {**IR_ONE, "sizes": [{"coef": 1, "exp": 1e9}]}}, ["ir-sweep"]),
        ({"kind": "ir-sweep", "seed": 1, "params": {**IR_ONE, "sizes": [{"coef": float("nan"), "exp": 1}]}},
         ["ir-sweep"]),
        # a scalar where a list belongs
        ({"kind": "ir-sweep", "seed": 1, "params": {**IR_ONE, "sizes": 5}}, ["ir-sweep"]),
        ({"kind": "ir-sweep", "seed": 1, "params": {**IR_ONE, "fields": 5}}, ["ir-sweep"]),
        ({"kind": "extremal-table", "params": {"n_values": [3], "graphs": 5}}, ["extremal-table"]),
        ({"kind": "adreg-scan", "params": {"specs": 5}}, ["adreg-scan"]),
        # a bad budget, count, vertex count, pattern, cache path or out path
        ({"kind": "threshold", "seed": 1, "params": {**THRESHOLD_ONE, "budget": "x"}}, ["threshold"]),
        ({"kind": "threshold", "seed": 1, "params": {**THRESHOLD_ONE, "trials": -2}}, ["threshold"]),
        ({"kind": "extremal-table", "params": {"n_values": [-1], "graphs": ["C4"]}}, ["extremal-table"]),
        ({"kind": "extremal-table", "params": {"n_values": [3], "graphs": ["K1"]}}, ["extremal-table"]),
        ({"kind": "extremal-table", "params": {"n_values": [3], "graphs": ["C4"], "cache": 5}},
         ["extremal-table"]),
        ({"kind": "ir-sweep", "seed": 1, "out": 5, "params": IR_ONE}, ["ir-sweep"]),
        ({"kind": "adreg-scan", "params": {"specs": [ADREG_ONE], "budget": "x"}}, ["adreg-scan"]),
        (None, ["graph-distance-set", "--p", "3", "--d", "2", "--graph", "C4", "--budget", "-1"]),
        # an unknown key in params, at the top level or in an adreg-scan spec
        ({"kind": "ir-sweep", "seed": 1, "params": {**IR_ONE, "trails": 5}}, ["ir-sweep"]),
        ({"kind": "ir-sweep", "seed": 1, "job": 5, "params": IR_ONE}, ["ir-sweep"]),
        ({"kind": "adreg-scan", "params": {"specs": [{**ADREG_ONE, "epsilon": [0.1]}]}}, ["adreg-scan"]),
        # a field, cloud or catalog graph over its cap, however far over
        ({"kind": "ir-sweep", "seed": 1, "params": {**IR_ONE, "fields": [[3, 100000]]}}, ["ir-sweep"]),
        ({"kind": "ir-sweep", "seed": 1, "params": {**IR_ONE, "fields": [[3, 300000000]]}}, ["ir-sweep"]),
        ({"kind": "ir-sweep", "seed": 1, "params": {**IR_ONE, "fields": [[100000000003, 1]]}}, ["ir-sweep"]),
        (None, ["graph-distance-set", "--p", "100000000003", "--d", "2", "--graph", "C4"]),
        ({"kind": "adreg-scan", "params": {"specs": [{**ADREG_ONE, "depth": 20}]}}, ["adreg-scan"]),
        ({"kind": "adreg-scan", "params": {"specs": [{**ADREG_ONE, "depth": 1000000000}]}}, ["adreg-scan"]),
        ({"kind": "threshold", "seed": 1, "params": {**THRESHOLD_ONE, "graph": "K1000"}}, ["threshold"]),
        ({"kind": "extremal-table", "params": {"n_values": [3], "graphs": ["Q30"]}}, ["extremal-table"]),
        (None, ["graph-distance-set", "--p", "3", "--d", "2", "--graph", "K1000"]),
        ({"kind": "threshold", "seed": 1, "params": {
            "field": [3, 1], "d": 2, "graph_text": "10000000 0", "sizes": [4], "trials": 1}},
         ["threshold"]),
        ({"kind": "adreg-scan", "params": {"specs": [ADREG_ONE], "graph_text": "10000000 0\n"}}, ["adreg-scan"]),
        # a sample space of q^d >= 2^63 points, past the int64 point indices
        ({"kind": "ir-sweep", "seed": 1, "params": {"fields": [[3, 1]], "dims": [41], "sizes": [5]}}, ["ir-sweep"]),
        ({"kind": "threshold", "seed": 1, "params": {**THRESHOLD_ONE, "d": 41}}, ["threshold"]),
        # the same with no sizes, for a d whose q^d would take seconds to form
        ({"kind": "threshold", "seed": 1, "params": {"field": [3, 1], "d": 10000000, "graph": "C4", "sizes": []}},
         ["threshold"]),
        ({"kind": "ir-sweep", "seed": 1, "params": {"fields": [[3, 1]], "dims": [3000000], "sizes": []}},
         ["ir-sweep"]),
        # flags the command would ignore
        ({"kind": "adreg-scan", "params": {"specs": [ADREG_ONE]}},
         ["adreg-scan", "--dim", "2", "--lambda", "0.3", "--depth", "9"]),
        ({"kind": "adreg-scan", "params": {"specs": [ADREG_ONE]}}, ["adreg-scan", "--depth", "9"]),
        (None, ["graph-distance-set", "--p", "3", "--d", "2", "--graph", "C4", "--seed", "5"]),
        (None, ["graph-distance-set", "--p", "3", "--d", "2", "--graph-file", "{graph_file}", "--graph", "C4"]),
    ],
    ids=[
        "list", "seed-negative", "seed-float", "seed-string", "seed-bool", "seed-flag-negative",
        "graph-unknown", "graph-too-small", "graphs-unknown", "adreg-graph-unknown",
        "graph-flag-unknown", "field-4", "field-2", "degree-0", "field-short", "field-9",
        "degree-float", "field-over-cap", "dims-string", "trials-string", "d-string", "trials-float",
        "max-inversions-string", "n-values-string", "exhaustive-max-string", "adreg-no-d",
        "adreg-no-contraction", "adreg-no-depth", "eps-nan", "eps-overflow", "eps-squared-overflow",
        "t-grid-squared-overflow", "eps-string",
        "t-grid-string", "approx-eps-zero", "band-string", "band-reversed", "band-negative",
        "eps-two-distinct", "eps-repeated", "approx-eps-repeated", "spec-approx-eps-repeated",
        "table-repeated", "n-values-repeated", "graphs-repeated", "noise-tolerance-string",
        "dims-1", "size-coef-string", "size-exp-overflow", "size-coef-nan", "sizes-scalar",
        "fields-scalar", "graphs-scalar", "specs-scalar", "budget-string", "trials-negative",
        "n-values-negative", "graphs-edgeless", "cache-int", "out-int", "adreg-budget-string",
        "budget-flag-negative", "param-unknown", "top-level-unknown", "spec-unknown",
        "field-degree-1e5", "field-degree-3e8", "field-prime-1e11", "field-flag-prime-1e11",
        "cloud-depth-20", "cloud-depth-1e9", "graph-k1000", "graphs-q30", "graph-flag-k1000",
        "graph-text-1e7-vertices", "adreg-graph-text-1e7-vertices", "ir-space-3^41", "threshold-space-3^41",
        "threshold-space-3^1e7-no-sizes", "ir-space-3^3e6-no-sizes",
        "adreg-config-and-spec-flags", "adreg-config-and-depth-flag", "seed-flag-without-size",
        "graph-file-and-graph-flag",
    ],
)
def test_cli_bad_config_exits_2(tmp_path, capsys, doc, flags):
    graph_file = tmp_path / "g.txt"
    graph_file.write_text("4 4\n0 1\n0 3\n1 2\n2 3\n")  # a valid C4, so only the flag pair is wrong
    argv = [flag.replace("{graph_file}", str(graph_file)) for flag in flags]
    if doc is not None:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        argv[1:1] = ["--config", str(path)]
    t0 = time.perf_counter()
    assert main(argv) == 2
    assert time.perf_counter() - t0 < 1.0
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize(
    "var, value, doc, flags",
    [
        ("DISTGRAPHS_MAX_Q", "lots", {"kind": "ir-sweep", "seed": 1, "params": IR_ONE}, ["ir-sweep"]),
        ("DISTGRAPHS_MAX_POINTS", "5e3", None, ["graph-distance-set", "--p", "3", "--d", "2", "--graph", "C4"]),
        ("DISTGRAPHS_MAX_CLOUD", "lots", None,
         ["adreg-scan", "--dim", "1", "--lambda", "0.45", "--depth", "7"]),
        ("DISTGRAPHS_MAX_EXHAUSTIVE_N", "-1",
         {"kind": "extremal-table", "params": {"n_values": [3], "graphs": ["K3"]}}, ["extremal-table"]),
        ("DISTGRAPHS_MAX_BRANCH_N", "1.5",
         {"kind": "extremal-table", "params": {"n_values": [3], "graphs": ["K3"], "exhaustive_max": 2}},
         ["extremal-table"]),
        # past the interpreter's 4,300-digit limit on reading an int
        ("DISTGRAPHS_MAX_Q", "9" * 5000, {"kind": "ir-sweep", "seed": 1, "params": IR_ONE}, ["ir-sweep"]),
        ("DISTGRAPHS_MAX_POINTS", "9" * 5000, None, ["graph-distance-set", "--p", "3", "--d", "2", "--graph", "C4"]),
        ("DISTGRAPHS_MAX_CLOUD", "9" * 5000, None,
         ["adreg-scan", "--dim", "1", "--lambda", "0.45", "--depth", "7"]),
        ("DISTGRAPHS_MAX_EXHAUSTIVE_N", "9" * 5000,
         {"kind": "extremal-table", "params": {"n_values": [3], "graphs": ["K3"]}}, ["extremal-table"]),
        ("DISTGRAPHS_MAX_BRANCH_N", "9" * 5000,
         {"kind": "extremal-table", "params": {"n_values": [3], "graphs": ["K3"], "exhaustive_max": 2}},
         ["extremal-table"]),
    ],
    ids=["max-q", "max-points", "max-cloud", "max-exhaustive-n", "max-branch-n", "max-q-5000-digits",
         "max-points-5000-digits", "max-cloud-5000-digits", "max-exhaustive-n-5000-digits",
         "max-branch-n-5000-digits"],
)
def test_cli_bad_env_cap_exits_2(tmp_path, capsys, monkeypatch, var, value, doc, flags):
    monkeypatch.setenv(var, value)
    argv = list(flags)
    if doc is not None:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        argv[1:1] = ["--config", str(path)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and var in err and err.count("\n") == 1 and "Traceback" not in err


def _refuse(*args, **kwargs):
    raise AssertionError("a point set was built")


@pytest.mark.parametrize(
    "doc, flags, cap",
    [
        # 3^31 points, about 4.4 PiB of codes
        ({"kind": "ir-sweep", "seed": 1, "params": {"fields": [[3, 1]], "dims": [31], "sizes": ["q^d"]}},
         ["ir-sweep"], None),
        ({"kind": "threshold", "seed": 1, "params": {**THRESHOLD_ONE, "d": 31, "sizes": [10**11]}},
         ["threshold"], None),
        (None, ["graph-distance-set", "--p", "3", "--d", "1000000", "--graph", "C4"], None),
        (None, ["graph-distance-set", "--p", "3", "--d", "31", "--size", "100000000000", "--seed", "1", "--graph",
                "C4"], None),
        ({"kind": "ir-sweep", "seed": 1, "params": {**IR_ONE, "dims": [3], "sizes": [26, 27]}}, ["ir-sweep"], "26"),
        ({"kind": "threshold", "seed": 1, "params": {**THRESHOLD_ONE, "sizes": [4, "q^d"]}}, ["threshold"], "8"),
    ],
    ids=["ir-whole-3^31", "threshold-size-1e11", "all-points-3^1e6", "size-flag-1e11", "ir-size-past-lowered-cap",
         "threshold-size-past-lowered-cap"],
)
def test_sets_past_memory_exit_2_before_any_draw(tmp_path, capsys, monkeypatch, doc, flags, cap):
    monkeypatch.setattr(distgraphs._pcg64, "partial_fisher_yates", _refuse)
    monkeypatch.setattr(ffgeom, "_unflatten", _refuse)
    if cap is not None:
        monkeypatch.setenv("DISTGRAPHS_MAX_POINTS", cap)
    argv = list(flags)
    if doc is not None:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        argv[1:1] = ["--config", str(path)]
    t0 = time.perf_counter()
    assert main(argv) == 2
    assert time.perf_counter() - t0 < 1.0
    captured = capsys.readouterr()
    assert captured.err.startswith("config error:") and captured.err.count("\n") == 1
    assert "Traceback" not in captured.err and captured.out == ""


@pytest.mark.parametrize(
    "points, graph",
    [
        ("3 1 2 2\n0 1\n5 9\n0 1\n1 2\n", "2 1\n0 1\n"),  # out-of-range digits, extra line
        ("3 1 2 2\n0 1\n0 1\n", "2 1\n0 1\n"),  # a missing point line
        ("3 1 2 1\n0 1\n0 1\n", "2 1\n1 0\n"),  # a graph edge with u > v
        (None, "2 1\n0 1\n"),  # no such points file
        ("1000003 1 2 1\n0 1\n0 0\n", "2 1\n0 1\n"),  # a field over the cap
        ("1000003 1 2 4\n0 1\n0 0\n0 1\n1 0\n1 1\n", "2 1\n0 1\n"),
        ("3 1 2 1\n0 1\n0 1\n", "10000000 0\n"),  # a graph over the vertex cap
        ("3 1 2 1\n0 1\n0 1\n", f"1{'0' * 100} 0\n"),
    ],
    ids=["digits-and-extra-line", "missing-line", "graph-edge-order", "no-points-file",
         "field-over-cap-1-point", "field-over-cap-4-points", "graph-1e7-vertices", "graph-1e100-vertices"],
)
def test_cli_bad_input_files_exit_2(tmp_path, capsys, points, graph):
    pts, gf = tmp_path / "pts.txt", tmp_path / "g.txt"
    if points is not None:
        pts.write_text(points)
    gf.write_text(graph)
    assert main(["graph-distance-set", "--points-file", str(pts), "--graph-file", str(gf)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("config error:") and captured.err.count("\n") == 1
    assert captured.out == ""


@pytest.mark.parametrize(
    "flags",
    [["--p", "7", "--d", "3"], ["--k", "1"], ["--size", "4", "--seed", "1"], ["--seed", "1"]],
    ids=["p-and-d", "k", "size-and-seed", "seed"],
)
def test_cli_flags_beside_a_points_file_exit_2(tmp_path, capsys, flags):
    from distgraphs.field import make_field
    from distgraphs.ffgeom import all_points, write_points_file

    pts = tmp_path / "pts.txt"
    write_points_file(all_points(make_field(3, 1), 2), pts)
    assert main(["graph-distance-set", "--points-file", str(pts), "--graph", "C4", *flags]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("config error:") and captured.err.count("\n") == 1
    assert all(flag in captured.err for flag in flags if flag.startswith("--")) and captured.out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["ir-sweep", "--seed", "1", "--out", "{file}"],
        ["graph-distance-set", "--p", "3", "--d", "2", "--graph", "C4", "--out", "{file}"],
    ],
    ids=["sweep-out", "graph-distance-set-out"],
)
def test_cli_out_naming_a_file_exits_2(tmp_path, capsys, argv):
    taken = tmp_path / "taken"
    taken.write_text("not a directory\n")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"kind": "ir-sweep", "params": IR_ONE}))
    argv = [a.format(file=taken) for a in argv]
    if argv[0] == "ir-sweep":
        argv[1:1] = ["--config", str(cfg)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1 and str(taken) in err
    assert taken.read_text() == "not a directory\n"


def test_run_without_a_pool_does_not_load_multiprocessing():
    # The process pool is imported only when a run starts one, so neither
    # `import distgraphs` nor a `jobs = 1` run pays for multiprocessing.
    root = str(Path(distgraphs.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [root, os.environ.get("PYTHONPATH")]))}
    code = (
        "import sys\n"
        "pool = ('multiprocessing', 'concurrent.futures.process')\n"
        "import distgraphs\n"
        "assert not any(m in sys.modules for m in pool)\n"
        "from distgraphs.experiments import ExperimentConfig, run\n"
        f"run(ExperimentConfig(kind='ir-sweep', seed=1, params={IR_PARAMS!r}, jobs=1)).records_csv()\n"
        "sys.exit(any(m in sys.modules for m in pool))"
    )
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def test_worker_pool_is_bounded(monkeypatch):
    """The pool never has more workers than cores or instances, whatever
    `jobs` asks for; a fake executor maps the work in this process."""
    sizes = []

    class FakePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
    expected = run(ExperimentConfig(kind="ir-sweep", seed=9, params=IR_PARAMS, jobs=1)).records_csv()
    for cpus, workers in [(3, 3), (64, 8)]:  # IR_PARAMS has 8 instances
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        report = run(ExperimentConfig(kind="ir-sweep", seed=9, params=IR_PARAMS, jobs=100000))
        assert sizes[-1] == workers and report.records_csv() == expected
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    run(ExperimentConfig(kind="ir-sweep", seed=9, params=IR_PARAMS, jobs=100000))
    assert sizes == [3, 8]


# -- config fuzzing -----------------------------------------------------------
#
# One change to a tiny valid config per example.  Every integer in the pool
# is at most 4 and `jobs` stays 1, so a change that still validates runs in
# milliseconds.

FUZZ_BASE = {
    "ir-sweep": {"kind": "ir-sweep", "seed": 1, "jobs": 1, "params": {
        "fields": [[3, 1]], "dims": [2], "sizes": [3, 9], "trials": 1}},
    "threshold": {"kind": "threshold", "seed": 1, "jobs": 1, "params": {
        "field": [3, 1], "d": 2, "graph": "C4", "sizes": [4, 9], "trials": 1}},
    "extremal-table": {"kind": "extremal-table", "jobs": 1, "params": {"n_values": [4], "graphs": ["C4"]}},
    "adreg-scan": {"kind": "adreg-scan", "jobs": 1, "params": {
        "specs": [{"d": 1, "contraction": 0.45, "depth": 7}],
        "eps": [2.0**-3, 2.0**-4, 2.0**-5], "t_grid": [0.6], "graph": "K2"}},
}
FUZZ_POOL = [None, True, "x", [], {}, -1, 0, 1.5, math.nan, math.inf, 1e308, [[3]], [-1], [4]]
SPEC_KEYS = ["d", "contraction", "depth", "eps", "t_grid", "approx_eps"]


@st.composite
def _fuzzed_config(draw):
    kind = draw(st.sampled_from(sorted(FUZZ_BASE)))
    doc = copy.deepcopy(FUZZ_BASE[kind])
    targets = {"params": (doc["params"], sorted(SWEEPS[kind].params)), "top": (doc, ["kind", "seed", "params", "out"])}
    if kind == "adreg-scan":
        targets["spec"] = (doc["params"]["specs"][0], SPEC_KEYS)
    target, keys = targets[draw(st.sampled_from(sorted(targets)))]
    target[draw(st.sampled_from(keys + ["unknown_key"]))] = draw(st.sampled_from(FUZZ_POOL))
    return kind, doc


@settings(max_examples=500, deadline=None)
@given(_fuzzed_config())
def test_fuzzed_config_exits_cleanly(case):
    kind, doc = case
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)  # a fuzzed `out` or `cache` path lands here
        try:
            with open("cfg.json", "w") as fh:
                json.dump(doc, fh)
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main([kind, "--config", "cfg.json"])
        finally:
            os.chdir(cwd)
    _assert_clean_exit(code, err.getvalue())


def _assert_clean_exit(code: int, err: str) -> None:
    assert code in (0, 1, 2)
    if code == 2:
        lines = err.splitlines(keepends=True)
        assert len(lines) == 1 and lines[0].startswith("config error:") and lines[0].endswith("\n")


# -- input-file fuzzing -------------------------------------------------------
#
# Up to three line or token edits to each of a tiny valid points file and
# graph file.  Pool integers reach 10^7 and 10^40, so a header that sizes an
# allocation from its own numbers shows up here.

FILE_BASE = {
    "points": "3 2 2 3\n1 0 1\n0 0 0 0\n1 2 0 1\n2 2 1 0\n",  # three points of F_9^2
    "graph": "3 2\n0 1\n1 2\n",  # P3
}
FILE_POOL = ["0", "1", "2", "3", "9", "-1", "x", "1.5", "", "0 0", "10000000", "9" * 40, "\x00"]


@st.composite
def _fuzzed_file(draw, text):
    lines = text.splitlines()
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(lines) - 1)) if lines else 0
        op = draw(st.sampled_from(["token", "drop", "duplicate", "blank"]))
        if op == "token" and lines:
            tokens = lines[i].split()
            j = draw(st.integers(0, len(tokens)))  # j == len(tokens) appends one
            tokens[j:j + 1] = [draw(st.sampled_from(FILE_POOL))]
            lines[i] = " ".join(tokens)
        elif op == "drop" and lines:
            del lines[i]
        elif op == "duplicate" and lines:
            lines.insert(i, lines[i])
        else:
            lines.insert(i, "")
    return ("\n".join(lines) + "\n").encode() + draw(st.sampled_from([b""] * 7 + [b"\xff"]))


@settings(max_examples=300, deadline=None)
@given(_fuzzed_file(FILE_BASE["points"]), _fuzzed_file(FILE_BASE["graph"]))
def test_fuzzed_input_files_exit_cleanly(points, graph):
    with tempfile.TemporaryDirectory() as tmp:
        pts, gf = os.path.join(tmp, "pts.txt"), os.path.join(tmp, "g.txt")
        with open(pts, "wb") as fh:
            fh.write(points)
        with open(gf, "wb") as fh:
            fh.write(graph)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["graph-distance-set", "--points-file", pts, "--graph-file", gf])
    _assert_clean_exit(code, err.getvalue())
