import json

import pytest

from distgraphs.cli import main
from distgraphs.errors import ConfigError
from distgraphs.experiments import (
    ExperimentConfig,
    instance_seed,
    resolve_size,
    run,
    run_extremal_table,
    run_ir_sweep,
)


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


def test_instance_seed_stability():
    assert instance_seed(5, 0) == instance_seed(5, 0)
    assert instance_seed(5, 0) != instance_seed(5, 1)
    assert instance_seed(5, 0) != instance_seed(6, 0)


IR_PARAMS = {"fields": [[3, 1], [3, 2]], "dims": [2], "sizes": ["q", "q^d/2"], "trials": 2}


def test_ir_sweep_records_and_verdict():
    cfg = ExperimentConfig(kind="ir-sweep", seed=1, params=IR_PARAMS)
    report = run(cfg)
    assert report.verdict is True
    assert len(report.records) == 2 * 2 * 2
    assert all(r["pass"] and r["sum_ok"] for r in report.records)
    header = report.records_csv().splitlines()[0]
    assert header.startswith("p,k,q,d,")


def test_ir_sweep_empty_schedule_vacuous():
    cfg = ExperimentConfig(
        kind="ir-sweep", seed=1,
        params={"fields": [[3, 1]], "dims": [2], "sizes": [], "trials": 5},
    )
    report = run(cfg)
    assert report.verdict is True and report.records == []


def test_ir_sweep_deterministic_across_jobs():
    a = run_ir_sweep(ExperimentConfig(kind="ir-sweep", seed=9, params=IR_PARAMS))
    b = run_ir_sweep(ExperimentConfig(kind="ir-sweep", seed=9, params=IR_PARAMS, jobs=4))
    assert a.records_csv() == b.records_csv()
    c = run_ir_sweep(ExperimentConfig(kind="ir-sweep", seed=10, params=IR_PARAMS))
    assert a.records_csv() != c.records_csv()


def test_threshold_runner():
    cfg = ExperimentConfig(
        kind="threshold", seed=2,
        params={"field": [3, 1], "d": 2, "graph": "C4", "sizes": [4, 6, "q^d"], "trials": 4},
    )
    report = run(cfg)
    curve = report.summary["curve"]
    assert [c["size"] for c in curve] == [4, 6, 9]
    assert curve[-1]["rate"] == 1.0  # the full plane realizes C_4 everywhere
    assert report.summary["full_space_ok"]


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
    first = run_extremal_table(cfg)
    assert [r["ex"] for r in first.records] == [3, 4]
    assert cache.exists()
    again = run_extremal_table(cfg)
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
    assert "4,C4,6,0-1;0-2;0-3;1-2;1-3;2-3,exhaustive,true,false," in capsys.readouterr().out
    honest = {key: {"value": 3, "witness_edges": "0-1;0-2;0-3", "method": "exhaustive"}}
    assert _extremal_cache_run(tmp_path, json.dumps(honest)) == 0
    assert ",true,true," in capsys.readouterr().out


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


IR_ONE = {"fields": [[3, 1]], "dims": [2], "sizes": ["q"], "trials": 1}
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
    ],
    ids=[
        "list", "seed-negative", "seed-float", "seed-string", "seed-bool", "seed-flag-negative",
        "graph-unknown", "graph-too-small", "graphs-unknown", "adreg-graph-unknown",
        "graph-flag-unknown", "field-4", "field-2", "degree-0", "field-short", "field-9",
        "degree-float",
    ],
)
def test_cli_bad_config_exits_2(tmp_path, capsys, doc, flags):
    argv = list(flags)
    if doc is not None:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        argv[1:1] = ["--config", str(path)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1


@pytest.mark.parametrize(
    "points, graph",
    [
        ("3 1 2 2\n0 1\n5 9\n0 1\n1 2\n", "2 1\n0 1\n"),  # out-of-range digits, extra line
        ("3 1 2 2\n0 1\n0 1\n", "2 1\n0 1\n"),  # a missing point line
        ("3 1 2 1\n0 1\n0 1\n", "2 1\n1 0\n"),  # a graph edge with u > v
        (None, "2 1\n0 1\n"),  # no such points file
    ],
    ids=["digits-and-extra-line", "missing-line", "graph-edge-order", "no-points-file"],
)
def test_cli_bad_input_files_exit_2(tmp_path, capsys, points, graph):
    pts, gf = tmp_path / "pts.txt", tmp_path / "g.txt"
    if points is not None:
        pts.write_text(points)
    gf.write_text(graph)
    assert main(["graph-distance-set", "--points-file", str(pts), "--graph-file", str(gf)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1
