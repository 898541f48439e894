"""Seeded, reproducible experiment sweeps tying the other modules
together: random-subset bound sweeps, containment threshold curves,
extremal-number tables, and fractal scale scans.

A sweep is a list of independent instances keyed by enumeration order.
Per-instance seeds are derived from the master seed with numpy's
SeedSequence (spawn_key = instance index) feeding PCG64, and sampling
without replacement is a partial Fisher-Yates shuffle; reports record
this generator identifier.  Workers are pure functions of their
instance, and results are merged by instance key, so the records are
identical at any parallelism level.
"""

from __future__ import annotations

import json
import math
import os
import platform
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field as dc_field
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from . import adreg, extremal, ffgeom
from . import field as ff
from .errors import (
    BudgetExceeded,
    ConfigError,
    DegenerateFit,
    InvalidDegree,
    NotBipartite,
    NotOddPrime,
    TooLarge,
)
from .graphs import Graph, graph_from_name, graph_from_text, graph_to_text

RNG_ID = "pcg64+seedseq-spawn/partial-fisher-yates"

KINDS = ("ir-sweep", "threshold", "extremal-table", "adreg-scan")

NAMED_SIZES = ("q", "q^{(d+1)/2}", "q^d/2", "q^d")


def instance_seed(master_seed: int, index: int) -> int:
    """Deterministic per-instance 64-bit seed."""
    ss = np.random.SeedSequence(entropy=master_seed, spawn_key=(index,))
    return int(ss.generate_state(1, np.uint64)[0])


def resolve_size(size_spec, q: int, d: int) -> int:
    """Size schedule entry: an int, a named expression, or
    {"coef": c, "exp": s} meaning ceil(c * q^s)."""
    if isinstance(size_spec, bool):
        raise ConfigError(f"bad size spec {size_spec!r}")
    if isinstance(size_spec, int):
        n = size_spec
    elif isinstance(size_spec, str):
        if size_spec == "q":
            n = q
        elif size_spec == "q^{(d+1)/2}":
            n = math.ceil(q ** ((d + 1) / 2))
        elif size_spec == "q^d/2":
            n = q**d // 2
        elif size_spec == "q^d":
            n = q**d
        else:
            raise ConfigError(f"unknown named size {size_spec!r}; use one of {NAMED_SIZES}")
    elif isinstance(size_spec, dict) and set(size_spec) == {"coef", "exp"}:
        n = math.ceil(float(size_spec["coef"]) * q ** float(size_spec["exp"]))
    else:
        raise ConfigError(f"bad size spec {size_spec!r}")
    if not 0 <= n <= q**d:
        raise ConfigError(f"size {n} outside [0, q^d = {q**d}]")
    return n


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _int_param(params: dict, key: str, default: int) -> int:
    value = params.get(key, default)
    if not _is_int(value):
        raise ConfigError(f"`{key}` must be an integer, got {value!r}")
    return value


def _int_list(params: dict, key: str) -> list[int]:
    values = params.get(key, [])
    if not (isinstance(values, list) and all(map(_is_int, values))):
        raise ConfigError(f"`{key}` must be a list of integers, got {values!r}")
    return values


def _positive_floats(values, key: str) -> list[float]:
    """A config's list of scales or radii as floats; an entry that is not
    a finite positive number is a config error."""
    try:
        out = [float(v) for v in values]
    except (TypeError, ValueError):
        out = None
    if out is None or not all(math.isfinite(x) and x > 0.0 for x in out):
        raise ConfigError(f"`{key}` must be a list of finite positive numbers, got {values!r}")
    return out


def _field(entry) -> ff.FieldSpec:
    """A config's `[p, k]` as a field; a pair make_field rejects, or a
    field over the `DISTGRAPHS_MAX_Q` cap, is a config error."""
    if not (isinstance(entry, list) and len(entry) == 2 and all(map(_is_int, entry))):
        raise ConfigError(f"a field is `[p, k]` with integer p and k, got {entry!r}")
    try:
        return ff.make_field(*entry)
    except (NotOddPrime, InvalidDegree, TooLarge) as exc:
        raise ConfigError(str(exc)) from exc


def catalog_graph(name) -> Graph:
    """A catalog graph by name; an unknown or undersized name is a
    config error."""
    try:
        return graph_from_name(str(name))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _resolve_pattern(params: dict) -> tuple[str, Graph]:
    if "graph" in params:
        name = str(params["graph"])
        return name, catalog_graph(name)
    if "graph_text" in params:
        try:
            g = graph_from_text(str(params["graph_text"]))
        except ValueError as exc:
            raise ConfigError(f"bad `graph_text`: {exc}") from exc
        return f"custom({g.n},{g.edge_count})", g
    raise ConfigError("params need `graph` (catalog name) or `graph_text`")


@dataclass
class ExperimentConfig:
    kind: str
    params: dict
    seed: Optional[int] = None
    jobs: Optional[int] = None  # None = available cores
    out: Optional[str] = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigError(f"unknown kind {self.kind!r}; expected one of {KINDS}")
        if self.jobs is not None and not (_is_int(self.jobs) and self.jobs >= 1):
            raise ConfigError(f"jobs must be an integer >= 1, got {self.jobs!r}")
        if self.seed is not None and not (_is_int(self.seed) and self.seed >= 0):
            raise ConfigError(f"seed must be a nonnegative integer, got {self.seed!r}")
        randomized = self.kind in ("ir-sweep", "threshold")
        if randomized and self.seed is None:
            raise ConfigError(f"kind {self.kind!r} requires a seed")

    @classmethod
    def from_json(cls, path) -> "ExperimentConfig":
        with open(path) as fh:
            doc = json.load(fh)
        return cls.from_dict(doc)

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        if not isinstance(doc, dict):
            raise ConfigError(f"a config is a JSON object, got {type(doc).__name__}")
        if not isinstance(doc.get("params", {}), dict):
            raise ConfigError("config `params` must be a JSON object")
        if "kind" not in doc:
            raise ConfigError("config missing key 'kind'")
        return cls(
            kind=doc["kind"],
            params=dict(doc.get("params", {})),
            seed=doc.get("seed"),
            jobs=doc.get("jobs"),
            out=doc.get("out"),
        )

    def as_dict(self) -> dict:
        return {
            "kind": self.kind,
            "params": self.params,
            "seed": self.seed,
            "jobs": self.jobs,
            "out": self.out,
        }


@dataclass
class ExperimentReport:
    config: dict
    columns: list[str]
    records: list[dict]
    summary: dict
    verdict: Optional[bool]
    meta: dict = dc_field(default_factory=dict)

    def records_csv(self) -> str:
        """The deterministic record section: stable column order, repr
        floats, lowercase booleans, empty string for missing cells."""
        lines = [",".join(self.columns)]
        for rec in self.records:
            cells = []
            for col in self.columns:
                val = rec.get(col)
                if val is None:
                    cells.append("")
                elif isinstance(val, bool):
                    cells.append("true" if val else "false")
                elif isinstance(val, float):
                    cells.append(repr(val))
                else:
                    cells.append(str(val))
            lines.append(",".join(cells))
        return "\n".join(lines) + "\n"

    def write(self, out_dir) -> Path:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / "records.csv").write_text(self.records_csv())
        manifest = {
            "config": self.config,
            "summary": self.summary,
            "verdict": self.verdict,
            "meta": self.meta,
            "files": {"records": "records.csv"},
        }
        (out / "manifest.json").write_text(json.dumps(manifest, indent=2, default=str) + "\n")
        return out


def _meta() -> dict:
    return {
        "rng": RNG_ID,
        "numpy": np.__version__,
        "python": platform.python_version(),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }


def _run_instances(instances: list, worker: Callable, jobs: Optional[int]) -> list:
    if jobs is None:
        jobs = os.cpu_count() or 1
    if jobs <= 1 or len(instances) <= 1:
        return [worker(inst) for inst in instances]
    chunk = max(1, len(instances) // (jobs * 4))
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(worker, instances, chunksize=chunk))


# -- ir-sweep ---------------------------------------------------------------

IR_COLUMNS = [
    "p", "k", "q", "d", "size_spec", "size", "trial", "seed",
    "pass", "sum_ok", "worst_slack",
]


def _ir_worker(inst: dict) -> dict:
    spec = inst["spec"]
    E = ffgeom.random_subset(spec, inst["d"], inst["size"], seed=inst["seed"])
    hist = ffgeom.distance_histogram(E)
    report = ffgeom.ir_check(E, hist)
    return {
        "p": spec.p, "k": spec.k, "q": spec.q, "d": inst["d"],
        "size_spec": inst["size_spec"], "size": inst["size"],
        "trial": inst["trial"], "seed": inst["seed"],
        "pass": report.passed,
        "sum_ok": hist.total() == len(E) ** 2,
        "worst_slack": report.worst_slack(),
    }


def run_ir_sweep(config: ExperimentConfig) -> ExperimentReport:
    """Sample random subsets across a (field, dimension, size) grid and
    check the exact remainder bound on each distance histogram."""
    p = config.params
    fields = [_field(f) for f in p.get("fields", [])]
    dims = _int_list(p, "dims")
    sizes = p.get("sizes", [])
    trials = _int_param(p, "trials", 1)
    if not fields or not dims or trials < 0:
        raise ConfigError("ir-sweep needs `fields`, `dims`, and nonnegative `trials`")
    instances = []
    index = 0
    for spec in fields:
        for d in dims:
            for size_spec in sizes:
                size = resolve_size(size_spec, spec.q, d)
                for trial in range(trials):
                    instances.append({
                        "spec": spec, "d": d,
                        "size_spec": str(size_spec), "size": size, "trial": trial,
                        "seed": instance_seed(config.seed, index),
                    })
                    index += 1
    records = _run_instances(instances, _ir_worker, config.jobs)
    verdict = all(r["pass"] and r["sum_ok"] for r in records)
    summary = {
        "instances": len(records),
        "all_pass": verdict,
        "min_worst_slack": min((r["worst_slack"] for r in records), default=None),
    }
    return ExperimentReport(config.as_dict(), IR_COLUMNS, records, summary, verdict, _meta())


# -- threshold --------------------------------------------------------------

THRESHOLD_COLUMNS = [
    "q", "d", "graph", "size", "trial", "seed",
    "success", "indeterminate", "n_contained", "n_indeterminate",
]


def _threshold_worker(inst: dict) -> dict:
    spec = inst["spec"]
    E = ffgeom.random_subset(spec, inst["d"], inst["size"], seed=inst["seed"])
    ds = ffgeom.graph_distance_set(E, inst["pattern"], budget=inst["budget"])
    indet = len(ds.indeterminate) > 0
    return {
        "q": spec.q, "d": inst["d"], "graph": inst["graph"],
        "size": inst["size"], "trial": inst["trial"], "seed": inst["seed"],
        "success": None if indet else ds.covers_all_nonzero,
        "indeterminate": indet,
        "n_contained": len(ds.contained),
        "n_indeterminate": len(ds.indeterminate),
    }


def run_threshold(config: ExperimentConfig) -> ExperimentReport:
    """Empirical success curve for full nonzero-distance coverage by the
    pattern, over a size schedule.  Budget exhaustion marks an instance
    indeterminate; it is excluded from rates, never counted as failure.

    The report never asserts theorem constants: the verdict checks only
    that the curve is nondecreasing up to `max_inversions` dips of at
    most `noise_tolerance`, and that full-space size levels succeed.
    """
    p = config.params
    d = _int_param(p, "d", 0)
    if "field" not in p or d < 2:
        raise ConfigError("threshold needs `field` = [p, k] and `d` >= 2")
    spec = _field(p["field"])
    name, pattern = _resolve_pattern(p)
    sizes = sorted({resolve_size(s, spec.q, d) for s in p.get("sizes", [])})
    trials = _int_param(p, "trials", 0)
    budget = p.get("budget")
    try:
        noise = float(p.get("noise_tolerance", 0.1))
    except (TypeError, ValueError):
        noise = math.nan
    if not noise >= 0.0:
        raise ConfigError(f"`noise_tolerance` must be a number >= 0, got {p['noise_tolerance']!r}")
    max_inversions = _int_param(p, "max_inversions", 1)
    instances = []
    index = 0
    for size in sizes:
        for trial in range(trials):
            instances.append({
                "spec": spec, "d": d, "graph": name,
                "pattern": pattern, "size": size, "trial": trial,
                "budget": budget, "seed": instance_seed(config.seed, index),
            })
            index += 1
    records = _run_instances(instances, _threshold_worker, config.jobs)
    curve = []
    for size in sizes:
        rows = [r for r in records if r["size"] == size and not r["indeterminate"]]
        rate = sum(1 for r in rows if r["success"]) / len(rows) if rows else None
        curve.append({"size": size, "rate": rate, "decided": len(rows)})
    rates = [c["rate"] for c in curve if c["rate"] is not None]
    inversions = [
        (rates[i] - rates[i + 1]) for i in range(len(rates) - 1) if rates[i] > rates[i + 1]
    ]
    monotone_ok = len(inversions) <= max_inversions and all(v <= noise for v in inversions)
    full = spec.q**d
    anchor_ok = all(c["rate"] == 1.0 for c in curve if c["size"] == full and c["rate"] is not None)
    perfect = [c["size"] for c in curve if c["rate"] == 1.0]
    summary = {
        "curve": curve,
        "monotone_ok": monotone_ok,
        "full_space_ok": anchor_ok,
        "smallest_size_fully_successful": min(perfect) if perfect else None,
    }
    verdict = monotone_ok and anchor_ok if trials and sizes else True
    return ExperimentReport(
        config.as_dict(), THRESHOLD_COLUMNS, records, summary, verdict, _meta()
    )


# -- extremal-table ----------------------------------------------------------

EXTREMAL_COLUMNS = ["n", "graph", "ex", "witness_edges", "method", "cached", "verified", "elapsed_s"]


def _extremal_worker(inst: dict) -> dict:
    pattern = inst["pattern"]
    n = inst["n"]
    t0 = time.perf_counter()
    skipped = False
    try:
        if inst["method"] == "exhaustive":
            res = extremal.ex_exhaustive(n, pattern)
        else:
            res = extremal.ex_branch_bound(n, pattern)
    except TooLarge:
        skipped = True
        res = None
    elapsed = time.perf_counter() - t0
    if skipped:
        return {
            "n": n, "graph": inst["graph"], "ex": None, "witness_edges": "skipped",
            "method": inst["method"], "cached": False, "verified": None,
            "elapsed_s": elapsed,
        }
    return {
        "n": n, "graph": inst["graph"], "ex": res.value,
        "witness_edges": ";".join(f"{u}-{v}" for u, v in res.witness.edges()),
        "method": inst["method"], "cached": False,
        "verified": extremal.verify_extremal_witness(res),
        "elapsed_s": elapsed,
    }


def _cache_key(n: int, pattern: Graph) -> str:
    return f"{n}|{graph_to_text(pattern)}"


CACHE_ENTRY_KEYS = {"value", "witness_edges", "method"}


def _load_cache(path) -> dict:
    """The JSON cache of ex(n, G) cells.  Anything but a JSON object of
    well-formed entries is a config error."""
    try:
        cache = json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:
        raise ConfigError(f"unreadable cache {path}: {exc}") from exc
    if not isinstance(cache, dict) or not all(
        isinstance(e, dict)
        and set(e) == CACHE_ENTRY_KEYS
        and _is_int(e["value"])
        and isinstance(e["witness_edges"], str)
        and isinstance(e["method"], str)
        for e in cache.values()
    ):
        raise ConfigError(f"cache {path} is not a JSON object of {sorted(CACHE_ENTRY_KEYS)} entries")
    return cache


def _cached_record(n: int, name: str, pattern: Graph, hit: dict) -> dict:
    """A cache hit as a record, its witness checked again as if fresh."""
    try:
        edges = [tuple(map(int, e.split("-"))) for e in hit["witness_edges"].split(";") if e]
        witness = Graph(n, edges)
    except ValueError as exc:
        raise ConfigError(f"bad cached witness for ex({n}, {name}): {exc}") from exc
    result = extremal.ExtremalResult(n, pattern, hit["value"], witness)
    return {
        "n": n, "graph": name, "ex": hit["value"],
        "witness_edges": hit["witness_edges"], "method": hit["method"],
        "cached": True, "verified": extremal.verify_extremal_witness(result),
        "elapsed_s": 0.0,
    }


def run_extremal_table(config: ExperimentConfig) -> ExperimentReport:
    """Exact ex(n, G) over a grid, with reference exponent columns in the
    summary and a JSON cache keyed by (n, canonical graph text)."""
    p = config.params
    n_values = _int_list(p, "n_values")
    graph_names = [str(g) for g in p.get("graphs", [])]
    if not n_values or not graph_names:
        raise ConfigError("extremal-table needs `n_values` and `graphs`")
    exhaustive_max = _int_param(p, "exhaustive_max", 7)
    cache_path = p.get("cache")
    cache = {}
    if cache_path and Path(cache_path).exists():
        cache = _load_cache(cache_path)
    patterns = {name: catalog_graph(name) for name in graph_names}
    instances = []
    cached_records = []
    for name in graph_names:
        pattern = patterns[name]
        for n in n_values:
            key = _cache_key(n, pattern)
            if key in cache:
                cached_records.append(_cached_record(n, name, pattern, cache[key]))
            else:
                method = "exhaustive" if n <= exhaustive_max else "branch-bound"
                instances.append({"n": n, "graph": name, "pattern": pattern, "method": method})
    fresh = _run_instances(instances, _extremal_worker, config.jobs)
    for rec in fresh:
        if rec["ex"] is not None:
            cache[_cache_key(rec["n"], patterns[rec["graph"]])] = {
                "value": rec["ex"],
                "witness_edges": rec["witness_edges"],
                "method": rec["method"],
            }
    if cache_path:
        Path(cache_path).write_text(json.dumps(cache, indent=1) + "\n")
    records = sorted(
        cached_records + fresh, key=lambda r: (r["graph"], r["n"])
    )
    references = {}
    for name in graph_names:
        try:
            info = extremal.best_known_exponent(patterns[name])
            references[name] = {
                "alpha": str(info.alpha),
                "source": info.source,
                "n^(2-alpha)": {
                    str(n): float(n) ** (2.0 - float(info.alpha)) for n in n_values
                },
            }
        except NotBipartite:
            references[name] = None
    verdict = all(r["verified"] for r in records if r["verified"] is not None)
    summary = {
        "cells": len(records),
        "skipped": sum(1 for r in records if r["ex"] is None),
        "reference_exponents": references,
    }
    return ExperimentReport(
        config.as_dict(), EXTREMAL_COLUMNS, records, summary, verdict, _meta()
    )


# -- adreg-scan ---------------------------------------------------------------

ADREG_COLUMNS = [
    "record", "d", "contraction", "depth", "t", "eps",
    "net_size", "n_eps_s", "net_valid",
    "band_fraction", "median_mass",
    "edges", "min_degree_band", "degree_reference",
    "graph", "found", "witness_valid", "witness_indices",
]


def _fractal_spec(sp) -> adreg.FractalSpec:
    """An adreg-scan spec object as a FractalSpec; a missing or
    non-numeric `d`, `contraction` or `depth` is a config error."""
    if not (
        isinstance(sp, dict)
        and _is_int(sp.get("d"))
        and _is_int(sp.get("depth"))
        and isinstance(sp.get("contraction"), (int, float))
        and not isinstance(sp.get("contraction"), bool)
    ):
        raise ConfigError(
            f"an adreg-scan spec needs integer `d` and `depth` and a number `contraction`, got {sp!r}"
        )
    return adreg.FractalSpec(sp["d"], float(sp["contraction"]), sp["depth"])


def _adreg_worker(inst: dict) -> list[dict]:
    spec = adreg.FractalSpec(inst["d"], inst["contraction"], inst["depth"])
    eps_list = sorted(inst["eps_list"])
    band = tuple(inst["band"])
    pattern = inst["pattern"]
    cloud = adreg.cantor_product(spec)
    base = {"d": spec.d, "contraction": spec.contraction, "depth": spec.depth}
    rows = []
    nets = {}
    for e in eps_list:
        net = adreg.greedy_net(cloud, e)
        nets[e] = net
        rows.append({
            **base, "record": "net", "eps": e, "net_size": net.size,
            "n_eps_s": net.size * e**spec.s,
            "net_valid": adreg.verify_net(cloud, net),
        })
    eps_mid = eps_list[len(eps_list) // 2]
    best_t, best_frac = None, -1.0
    for t in inst["t_grid"]:
        stats = adreg.annulus_stats(cloud, nets[eps_mid].centers, t, eps_mid, band)
        rows.append({
            **base, "record": "annulus", "t": t, "eps": eps_mid,
            "band_fraction": stats.fraction_in_band,
            "median_mass": stats.quantiles[2],
        })
        if stats.fraction_in_band > best_frac:
            best_t, best_frac = t, stats.fraction_in_band
    try:
        scaling = adreg.edge_scaling(spec, cloud, [nets[e] for e in eps_list], best_t, band)
        for r in scaling.records:
            rows.append({
                **base, "record": "scaling", "t": best_t, "eps": r.epsilon,
                "net_size": r.net_size, "edges": r.edges,
                "band_fraction": r.band_fraction,
                "min_degree_band": r.min_degree_band,
                "degree_reference": r.degree_reference,
            })
        slope = scaling.slope
        predicted = scaling.predicted_slope
        degenerate = False
    except DegenerateFit:
        slope, predicted, degenerate = None, 2.0 * spec.s - 1.0, True
    for e in inst["approx_eps"]:
        try:
            witness = adreg.find_approximation(nets[e], pattern, best_t, e, inst["budget"])
        except BudgetExceeded:
            rows.append({
                **base, "record": "approx", "t": best_t, "eps": e,
                "graph": inst["graph"], "found": None, "witness_valid": None,
            })
            continue
        rows.append({
            **base, "record": "approx", "t": best_t, "eps": e,
            "graph": inst["graph"], "found": witness is not None,
            "witness_valid": (
                adreg.verify_approximation(witness.points, pattern, best_t, e)
                if witness else None
            ),
            "witness_indices": (
                ";".join(map(str, witness.center_indices)) if witness else None
            ),
        })
    return rows + [{
        **base, "record": "summary", "t": best_t,
        "band_fraction": best_frac, "edges": None,
        "n_eps_s": slope, "degree_reference": predicted,
        "net_valid": not degenerate,
    }]


def run_adreg_scan(config: ExperimentConfig) -> ExperimentReport:
    """Per fractal spec: net sizes across scales, an annulus-band t
    scan, the edge-count scaling fit at the best-band t, and pattern
    approximation searches."""
    p = config.params
    specs = p.get("specs", [])
    if not specs:
        raise ConfigError("adreg-scan needs `specs`")
    name, pattern = _resolve_pattern(p) if ("graph" in p or "graph_text" in p) else (
        "C6", graph_from_name("C6")
    )
    band = p.get("band", adreg.DEFAULT_BAND)
    if not (
        isinstance(band, (list, tuple))
        and len(band) == 2
        and all(isinstance(b, (int, float)) and not isinstance(b, bool) for b in band)
    ):
        raise ConfigError(f"`band` must be two numbers [c1, c2], got {band!r}")
    instances = []
    for sp in specs:
        spec = _fractal_spec(sp)
        eps_list = _positive_floats(sp.get("eps") or p.get("eps", []), "eps")
        if not eps_list:
            # default: dyadic scales 2^-3, 2^-4, ... above the cell-scale floor
            eps_list = [2.0**-j for j in range(3, 12) if 2.0**-j >= 4.0 * spec.cell_side][:4]
        if len(eps_list) < 3:
            raise ConfigError(
                "each spec needs >= 3 usable eps values (spec `eps`, shared `eps`, "
                "or a depth large enough for the dyadic defaults)"
            )
        for e in eps_list:
            adreg.check_scale(spec, e)
        t_grid = _positive_floats(sp.get("t_grid") or p.get("t_grid", []), "t_grid")
        if not t_grid:
            t_grid = [round(0.3 + 0.05 * i, 2) for i in range(13)]
        approx_eps = _positive_floats(sp.get("approx_eps") or p.get("approx_eps", []), "approx_eps")
        if not approx_eps:
            approx_eps = [max(eps_list)]
        instances.append({
            "d": spec.d, "contraction": spec.contraction, "depth": spec.depth,
            "eps_list": eps_list, "t_grid": t_grid, "band": band,
            "graph": name, "pattern": pattern,
            "approx_eps": approx_eps, "budget": p.get("budget"),
        })
    nested = _run_instances(instances, _adreg_worker, config.jobs)
    records = [row for rows in nested for row in rows]
    net_ok = all(r["net_valid"] for r in records if r["record"] == "net")
    wit_ok = all(
        r["witness_valid"]
        for r in records
        if r["record"] == "approx" and r["witness_valid"] is not None
    )
    verdict = net_ok and wit_ok
    summary = {
        "specs": len(specs),
        "nets_valid": net_ok,
        "witnesses_valid": wit_ok,
        "slopes": [
            {
                "d": r["d"], "contraction": r["contraction"], "depth": r["depth"],
                "t": r["t"], "slope": r["n_eps_s"], "predicted": r["degree_reference"],
            }
            for r in records
            if r["record"] == "summary"
        ],
    }
    return ExperimentReport(config.as_dict(), ADREG_COLUMNS, records, summary, verdict, _meta())


RUNNERS = {
    "ir-sweep": run_ir_sweep,
    "threshold": run_threshold,
    "extremal-table": run_extremal_table,
    "adreg-scan": run_adreg_scan,
}


def run(config: ExperimentConfig) -> ExperimentReport:
    return RUNNERS[config.kind](config)
