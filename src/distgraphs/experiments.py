"""Seeded, reproducible experiment sweeps tying the other modules
together: random-subset bound sweeps, containment threshold curves,
extremal-number tables, and fractal scale scans.

A sweep is a list of independent instances keyed by enumeration order.
Per-instance seeds are derived from the master seed as numpy's
SeedSequence (spawn_key = instance index) derives them, feeding PCG64,
and sampling without replacement is a partial Fisher-Yates shuffle;
reports record this generator identifier.  The stream is computed in
the package (_pcg64), bit for bit numpy's, so no sweep imports
numpy.random; numpy.random is only the tests' oracle.  Every size
passes ffgeom.point_count, the point cap included, before any draw.
An ir-sweep instance of the whole space reads it in order without
drawing, since its records depend only on the set; threshold instances
always shuffle, since with a budget their searches can depend on point
order.  Workers are pure functions of their instance, and results are
merged by instance key, so records are identical at any parallelism.
"""

from __future__ import annotations

import json
import math
import os
import platform
import time
from dataclasses import asdict, dataclass, field as dc_field
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from . import _pcg64, adreg, extremal, ffgeom
from . import field as ff
from .errors import (
    BudgetExceeded,
    ConfigError,
    DegenerateFit,
    DistGraphsError,
    NotBipartite,
)
from .graphs import Graph, graph_from_name, graph_from_text, graph_to_text

RNG_ID = "pcg64+seedseq-spawn/partial-fisher-yates"

NAMED_SIZES = {
    "q": lambda q, d: q,
    "q^{(d+1)/2}": lambda q, d: math.ceil(q ** ((d + 1) / 2)),
    "q^d/2": lambda q, d: q**d // 2,
    "q^d": lambda q, d: q**d,
}


def instance_seed(master_seed: int, index: int) -> int:
    """Deterministic per-instance 64-bit seed: the first 64-bit word of
    SeedSequence(entropy=master_seed, spawn_key=(index,))."""
    return _pcg64.spawn_seed(master_seed, index)


# -- param readers ----------------------------------------------------------
#
# A reader maps one JSON value to what a sweep uses, and raises TypeError,
# ValueError, OverflowError or a library error on a value it rejects.

REQUIRED = object()  # the default of a param that must be given


def read_param(key: str, reader: Callable, value):
    """`reader(value)`; a value the reader rejects is a config error
    naming `key`."""
    try:
        return reader(value)
    except (TypeError, ValueError, OverflowError, DistGraphsError) as exc:
        raise ConfigError(f"`{key}`: {exc}") from exc


def _read_params(doc, table: dict) -> dict:
    """`doc`'s values read through `table` (name -> (reader, default));
    an unknown key or a missing required one is a config error."""
    if not isinstance(doc, dict):
        raise ConfigError(f"expected a JSON object, got {type(doc).__name__}")
    problems = [f"unknown key {key!r}" for key in doc if key not in table] + [
        f"missing key {key!r}" for key, (_, default) in table.items() if default is REQUIRED and key not in doc
    ]
    if problems:
        raise ConfigError(f"{', '.join(problems)} (the keys are {list(table)})")
    return {
        key: read_param(key, reader, doc[key]) if key in doc else default
        for key, (reader, default) in table.items()
    }


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return (_is_int(value) or isinstance(value, float)) and math.isfinite(value)


def _checked(ok: Callable, what: str) -> Callable:
    """A reader of the values for which `ok` holds."""
    def read(value):
        if not ok(value):
            raise ValueError(f"must be {what}, got {value!r}")
        return value

    return read


def _optional(reader: Callable) -> Callable:
    return lambda value: None if value is None else reader(value)


def _list(item: Callable, nonempty: bool = False, distinct: bool = False) -> Callable:
    def read(value) -> list:
        if not isinstance(value, (list, tuple)) or (nonempty and not value):
            raise ValueError(f"must be a {'non-empty ' * nonempty}list, got {value!r}")
        items = [item(v) for v in value]
        if distinct and len(set(items)) < len(items):
            raise ValueError(f"must not repeat an entry, got {value!r}")
        return items

    return read


_count = _checked(lambda v: _is_int(v) and v >= 0, "an integer >= 0")
_positive_int = _checked(lambda v: _is_int(v) and v >= 1, "an integer >= 1")
_dim = _checked(lambda v: _is_int(v) and v >= 2, "an integer >= 2")
_number = _checked(_is_number, "a finite number")
_nonnegative = _checked(lambda v: _is_number(v) and v >= 0, "a finite number >= 0")
_positive = _checked(lambda v: _is_number(v) and v > 0, "a finite positive number")
_string = _checked(lambda v: isinstance(v, str), "a string")
_object = _checked(lambda v: isinstance(v, dict), "a JSON object")
_scales = _list(lambda v: float(_positive(v)))
_distinct_scales = _list(lambda v: float(_positive(v)), distinct=True)
_band = _checked(
    lambda v: isinstance(v, (list, tuple)) and len(v) == 2 and all(map(_is_number, v)) and 0 <= v[0] <= v[1],
    "two numbers [c1, c2] with 0 <= c1 <= c2",
)
_size_spec = _checked(
    lambda v: _is_int(v)
    or (isinstance(v, str) and v in NAMED_SIZES)
    or (isinstance(v, dict) and set(v) == {"coef", "exp"} and all(map(_is_number, v.values()))),
    f"an integer, one of {tuple(NAMED_SIZES)} or {{coef, exp}} (finite numbers)",
)
optional_count = _optional(_count)  # a search budget: null (no limit) or an integer >= 0


def _field(entry) -> ff.FieldSpec:
    """A `[p, k]` pair as a field (make_field checks p, k and the q cap)."""
    if not (isinstance(entry, list) and len(entry) == 2 and all(map(_is_int, entry))):
        raise ValueError(f"a field is `[p, k]` with integer p and k, got {entry!r}")
    return ff.make_field(*entry)


def resolve_size(size_spec, q: int, d: int) -> int:
    """Size schedule entry: an int, a named expression, or
    {"coef": c, "exp": s} with finite c and s, meaning ceil(c * q^s), once
    it passes ffgeom.point_count, which checks F_q^d before a named size."""
    size_spec = read_param("size", _size_spec, size_spec)
    try:
        if isinstance(size_spec, dict):
            size = math.ceil(float(size_spec["coef"]) * q ** float(size_spec["exp"]))
        else:
            size = (lambda: NAMED_SIZES[size_spec](q, d)) if isinstance(size_spec, str) else size_spec
    except OverflowError as exc:
        raise ConfigError(f"size {size_spec!r} overflows: {exc}") from exc
    return read_param("size", lambda n: ffgeom.point_count(q, d, n), size)


def _named_graph(name) -> tuple[str, Graph]:
    return name, graph_from_name(_string(name))


def _graph_text(text) -> tuple[str, Graph]:
    g = graph_from_text(_string(text))
    return f"custom({g.n},{g.edge_count})", g


def _pattern(p: dict, default: Optional[str] = None) -> tuple[str, Graph]:
    """The pattern of the `graph` or the `graph_text` param, else the
    catalog graph `default`."""
    if p["graph"] and p["graph_text"]:
        raise ConfigError("give `graph` or `graph_text`, not both")
    if not (p["graph"] or p["graph_text"] or default):
        raise ConfigError("params need `graph` (catalog name) or `graph_text`")
    return p["graph"] or p["graph_text"] or _named_graph(default)


@dataclass
class ExperimentConfig:
    kind: str
    params: dict
    seed: Optional[int] = None
    jobs: Optional[int] = None  # None = available cores
    out: Optional[str] = None

    def __post_init__(self):
        if not (isinstance(self.kind, str) and self.kind in SWEEPS):
            raise ConfigError(f"unknown kind {self.kind!r}; expected one of {tuple(SWEEPS)}")
        read_param("params", _object, self.params)
        read_param("seed", optional_count, self.seed)
        read_param("jobs", _optional(_positive_int), self.jobs)
        read_param("out", _optional(_string), self.out)
        if SWEEPS[self.kind].seeded and self.seed is None:
            raise ConfigError(f"kind {self.kind!r} requires a seed")

    @classmethod
    def from_json(cls, path, **overrides) -> "ExperimentConfig":
        """`from_dict` of the JSON file at `path`; a file that cannot be
        read or parsed is a config error."""
        try:
            doc = json.loads(Path(path).read_text())
        except (OSError, ValueError) as exc:
            raise ConfigError(f"unreadable config {path}: {exc}") from exc
        return cls.from_dict(doc, **overrides)

    @classmethod
    def from_dict(cls, doc: dict, **overrides) -> "ExperimentConfig":
        """The config a JSON document describes, with `overrides` (top-level
        fields, such as CLI flags) in place of the document's, so that a
        `seed` flag can satisfy a seeded kind."""
        fields = {"kind": REQUIRED, "params": {}, "seed": None, "jobs": None, "out": None}
        doc = _read_params(doc, {name: (lambda v: v, default) for name, default in fields.items()})
        return cls(**{**doc, **overrides})

    def as_dict(self) -> dict:
        return asdict(self)


def _csv_cell(text: str) -> str:
    """`text` as one CSV cell: in double quotes, with its quotes doubled,
    when it holds a comma, a quote or a line break."""
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


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
        floats, lowercase booleans, empty string for missing cells.  A
        cell holding a comma, a quote or a line break is quoted (RFC
        4180), and every other cell is written as it is."""
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
                    cells.append(_csv_cell(str(val)))
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


def _run_instances(instances: list, worker: Callable, jobs: Optional[int]) -> list:
    # The pool starts all its workers at once, so it is never larger than
    # the cores or the instances.
    cpus = os.cpu_count() or 1
    workers = min(jobs or cpus, cpus, len(instances))
    if workers <= 1:
        return [worker(inst) for inst in instances]
    # Imported here, so a run without a pool does not load multiprocessing.
    from concurrent.futures import ProcessPoolExecutor
    chunk = max(1, len(instances) // (workers * 4))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(worker, instances, chunksize=chunk))


# -- ir-sweep ---------------------------------------------------------------

IR_COLUMNS = [
    "p", "k", "q", "d", "size_spec", "size", "trial", "seed",
    "pass", "sum_ok", "worst_slack",
]


def _ir_expand(p: dict, seed: int) -> list[dict]:
    instances = []
    for spec in p["fields"]:
        for d in p["dims"]:
            resolve_size(0, spec.q, d)  # the space, which a list of no sizes leaves unchecked
            for size_spec in p["sizes"]:
                size = resolve_size(size_spec, spec.q, d)
                for trial in range(p["trials"]):
                    instances.append({
                        "spec": spec, "d": d,
                        "size_spec": str(size_spec), "size": size, "trial": trial,
                        "seed": instance_seed(seed, len(instances)),
                    })
    return instances


def _ir_worker(inst: dict) -> dict:
    spec, d = inst["spec"], inst["d"]
    whole = inst["size"] == spec.q**d
    E = ffgeom.all_points(spec, d) if whole else ffgeom.random_subset(spec, d, inst["size"], seed=inst["seed"])
    hist = ffgeom.distance_histogram(E)
    report = ffgeom.ir_check(E, hist)
    return {
        "p": spec.p, "k": spec.k, "q": spec.q, "d": d,
        "size_spec": inst["size_spec"], "size": inst["size"],
        "trial": inst["trial"], "seed": inst["seed"],
        "pass": report.passed,
        "sum_ok": hist.total() == len(E) ** 2,
        "worst_slack": report.worst_slack(),
    }


def _ir_summarize(p: dict, records: list, meta: dict):
    verdict = all(r["pass"] and r["sum_ok"] for r in records)
    summary = {
        "instances": len(records),
        "all_pass": verdict,
        "min_worst_slack": min((r["worst_slack"] for r in records), default=None),
    }
    return records, summary, verdict


# -- threshold --------------------------------------------------------------
#
# Budget exhaustion marks an instance indeterminate; it is excluded from
# rates, never counted as failure.  The verdict never asserts theorem
# constants: it checks only that the success curve is nondecreasing up to
# `max_inversions` dips of at most `noise_tolerance`, and that full-space
# size levels succeed.

THRESHOLD_COLUMNS = [
    "q", "d", "graph", "size", "trial", "seed",
    "success", "indeterminate", "n_contained", "n_indeterminate",
]


def _threshold_sizes(p: dict) -> list[int]:
    q, d = p["field"].q, p["d"]
    resolve_size(0, q, d)  # the space, which a list of no sizes leaves unchecked
    return sorted({resolve_size(s, q, d) for s in p["sizes"]})


def _threshold_expand(p: dict, seed: int) -> list[dict]:
    name, pattern = _pattern(p)
    instances = []
    for size in _threshold_sizes(p):
        for trial in range(p["trials"]):
            instances.append({
                "spec": p["field"], "d": p["d"], "graph": name,
                "pattern": pattern, "size": size, "trial": trial,
                "budget": p["budget"], "seed": instance_seed(seed, len(instances)),
            })
    return instances


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


def _threshold_summarize(p: dict, records: list, meta: dict):
    sizes = _threshold_sizes(p)
    curve = []
    for size in sizes:
        rows = [r for r in records if r["size"] == size and not r["indeterminate"]]
        rate = sum(1 for r in rows if r["success"]) / len(rows) if rows else None
        curve.append({"size": size, "rate": rate, "decided": len(rows)})
    rates = [c["rate"] for c in curve if c["rate"] is not None]
    inversions = [
        (rates[i] - rates[i + 1]) for i in range(len(rates) - 1) if rates[i] > rates[i + 1]
    ]
    monotone_ok = len(inversions) <= p["max_inversions"] and all(
        v <= p["noise_tolerance"] for v in inversions
    )
    anchor_ok = all(
        c["rate"] == 1.0 for c in curve if c["rate"] is not None and c["size"] == p["field"].q ** p["d"]
    )
    perfect = [c["size"] for c in curve if c["rate"] == 1.0]
    summary = {
        "curve": curve,
        "monotone_ok": monotone_ok,
        "full_space_ok": anchor_ok,
        "smallest_size_fully_successful": min(perfect) if perfect else None,
    }
    verdict = monotone_ok and anchor_ok if p["trials"] and sizes else True
    return records, summary, verdict


# -- extremal-table ----------------------------------------------------------
#
# The JSON cache is keyed by (n, canonical graph text); a hit is an
# instance whose worker checks the cached witness again.  The uncached
# cells of one (pattern, method) are one instance: both oracles prove
# every k <= n on the way to n, so one call at the group's largest n
# within the oracle's cap serves them all.

EXTREMAL_COLUMNS = ["n", "graph", "ex", "witness_edges", "method", "cached", "verified"]


def _extremal_pattern(name) -> tuple[str, Graph]:
    name, g = _named_graph(name)
    if g.edge_count == 0:
        raise ValueError(f"extremal numbers are undefined for the edgeless {name}")
    return name, g


def _cache_key(n: int, pattern: Graph) -> str:
    return f"{n}|{graph_to_text(pattern)}"


CACHE_ENTRY = {
    "value": (_count, REQUIRED),
    "witness_edges": (_string, REQUIRED),
    "method": (_string, REQUIRED),
}


def _cache(path) -> tuple[str, dict]:
    """A cache file path with its entries (none while the file is absent).
    Anything but a JSON object of `CACHE_ENTRY` objects is rejected, and
    so is a path outside an existing directory, before any cell runs."""
    file = Path(_string(path))
    if not file.exists():
        if not file.parent.is_dir():
            raise ConfigError(f"cannot write the cache {path}: {file.parent} is not a directory")
        return path, {}
    try:
        cache = _object(json.loads(file.read_text()))
    except OSError as exc:
        raise ConfigError(f"unreadable cache {path}: {exc}") from exc
    for entry in cache.values():
        _read_params(entry, CACHE_ENTRY)
    return path, cache


def _extremal_expand(p: dict, seed) -> list[dict]:
    _, cache = p["cache"] or (None, {})
    instances, chains = [], {}
    for name, pattern in p["graphs"]:
        for n in p["n_values"]:
            hit = cache.get(_cache_key(n, pattern))
            method = extremal.method_for(n, p["exhaustive_max"])
            if not hit:
                if (name, method) not in chains:
                    chains[name, method] = {"ns": [], "graph": name, "pattern": pattern, "method": method, "hit": None}
                    instances.append(chains[name, method])
                chains[name, method]["ns"].append(n)
                continue
            try:
                edges = [tuple(map(int, e.split("-"))) for e in hit["witness_edges"].split(";") if e]
                witness = Graph(n, edges)
            except ValueError as exc:
                raise ConfigError(f"bad cached witness for ex({n}, {name}): {exc}") from exc
            instances.append({"ns": [n], "graph": name, "pattern": pattern, "method": method, "hit": hit,
                              "witness": witness})
    return instances


def _extremal_worker(inst: dict) -> list[dict]:
    """One row per cell of the instance: a cache hit checked again, or
    each cell of a (pattern, method) group read from the levels of one
    oracle call, at the group's largest n within the oracle's cap.
    Cells over the cap are skipped.  Every row of a group records the
    group's wall time up to that call's end."""
    pattern, ns = inst["pattern"], inst["ns"]
    base = {"graph": inst["graph"], "method": inst["method"], "cached": False}
    hit = inst["hit"]
    if hit:
        result = extremal.ExtremalResult(ns[0], pattern, hit["value"], inst["witness"])
        return [{**base, "n": ns[0], "ex": hit["value"], "witness_edges": hit["witness_edges"],
                 "method": hit["method"], "cached": True, "verified": extremal.verify_extremal_witness(result)}]
    t0 = time.perf_counter()
    if inst["method"] == "exhaustive":
        oracle, cap = extremal.ex_exhaustive, extremal.max_exhaustive_n()
    else:
        oracle, cap = extremal.ex_branch_bound, extremal.max_branch_n()
    top = max((n for n in ns if n <= cap), default=None)
    levels = oracle(top, pattern).levels if top is not None else ()
    elapsed = time.perf_counter() - t0
    rows = []
    for n in ns:
        row = {**base, "n": n, "elapsed_s": elapsed}
        if n > cap:
            rows.append({**row, "ex": None, "witness_edges": "skipped", "verified": None})
            continue
        res = levels[n]
        rows.append({
            **row, "ex": res.value,
            "witness_edges": ";".join(f"{u}-{v}" for u, v in res.witness.edges()),
            "verified": extremal.verify_extremal_witness(res),
        })
    return rows


def _extremal_summarize(p: dict, results: list, meta: dict):
    path, cache = p["cache"] or (None, {})
    patterns = dict(p["graphs"])
    by_cell = {(r["graph"], r["n"]): r for rows in results for r in rows}
    # in config order, the order new entries join the cache file
    records = [by_cell[name, n] for name in patterns for n in p["n_values"]]
    seconds = meta["cell_seconds"] = {}
    for rec in records:
        if rec["cached"]:
            continue
        seconds[f"{rec['graph']}|{rec['n']}"] = rec.pop("elapsed_s")
        if rec["ex"] is not None:
            entry = {"value": rec["ex"], "witness_edges": rec["witness_edges"], "method": rec["method"]}
            cache[_cache_key(rec["n"], patterns[rec["graph"]])] = entry
    if path:
        try:
            Path(path).write_text(json.dumps(cache, indent=1) + "\n")
        except OSError as exc:
            raise ConfigError(f"cannot write the cache {path}: {exc}") from exc
    records = sorted(records, key=lambda r: (r["graph"], r["n"]))
    references = {}
    for name, pattern in patterns.items():
        try:
            info = extremal.best_known_exponent(pattern)
            references[name] = {
                "alpha": str(info.alpha),
                "source": info.source,
                "n^(2-alpha)": {
                    str(n): float(n) ** (2.0 - float(info.alpha)) for n in p["n_values"]
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
    return records, summary, verdict


# -- adreg-scan ---------------------------------------------------------------
#
# Per fractal spec: net sizes across scales, an annulus-band t scan, the
# edge-count scaling fit at the best-band t, and pattern approximation
# searches.

ADREG_COLUMNS = [
    "record", "d", "contraction", "depth", "t", "eps",
    "net_size", "n_eps_s", "net_valid",
    "band_fraction", "median_mass",
    "edges", "min_degree_band", "degree_reference",
    "graph", "found", "witness_valid", "witness_indices",
]

# One entry of `specs`; its `eps`, `t_grid` and `approx_eps` replace the
# shared params of the same names.
ADREG_SPEC_PARAMS = {
    "d": (_positive_int, REQUIRED),
    "contraction": (_number, REQUIRED),
    "depth": (_count, REQUIRED),
    "eps": (_scales, ()),
    "t_grid": (_scales, ()),
    "approx_eps": (_distinct_scales, ()),
}


def _adreg_expand(p: dict, seed) -> list[dict]:
    name, pattern = _pattern(p, default="C6")
    instances = []
    for sp in p["specs"]:
        spec = adreg.FractalSpec(sp["d"], float(sp["contraction"]), sp["depth"])
        read_param("specs", adreg.check_cloud, spec)
        # default: dyadic scales 2^-3, 2^-4, ... above the cell-scale floor
        eps_list = sp["eps"] or p["eps"] or [
            2.0**-j for j in range(3, 12) if 2.0**-j >= 4.0 * spec.cell_side
        ][:4]
        if len(set(eps_list)) < max(3, len(eps_list)):
            raise ConfigError(f"each spec needs >= 3 usable eps values, no two equal, got {eps_list} (spec `eps`, "
                              "shared `eps`, or a depth large enough for the dyadic defaults)")
        for e in eps_list:
            adreg.check_scale(spec, e)
        approx_eps = sp["approx_eps"] or p["approx_eps"] or [max(eps_list)]
        if not set(approx_eps) <= set(eps_list):
            raise ConfigError(f"`approx_eps` {approx_eps} must be among the scan's eps {eps_list}")
        instances.append({
            "spec": spec, "eps_list": eps_list, "approx_eps": approx_eps,
            "t_grid": sp["t_grid"] or p["t_grid"] or [round(0.3 + 0.05 * i, 2) for i in range(13)],
            "band": p["band"], "graph": name, "pattern": pattern, "budget": p["budget"],
        })
    return instances


def _adreg_worker(inst: dict) -> list[dict]:
    spec = inst["spec"]
    eps_list = sorted(inst["eps_list"])
    band = inst["band"]
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
    scan = adreg.annulus_stats(cloud, nets[eps_mid].centers, inst["t_grid"], eps_mid, band)
    rows += [{
        **base, "record": "annulus", "t": stats.t, "eps": eps_mid,
        "band_fraction": stats.fraction_in_band, "median_mass": stats.quantiles[2],
    } for stats in scan]
    best = max(scan, key=lambda stats: stats.fraction_in_band)  # the first t of the largest fraction
    # one approximate distance graph per scale, shared by the fit and the searches
    graphs = {e: adreg.approx_distance_graph(nets[e], best.t) for e in eps_list}
    try:
        scaling = adreg.edge_scaling(spec, [(nets[e], graphs[e]) for e in eps_list], best.t)
        for r in scaling.records:
            # the t scan already holds the middle scale's counts at the best t
            stats = best if r.epsilon == eps_mid else adreg.annulus_stats(
                cloud, nets[r.epsilon].centers, [best.t], r.epsilon, band)[0]
            band_deg = r.degrees[stats.in_band]
            rows.append({
                **base, "record": "scaling", "t": best.t, "eps": r.epsilon,
                "net_size": r.net_size, "edges": r.edges,
                "band_fraction": stats.fraction_in_band,
                "min_degree_band": int(band_deg.min()) if band_deg.size else -1,
                "degree_reference": r.degree_reference,
            })
        slope = scaling.slope
        predicted = scaling.predicted_slope
        degenerate = False
    except DegenerateFit:
        slope, predicted, degenerate = None, 2.0 * spec.s - 1.0, True
    for e in inst["approx_eps"]:
        try:
            witness = adreg.find_approximation(nets[e], graphs[e], pattern, best.t, budget=inst["budget"])
            found = witness is not None
        except BudgetExceeded:
            witness, found = None, None
        rows.append({
            **base, "record": "approx", "t": best.t, "eps": e,
            "graph": inst["graph"], "found": found,
            "witness_valid": adreg.verify_approximation(witness.points, pattern, best.t, e) if witness else None,
            "witness_indices": ";".join(map(str, witness.center_indices)) if witness else None,
        })
    return rows + [{
        **base, "record": "summary", "t": best.t,
        "band_fraction": best.fraction_in_band, "edges": None,
        "n_eps_s": slope, "degree_reference": predicted,
        "net_valid": not degenerate,
    }]


def _adreg_summarize(p: dict, results: list, meta: dict):
    records = [row for rows in results for row in rows]
    net_ok = all(r["net_valid"] for r in records if r["record"] == "net")
    wit_ok = all(
        r["witness_valid"]
        for r in records
        if r["record"] == "approx" and r["witness_valid"] is not None
    )
    summary = {
        "specs": len(p["specs"]),
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
    return records, summary, net_ok and wit_ok


# -- the registry -------------------------------------------------------------


@dataclass(frozen=True)
class Sweep:
    """A sweep kind: its param table, name -> (reader, default), whether
    it needs a master seed, its record columns, and its stages.
    `expand(params, seed)` lists the instances, `worker(instance)` runs
    one, and `summarize(params, results, meta)` returns (records, summary,
    verdict), putting what varies between runs into `meta`."""

    params: dict
    seeded: bool
    columns: list[str]
    expand: Callable
    worker: Callable
    summarize: Callable


SWEEPS: dict[str, Sweep] = {
    "ir-sweep": Sweep({
        "fields": (_list(_field, nonempty=True), REQUIRED),
        "dims": (_list(_dim, nonempty=True), REQUIRED),
        "sizes": (_list(_size_spec), ()),
        "trials": (_count, 1),
    }, True, IR_COLUMNS, _ir_expand, _ir_worker, _ir_summarize),
    "threshold": Sweep({
        "field": (_field, REQUIRED),
        "d": (_dim, REQUIRED),
        "graph": (_named_graph, None),
        "graph_text": (_graph_text, None),
        "sizes": (_list(_size_spec), ()),
        "trials": (_count, 0),
        "budget": (optional_count, None),
        "noise_tolerance": (_nonnegative, 0.1),
        "max_inversions": (_count, 1),
    }, True, THRESHOLD_COLUMNS, _threshold_expand, _threshold_worker, _threshold_summarize),
    "extremal-table": Sweep({
        "n_values": (_list(_count, nonempty=True, distinct=True), REQUIRED),
        "graphs": (_list(_extremal_pattern, nonempty=True, distinct=True), REQUIRED),
        "exhaustive_max": (_count, None),  # None: extremal.method_for's default
        "cache": (_optional(_cache), None),
    }, False, EXTREMAL_COLUMNS, _extremal_expand, _extremal_worker, _extremal_summarize),
    "adreg-scan": Sweep({
        "specs": (_list(lambda doc: _read_params(doc, ADREG_SPEC_PARAMS), nonempty=True), REQUIRED),
        "eps": (_scales, ()),
        "t_grid": (_scales, ()),
        "approx_eps": (_distinct_scales, ()),
        "band": (_band, adreg.DEFAULT_BAND),
        "graph": (_named_graph, None),
        "graph_text": (_graph_text, None),
        "budget": (optional_count, None),
    }, False, ADREG_COLUMNS, _adreg_expand, _adreg_worker, _adreg_summarize),
}


def run(config: ExperimentConfig) -> ExperimentReport:
    """Read the config's params through its kind's table, run the
    instances (in parallel when `jobs` allows) and summarize them."""
    sweep = SWEEPS[config.kind]
    params = _read_params(config.params, sweep.params)
    results = _run_instances(sweep.expand(params, config.seed), sweep.worker, config.jobs)
    meta = {
        "rng": RNG_ID,
        "numpy": np.__version__,
        "python": platform.python_version(),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }
    records, summary, verdict = sweep.summarize(params, results, meta)
    return ExperimentReport(config.as_dict(), sweep.columns, records, summary, verdict, meta)
