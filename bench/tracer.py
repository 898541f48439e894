"""Spans around the public functions of each `distgraphs` module, for
the benchmark's traced run.

`install()` replaces each traced function under every name a
`distgraphs` module binds it to (so `ffgeom.contains_subgraph` and
`adreg.contains_subgraph` are traced like `graphs.contains_subgraph`),
and wraps the builders of `FieldSpec`'s cached operation tables.  A span
is `[name, start, end, parent]`, with `parent` the index of the
enclosing span or -1; spans stay in memory until the run writes them
out.  Counters are updated at the same boundaries.

`layer_metrics(spans, counts)` turns one round's spans into the
per-layer metrics: each traced function's self time (its duration
minus the part its child spans cover), each layer's self time, and the
work counts.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter

# layer -> (public functions traced, with the metric their self time feeds)
TRACED = {
    "field": {"make_field": None},
    "ffgeom": {
        "random_subset": "ffgeom.subset_s",
        "distance_histogram": "ffgeom.histogram_s",
        "ir_check": "ffgeom.ir_check_s",
        "pairwise_norms": "ffgeom.pairwise_norms_s",
        "distance_graph": "ffgeom.distance_graph_s",
        "graph_distance_set": "ffgeom.distance_set_self_s",
    },
    "graphs": {
        "contains_subgraph": "graphs.search_s",
        "graph_from_name": None,
        "graph_from_text": None,
        "graph_to_text": None,
    },
    "extremal": {
        "ex_exhaustive": "extremal.exhaustive_s",
        "ex_branch_bound": "extremal.branch_bound_s",
        "verify_extremal_witness": "extremal.verify_s",
        "best_known_exponent": None,
    },
    "adreg": {
        "cantor_product": "adreg.cloud_s",
        "greedy_net": "adreg.greedy_net_s",
        "verify_net": "adreg.verify_net_s",
        "annulus_stats": "adreg.annulus_s",
        "edge_scaling": "adreg.edge_scaling_self_s",
        "find_approximation": "adreg.approx_s",
    },
    "experiments": {"run": None, "_run_instances": None},
}
TABLES = ("add_table", "sub_table", "square_table")
LAYERS = tuple(TRACED)

TIME_METRICS = sorted(
    {m for fns in TRACED.values() for m in fns.values() if m}
    | {"field.table_s", "experiments.report_s"}
    | {f"{layer}.self_s" for layer in LAYERS}
)
COUNT_METRICS = (
    "field.table_builds",
    "ffgeom.histogram_pairs",
    "ffgeom.distance_graphs",
    "graphs.searches",
    "graphs.searches_found",
    "extremal.cells",
    "adreg.greedy_net_calls",
    "adreg.net_centers",
    "adreg.annulus_center_queries",
    "experiments.instances",
)


def _count(counts: Counter, name: str, args: tuple, result) -> None:
    """Work counters, keyed by the traced function's span name."""
    if name in ("field.add_table", "field.sub_table", "field.square_table"):
        counts["field.table_builds"] += 1
    elif name == "ffgeom.distance_histogram":
        counts["ffgeom.histogram_pairs"] += len(args[0]) ** 2
    elif name == "ffgeom.distance_graph":
        counts["ffgeom.distance_graphs"] += 1
    elif name == "graphs.contains_subgraph":
        counts["graphs.searches"] += 1
        counts["graphs.searches_found"] += result is not None
    elif name in ("extremal.ex_exhaustive", "extremal.ex_branch_bound"):
        counts["extremal.cells"] += 1
    elif name == "adreg.greedy_net":
        counts["adreg.greedy_net_calls"] += 1
        counts["adreg.net_centers"] += result.size
    elif name == "adreg.annulus_stats":
        counts["adreg.annulus_center_queries"] += len(args[1])
    elif name == "experiments._run_instances":
        counts["experiments.instances"] += len(args[0])


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index][1:3] = [start, end]
            _count(counts, name, args, result)
            return result

        return traced


def install() -> Tracer:
    """Trace the package's public functions in this process."""
    from distgraphs import experiments, field

    tracer = Tracer()
    modules = [m for n, m in sys.modules.items() if n == "distgraphs" or n.startswith("distgraphs.")]
    for layer, fns in TRACED.items():
        home = sys.modules[f"distgraphs.{layer}"]
        for fname in fns:
            original = getattr(home, fname)
            wrapped = tracer.wrap(f"{layer}.{fname}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapped)
    for table in TABLES:
        prop = field.FieldSpec.__dict__[table]
        prop.func = tracer.wrap(f"field.{table}", prop.func)
    report = experiments.ExperimentReport
    report.records_csv = tracer.wrap("experiments.records_csv", report.records_csv)
    return tracer


def layer_metrics(spans: list[list], counts: dict) -> dict[str, float]:
    """Per-layer metrics of one traced round; times are self times in s."""
    self_time = [end - start for _, start, end, _ in spans]
    for name, start, end, parent in spans:
        if parent >= 0:
            self_time[parent] -= end - start
    metrics = {m: 0.0 for m in TIME_METRICS}
    metric_of = {f"{layer}.{fn}": m for layer, fns in TRACED.items() for fn, m in fns.items()}
    metric_of.update({f"field.{t}": "field.table_s" for t in TABLES})
    metric_of["experiments.records_csv"] = "experiments.report_s"
    for (name, _, _, _), own in zip(spans, self_time):
        metrics[name.split(".", 1)[0] + ".self_s"] += own
        if metric_of.get(name):
            metrics[metric_of[name]] += own
    for m in COUNT_METRICS:
        metrics[m] = counts.get(m, 0)
    hist_s = metrics["ffgeom.histogram_s"]
    metrics["ffgeom.histogram_pairs_per_s"] = metrics["ffgeom.histogram_pairs"] / hist_s if hist_s else 0.0
    return metrics
