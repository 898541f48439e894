"""Command-line entry points for the experiment runners.

Exit codes: 0 when every verdict passes (or a command is informational),
1 when any verdict fails, 2 on configuration errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import ffgeom
from . import field as ff
from .errors import ConfigError, DistGraphsError
from .experiments import ExperimentConfig, ExperimentReport, catalog_graph, run
from .graphs import Graph, graph_from_text


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--seed", type=int, help="master seed (overrides config)")
    parser.add_argument("--out", help="output directory (overrides config)")
    parser.add_argument("--jobs", type=int, help="worker processes (overrides config)")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="distgraphs")
    sub = parser.add_subparsers(dest="command", required=True)

    for kind in ("ir-sweep", "threshold", "extremal-table"):
        sp = sub.add_parser(kind)
        _add_common(sp)
        if kind == "extremal-table":
            sp.add_argument("--cache", help="JSON cache file for ex(n, G) values")

    sp = sub.add_parser("adreg-scan")
    _add_common(sp)
    sp.add_argument("--dim", type=int, help="ambient dimension (single-spec mode)")
    sp.add_argument("--lambda", dest="contraction", type=float, help="contraction ratio")
    sp.add_argument("--depth", type=int, help="iteration depth")

    sp = sub.add_parser("graph-distance-set")
    sp.add_argument("--points-file", help="point set file")
    sp.add_argument("--p", type=int, help="field characteristic")
    sp.add_argument("--k", type=int, default=1, help="extension degree")
    sp.add_argument("--d", type=int, help="ambient dimension")
    sp.add_argument("--size", type=int, help="random subset size (omit for all points)")
    sp.add_argument("--seed", type=int, help="sampling seed (required with --size)")
    sp.add_argument("--graph", help="catalog graph name, e.g. C6, Q3, S2")
    sp.add_argument("--graph-file", help="graph text file (overrides --graph)")
    sp.add_argument("--budget", type=int, help="per-t search node budget")
    sp.add_argument("--out", help="output directory")
    sp.add_argument(
        "--require-coverage",
        action="store_true",
        help="treat full nonzero coverage as the verdict",
    )
    return parser


def _load_config(args, kind: str) -> ExperimentConfig:
    if args.config:
        try:
            doc = json.loads(Path(args.config).read_text())
        except (OSError, ValueError) as exc:
            raise ConfigError(f"unreadable config {args.config}: {exc}") from exc
        if not isinstance(doc, dict):
            raise ConfigError(f"a config is a JSON object, got {type(doc).__name__}")
        if doc.get("kind") != kind:
            raise ConfigError(
                f"config kind {doc.get('kind')!r} does not match subcommand {kind!r}"
            )
    elif kind == "adreg-scan" and args.dim is not None:
        if args.contraction is None or args.depth is None:
            raise ConfigError("single-spec mode needs --dim, --lambda, and --depth")
        doc = {
            "kind": kind,
            "params": {
                "specs": [
                    {"d": args.dim, "contraction": args.contraction, "depth": args.depth}
                ]
            },
        }
    else:
        raise ConfigError(f"{kind} requires --config")
    # Flag overrides apply before validation, so --seed can satisfy a
    # randomized kind on its own.
    if args.seed is not None:
        doc["seed"] = args.seed
    if args.out is not None:
        doc["out"] = args.out
    if args.jobs is not None:
        doc["jobs"] = args.jobs
    if kind == "extremal-table" and getattr(args, "cache", None):
        doc.setdefault("params", {})["cache"] = args.cache
    return ExperimentConfig.from_dict(doc)


def _pattern(args) -> tuple[Graph, str]:
    if args.graph_file:
        return graph_from_text(Path(args.graph_file).read_text()), args.graph_file
    if args.graph:
        return catalog_graph(args.graph), args.graph
    raise ConfigError("graph-distance-set needs --graph or --graph-file")


def _points(args) -> ffgeom.PointSet:
    if args.points_file:
        return ffgeom.read_points_file(args.points_file)
    if args.p is None or args.d is None:
        raise ConfigError("need --points-file, or --p/--d (with optional --size/--seed)")
    spec = ff.make_field(args.p, args.k)
    if args.size is None:
        return ffgeom.all_points(spec, args.d)
    if args.seed is None:
        raise ConfigError("--size requires --seed")
    return ffgeom.random_subset(spec, args.d, args.size, seed=args.seed)


def _cmd_graph_distance_set(args) -> int:
    # Everything the flags name is input: an unreadable or malformed file,
    # or a value the library rejects, is a config error.
    try:
        pattern, pattern_name = _pattern(args)
        E = _points(args)
    except (OSError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc
    ds = ffgeom.graph_distance_set(E, pattern, budget=args.budget)
    records = []
    for t in range(E.spec.q):
        status = (
            "contained"
            if t in ds.contained
            else "indeterminate" if t in ds.indeterminate else "absent"
        )
        records.append({"t": t, "status": status})
    covers = ds.covers_all_nonzero
    report = ExperimentReport(
        config={
            "kind": "graph-distance-set",
            "field": E.spec.as_dict(),
            "d": E.d,
            "n": len(E),
            "graph": pattern_name,
            "budget": args.budget,
        },
        columns=["t", "status"],
        records=records,
        summary={
            "contained": sorted(ds.contained),
            "indeterminate": sorted(ds.indeterminate),
            "covers_all_nonzero": covers,
        },
        verdict=covers if args.require_coverage else None,
    )
    if args.out:
        report.write(args.out)
    sys.stdout.write(report.records_csv())
    sys.stdout.write(f"# covers_all_nonzero={str(covers).lower()}\n")
    return 0 if report.verdict in (None, True) else 1


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "graph-distance-set":
            return _cmd_graph_distance_set(args)
        config = _load_config(args, args.command)
        report = run(config)
        if config.out:
            report.write(config.out)
        else:
            sys.stdout.write(report.records_csv())
        verdict = report.verdict
        sys.stderr.write(f"verdict: {verdict}\n")
        return 0 if verdict in (None, True) else 1
    except ConfigError as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return 2
    except DistGraphsError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
