"""Command-line entry points for the experiment runners.

Exit codes: 0 when every verdict passes (or a command is informational),
1 when any verdict fails, 2 on configuration errors.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import ffgeom
from . import field as ff
from .errors import ConfigError, DistGraphsError
from .experiments import SWEEPS, ExperimentConfig, ExperimentReport, optional_count, read_param, run
from .graphs import Graph, graph_from_name, graph_from_text


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--seed", type=int, help="master seed (overrides config)")
    parser.add_argument("--out", help="output directory (overrides config)")
    parser.add_argument("--jobs", type=int, help="worker processes (overrides config)")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="distgraphs")
    sub = parser.add_subparsers(dest="command", required=True)

    kinds = {kind: sub.add_parser(kind) for kind in SWEEPS}
    for sp in kinds.values():
        _add_common(sp)
    kinds["extremal-table"].add_argument("--cache", help="JSON cache file for ex(n, G) values")
    sp = kinds["adreg-scan"]
    sp.add_argument("--dim", type=int, help="ambient dimension (single-spec mode)")
    sp.add_argument("--lambda", dest="contraction", type=float, help="contraction ratio")
    sp.add_argument("--depth", type=int, help="iteration depth")

    sp = sub.add_parser("graph-distance-set")
    sp.add_argument("--points-file", help="point set file")
    sp.add_argument("--p", type=int, help="field characteristic")
    sp.add_argument("--k", type=int, help="extension degree (default 1)")
    sp.add_argument("--d", type=int, help="ambient dimension")
    sp.add_argument("--size", type=int, help="random subset size (omit for all points)")
    sp.add_argument("--seed", type=int, help="sampling seed (required with --size, refused without)")
    sp.add_argument("--graph", help="catalog graph name, e.g. C6, Q3, S2")
    sp.add_argument("--graph-file", help="graph text file (instead of --graph)")
    sp.add_argument("--budget", type=int, help="per-t search node budget")
    sp.add_argument("--out", help="output directory")
    sp.add_argument(
        "--require-coverage",
        action="store_true",
        help="treat full nonzero coverage as the verdict",
    )
    return parser


def _load_config(args, kind: str) -> ExperimentConfig:
    flags = {name: getattr(args, name) for name in ("seed", "out", "jobs") if getattr(args, name) is not None}
    if args.config:
        if kind == "adreg-scan" and (args.dim, args.contraction, args.depth) != (None, None, None):
            raise ConfigError("--dim, --lambda and --depth replace --config; give one or the other")
        config = ExperimentConfig.from_json(args.config, **flags)
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
        config = ExperimentConfig.from_dict(doc, **flags)
    else:
        raise ConfigError(f"{kind} requires --config")
    if config.kind != kind:
        raise ConfigError(f"config kind {config.kind!r} does not match subcommand {kind!r}")
    if getattr(args, "cache", None):
        config.params = {**config.params, "cache": args.cache}
    return config


def _pattern(args) -> tuple[Graph, str]:
    if args.graph_file:
        if args.graph:
            raise ConfigError("--graph-file takes the pattern from the file, not --graph")
        return graph_from_text(Path(args.graph_file).read_text()), args.graph_file
    if args.graph:
        return graph_from_name(args.graph), args.graph
    raise ConfigError("graph-distance-set needs --graph or --graph-file")


def _points(args) -> ffgeom.PointSet:
    if args.points_file:
        given = [f"--{name}" for name in ("p", "k", "d", "size", "seed") if getattr(args, name) is not None]
        if given:
            raise ConfigError(f"--points-file takes the space and points from the file, not {', '.join(given)}")
        return ffgeom.read_points_file(args.points_file)
    if args.p is None or args.d is None:
        raise ConfigError("need --points-file, or --p/--d (with optional --size/--seed)")
    spec = ff.make_field(args.p, 1 if args.k is None else args.k)
    if (args.size is None) != (args.seed is None):
        raise ConfigError("--size and --seed go together: both to sample, neither to take every point")
    if args.size is None:
        return ffgeom.all_points(spec, args.d)
    seed = read_param("--seed", optional_count, args.seed)
    return ffgeom.random_subset(spec, args.d, args.size, seed=seed)


def _write(report: ExperimentReport, out: str) -> None:
    try:
        report.write(out)
    except OSError as exc:
        raise ConfigError(f"cannot write the report to {out}: {exc}") from exc


def _cmd_graph_distance_set(args) -> int:
    # Everything the flags name is input: an unreadable or malformed file,
    # or a value the library rejects, is a config error.
    try:
        pattern, pattern_name = _pattern(args)
        E = _points(args)
    except (OSError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc
    budget = read_param("--budget", optional_count, args.budget)
    ds = ffgeom.graph_distance_set(E, pattern, budget=budget)
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
            "budget": budget,
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
        _write(report, args.out)
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
            _write(report, config.out)
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
