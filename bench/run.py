"""Sweep benchmark for distgraphs.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (or `all`) of `workloads.py` as a closed loop of one
caller: a fresh interpreter per round runs every sweep of the workload
back to back with `jobs = 1`, and the next round starts when it exits.
Rounds repeat until `--seconds` have passed.  Every round's records are
then checked by `checks.py` against the benchmark's own computations.

With `--trace 0` it reports the end-to-end metrics: `setup_s` (median
time of fresh interpreters that import the package and validate the
workload's configs), `sweep_s` (`experiments.run` plus `records_csv()`
for all the workload's sweeps, each sweep's time the median over
rounds) and `peak_rss_mb` (median over rounds of the peak resident
memory of the round process's own address space).  `setup_s` and
`sweep_s` are wall times at the reference machine speed: each interval
is divided by the slowdown that `calibrate.py` measures right before
and after it.  With `--trace 1` it alternates untraced and traced rounds
and reports the per-layer metrics of `tracer.py`, in plain wall
seconds.

The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`.  An operation is one sweep instance
or cell; a round attempts every operation of the workload.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate
import workloads

ROOT = Path(__file__).resolve().parent.parent
WORK = Path(__file__).resolve().parent / ".work"
MIN_SETUP_SPAWNS = 5
CHILD_TIMEOUT_S = 150


def _child(mode: str, workload: str, seed: int, tag: str) -> dict:
    """Run child.py in a fresh interpreter.  Its JSON result; for
    `setup`, the parent-side wall time under `wall_s`."""
    out = WORK / f"{workload}-{seed}-{tag}.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    cmd = [sys.executable, str(Path(__file__).parent / "child.py"), mode, workload, str(seed), str(out)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    if mode == "setup":
        return {"wall_s": wall}
    result = json.loads(out.read_text())
    out.unlink()
    return result


def _check(workload: str, seed: int, rounds: list[dict]) -> tuple[int, int, list[str]]:
    """Attempted and failed operations over all rounds, and the first errors."""
    sys.path.insert(0, str(ROOT / "src"))
    import checks
    import distgraphs

    if Path(distgraphs.__file__).resolve().parent != ROOT / "src" / "distgraphs":
        raise RuntimeError(f"imported distgraphs from {distgraphs.__file__}, not this checkout")

    configs = workloads.configs(workload, seed)
    checkers = [checks.checker(c) for c in configs]
    aux = [c.gather() for c in checkers]
    attempted = failed = 0
    messages = []
    for k, rnd in enumerate(rounds):
        for i, (chk, csv_text) in enumerate(zip(checkers, rnd["records"])):
            try:
                results = chk.check(checks.parse_csv(csv_text), aux[i])
            except (ValueError, KeyError, IndexError, TypeError) as exc:
                results = [[f"malformed records: {exc!r}"]] * chk.operations
            for op, errors in enumerate(results):
                attempted += 1
                if errors:
                    failed += 1
                    messages += [f"round {k} sweep {i} operation {op}: {e}" for e in errors]
    return attempted, failed, messages


def sweep_seconds(rounds: list[dict], python_share: float | None = None) -> float:
    """Sum over the workload's sweeps of each sweep's median time: wall
    time, or with `python_share` time at the reference machine speed."""

    def times(r: dict) -> list[float]:
        if python_share is None:
            return r["sweep_times"]
        cal = r["calibration"]
        return [t / calibrate.slowdown(cal[i], cal[i + 1], python_share)
                for i, t in enumerate(r["sweep_times"])]

    per_sweep = zip(*(times(r) for r in rounds))
    return sum(statistics.median(ts) for ts in per_sweep)


def _setup_seconds(workload: str, seed: int, tag: str) -> float:
    """One set-up spawn's time at the reference machine speed."""
    before = calibrate.measure()
    wall = _child("setup", workload, seed, tag)["wall_s"]
    return wall / calibrate.slowdown(before, calibrate.measure(), workloads.SETUP_PYTHON_SHARE)


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    WORK.mkdir(exist_ok=True)
    metrics = {}
    if not trace:
        _child("setup", workload, seed, "warm")  # compiles bytecode once
    setup, plain, traced = [], [], []
    start = time.perf_counter()
    while True:
        # Set-up spawns are spread over the run like the rounds, so that
        # both medians cover the same stretch of the machine's speed.
        if not trace:
            setup.append(_setup_seconds(workload, seed, f"setup{len(setup)}"))
        mode = "trace" if trace and len(traced) < len(plain) else "sweep"
        (traced if mode == "trace" else plain).append(
            _child(mode, workload, seed, f"round{len(plain) + len(traced)}")
        )
        if time.perf_counter() - start >= seconds and (traced if trace else len(setup) >= MIN_SETUP_SPAWNS):
            break
    attempted, failed, messages = _check(workload, seed, plain + traced)
    for line in messages[:20]:
        print(f"check failed: {line}", file=sys.stderr)
    counts_repeat = True
    if not trace:
        metrics["setup_s"] = (statistics.median(setup), "s")
        metrics["sweep_s"] = (sweep_seconds(plain, workloads.PYTHON_SHARE[workload]), "s")
        print(f"{workload}: sweep wall time {sweep_seconds(plain):.4g} s, "
              f"{metrics['sweep_s'][0]:.4g} s at the reference speed", file=sys.stderr)
        metrics["peak_rss_mb"] = (statistics.median(r["peak_rss_kib"] for r in plain) / 1024.0, "MiB")
    else:
        import tracer

        per_round = [tracer.layer_metrics(r["spans"], r["counts"]) for r in traced]
        for name in tracer.TIME_METRICS:
            metrics[name] = (statistics.median(m[name] for m in per_round), "s")
        for name in tracer.COUNT_METRICS:
            values = {m[name] for m in per_round}
            if len(values) != 1:
                # The rounds ran the same inputs, so the program did different work.
                counts_repeat = False
                print(f"check failed: count {name} differs between traced rounds: {sorted(values)}",
                      file=sys.stderr)
            metrics[name] = (per_round[0][name], "count")
        metrics["ffgeom.histogram_pairs_per_s"] = (
            statistics.median(m["ffgeom.histogram_pairs_per_s"] for m in per_round), "1/s"
        )
        traced_s = sweep_seconds(traced)
        metrics["trace.sweep_s"] = (traced_s, "s")
        metrics["trace.overhead_s"] = (traced_s - sweep_seconds(plain), "s")
        metrics["trace.unattributed_s"] = (
            statistics.median(
                sum(r["sweep_times"]) - sum(m[f"{layer}.self_s"] for layer in tracer.LAYERS)
                for r, m in zip(traced, per_round)
            ),
            "s",
        )
        metrics["trace.rounds"] = (len(traced), "count")
    return {
        "correct": failed == 0 and counts_repeat,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (ROOT / "src" / "distgraphs" / "__init__.py").is_file():
        print(f"no distgraphs sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        try:
            results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace))
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            print(f"{name}: {exc}", file=sys.stderr)
            return 1
        res = results[name]
        print(f"{name}: attempted {res['attempted']}, failed {res['failed']}")
        for metric, m in res["metrics"].items():
            print(f"  {metric:32s} {m['value']:.6g} {m['unit']}")
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}/{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
