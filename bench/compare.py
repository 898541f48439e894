"""Two sets of benchmark runs of one checkout, checked against the
bounds in BENCHMARK.json.

    python3 bench/compare.py [--runs 10] [--sets 2] [--workload NAME ...]

Each run is `bench/run.py --trace 0` for `run_seconds`.  Every set runs
the same seeds, 1 to `--runs`, so the sets measure the same work.  Per
workload and end-to-end metric it prints each set's median and quartile
spread (Q3 - Q1 over the median, from `statistics.quantiles(values,
n=4)`) and each later set's drift (its median's change from the first
set's, as a share of it).  A workload agrees when every spread and the
absolute value of every drift is within the metric's bound, every run
fails the same share of its operations, and two traced runs of seed 1
report exactly the same work counts.  The last line is a JSON summary;
the exit code is 0 only if everything agrees.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
TRACE_SECONDS = 1


def _run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--workload", action="append", choices=workloads.NAMES)
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    summary = {}
    all_ok = True
    for workload in args.workload or workloads.NAMES:
        sets = [[_run(workload, seed, bench["run_seconds"], 0) for seed in range(1, args.runs + 1)]
                for _ in range(args.sets)]
        traced = [_run(workload, 1, TRACE_SECONDS, 1)["metrics"] for _ in range(2)]
        counts = {m: [t[m]["value"] for t in traced] for m in tracer.COUNT_METRICS}
        counts_ok = all(a == b for a, b in counts.values())
        shares = {r["failed"] / r["attempted"] for runs in sets for r in runs}
        ok = len(shares) == 1 and counts_ok
        rows = {"failed_shares": sorted(shares), "counts": counts, "counts_ok": counts_ok}
        print(f"{workload}: failed shares {sorted(shares)}, "
              f"counts {'repeat' if counts_ok else 'DIFFER'} over two traced runs")
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            values = [[r["metrics"][name]["value"] for r in runs] for runs in sets]
            medians = [statistics.median(v) for v in values]
            spreads = [spread(v) for v in values]
            drifts = [(m - medians[0]) / medians[0] for m in medians[1:]]
            metric_ok = all(s <= bound for s in spreads) and all(abs(d) <= bound for d in drifts)
            ok = ok and metric_ok
            rows[name] = {"values": values, "medians": medians, "spreads": spreads, "drifts": drifts,
                          "bound": bound, "ok": metric_ok}
            print(f"  {name:12s} medians {' '.join(f'{m:.4g}' for m in medians)} {metric['unit']}"
                  f"  spreads {' '.join(f'{s:.3f}' for s in spreads)}"
                  f"  drifts {' '.join(f'{d:+.3f}' for d in drifts)}  bound {bound}"
                  f"  {'ok' if metric_ok else 'OUT OF BOUND'}")
        rows["ok"] = ok
        all_ok = all_ok and ok
        summary[workload] = rows
    print(json.dumps({"ok": all_ok, "workloads": summary}))
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
