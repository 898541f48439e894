"""One fresh interpreter running one workload once, for `run.py`.

    python3 bench/child.py setup|sweep|trace WORKLOAD SEED OUT.json

`setup` imports the package and validates the workload's configs and
writes nothing else.  `sweep` times `experiments.run(config)` plus
`records_csv()` for each config of the workload and writes the records,
the wall time of each sweep, the calibration kernels' times before the
first sweep and after each (see `calibrate.py`) and this process's peak
resident memory.
`trace` does the same with the benchmark's tracer installed and also
writes its spans and counts.  The package is imported from the `src`
directory of the checkout this file sits in.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def peak_rss_kib() -> int:
    """Peak resident memory of this process's own address space.  Linux
    carries the spawning parent's peak into `ru_maxrss` across exec, so
    the kernel's per-address-space high-water mark is read where it
    exists."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main(argv: list[str]) -> int:
    mode, workload, seed, out = argv[0], argv[1], int(argv[2]), Path(argv[3])
    import calibrate
    import workloads

    import distgraphs
    from distgraphs import experiments

    if Path(distgraphs.__file__).resolve().parent != ROOT / "src" / "distgraphs":
        print(f"imported distgraphs from {distgraphs.__file__}, not this checkout", file=sys.stderr)
        return 2
    if mode == "trace":
        import tracer

        trace = tracer.install()
    configs = [experiments.ExperimentConfig.from_dict(c) for c in workloads.configs(workload, seed)]
    if mode == "setup":
        return 0
    records, times, calibration = [], [], [calibrate.measure()]
    for config in configs:
        start = time.perf_counter()
        records.append(experiments.run(config).records_csv())
        times.append(time.perf_counter() - start)
        calibration.append(calibrate.measure())
    result = {"sweep_times": times, "calibration": calibration, "peak_rss_kib": peak_rss_kib(),
              "records": records}
    if mode == "trace":
        result["spans"] = trace.spans
        result["counts"] = dict(trace.counts)
    out.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
