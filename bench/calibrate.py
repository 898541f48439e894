"""Machine-speed calibration for the benchmark's timings.

The benchmark runs on a few cores of a shared host whose speed drifts by
20% or more within a minute, so a wall time measured now and one
measured ten minutes later differ even for the same code.  Two fixed
kernels that belong to the benchmark, not to `distgraphs`, are timed
right before and right after each measured interval: an interpreter
loop and a small numpy array kernel.  Their times over their reference
times give the machine's slowdown for that interval, weighted by how
much of the measured work is interpreted Python.  A time divided by the
slowdown is that time at the reference speed; no program change can
move the kernels, so a faster program still reads faster.

    slowdown = share * py / PY_REF_S + (1 - share) * np / NP_REF_S

`PY_REF_S` and `NP_REF_S` are the kernels' median times on the 2-core
machine of the README's reference figures, so reference-speed times
read close to the wall times seen there.
"""

from __future__ import annotations

import time

import numpy as np

PY_REF_S = 0.049
NP_REF_S = 0.036

_POINTS = (np.arange(1200, dtype=np.int64) * 7919 % 101).reshape(400, 3)


def _py_kernel() -> int:
    total, table = 0, {}
    for i in range(300_000):
        total += i * i % 7
        table[i & 1023] = total
    return total


def _np_kernel() -> int:
    """Pairwise squared differences modulo 101 and their histogram, in row
    blocks small enough (under 0.25 MiB each) not to move peak memory."""
    total = 0
    for _ in range(4):
        for lo in range(0, len(_POINTS), 25):
            diff = (_POINTS[lo : lo + 25, None, :] - _POINTS[None, :, :]) % 101
            norms = (diff * diff).sum(axis=2) % 101
            total += int(np.bincount(norms.ravel(), minlength=101)[1])
    return total


def measure() -> tuple[float, float]:
    """Wall times of the interpreter kernel and the numpy kernel, once each."""
    start = time.perf_counter()
    _py_kernel()
    mid = time.perf_counter()
    _np_kernel()
    return mid - start, time.perf_counter() - mid


def slowdown(before: tuple[float, float], after: tuple[float, float], python_share: float) -> float:
    """The machine's slowdown over an interval bracketed by two `measure()`
    calls, for work that is `python_share` interpreted Python."""
    py = (before[0] + after[0]) / 2 / PY_REF_S
    arr = (before[1] + after[1]) / 2 / NP_REF_S
    return python_share * py + (1 - python_share) * arr
