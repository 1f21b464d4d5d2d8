"""Machine-speed calibration for the benchmark's timings.

The benchmark runs on shared hosts whose per-CPU speed changes by up to
1.8x for seconds or minutes at a time (a busy neighbour on the same
physical core). A run's own medians cannot remove that: a 30-second run
may spend all of its time in one state. So every timed job is bracketed
by a fixed calibration loop on the same CPU, and each job time is scaled
to reference speed:

    normalized = measured * REFERENCE_NS[kind] / calibration

``calibration`` is the median of the loop's samples just before and just
after the job. ``REFERENCE_NS`` is the loop's time on the reference
machine (an uncontended Intel Xeon vCPU, Python 3.12, numpy 2.x), so the
normalized figures read as that machine's milliseconds. The loop lives
here, not in infoflow, so no change to the program moves it.

Two loops, because contention slows interpreter-bound and memory-bound
code by different factors (about 1.6x and 1.3x on the reference host):
``python`` (dict, str and sort work, like the CLI's per-record code) and
``array`` (reductions over a 2 MiB float64 array, like dense-joint
enumeration).
"""

from __future__ import annotations

import os
import statistics
from time import perf_counter_ns

import numpy as np

SAMPLES = 3  # loop runs per calibration point; their median is the point
REFERENCE_NS = {"python": 260_000, "array": 245_000}

_ARRAY = np.linspace(0.0, 1.0, 64 * 64 * 64).reshape(64, 64, 64)


def _python_loop() -> int:
    table = {f"k{i}": i for i in range(800)}
    ordered = sorted(table.items(), key=lambda kv: -kv[1])
    return sum(len(k) for k, _ in ordered)


def _array_loop() -> float:
    return float(_ARRAY.sum(axis=0).sum() + _ARRAY.sum(axis=2).sum())


LOOPS = {"python": _python_loop, "array": _array_loop}


def pin_to_one_cpu() -> int:
    """Pin this process (and the children it starts later) to one CPU, so a
    calibration and the work it scales run on the same CPU. Returns the CPU."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def point(kind: str) -> list[int]:
    """Nanoseconds of ``SAMPLES`` runs of the ``kind`` loop."""
    loop = LOOPS[kind]
    out = []
    for _ in range(SAMPLES):
        t0 = perf_counter_ns()
        loop()
        out.append(perf_counter_ns() - t0)
    return out


def scale(kind: str, before: list[int], after: list[int]) -> float:
    """Factor taking a time measured between two calibration points to
    reference speed."""
    return REFERENCE_NS[kind] / statistics.median(before + after)
