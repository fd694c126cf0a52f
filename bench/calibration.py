"""Fixed calibration kernels that measure the host's speed between ops.

On a shared host the speed of the same code drifts by 15-60% in
episodes of seconds to minutes, and process CPU time drifts with it (it
is not stolen time).  A 25-s run sees one such episode, so the median
op wall times of runs of the same code spread more than any useful
bound.  The benchmark therefore times a kernel before the first op and
after every op, and reports op time at the reference host speed:
``op_s / kernel_s * REFERENCE_S[kind]``, with ``kernel_s`` the mean of
the kernel times just before and just after the op.

The kernels are the benchmark's own code and call nothing in
``thintail``, so a change to the program moves the op time and not the
kernel time.  Each imitates the kind of work its workload's leading
layer does, because kinds of work slow down by different amounts: on
the same runs, the matching kernel cut the run-to-run spread of the
median op time from 0.22 to 0.04 (``curve_sweep``, ``scalar``), from
0.08 to 0.02 (``event_capital``, ``records``) and from 0.08 to 0.05
(``compare_tail``, ``numpy``), where a mismatched kernel did about half
as well.
"""

from __future__ import annotations

import math
import time
from datetime import date, timedelta

import numpy as np

_LINES = [
    f"{(i * 7919 % 100_003) / 997.0:.6f},{(date(2015, 1, 1) + timedelta(days=i % 1826)).isoformat()},EV{i % 40:03d}"
    for i in range(12_000)
]


def scalar_kernel() -> float:
    """Interpreted scalar float arithmetic, as in the series and continued fractions of ``specfun``."""
    total = 0.0
    for line in _LINES:
        amount, day, event = line.split(",")
        x = float(amount)
        total += math.exp(-x / (1.0 + date.fromisoformat(day).day)) + math.log1p(x) * len(event)
    return total


def records_kernel() -> int:
    """Rows parsed into tuples that stay alive, then grouped, as in ``ingest``."""
    rows = []
    for line in _LINES:
        amount, day, event = line.split(",")
        rows.append((float(amount), date.fromisoformat(day), event))
    groups: dict[str, float] = {}
    for amount, _, event in rows:
        groups[event] = groups.get(event, 0.0) + amount
    return len(groups)


def numpy_kernel() -> float:
    """numpy's gamma sampler on a Philox stream, as in the ``dist`` samplers."""
    rng = np.random.Generator(np.random.Philox(key=7))
    return float(np.power(2.0 * rng.standard_gamma(0.25, 150_000), 0.25).sum())


KERNELS = {"scalar": scalar_kernel, "records": records_kernel, "numpy": numpy_kernel}
# Seconds of one kernel call on the reference host, a shared 2-vCPU Xeon VM
# (Python 3.11.7, numpy 2.4.6): the lowest decile over 21 benchmark runs,
# that is, the host at its fast steady speed.
REFERENCE_S = {"scalar": 0.0085, "records": 0.0080, "numpy": 0.0093}


def calibrated(ops: list[dict], kernel_s: list[float]) -> list[float]:
    """Each op's seconds over the mean kernel seconds just before and just after it.

    ``kernel_s[i]`` is timed before op ``i`` and ``kernel_s[i + 1]`` after it.
    """
    return [op["s"] / (0.5 * (kernel_s[i] + kernel_s[i + 1])) for i, op in enumerate(ops)]


def measure(kind: str, calls: int) -> float:
    """Median seconds of one call over ``calls`` calls of the kernel."""
    kernel = KERNELS[kind]
    times = []
    for _ in range(calls):
        start = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - start)
    times.sort()
    return times[len(times) // 2]
