"""A fixed reference kernel that measures how fast the machine runs right now.

On a 2-core x86-64 VM shared with other load, over a minute, the same op
took anywhere from 1x to 2x its fastest time, and CPU time tracked wall
time, so no other clock removes the drift.  Every op is therefore timed
between two runs of this kernel, and its latency is reported in seconds at
the kernel's nominal speed:

    latency * (NOMINAL_S / mean(yardstick before, yardstick after)) ** exponent

where the exponent is the workload's (``workloads.YARDSTICK_EXPONENT``).

The kernel belongs to the benchmark and never calls finslerforms.  It runs
with the garbage collector off and its arrays preallocated, so objects that
the program leaves alive cannot slow it down by way of a collection.  It
mixes the two kinds of work the
program does: truncated-polynomial products on Python floats, as in jet
arithmetic, and elementwise NumPy on arrays, as on quadrature grids.
"""

from __future__ import annotations

import gc
import time

import numpy as np

NOMINAL_S = 0.0011  # about the kernel's time on a 2-core x86-64 VM with no other load
REPEATS = 3  # the fastest of a few runs drops one-off interruptions


_X0 = np.linspace(0.0, 1.0, 2048)
_x = np.empty_like(_X0)
_sq = np.empty_like(_X0)


def _kernel():
    a = [1.0 + 0.1 * i for i in range(6)]
    b = [0.5 - 0.05 * i for i in range(6)]
    acc = 0.0
    for _ in range(150):
        prod = [sum(a[j] * b[k - j] for j in range(k + 1)) for k in range(6)]
        acc += prod[-1]
    x, sq = _x, _sq
    np.copyto(x, _X0)
    for _ in range(30):  # x = 0.9 cos(x) + 0.05 x^2, in place
        np.multiply(x, x, out=sq)
        sq *= 0.05
        np.cos(x, out=x)
        x *= 0.9
        x += sq
    return acc + float(x[0])


def scale(latency, before, after, exponent):
    """``latency`` at the kernel's nominal speed, from the kernel's times
    just before and just after it."""
    return latency * (NOMINAL_S / (0.5 * (before + after))) ** exponent


def measure():
    """Seconds the kernel takes now (fastest of REPEATS runs)."""
    best = float("inf")
    enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            _kernel()
            best = min(best, time.perf_counter() - t0)
    finally:
        if enabled:
            gc.enable()
    return best
