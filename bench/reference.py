"""Reference kernel: fixed work, independent of the package, timed around every op.

The machine the benchmark runs on may be a slice of a shared host whose speed
drifts by up to 1.6x in phases lasting tens of seconds (other tenants load
the same cores and caches). An absolute time then spreads by as much between
runs, and no statistic over one run removes a phase longer than the run. So
the ops of an untraced round are interleaved with this kernel, a fixed mix
of what the program's ops do (small SciPy HiGHS solves and interpreted
Python), and each op's latency is divided by the mean of the kernel's times
just before and just after it: the host's speed cancels in the ratio. Ratios
are converted back to seconds with ``REFERENCE_S``, the kernel's time on an
unloaded host, so a timing reads as the wall time the op would take there.

The kernel uses NumPy, SciPy and the standard library only, so no change to
the package can move it. It runs twice and only the second call is timed, so
that what the op left in the caches does not set its time, and the cyclic
garbage collector is off meanwhile, so that the program's heap does not.
"""

from __future__ import annotations

import gc
import time

import numpy as np
from scipy.optimize import linprog

# One warm kernel call on an unloaded 2-vCPU Xeon (Sapphire Rapids) KVM guest
# with Python 3.11 and SciPy 1.17: about the 5th percentile of 1,200 calls
# made between ops of the plan workload.
REFERENCE_S = 0.006

_rng = np.random.default_rng(0)
_C = -_rng.random(40)
_A = _rng.random((25, 40))
_B = _rng.random(25) * 10.0


def _kernel() -> int:
    for _ in range(2):
        res = linprog(_C, A_ub=_A, b_ub=_B, bounds=(0, 1), method="highs")
        if res.status != 0:
            raise RuntimeError(f"reference LP failed: {res.message}")
    s = 0
    d = {}
    for i in range(5000):
        s += (i * i) % 7
        d[i & 255] = s
    return s


def seconds() -> float:
    """Wall time of one warm kernel call, with the cyclic collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        _kernel()
        t0 = time.perf_counter()
        _kernel()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()
