"""A fixed reference kernel that measures how fast the host runs right now.

On a shared host the same code runs up to 2x slower for seconds to minutes
at a time, when other guests load the cores, caches and memory it shares.
CPU time does not leave that out: every instruction is slower.  The
benchmark therefore runs this kernel next to every job and scales the job's
CPU time by how much slower than nominal the kernel ran at that moment.

The kernel never touches qmarkov and never changes: it mixes the three kinds
of work qmarkov's jobs do (small one-thread BLAS products, a Python-level
loop, number formatting) and creates no container objects, so that what the
program leaves on the heap does not slow it.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# CPU seconds one call of ``run`` takes on a quiet 2-core Intel Xeon VM
# (Python 3.11, numpy 2.4, OpenBLAS 0.3.31, one BLAS thread).  Scaled times
# are CPU seconds at this speed.
NOMINAL_S = 3.5e-3

_A = np.random.default_rng(0).standard_normal((120, 120))


def run() -> float:
    """CPU seconds one pass of the kernel takes now."""
    start = time.process_time()
    for _ in range(6):
        _A @ _A
    total = 0
    for i in range(30000):
        total += i * i % 7
    for i in range(1500):
        f"{i * 0.37:.6g},{total}"
    return time.process_time() - start


def slowdown(samples: list[float]) -> float:
    """How much slower than nominal the host ran, from kernel times around one job."""
    return statistics.median(samples) / NOMINAL_S
