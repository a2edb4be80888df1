"""How fast the host runs during a run, from a fixed reference computation.

On a shared two-core VM the same pass can take anywhere from 1x to 2x its
fastest time, because other tenants slow the host for seconds to minutes
at a time; CPU time stretches with wall time, so neither is steady on its
own, and two sets of runs made minutes apart can differ by half. The
benchmark therefore times `reference_seconds()` before the first pass and
after every pass, and multiplies every reported time by `REFERENCE_S` over
the median of those timings: each time is reported at the host speed where
the reference takes `REFERENCE_S`.
"""
from __future__ import annotations

import math
import statistics
import time

import numpy as np

# reference_seconds() on an unloaded 2-vCPU Xeon VM at 2.0 GHz
REFERENCE_S = 0.1
_REPEATS = 10


def reference_seconds() -> float:
    """Time fixed work shaped like the program's hot loops: sorting tuples
    of Python-computed distances and small matrix-vector products."""
    rng = np.random.default_rng(12345)
    points = rng.uniform(size=(150, 3)).tolist()
    basis = rng.uniform(size=(256, 30))
    weights = rng.uniform(size=30)
    started = time.perf_counter()
    for _ in range(_REPEATS):
        sorted((math.dist(points[i], points[j]), i, j) for i in range(150) for j in range(i + 1, 150))
        for _ in range(400):
            weights = weights * 0.999 + np.argmax(basis @ weights) * 1e-6
    return time.perf_counter() - started


def speed_scale(reference_timings: list[float]) -> float:
    """Factor that brings times measured during the run to the nominal speed."""
    return REFERENCE_S / statistics.median(reference_timings)
