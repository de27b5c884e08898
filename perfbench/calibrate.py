"""Fixed calibration loop: a yardstick for how fast the machine runs right now.

On a host shared with other tenants the same sweep takes from 220 to 420 ms
within a minute, and CPU time moves with wall time, so the contention is
charged to the process and cannot be told apart from it. The loop below
does a fixed mix of the work a trial does (tiny SVDs, small mat-vecs,
sorts and plain interpreter arithmetic) and is timed between sweeps. A
sweep's time divided by the loop's time next to it stays within a few
percent while the raw time swings by a third.

The loop does not use the package, so no change to the package changes it.
"""
from __future__ import annotations

import statistics
import time

import numpy as np

_RNG = np.random.default_rng(20141119)
_LINKS = _RNG.standard_normal((64, 2, 2)) + 1j * _RNG.standard_normal((64, 2, 2))
_COUPLING = _RNG.random((64, 8, 8))
REPEATS = 9


def loop() -> float:
    acc = 0.0
    for h, b in zip(_LINKS, _COUPLING):
        s = np.linalg.svd(h, compute_uv=False)
        v = np.sort(b @ b[0])
        acc += float(np.cumsum(v)[-1]) + float(s[0])
        for j in range(16):
            acc += j * 0.5
    return acc


def seconds() -> float:
    """Median time of REPEATS runs of the loop: one calibration unit."""
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        loop()
        times.append(time.perf_counter() - start)
    return statistics.median(times)
