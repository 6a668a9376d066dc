"""The frozen calibration kernel.

About 100 ms of the interpreter work the engine is made of: tuple
building, a dict group-sum and a sort.  The harness times it next to every
cycle and reports ``cycle seconds / adjacent calibration seconds`` so that
a host that is slower or faster for a while moves both alike.

The kernel keeps almost nothing alive: each tuple is dropped before the
next is built.  A first version kept 90k tuples and its time followed the
allocator's state (what the workload had just freed) more than the host:
across six identical processes ``cycle / kernel`` ranged over 9.5 %, with
this version over 2.3 %, including one process hit by a burst that moved
raw cycle seconds by 20 %.

FROZEN: this file defines the unit of every ``*_cal`` metric.  Editing the
kernel (its size, its operations, even their order) resets the committed
trajectory, so never change it together with anything else.
"""

from __future__ import annotations

import gc
import time

#: Tuples the kernel builds; sized for ~100 ms on the reference host.
ROWS = 400_000


def kernel(rows: int = ROWS) -> int:
    """Run the calibration work once; the return value only keeps the
    work from being optimised away by a future interpreter."""
    sums: dict[int, float] = {}
    get = sums.get
    for i in range(rows):
        row = (i * 7919 % 1009, i & 255, i * 0.5)
        sums[row[0]] = get(row[0], 0.0) + row[2]
    keys = [i * 7919 % 20011 for i in range(rows // 8)]
    keys.sort()
    return len(sums) + len(keys)


def calibrate() -> float:
    """Wall seconds of one kernel run, with the collector off so that the
    time does not depend on the size of the workload's heap."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        kernel()
        return time.perf_counter() - started
    finally:
        if enabled:
            gc.enable()
