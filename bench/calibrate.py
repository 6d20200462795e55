"""A fixed reference workload that measures how fast the machine runs now.

The machines this benchmark runs on are shared, and their speed drifts by
up to a factor of two in phases lasting from tens of seconds to minutes;
the process's CPU time drifts with its wall time. A run therefore times this workload between its own
rounds, and the harness scales each round's time by the reference time
next to it (see harness.py). What it runs never changes with the seed or
with lanepack: pure-Python work (float arithmetic, tuples, dict and
list traffic), many small numpy calls, and a naive greedy disk packer that
mixes the two, the same blend of work as lanepack's. Its arrays stay
small, so that it adds little to the run's peak memory.
"""

from __future__ import annotations

import math
import random
from time import perf_counter

import numpy as np


def _interpreter(n: int = 80_000) -> float:
    acc = 0.0
    table: dict[int, float] = {}
    points = []
    for i in range(n):
        x = (i * 0.618033988749895) % 1.0
        acc += math.sqrt(x * x + 1.0)
        points.append((x, acc))
        table[i & 1023] = acc
    points.sort()
    return acc + points[n // 2][0] + len(table)


def _small_arrays(reps: int = 550) -> float:
    rng = np.random.default_rng(1)
    xs = rng.random(800)
    ys = rng.random(800)
    rs = rng.random(800) * 0.01
    xs_list = xs.tolist()
    total = 0.0
    for k in range(reps):
        m = 200 + (k * 37) % 600
        x = np.array(xs_list[:m])
        dy = np.abs(ys[:m] - 0.5)
        rsum = rs[:m] + 0.003
        near = dy < rsum
        d = np.sqrt(rsum[near] ** 2 - dy[near] ** 2)
        intervals = np.column_stack((x[near] - d, x[near] + d))
        order = np.argsort(intervals[:, 0], kind="stable")
        if len(order):
            total += float(intervals[order, 1].max())
    return total


def _greedy_disks(n: int = 220) -> float:
    """Bottom-left greedy packing of n disks into the unit square."""
    rng = random.Random(7)
    xs: list[float] = []
    ys: list[float] = []
    rs: list[float] = []
    for _ in range(n):
        r = rng.uniform(0.006, 0.012)
        ox, oy, orr = np.array(xs), np.array(ys), np.array(rs)
        y = r
        while True:
            x = r
            if len(xs):
                dy = np.abs(oy - y)
                rsum = orr + r
                near = dy < rsum
                d = np.sqrt(rsum[near] ** 2 - dy[near] ** 2)
                lo = ox[near] - d
                hi = ox[near] + d
                order = np.argsort(lo)
                for a, b in zip(lo[order].tolist(), hi[order].tolist()):
                    if a >= x:
                        break
                    x = max(x, b)
            if x <= 1.0 - r:
                break
            y += r
        xs.append(x)
        ys.append(y)
        rs.append(r)
    return sum(ys)


def reference_seconds() -> float:
    """Wall time of one pass of the reference workload (about 0.25 s)."""
    t0 = perf_counter()
    _interpreter()
    _small_arrays()
    _greedy_disks()
    return perf_counter() - t0
