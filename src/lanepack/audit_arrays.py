"""The audit's numpy passes, for packings of more than
audit._ALL_PAIRS_MAX circles: a strip sweep for overlapping pairs, and
array passes that run every other check of audit._python_passes, with
the same arithmetic, but only accept: a packing they do not accept goes
to the pure-Python passes, which write every finding.  audit.validate
imports this module, and numpy with it, only for such packings.
"""

from __future__ import annotations

import math
import struct
from collections import defaultdict
from itertools import count
from operator import countOf
from typing import TYPE_CHECKING

import numpy as np

from .audit import _STRUCT_TOL
from .geometry import EPS

if TYPE_CHECKING:
    from .classification import ClassTable
    from .geometry import Rect

# Candidate pairs tested per numpy pass; bounds the sweep's temporaries
# when many disks crowd one strip.
_PAIR_CHUNK = 1 << 18


def _extents(d: np.ndarray, eps: float) -> np.ndarray:
    """Padded extents of disks whose x, y and r are the rows of d, as a
    (2, 2, n) array: [start, end] x [x, y] x disk.

    The padding is |r| + |eps| plus a relative rounding margin, so no
    pair that overlaps by more than eps (eps may be negative) has
    disjoint extents on either axis.
    """
    pad = np.abs(d[2]) + abs(eps)
    half = pad + 1e-12 * (np.abs(d[:2]) + pad)
    ext = np.empty((2,) + half.shape)
    np.subtract(d[:2], half, out=ext[0])
    np.add(d[:2], half, out=ext[1])
    return ext


def _strips(xe: np.ndarray) -> np.ndarray:
    """First and last vertical strip, rows of an int64 (2, n) array, that
    each x-extent [xe[0, k], xe[1, k]] meets.

    The strips have width S = 2 max(sum of widths, span) / n, so there
    are at most n/2 + 1 of them, an extent of width w meets at most
    w/S + 2, and all n extents together at most 2.5n (about 1.5n when
    they lie at random).  The strip index is monotone in x, so two
    intersecting extents both meet the strip of the larger start.
    Extents that are not all finite, or all of zero width, share one
    strip.
    """
    n = xe.shape[1]
    x0 = xe[0].min()
    width = 2.0 * max((xe[1] - xe[0]).sum(), xe[1].max() - x0) / n
    if not (0.0 < width < math.inf and math.isfinite(x0)):
        return np.zeros((2, n), dtype=np.int64)
    return np.floor((xe - x0) / width).astype(np.int64)


def _swept_pairs(d: np.ndarray, eps: float):
    """Index arrays (a, b), a chunk at a time, covering every pair of disks
    whose padded extents (see _extents) intersect on both axes, each pair
    once; d holds the disks' x, y and r as rows.

    Each disk is filed in every vertical strip (see _strips) its x-extent
    meets; within a strip, a sort on the y-extents pairs the disks whose
    y-extents meet, and a pair counts only in the strip of the larger of
    its two x-extent starts.
    """
    n = d.shape[1]
    if n < 2:
        return
    ext = _extents(d, eps)
    # Disks are ranked by the start of their y-extent; the y-extent of
    # the disk ranked k meets those of the disks ranked k + 1 .. reach[k] - 1.
    by_y = np.argsort(ext[0, 1])
    ext = ext.take(by_y, axis=2)
    reach = np.searchsorted(ext[0, 1], ext[1, 1], side="right")
    first, last = _strips(ext[:, 0])
    # One entry per (strip, disk), keyed strip * m + rank and sorted.
    m = n + 1
    spans = last - first + 1
    total = int(spans.sum())
    base = np.cumsum(spans) - spans
    keys = np.sort(np.repeat((first - base) * m + np.arange(n), spans)
                   + np.arange(0, total * m, m))
    rank = keys % m
    row_key = keys - rank  # strip * m
    # Entries e + 1 .. e + counts[e] share the strip of e, and their
    # y-extents meet that of e.  A pair is kept only in the first strip
    # of one of its disks, which is the strip of the larger x-start.
    counts = (np.searchsorted(keys, row_key + reach[rank], side="left")
              - np.arange(1, total + 1))
    np.maximum(counts, 0, out=counts)
    opens = row_key == first[rank] * m
    disk = by_y[rank]
    ends = np.cumsum(counts)
    row = 0
    while row < total:
        budget = ends[row] - counts[row] + _PAIR_CHUNK
        stop = max(row + 1, int(np.searchsorted(ends, budget, side="right")))
        c = counts[row:stop]
        e = np.repeat(np.arange(row, stop), c)
        f = e + 1 + np.arange(len(e)) - np.repeat(np.cumsum(c) - c, c)
        keep = opens[e] | opens[f]
        yield disk[e[keep]], disk[f[keep]]
        row = stop


# A NaN or an infinity is audited as the pure-Python passes audit it,
# without numpy's warnings.
@np.errstate(invalid="ignore", over="ignore")
def swept_overlaps(d: np.ndarray, eps: float) -> list[tuple[int, int]]:
    """audit._pairwise_overlaps of the disks whose x, y and r are the
    rows of d, testing only the candidate pairs of the strip sweep
    (_swept_pairs)."""
    xs, ys, rs = d
    hits = []
    for a, b in _swept_pairs(d, eps):
        # The test is symmetric in a and b, bit for bit.
        dx = xs[a] - xs[b]
        dy = ys[a] - ys[b]
        rsum = rs[a] + rs[b] - eps
        np.maximum(rsum, 0.0, out=rsum)  # rsum <= 0 never overlaps
        bad = dx * dx + dy * dy < rsum * rsum
        if bad.any():
            pairs = zip(a[bad].tolist(), b[bad].tolist())
            hits.extend((min(p), max(p)) for p in pairs)
    return sorted(hits)


def held_arrays(cols: tuple):
    """The float64 rows (x, y, r) and int64 rows (seq, class) of the
    columns, or None unless every x, y and r is a float and every seq and
    class an int (not a bool) that int64 holds."""
    xs, ys, rs, seqs, _, class_indices = cols
    n = len(xs)
    if not (countOf(map(type, xs), float) == countOf(map(type, ys), float)
            == countOf(map(type, rs), float) == countOf(map(type, seqs), int)
            == countOf(map(type, class_indices), int) == n):
        return None
    # struct copies each value's bits, in one call per dtype.
    try:
        ints = struct.pack(f"{2 * n}q", *seqs, *class_indices)
    except struct.error:  # an int that int64 does not hold
        return None
    d = struct.pack(f"{3 * n}d", *xs, *ys, *rs)
    return (np.frombuffer(d).reshape(3, n),
            np.frombuffer(ints, np.int64).reshape(2, n))


@np.errstate(invalid="ignore", over="ignore")
def array_passes(cols: tuple, d: np.ndarray, ints: np.ndarray, box: Rect,
                 table: ClassTable, lane_by_id: dict):
    """The checks of audit._python_passes as numpy array passes over the
    rows d (x, y, r) and ints (seq, class) of the same columns, with the
    same arithmetic and comparisons, elementwise: (the total area, the
    area per lane) when none of them finds anything, and None otherwise,
    so that the pure-Python passes report what they find."""
    x, y, r = d
    seq, klass = ints
    n = len(x)
    # Lanes numbered 0, 1, ... in order of first appearance.
    numbers = defaultdict(count().__next__)
    lane = np.fromiter(map(numbers.__getitem__, cols[4]), np.intp, n)
    ids = list(numbers)
    infos = [lane_by_id.get(lane_id) for lane_id in ids]
    if (any(info is None for info in infos)
            or (seq != np.arange(n)).any()
            or (~((x - r >= box.x0 - EPS) & (x + r <= box.x1 + EPS)
                  & (y - r >= box.y0 - EPS) & (y + r <= box.y1 + EPS))).any()):
        return None

    # Each lane's class, radius range and frame.
    cls = np.array([info.class_index for info in infos])
    rows = [table.row(info.class_index) for info in infos]
    frame = np.array([
        (row.lower_bound - EPS, row.upper_bound + EPS, *info.origin,
         *info.eu, *info.ev, info.width)
        for info, row in zip(infos, rows)]).T
    # Each lane's circles in arrival order, pos being a circle's place in
    # its lane.  A stable sort on 8- or 16-bit lane numbers is a radix sort.
    m = len(ids)
    order = np.argsort(lane.astype(np.min_scalar_type(m)), kind="stable")
    ls = lane.take(order)
    counts = np.bincount(lane, minlength=m)
    pos = np.arange(n) - (np.cumsum(counts) - counts).take(ls)
    lc = cls.take(ls)
    above, below, ox, oy, eu0, eu1, ev0, ev1, w = frame.take(ls, axis=1)
    xo, yo, ro = d.take(order, axis=1)
    # Class and radius range, then the alternation height.
    bad = (klass.take(order) != lc) | ~((above < ro) & (ro <= below))
    dx = xo - ox
    dy = yo - oy
    u = dx * eu0 + dy * eu1
    v = dx * ev0 + dy * ev1
    bad |= np.abs(v - np.where(pos & 1, w - ro, ro)) > _STRUCT_TOL
    # Monotone order and (SLP) minimum gap: each circle but its lane's
    # first against the one before it.  np.where picks the operand
    # min(r, prev_r) would, NaN included.
    r0, r1 = ro[:-1], ro[1:]
    bad[1:] |= (pos[1:] > 0) & ((u[1:] < u[:-1] - _STRUCT_TOL) | (
        (lc[1:] != 0)
        & (u[1:] - u[:-1] < np.where(r0 < r1, r0, r1) - _STRUCT_TOL)))
    if bad.any():
        return None
    area = np.pi * r * r
    sums = np.zeros(m)
    np.add.at(sums, lane, area)  # in placement order, lane by lane
    return (np.add.accumulate(area)[-1].item(),  # left to right
            dict(zip(ids, sums.tolist())))
