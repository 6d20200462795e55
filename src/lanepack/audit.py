"""Independent verification of packings.

validate() re-derives everything from the recorded placements, the lane
table and the container's layout: pairwise overlaps, containment,
class/lane consistency, and the per-lane structural rules (alternation,
monotone order, minimum gap) in frames that it derives from the layout.
It reads a result alone, never the packer's lane state, and imports no
packer module.
"""

from __future__ import annotations

import bisect
import math
from typing import TYPE_CHECKING, Sequence

from .geometry import EPS
from .layout import (STATUS_ALL_PACKED, STATUS_REJECTED, PackResult,
                     columns, lane_frames, layout)

if TYPE_CHECKING:
    import numpy as np

# Structural checks run at a looser tolerance than the geometric eps:
# canonical coordinates are reconstructed through an isometry round trip.
_STRUCT_TOL = 1e-7


class Violation:
    def __init__(self, kind: str, detail: str, indices: tuple[int, ...] = ()):
        # overlap, out_of_container, class_mismatch, order or guarantee
        self.kind, self.detail, self.indices = kind, detail, indices


class AuditReport:
    def __init__(self, valid: bool):
        self.valid = valid
        self.violations: list[Violation] = []
        self.density = 0.0
        self.per_lane_occ = {}

    def to_json_dict(self) -> dict:
        return {
            "valid": self.valid,
            "violations": [
                {"kind": v.kind, "detail": v.detail,
                 "indices": list(v.indices)}
                for v in self.violations
            ],
            "density": self.density,
            "per_lane_occ": self.per_lane_occ,
        }


# Up to this many disks a pure-Python sort-and-sweep on x costs less than
# the numpy strip sweep (in-process, prefixes of packed streams, median of
# interleaved calls: 0.2x at 16 disks, 0.7-1.0x at 44, 1.4-1.8x at 64),
# and the audit of a small packing never imports numpy.
_ALL_PAIRS_MAX = 44

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
    import numpy as np

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
    import numpy as np

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
    import numpy as np

    n = d.shape[1]
    if n < 2:
        return
    ext = _extents(d, eps)
    # Disks are ranked by the start of their y-extent; the y-extent of
    # the disk ranked k meets those of the disks ranked k + 1 .. reach[k] - 1.
    by_y = np.argsort(ext[0, 1])
    reach = np.searchsorted(ext[0, 1, by_y], ext[1, 1, by_y], side="right")
    first, last = _strips(ext[:, 0, by_y])
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


def _pairwise_overlaps(xs: Sequence[float], ys: Sequence[float],
                       rs: Sequence[float],
                       eps: float) -> list[tuple[int, int]]:
    """Sorted pairs (i, j), i < j, of disks overlapping by more than eps;
    disk k has centre (xs[k], ys[k]) and radius rs[k].

    A pair with r_a + r_b <= eps never overlaps by more than eps.  Sets
    of up to _ALL_PAIRS_MAX disks sort their padded x-extents (as in
    _extents) and test the pairs whose extents meet, or every pair when
    an extent is not finite; larger ones only the candidate pairs of a
    numpy strip sweep (_swept_pairs: vertical strips, then a sort on y
    within each strip).  Both paths use the same arithmetic.
    """
    n = len(xs)
    if n <= _ALL_PAIRS_MAX:
        pad = abs(eps)
        ext = []
        total = 0.0
        for k, (x, r) in enumerate(zip(xs, rs)):
            half = abs(r) + pad
            half += 1e-12 * (abs(x) + half)
            total += half
            ext.append((x - half, x + half, k))
        if math.isfinite(total):
            ext.sort()
        else:  # a NaN does not sort: make every pair a candidate
            ext = [(-math.inf, math.inf, k) for _, _, k in ext]
        starts = [e[0] for e in ext]
        hits = []
        for s, (_, end, i) in enumerate(ext, 1):
            for _, _, j in ext[s:bisect.bisect_right(starts, end, s)]:
                # The test is symmetric in i and j, bit for bit.
                dx = xs[i] - xs[j]
                dy = ys[i] - ys[j]
                rsum = rs[i] + rs[j] - eps
                if dx * dx + dy * dy < rsum * rsum and rsum > 0:
                    hits.append((i, j) if i < j else (j, i))
        hits.sort()
        return hits
    import numpy as np

    d = np.array([xs, ys, rs])
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


def validate(result: PackResult) -> AuditReport:
    """Audit a result at the constant tolerance EPS, whatever it records;
    ValueError when its container, mode and aspect have no layout, or
    when its lane table does not fit that layout (see lane_frames)."""
    # The container, mode and aspect pick the table, box, guarantee and
    # lane frames; the file's own w and guarantee do not.
    frames = layout(result.container, result.mode, result.b)
    table, guarantee, box = frames.table, frames.guarantee, frames.box
    lane_by_id = lane_frames(frames, result.lanes)
    report = AuditReport(valid=True)
    xs, ys, rs, seqs, lane_ids, class_indices = columns(result.placements)
    n = len(xs)

    # One pass: arrival order, containment, lanes and areas, each area
    # added left to right.  A lane's group lists its placements' indices.
    in_order = True
    escaped = []
    groups: dict[str, list[int]] = {}
    occ = report.per_lane_occ
    total = 0.0
    x0, x1 = box.x0 - EPS, box.x1 + EPS
    y0, y1 = box.y0 - EPS, box.y1 + EPS
    for k, (x, y, r, seq, lane_id) in enumerate(zip(xs, ys, rs, seqs,
                                                    lane_ids)):
        if seq != k:
            in_order = False
        if not (x - r >= x0 and x + r <= x1 and y - r >= y0 and y + r <= y1):
            escaped.append(Violation(
                "out_of_container", f"circle {k} leaves the container", (k,)))
        area = math.pi * r * r
        total += area
        ks = groups.get(lane_id)
        if ks is None:
            groups[lane_id] = [k]
        else:
            ks.append(k)
        occ[lane_id] = occ.get(lane_id, 0.0) + area

    # Arrival order is a packed prefix: placement k holds arrival k, and a
    # rejected run stopped at the arrival right after it.
    if not in_order:
        report.violations.append(Violation(
            "order", "sequence indices are not 0, 1, 2, ... in placement "
            "order"))
    expect = {STATUS_ALL_PACKED: None, STATUS_REJECTED: n}
    if (result.status not in expect
            or result.rejected_index != expect[result.status]
            or type(result.rejected_index) not in (int, type(None))):
        report.violations.append(Violation(
            "order", f"status {result.status!r} with rejected index "
            f"{result.rejected_index!r} after {n} placements"))
    # A rejected run names the radius it refused; a complete one none.
    radius = result.rejected_radius
    named = (type(radius) in (int, float) and 0 < radius < math.inf)
    if (result.status == STATUS_REJECTED and not named
            or result.status == STATUS_ALL_PACKED and radius is not None):
        report.violations.append(Violation(
            "order", f"status {result.status!r} with rejected radius "
            f"{radius!r}"))
    # Every sequence of area at most the guarantee packs.
    elif result.status == STATUS_REJECTED:
        area = total + math.pi * radius * radius
        if area <= guarantee:
            report.violations.append(Violation(
                "guarantee", f"rejected at area {area!r}, the refused "
                f"circle's included, within the guarantee {guarantee!r}"))

    for i, j in _pairwise_overlaps(xs, ys, rs, EPS):
        gap = math.hypot(xs[i] - xs[j], ys[i] - ys[j]) - rs[i] - rs[j]
        report.violations.append(Violation(
            "overlap", f"circles {i} and {j} overlap by {-gap:.3g}", (i, j)))
    report.violations += escaped

    for lane_id, ks in groups.items():
        info = lane_by_id.get(lane_id)
        if info is None:
            report.violations.append(Violation(
                "class_mismatch", f"unknown lane id {lane_id!r}"))
            continue
        cls = info.class_index
        row = table.row(cls)
        lo, hi = row.lower_bound, row.upper_bound
        above, below = lo - EPS, hi + EPS
        for k in ks:
            if class_indices[k] != cls:
                report.violations.append(Violation(
                    "class_mismatch",
                    f"circle {seqs[k]} of class {class_indices[k]} recorded "
                    f"in class-{cls} lane {lane_id}", (seqs[k],)))
            elif not (above < rs[k] <= below):
                report.violations.append(Violation(
                    "class_mismatch",
                    f"radius {rs[k]} outside class-{cls} range "
                    f"({lo}, {hi}] in lane {lane_id}", (seqs[k],)))
        if not in_order:
            ks.sort(key=seqs.__getitem__)
        # Alternation, monotone order, and (for SLP) the minimum gap, in
        # the lane's canonical frame with the arithmetic of Frame.to_local.
        # The packer takes TLP for class 0 and SLP for every other class,
        # so the class decides the gap check, as in find_position.
        (ox, oy), (eu0, eu1), (ev0, ev1) = info.origin, info.eu, info.ev
        w = info.width
        slp = cls != 0
        prev_u = None
        for parity, k in enumerate(ks):
            dx = xs[k] - ox
            dy = ys[k] - oy
            u = dx * eu0 + dy * eu1
            v = dx * ev0 + dy * ev1
            r, seq = rs[k], seqs[k]
            expect_v = w - r if parity & 1 else r
            if abs(v - expect_v) > _STRUCT_TOL:
                report.violations.append(Violation(
                    "order", f"circle {seq} in {lane_id} off the "
                    f"alternation height (v={v}, expected {expect_v})",
                    (seq,)))
            if prev_u is not None:
                if u < prev_u - _STRUCT_TOL:
                    report.violations.append(Violation(
                        "order", f"circle {seq} in {lane_id} breaks the "
                        f"monotone frontier", (seq,)))
                # The comparison picks the operand min(r, prev_r) would.
                if slp and u - prev_u < ((prev_r if prev_r < r else r)
                                         - _STRUCT_TOL):
                    report.violations.append(Violation(
                        "order", f"circle {seq} in {lane_id} violates the "
                        f"minimum gap", (seq,)))
            prev_u, prev_r = u, r

    report.density = total / box.area
    report.valid = not report.violations
    return report
