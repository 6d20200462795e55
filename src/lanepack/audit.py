"""Independent verification of packings.

validate() re-derives everything from the recorded placements, the lane
table and the container's layout: pairwise overlaps, containment,
class/lane consistency, and the per-lane structural rules (alternation,
monotone order, minimum gap) in frames that it derives from the layout.
It reads a result alone, never the packer's lane state, and imports no
packer module.

Containment, class and lane findings are written by one reporter, the
pure-Python passes, one circle at a time.  Packings of up to
_ALL_PAIRS_MAX circles get them alone, without numpy.  Larger ones whose
x, y and r columns hold floats and whose seq and class columns hold ints
go first to the numpy passes of audit_arrays, which make the same
comparisons with the same arithmetic but only accept: a packing they
accept has no finding but its overlaps, and the areas they add, in the
same order, are the pure-Python ones bit for bit.  Every other packing
takes the pure-Python passes, which report what they find.
"""

from __future__ import annotations

import bisect
import math
from typing import TYPE_CHECKING, Sequence

from .geometry import EPS
from .layout import (STATUS_ALL_PACKED, STATUS_REJECTED, PackResult,
                     columns, lane_frames, layout)

if TYPE_CHECKING:
    from .classification import ClassTable
    from .geometry import Rect

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


# Up to this many disks validate runs pure-Python passes, and above it
# the numpy passes of audit_arrays, whose fixed cost the per-disk saving
# repays only from about 64 disks on: the numpy audit took 1.5x the
# pure-Python time at 48 disks, 1.1-1.25x at 56-60, 0.97x at 64 and
# 0.7-0.8x at 80 (whole validate of prefixes of both benchmark streams
# read back from JSON, in process, median of 41 interleaved pairs;
# Python 3.11, numpy 2.4).  A small audit never imports numpy.
_ALL_PAIRS_MAX = 64


def _pairwise_overlaps(xs: Sequence[float], ys: Sequence[float],
                       rs: Sequence[float],
                       eps: float) -> list[tuple[int, int]]:
    """Sorted pairs (i, j), i < j, of disks overlapping by more than eps;
    disk k has centre (xs[k], ys[k]) and radius rs[k].

    A pair with r_a + r_b <= eps never overlaps by more than eps.  Sets
    of up to _ALL_PAIRS_MAX disks sort their padded x-extents (as in
    audit_arrays._extents) and test the pairs whose extents meet, or
    every pair when an extent is not finite; larger ones go to
    audit_arrays.swept_overlaps.  Both paths use the same arithmetic.
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

    from . import audit_arrays

    return audit_arrays.swept_overlaps(np.array([xs, ys, rs]), eps)


def _python_passes(cols: tuple, box: Rect, table: ClassTable,
                   lane_by_id: dict, occ: dict) -> tuple:
    """Arrival order, containment, areas and each lane's rules, one circle
    at a time: (whether the placements are in arrival order, the total
    area, the escapes, the lane findings).  Each area is added left to
    right, to the total and to its lane's entry of occ."""
    xs, ys, rs, seqs, lane_ids, class_indices = cols
    # One pass: arrival order, containment, lanes and areas.  A lane's
    # group lists its placements' indices.
    in_order = True
    escaped = []
    groups: dict[str, list[int]] = {}
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

    found = []
    for lane_id, ks in groups.items():
        info = lane_by_id.get(lane_id)
        if info is None:
            found.append(Violation("class_mismatch",
                                   f"unknown lane id {lane_id!r}"))
            continue
        cls = info.class_index
        row = table.row(cls)
        lo, hi = row.lower_bound, row.upper_bound
        above, below = lo - EPS, hi + EPS
        for k in ks:
            c = class_indices[k]
            if type(c) is not int or c != cls:  # a bool or 1.0 too
                found.append(Violation(
                    "class_mismatch", f"circle {seqs[k]} of class {c} "
                    f"recorded in class-{cls} lane {lane_id}", (seqs[k],)))
            elif not (above < rs[k] <= below):
                found.append(Violation(
                    "class_mismatch", f"radius {rs[k]} outside class-{cls} "
                    f"range ({lo}, {hi}] in lane {lane_id}", (seqs[k],)))
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
                found.append(Violation(
                    "order", f"circle {seq} in {lane_id} off the alternation "
                    f"height (v={v}, expected {expect_v})", (seq,)))
            if prev_u is not None:
                if u < prev_u - _STRUCT_TOL:
                    found.append(Violation(
                        "order", f"circle {seq} in {lane_id} breaks the "
                        f"monotone frontier", (seq,)))
                # The comparison picks the operand min(r, prev_r) would.
                if slp and u - prev_u < ((prev_r if prev_r < r else r)
                                         - _STRUCT_TOL):
                    found.append(Violation(
                        "order", f"circle {seq} in {lane_id} violates the "
                        f"minimum gap", (seq,)))
            prev_u, prev_r = u, r
    return in_order, total, escaped, found


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
    cols = columns(result.placements)
    xs, ys, rs = cols[:3]
    n = len(xs)
    # Above _ALL_PAIRS_MAX, columns that hold as numpy arrays go first to
    # numpy array passes, which only accept; the pure-Python passes audit
    # every packing they do not accept, and report what they find.
    held = screened = None
    if n > _ALL_PAIRS_MAX:
        from . import audit_arrays

        held = audit_arrays.held_arrays(cols)
        if held is not None:
            screened = audit_arrays.array_passes(cols, *held, box, table,
                                                 lane_by_id)
    if screened is None:
        in_order, total, escaped, found = _python_passes(
            cols, box, table, lane_by_id, report.per_lane_occ)
    else:
        in_order, escaped, found = True, [], []
        total, report.per_lane_occ = screened
    overlaps = (_pairwise_overlaps(xs, ys, rs, EPS) if held is None
                else audit_arrays.swept_overlaps(held[0], EPS))

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

    for i, j in overlaps:
        gap = math.hypot(xs[i] - xs[j], ys[i] - ys[j]) - rs[i] - rs[j]
        report.violations.append(Violation(
            "overlap", f"circles {i} and {j} overlap by {-gap:.3g}", (i, j)))
    report.violations += escaped + found
    report.density = total / box.area
    report.valid = not report.violations
    return report
