"""Independent verification of packings.

validate() re-derives everything from the recorded placements, lane
descriptions, and geometry: pairwise overlaps, containment, class/lane
consistency, and the per-lane structural rules (alternation, monotone
order, minimum gap).  The audit_* functions turn the density lemmas into
numerical assertions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Sequence

from . import bounds
from .classification import ClassTable
from .containers import (STATUS_ALL_PACKED, STATUS_REJECTED, PackResult,
                         container_rect, table_for)
from .dslp import DslpLane, dslp_metrics, occupied_area
from .geometry import PlacedCircle, Rect
from .lanes import LaneState, metrics

if TYPE_CHECKING:
    import numpy as np

BOUND_TOL = 1e-9

# Structural checks run at a looser tolerance than the geometric eps:
# canonical coordinates are reconstructed through an isometry round trip.
_STRUCT_TOL = 1e-7


@dataclass
class Violation:
    kind: str  # overlap | out_of_container | class_mismatch | order | bound
    detail: str
    indices: tuple[int, ...] = ()


@dataclass
class AuditReport:
    valid: bool
    violations: list[Violation] = field(default_factory=list)
    density: float = 0.0
    per_lane_occ: dict = field(default_factory=dict)

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


# Up to this many disks a plain double loop over all pairs costs less than
# the sweep's fixed numpy work (measured in-process: 0.5x the sweep at 16
# disks, about even at 26, 1.3x at 32), and the audit of a small packing
# never imports numpy.
_ALL_PAIRS_MAX = 26

# Candidate pairs tested per numpy pass; bounds the sweep's temporaries
# when many disks share an x-range.
_PAIR_CHUNK = 1 << 18


def _swept_pairs(xs: np.ndarray, rs: np.ndarray, eps: float):
    """Index arrays (a, b), a chunk at a time, covering every pair of disks
    whose x-extents intersect.

    The extents are padded by |eps| plus a relative rounding margin, so no
    pair that overlaps by more than eps (eps may be negative) is skipped.
    """
    import numpy as np

    n = len(xs)
    half = rs + abs(eps) + 1e-12 * (np.abs(xs) + rs + abs(eps))
    order = np.argsort(xs - half, kind="stable")
    lo = (xs - half)[order]
    hi = (xs + half)[order]
    # Sorted positions k + 1 .. k + counts[k] start inside the extent of k.
    counts = np.maximum(
        np.searchsorted(lo, hi, side="right") - np.arange(1, n + 1), 0)
    ends = np.cumsum(counts)
    row = 0
    while row < n:
        budget = ends[row] - counts[row] + _PAIR_CHUNK
        stop = max(row + 1, int(np.searchsorted(ends, budget, side="right")))
        c = counts[row:stop]
        first = np.repeat(np.arange(row, stop), c)
        offset = np.arange(len(first)) - np.repeat(np.cumsum(c) - c, c)
        yield order[first], order[first + 1 + offset]
        row = stop


def _pairwise_overlaps(placements: Sequence[PlacedCircle],
                       eps: float) -> list[tuple[int, int]]:
    """Sorted pairs (i, j), i < j, of disks overlapping by more than eps.

    A pair with r_a + r_b <= eps never overlaps by more than eps.  Small
    sets test all pairs in a plain loop; larger ones only the pairs a
    numpy sort-and-sweep on x-extents finds, with the same arithmetic.
    """
    n = len(placements)
    if n <= _ALL_PAIRS_MAX:
        hits = []
        for i, a in enumerate(placements):
            for j in range(i + 1, n):
                b = placements[j]
                dx = a.x - b.x
                dy = a.y - b.y
                rsum = a.r + b.r - eps
                if dx * dx + dy * dy < rsum * rsum and rsum > 0:
                    hits.append((i, j))
        return hits
    import numpy as np

    xs = np.array([c.x for c in placements])
    ys = np.array([c.y for c in placements])
    rs = np.array([c.r for c in placements])
    hits = []
    for a, b in _swept_pairs(xs, rs, eps):
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


def _class_bounds(table: ClassTable, class_index: int
                  ) -> tuple[float, float]:
    """(exclusive lower, inclusive upper) radius bounds of a class."""
    if class_index == 0:
        assert table.large is not None
        return (table.large.q0, table.large.max_radius)
    if class_index == 1:
        return (table.row(1).lower_bound, table.base_width / 2.0)
    prev = table.row(class_index - 1)
    return (table.row(class_index).lower_bound, prev.lower_bound)


def validate(result: PackResult, eps: float | None = None) -> AuditReport:
    container = container_rect(result)
    if eps is None:
        eps = result.eps
    report = AuditReport(valid=True)
    placements = result.placements

    # Arrival order is a packed prefix: placement k holds arrival k, and a
    # rejected run stopped at the arrival right after it.
    if any(c.seq != k for k, c in enumerate(placements)):
        report.violations.append(Violation(
            "order", "sequence indices are not 0, 1, 2, ... in placement "
            "order"))
    expect = {STATUS_ALL_PACKED: None, STATUS_REJECTED: len(placements)}
    if (result.status not in expect
            or result.rejected_index != expect[result.status]):
        report.violations.append(Violation(
            "order", f"status {result.status!r} with rejected index "
            f"{result.rejected_index!r} after {len(placements)} placements"))
    # A rejected run names the radius it refused; a complete one none.
    radius = result.rejected_radius
    named = (type(radius) in (int, float) and 0 < radius < math.inf)
    if (result.status == STATUS_REJECTED and not named
            or result.status == STATUS_ALL_PACKED and radius is not None):
        report.violations.append(Violation(
            "order", f"status {result.status!r} with rejected radius "
            f"{radius!r}"))

    for i, j in _pairwise_overlaps(placements, eps):
        a, b = placements[i], placements[j]
        gap = math.hypot(a.x - b.x, a.y - b.y) - a.r - b.r
        report.violations.append(Violation(
            "overlap", f"circles {i} and {j} overlap by {-gap:.3g}", (i, j)))

    for i, c in enumerate(placements):
        if not (c.x - c.r >= container.x0 - eps
                and c.x + c.r <= container.x1 + eps
                and c.y - c.r >= container.y0 - eps
                and c.y + c.r <= container.y1 + eps):
            report.violations.append(Violation(
                "out_of_container", f"circle {i} leaves the container", (i,)))

    table = table_for(result.container, result.mode, result.w)
    lane_by_id = {li.lane_id: li for li in result.lanes}
    groups: dict[str, list[PlacedCircle]] = {}
    for c in placements:
        groups.setdefault(c.lane_id, []).append(c)

    for lane_id, circles in groups.items():
        info = lane_by_id.get(lane_id)
        if info is None:
            report.violations.append(Violation(
                "class_mismatch", f"unknown lane id {lane_id!r}"))
            continue
        lo, hi = _class_bounds(table, info.class_index)
        for c in circles:
            if c.class_index != info.class_index:
                report.violations.append(Violation(
                    "class_mismatch",
                    f"circle {c.seq} of class {c.class_index} recorded in "
                    f"class-{info.class_index} lane {lane_id}", (c.seq,)))
            elif not (lo - eps < c.r <= hi + eps):
                report.violations.append(Violation(
                    "class_mismatch",
                    f"radius {c.r} outside class-{info.class_index} range "
                    f"({lo}, {hi}] in lane {lane_id}", (c.seq,)))
        _check_lane_structure(info, circles, report, eps)

    occ = result.total_packed_area
    report.density = occ / container.area
    for lane_id, circles in groups.items():
        report.per_lane_occ[lane_id] = sum(c.area for c in circles)
    report.valid = not report.violations
    return report


def _check_lane_structure(info, circles: list[PlacedCircle],
                          report: AuditReport, eps: float) -> None:
    """Alternation, monotone order, and (for SLP) the minimum gap."""
    frame = info.frame()
    w = info.width
    ordered = sorted(circles, key=lambda c: c.seq)
    prev_u = None
    prev_r = None
    for k, c in enumerate(ordered):
        u, v = frame.to_local(c.x, c.y)
        expect_v = c.r if k % 2 == 0 else w - c.r
        if abs(v - expect_v) > _STRUCT_TOL:
            report.violations.append(Violation(
                "order",
                f"circle {c.seq} in {info.lane_id} off the alternation "
                f"height (v={v}, expected {expect_v})", (c.seq,)))
        if prev_u is not None:
            if u < prev_u - _STRUCT_TOL:
                report.violations.append(Violation(
                    "order",
                    f"circle {c.seq} in {info.lane_id} breaks the monotone "
                    f"frontier", (c.seq,)))
            if info.strategy == "SLP" and u - prev_u < min(c.r, prev_r) - _STRUCT_TOL:
                report.violations.append(Violation(
                    "order",
                    f"circle {c.seq} in {info.lane_id} violates the "
                    f"minimum gap", (c.seq,)))
        prev_u, prev_r = u, c.r


def audit_slp_lane(lane: LaneState, q: float, w: float,
                   tol: float = BOUND_TOL) -> bool:
    """Occupied area of a plain single-class lane meets its lower bound."""
    if not lane.placed:
        raise ValueError("audit requires at least one packed circle")
    m = metrics(lane)
    bound = bounds.min_slp(m.packing_length, w, q * w, bounds.delta(q))
    return m.occupied_area >= bound - tol


def audit_dslp_lane(d: DslpLane, tol: float = BOUND_TOL) -> bool:
    """Occupied area of a double-sided lane meets its lower bound,

    with the open-sub-lane overhead allowance subtracted.
    """
    if not d.host.placed:
        raise ValueError("audit requires a nonempty host lane")
    w = d.host.width
    row2 = d.table.row(2)
    z = row2.lower_bound
    m = dslp_metrics(d)
    bound = (bounds.min_dslp(m.p_t, m.p_b, w, z, bounds.delta(row2.q))
             - bounds.overhead_bound(w))
    return occupied_area(d) >= bound - tol


def _quadrant_corner_area(x: float, y: float, r: float) -> float:
    """Area of the disk x^2+y^2 <= r^2 within the region {X <= x, Y <= y}."""
    x = min(max(x, -r), r)
    if y >= r:
        y = r
    if y <= -r:
        return 0.0

    def ic(t: float) -> float:
        # Antiderivative of sqrt(r^2 - t^2).
        t = min(max(t, -r), r)
        return 0.5 * (t * math.sqrt(max(r * r - t * t, 0.0))
                      + r * r * math.asin(min(max(t / r, -1.0), 1.0)))

    s = math.sqrt(max(r * r - y * y, 0.0))
    total = 0.0
    if y >= 0:
        a = min(x, -s)
        if a > -r:
            total += 2.0 * (ic(a) - ic(-r))
        if x > -s:
            b = min(x, s)
            total += (ic(b) - ic(-s)) + y * (b + s)
            if x > s:
                total += 2.0 * (ic(x) - ic(s))
    else:
        if x > -s:
            b = min(x, s)
            total += (ic(b) - ic(-s)) + y * (b + s)
    return total


def circle_rect_intersection_area(cx: float, cy: float, r: float,
                                  rect: Rect) -> float:
    """Exact area of disk((cx, cy), r) intersected with rect."""
    x0, x1 = rect.x0 - cx, rect.x1 - cx
    y0, y1 = rect.y0 - cy, rect.y1 - cy
    area = (_quadrant_corner_area(x1, y1, r)
            - _quadrant_corner_area(x0, y1, r)
            - _quadrant_corner_area(x1, y0, r)
            + _quadrant_corner_area(x0, y0, r))
    return max(0.0, area)


def occupied(region: Rect, placements: Iterable[PlacedCircle]) -> float:
    """Total circle area inside the region, boundary circles clipped exactly."""
    total = 0.0
    for c in placements:
        if (c.x - c.r >= region.x0 and c.x + c.r <= region.x1
                and c.y - c.r >= region.y0 and c.y + c.r <= region.y1):
            total += c.area
        elif (c.x + c.r <= region.x0 or c.x - c.r >= region.x1
                or c.y + c.r <= region.y0 or c.y - c.r >= region.y1):
            continue
        else:
            total += circle_rect_intersection_area(c.x, c.y, c.r, region)
    return total
