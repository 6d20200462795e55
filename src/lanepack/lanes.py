"""Per-lane packing state and the two base strategies.

SLP packs circles alternately touching the two long sides of a lane,
advancing monotonically, keeping a longitudinal gap of at least
min(r, r') between consecutive circles and staying clear of vertical
sub-lanes.  TLP drops the gap rule and the sub-lane avoidance.  A lane's
class picks between them: TLP packs class 0, the large lane of the
square container, and SLP every other class.

All logic runs in the lane's canonical frame; the four orientations are
isometries applied at the boundary.  Placement feasibility is always
checked against the committed circles of every lane, because lanes may
overlap geometrically; one loop box-tests the candidates that the
packing's spatial index hands over and builds the sweep's intervals.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Optional

from .geometry import EPS, sweep

if TYPE_CHECKING:
    import numpy as np

    from .layout import LaneInfo


# The length at which Packing's scan list hands its fullest level to a
# grid.  On find_position's queries replayed from real runs, box-testing
# n scanned circles took 0.4-0.6x the grid's time up to n = 23,
# 0.6-0.85x at 24-39, 0.9-1.0x at 40-47 and 1.05-1.4x at 48-71.
_SCAN_MAX = 44


class Packing:
    """Container-wide table of committed circles, with a spatial index.

    The circles are kept as five columns whose row k is arrival k: x, y, r,
    lane_id and class_index.  The index holds each circle's (x, y, r),
    either in one scan list, tested whole by every query, or in a
    multi-level uniform grid.  A circle of radius r belongs to the level
    whose cell side h = 2**e is the smallest power of four above 2r (e
    even); levels a factor 4 apart keep the number of levels a query
    visits small when radii span orders of magnitude.  A circle whose
    level has a grid is filed there, once, in the cell holding its
    center, and the level keeps the largest radius filed in it; any
    other circle joins the scan list.  When the scan list reaches
    _SCAN_MAX circles, its fullest level gets a grid and its circles
    move there, so the list stays shorter than _SCAN_MAX, a run of
    fewer circles is never gridded, and a level that holds only a few
    circles costs a few box tests rather than a walk over its cells.
    """

    def __init__(self):
        self.x, self.y, self.r = [], [], []
        self.lane_id, self.class_index = [], []
        self._scan: list[tuple[float, float, float]] = []
        # e -> [cell side, (i, j) -> circles filed in that cell, largest
        # radius filed], for the levels that have a grid.
        self._levels: dict[int, list] = {}

    @property
    def columns(self) -> tuple:
        """The (x, y, r, arrival, lane_id, class_index) columns: the lists
        live, the arrival column range(len(self))."""
        return (self.x, self.y, self.r, range(len(self.x)), self.lane_id,
                self.class_index)

    def add(self, x: float, y: float, r: float, lane_id: str,
            class_index: int) -> None:
        self.x.append(x)
        self.y.append(y)
        self.r.append(r)
        self.lane_id.append(lane_id)
        self.class_index.append(class_index)
        disk = (x, y, r)
        if self._levels:
            level = self._levels.get(_level(r))
            if level is not None:
                _file(level, disk)
                return
        scan = self._scan
        scan.append(disk)
        if len(scan) >= _SCAN_MAX:
            self._grid_fullest_level()

    def _grid_fullest_level(self) -> None:
        """Give the scan list's most frequent level a grid and move its
        circles there."""
        es = [_level(disk[2]) for disk in self._scan]
        top = max(es, key=es.count)
        level = self._levels[top] = [math.ldexp(1.0, top), {}, 0.0]
        keep = []
        for e, disk in zip(es, self._scan):
            if e == top:
                _file(level, disk)
            else:
                keep.append(disk)
        self._scan = keep

    def groups(self, x0: float, y0: float, x1: float,
               y1: float) -> list[list[tuple[float, float, float]]]:
        """The index's own lists, read-only, that hold each circle once and
        every circle whose box meets [x0, x1] x [y0, y1]: the scan list,
        then the probed cells.  A circle (x, y, r) of a level with cell
        side h and largest radius m is in cell floor(x/h), and meets only
        if x0 - m <= x <= x1 + m; rounding is monotone and x a float, so
        floor((x0 - m)/h) .. floor((x1 + m)/h) holds its cell however
        small m is.  The same holds for y.  A level whose occupied cells
        are fewer than the range's scans those instead.
        """
        out = [self._scan]
        if self._levels:
            floor = math.floor
            for h, cells, m in self._levels.values():
                i0, i1 = floor((x0 - m) / h), floor((x1 + m) / h)
                j0, j1 = floor((y0 - m) / h), floor((y1 + m) / h)
                if (i1 - i0 + 1) * (j1 - j0 + 1) > len(cells):
                    for (i, j), cell in cells.items():
                        if i0 <= i <= i1 and j0 <= j <= j1:
                            out.append(cell)
                    continue
                get = cells.get
                for i in range(i0, i1 + 1):
                    for j in range(j0, j1 + 1):
                        cell = get((i, j))
                        if cell is not None:
                            out.append(cell)
        return out

    def arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The x, y and r columns as numpy arrays."""
        import numpy as np

        return np.array(self.x), np.array(self.y), np.array(self.r)

    def __len__(self) -> int:
        return len(self.x)


def _level(r: float) -> int:
    """The even exponent e of a radius-r circle's grid level."""
    e = math.frexp(2.0 * r)[1]
    return e + (e & 1)


def _file(level: list, disk: tuple[float, float, float]) -> None:
    """File a disk in its level's grid; keep the level's largest r."""
    h, cells, m = level
    key = (math.floor(disk[0] / h), math.floor(disk[1] / h))
    cell = cells.get(key)
    if cell is None:
        cells[key] = [disk]
    else:
        cell.append(disk)
    if disk[2] > m:
        level[2] = disk[2]


class LaneState:
    """A lane's running packing state in the frame of its description."""

    def __init__(self, frame: LaneInfo,
                 exclusions: Optional[list[tuple[float, float]]] = None):
        self.frame = frame
        self.n = 0  # committed circles; an even n puts the next at the bottom
        self.last: Optional[tuple[float, float]] = None  # (u, r), last circle
        self.closed = False
        self.exclusions = [] if exclusions is None else exclusions
        # Running longitudinal extent of the circles: min(u - r), max(u + r).
        self.lo, self.hi = math.inf, -math.inf


def find_position(lane: LaneState, r: float, packing: Packing,
                  eps: float = EPS) -> Optional[tuple[float, float]]:
    """Candidate canonical position for the next circle, without committing.

    The sweep sees only the circles of Packing.groups whose boxes meet the
    window [lo, hi] at height v, widened by r + |eps| and a rounding
    margin.  Every other circle has no forbidden interval at v, or one
    that ends before lo or starts after hi, so an answer at or below hi
    is the answer over all circles.  The window starts 2r long and, when
    the sweep finds nothing in it, grows once to the end of the lane.
    """
    if lane.closed:
        return None
    frame = lane.frame
    w, length = frame.width, frame.length
    if r > w / 2.0 + eps or r > length / 2.0 + eps:
        return None
    v = w - r if lane.n & 1 else r
    last = lane.last
    slp = frame.class_index != 0
    # The conditional expressions below return the operand that the
    # builtin min or max would, ties included: floor adds min(r, last r),
    # lo = max(r, floor), hi = min(x_max, lo + 2r), and the window's
    # corners are the min and max of its x and of its y.
    if last is None:
        floor = 0.0
    elif slp:
        floor = last[0] + (last[1] if last[1] < r else r)
    else:
        # TLP keeps the left-to-right order but allows tight packing.
        floor = last[0]
    x_max = length - r
    lo = floor if floor > r else r
    if lo > x_max:
        return None
    (ox, oy), (eux, euy), (evx, evy) = frame.origin, frame.eu, frame.ev
    pad = r + abs(eps) + 1e-12 * (abs(ox) + abs(oy) + length + r + abs(eps))
    exclusions = lane.exclusions if slp else ()
    half = 0.5 * eps
    hi = lo + 2.0 * r
    hi = hi if hi < x_max else x_max
    va, vb = v - pad, v + pad
    while True:
        # The window's corners by Frame.to_container, then a box test of
        # each candidate, Frame.to_local and leftmost_feasible's intervals
        # in one pass, all with the same float expressions.
        ua, ub = lo - pad, hi + pad
        xa, ya = ox + ua * eux + va * evx, oy + ua * euy + va * evy
        xb, yb = ox + ub * eux + vb * evx, oy + ub * euy + vb * evy
        x0, x1 = (xb, xa) if xb < xa else (xa, xb)
        y0, y1 = (yb, ya) if yb < ya else (ya, yb)
        intervals = []
        for group in packing.groups(x0, y0, x1, y1):
            for cx, cy, cr in group:
                if (cx - cr > x1 or cx + cr < x0 or cy - cr > y1
                        or cy + cr < y0):
                    continue
                dx = cx - ox
                dy = cy - oy
                cu = dx * eux + dy * euy
                dv = dx * evx + dy * evy - v
                rsum = cr + r - half
                if abs(dv) < rsum and cu + rsum > lo:
                    d = math.sqrt(rsum * rsum - dv * dv)
                    intervals.append((cu - d, cu + d))
        u = sweep(lo, hi, r, intervals, exclusions, eps)
        if u is not None:
            return (u, v)
        if hi == x_max:
            return None
        hi = x_max


def commit(lane: LaneState, u: float, v: float, r: float,
           packing: Packing) -> tuple[float, float]:
    """Commit a circle at (u, v), in the lane's class; its container
    point (x, y)."""
    frame = lane.frame
    # Frame.to_container's floats, inline.
    (ox, oy), (eux, euy), (evx, evy) = frame.origin, frame.eu, frame.ev
    x, y = ox + u * eux + v * evx, oy + u * euy + v * evy
    lane.last = (u, r)
    lane.n += 1
    if u - r < lane.lo:
        lane.lo = u - r
    if u + r > lane.hi:
        lane.hi = u + r
    packing.add(x, y, r, frame.lane_id, frame.class_index)
    return x, y


def place(lane: LaneState, r: float,
          packing: Packing) -> Optional[tuple[float, float]]:
    """Commit the lane's next circle at its candidate position, if any;
    its container point (x, y)."""
    pos = find_position(lane, r, packing)
    if pos is None:
        return None
    return commit(lane, pos[0], pos[1], r, packing)


def packing_length(lane: LaneState, lo: float = math.inf,
                   hi: float = -math.inf) -> float:
    """Longitudinal length spanned by the lane's running extent and by an
    extent [lo, hi] of its vertical sub-lanes' circles, or (inf, -inf)."""
    return max(0.0, max(lane.hi, hi) - min(lane.lo, lo))
