"""Per-lane packing state and the two base strategies.

SLP packs circles alternately touching the two long sides of a lane,
advancing monotonically, keeping a longitudinal gap of at least
min(r, r') between consecutive circles and staying clear of vertical
sub-lanes.  TLP drops the gap rule and the sub-lane avoidance; it is used
for the large lane of the square container.

All logic runs in the lane's canonical frame; the four orientations are
isometries applied at the boundary.  Placement feasibility is always
checked against the committed circles of every lane, because lanes may
overlap geometrically; the packing's spatial index hands over those near
the placement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional, Sequence

from .geometry import EPS, Frame, sweep

if TYPE_CHECKING:
    import numpy as np


# Below this many circles a packing is scanned whole; once it holds this
# many it files them in the grid and probes cells from then on.  On `near`
# queries replayed from real runs the scan took 0.4x the grid's time up to
# 24 circles, 0.6-0.95x at 25-40, about the same at 41-44 and 1.1-1.3x at
# 45-52 circles.
_SCAN_MAX = 44


class Packing:
    """Container-wide table of committed circles, with a spatial index.

    The circles are kept as six columns in commit order: x, y, r, seq,
    lane_id and class_index.  The index holds each circle's (x, y, r): a
    list scanned whole until the packing holds _SCAN_MAX circles, then a
    multi-level uniform grid.  A circle of radius r is filed once, in the
    cell holding its center, at the level whose cell side h = 2**e is the
    smallest power of four above 2r (e even), so a circle never reaches
    past the cells next to its own.  Levels a factor 4 apart keep the
    number of levels a query visits small when radii span orders of
    magnitude.
    """

    def __init__(self):
        self.x, self.y, self.r = [], [], []
        self.seq, self.lane_id, self.class_index = [], [], []
        # The scan list, None once the grid files the circles; then
        # e -> (cell side, (i, j) -> circles filed in that cell).
        self._scan: Optional[list[tuple[float, float, float]]] = []
        self._levels: Optional[dict[int, tuple[float, dict]]] = None

    @property
    def columns(self) -> tuple[list, ...]:
        """The (x, y, r, seq, lane_id, class_index) columns, live."""
        return (self.x, self.y, self.r, self.seq, self.lane_id,
                self.class_index)

    def add(self, x: float, y: float, r: float, seq: int, lane_id: str,
            class_index: int) -> None:
        self.x.append(x)
        self.y.append(y)
        self.r.append(r)
        self.seq.append(seq)
        self.lane_id.append(lane_id)
        self.class_index.append(class_index)
        disk = (x, y, r)
        if self._scan is None:
            self._file(disk)
            return
        self._scan.append(disk)
        if len(self._scan) >= _SCAN_MAX:
            self._levels = {}
            for filed in self._scan:
                self._file(filed)
            self._scan = None

    def _file(self, disk: tuple[float, float, float]) -> None:
        x, y, r = disk
        e = math.frexp(2.0 * r)[1]
        e += e & 1
        level = self._levels.get(e)
        if level is None:
            level = self._levels[e] = (math.ldexp(1.0, e), {})
        h, cells = level
        key = (math.floor(x / h), math.floor(y / h))
        cell = cells.get(key)
        if cell is None:
            cells[key] = [disk]
        else:
            cell.append(disk)

    def near(self, x0: float, y0: float, x1: float,
             y1: float) -> list[tuple[float, float, float]]:
        """The (x, y, r) of the circles whose bounding box meets the
        rectangle [x0, x1] x [y0, y1], in no particular order.

        A circle of radius r < h/2 filed in cell i has its center in
        [i*h, (i+1)*h), so its box meets [x0, x1] only if
        floor((x0 - h/2)/h) <= i <= floor((x1 + h/2)/h); the same holds
        for y.  A level with fewer occupied cells than cells in that range
        scans its occupied cells instead of probing the range.  The final
        box test rounds only towards inclusion, so the result is a
        superset of the exact answer.
        """
        out = self._scan
        if out is None:
            out = []
            floor = math.floor
            for h, cells in self._levels.values():
                half = 0.5 * h
                i0, i1 = floor((x0 - half) / h), floor((x1 + half) / h)
                j0, j1 = floor((y0 - half) / h), floor((y1 + half) / h)
                if (i1 - i0 + 1) * (j1 - j0 + 1) > len(cells):
                    for (i, j), cell in cells.items():
                        if i0 <= i <= i1 and j0 <= j <= j1:
                            out.extend(cell)
                    continue
                for i in range(i0, i1 + 1):
                    for j in range(j0, j1 + 1):
                        cell = cells.get((i, j))
                        if cell is not None:
                            out.extend(cell)
        return [c for c in out if c[0] - c[2] <= x1 and c[0] + c[2] >= x0
                and c[1] - c[2] <= y1 and c[1] + c[2] >= y0]

    def arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The x, y and r columns as numpy arrays."""
        import numpy as np

        return np.array(self.x), np.array(self.y), np.array(self.r)

    def __len__(self) -> int:
        return len(self.x)


@dataclass(frozen=True)
class LaneInfo(Frame):
    """One lane: its frame, the strategy it packs by ("SLP" or "TLP") and
    its size class.  Frozen, so a container shape builds it once; a
    result's JSON writes it."""

    lane_id: str
    strategy: str
    class_index: int


@dataclass
class LaneState:
    """A lane's running packing state in the frame of its description."""

    frame: LaneInfo
    n: int = 0  # committed circles; an even n puts the next at the bottom
    last: Optional[tuple[float, float]] = None  # (u, r) of the last circle
    closed: bool = False
    exclusions: list[tuple[float, float]] = field(default_factory=list)
    # Running longitudinal extent of the circles: min(u - r), max(u + r).
    lo: float = math.inf
    hi: float = -math.inf


def find_position(lane: LaneState, r: float, packing: Packing,
                  eps: float = EPS) -> Optional[tuple[float, float]]:
    """Candidate canonical position for the next circle, without committing.

    The sweep sees only the circles the packing's index returns near the
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
    slp = frame.strategy == "SLP"
    if last is None:
        floor = 0.0
    elif slp:
        floor = last[0] + min(r, last[1])
    else:
        # TLP keeps the left-to-right order but allows tight packing.
        floor = last[0]
    x_max = length - r
    lo = max(r, floor)
    if lo > x_max:
        return None
    (ox, oy), (eux, euy), (evx, evy) = frame.origin, frame.eu, frame.ev
    pad = r + abs(eps) + 1e-12 * (abs(ox) + abs(oy) + length + r + abs(eps))
    exclusions = lane.exclusions if slp else ()
    half = 0.5 * eps
    hi = min(x_max, lo + 2.0 * r)
    va, vb = v - pad, v + pad
    while True:
        # The window's corners by Frame.to_container, then Frame.to_local
        # and leftmost_feasible's intervals in one pass, all with the same
        # float expressions.
        ua, ub = lo - pad, hi + pad
        xa, ya = ox + ua * eux + va * evx, oy + ua * euy + va * evy
        xb, yb = ox + ub * eux + vb * evx, oy + ub * euy + vb * evy
        intervals = []
        for cx, cy, cr in packing.near(min(xa, xb), min(ya, yb),
                                       max(xa, xb), max(ya, yb)):
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


def commit(lane: LaneState, u: float, v: float, r: float, seq: int,
           packing: Packing) -> tuple[float, float]:
    """Commit a circle at (u, v), in the lane's class; its container
    point (x, y)."""
    frame = lane.frame
    x, y = frame.to_container(u, v)
    lane.last = (u, r)
    lane.n += 1
    lane.lo = min(lane.lo, u - r)
    lane.hi = max(lane.hi, u + r)
    packing.add(x, y, r, seq, frame.lane_id, frame.class_index)
    return x, y


def place(lane: LaneState, r: float, seq: int,
          packing: Packing) -> Optional[tuple[float, float]]:
    """Commit the lane's next circle at its candidate position, if any;
    its container point (x, y)."""
    pos = find_position(lane, r, packing)
    if pos is None:
        return None
    return commit(lane, pos[0], pos[1], r, seq, packing)


def packing_length(lane: LaneState,
                   extra_extents: Sequence[tuple[float, float]] = ()
                   ) -> float:
    """Longitudinal length spanned by the lane's circles, from its running
    extent.

    extra_extents lets callers include content that sits geometrically
    inside the lane but is tracked elsewhere (vertical sub-lanes); an
    empty one is (inf, -inf).
    """
    lo, hi = lane.lo, lane.hi
    for a, b in extra_extents:
        lo, hi = min(lo, a), max(hi, b)
    return max(0.0, hi - lo)
