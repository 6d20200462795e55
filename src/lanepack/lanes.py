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
from enum import Enum
from typing import TYPE_CHECKING, NamedTuple, Optional, Sequence

from .geometry import EPS, Frame, PlacedCircle, sweep

if TYPE_CHECKING:
    import numpy as np


class Strategy(Enum):
    SLP = "SLP"
    TLP = "TLP"


# Below this many circles a packing is scanned whole; once it holds this
# many it files them in the grid and probes cells from then on.  On `near`
# queries replayed from real runs the scan took 0.4x the grid's time up to
# 24 circles, 0.6-0.95x at 25-40, about the same at 41-44 and 1.1-1.3x at
# 45-52 circles.
_SCAN_MAX = 44


class Packing:
    """Container-wide registry of committed circles, with a spatial index.

    The index is a multi-level uniform grid, built once the packing holds
    _SCAN_MAX circles.  A circle of radius r is filed once, in the cell
    holding its center, at the level whose cell side h = 2**e is the
    smallest power of four above 2r (e even), so a circle never reaches
    past the cells next to its own.  Levels a factor 4 apart keep the
    number of levels a query visits small when radii span orders of
    magnitude.
    """

    def __init__(self):
        self.circles: list[PlacedCircle] = []
        # None while the packing is scanned; then
        # e -> (cell side, (i, j) -> circles filed in that cell).
        self._levels: Optional[dict[int, tuple[float, dict]]] = None

    def add(self, c: PlacedCircle) -> None:
        self.circles.append(c)
        if self._levels is not None:
            self._file(c)
        elif len(self.circles) >= _SCAN_MAX:
            self._levels = {}
            for filed in self.circles:
                self._file(filed)

    def _file(self, c: PlacedCircle) -> None:
        e = math.frexp(2.0 * c.r)[1]
        e += e & 1
        level = self._levels.get(e)
        if level is None:
            level = self._levels[e] = (math.ldexp(1.0, e), {})
        h, cells = level
        key = (math.floor(c.x / h), math.floor(c.y / h))
        cell = cells.get(key)
        if cell is None:
            cells[key] = [c]
        else:
            cell.append(c)

    def near(self, x0: float, y0: float, x1: float,
             y1: float) -> list[PlacedCircle]:
        """The circles whose bounding box meets the rectangle
        [x0, x1] x [y0, y1], in no particular order.

        A circle of radius r < h/2 filed in cell i has its center in
        [i*h, (i+1)*h), so its box meets [x0, x1] only if
        floor((x0 - h/2)/h) <= i <= floor((x1 + h/2)/h); the same holds
        for y.  A level with fewer occupied cells than cells in that range
        scans its occupied cells instead of probing the range.  The final
        box test rounds only towards inclusion, so the result is a
        superset of the exact answer.
        """
        if self._levels is None:
            out = self.circles
        else:
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
        return [c for c in out if c.x - c.r <= x1 and c.x + c.r >= x0
                and c.y - c.r <= y1 and c.y + c.r >= y0]

    def arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The x, y and r columns of the committed circles."""
        import numpy as np

        circles = self.circles
        return (np.array([c.x for c in circles]),
                np.array([c.y for c in circles]),
                np.array([c.r for c in circles]))

    def __len__(self) -> int:
        return len(self.circles)


class LanePlacement(NamedTuple):
    """A circle in lane-canonical coordinates."""

    u: float
    v: float
    r: float
    seq: int


@dataclass
class LaneMetrics:
    packing_length: float
    free_length: float
    occupied_area: float


@dataclass(frozen=True)
class LaneInfo:
    """Serializable description of one lane, enough to rebuild its frame."""

    lane_id: str
    origin: tuple[float, float]
    eu: tuple[int, int]
    ev: tuple[int, int]
    length: float
    width: float
    strategy: str
    class_index: int

    def frame(self) -> Frame:
        return Frame(origin=tuple(self.origin), eu=tuple(self.eu),
                     ev=tuple(self.ev), length=self.length, width=self.width)


@dataclass
class LaneState:
    lane_id: str
    frame: Frame
    strategy: Strategy
    class_index: int = -1
    parity: int = 0  # 0: next circle touches the canonical bottom
    placed: list[LanePlacement] = field(default_factory=list)
    last: Optional[tuple[float, float]] = None  # (u, r) of the last circle
    closed: bool = False
    exclusions: list[tuple[float, float]] = field(default_factory=list)
    # Running longitudinal extent of `placed`: min(u - r) and max(u + r).
    lo: float = math.inf
    hi: float = -math.inf
    # The lane's fixed description, built here unless a cached one is
    # shared (see new_lane).
    info: Optional[LaneInfo] = None

    def __post_init__(self):
        if self.info is None:
            f = self.frame
            self.info = LaneInfo(self.lane_id, f.origin, f.eu, f.ev, f.length,
                                 f.width, self.strategy.value,
                                 self.class_index)

    @property
    def width(self) -> float:
        return self.frame.width

    @property
    def length(self) -> float:
        return self.frame.length


def new_lane(frame: Frame, info: LaneInfo) -> LaneState:
    """An empty lane of the shape `info` describes, sharing the frozen
    frame and description."""
    strategy = Strategy.SLP if info.strategy == "SLP" else Strategy.TLP
    return LaneState(info.lane_id, frame, strategy, info.class_index,
                     info=info)


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
    v = r if lane.parity == 0 else w - r
    last = lane.last
    slp = lane.strategy is Strategy.SLP
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
        for c in packing.near(min(xa, xb), min(ya, yb),
                              max(xa, xb), max(ya, yb)):
            dx = c.x - ox
            dy = c.y - oy
            cu = dx * eux + dy * euy
            dv = dx * evx + dy * evy - v
            rsum = c.r + r - half
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
           class_index: int, packing: Packing) -> PlacedCircle:
    x, y = lane.frame.to_container(u, v)
    circle = PlacedCircle(x, y, r, seq, lane.lane_id, class_index)
    lane.placed.append(LanePlacement(u, v, r, seq))
    lane.last = (u, r)
    lane.parity ^= 1
    lane.lo = min(lane.lo, u - r)
    lane.hi = max(lane.hi, u + r)
    packing.add(circle)
    return circle


def place(lane: LaneState, r: float, seq: int, class_index: int,
          packing: Packing, eps: float = EPS) -> Optional[PlacedCircle]:
    """Commit the lane's next circle at its candidate position, if any."""
    pos = find_position(lane, r, packing, eps)
    if pos is None:
        return None
    return commit(lane, pos[0], pos[1], r, seq, class_index, packing)


def packing_extent(lane: LaneState) -> Optional[tuple[float, float]]:
    """Longitudinal extent [u_min, u_max] of the lane's own circles, by a
    scan of `placed`; the lane's running extent is (lane.lo, lane.hi)."""
    if not lane.placed:
        return None
    lo = min([p.u - p.r for p in lane.placed])
    hi = max([p.u + p.r for p in lane.placed])
    return (lo, hi)


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


def metrics(lane: LaneState,
            extra_extents: Sequence[tuple[float, float]] = ()) -> LaneMetrics:
    """Packing length, circle-free length, and occupied area of a lane,
    from `placed` alone, so that they can check the running extent."""
    own = packing_extent(lane)
    extents = ([] if own is None else [own]) + list(extra_extents)
    p = (max([e[1] for e in extents]) - min([e[0] for e in extents])
         if extents else 0.0)
    occ = 0.0  # left to right, as total_packed_area adds
    for c in lane.placed:
        occ += math.pi * c.r * c.r
    return LaneMetrics(packing_length=p, free_length=lane.length - p,
                       occupied_area=occ)
