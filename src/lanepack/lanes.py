"""Per-lane packing state and the two base strategies.

SLP packs circles alternately touching the two long sides of a lane,
advancing monotonically, keeping a longitudinal gap of at least
min(r, r') between consecutive circles and staying clear of vertical
sub-lanes.  TLP drops the gap rule and the sub-lane avoidance; it is used
for the large lane of the square container.

All logic runs in the lane's canonical frame; the four orientations are
isometries applied at the boundary.  Placement feasibility is always
checked against the full container-wide obstacle set, because lanes may
overlap geometrically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

import numpy as np

from .geometry import EPS, Frame, PlacedCircle, leftmost_feasible


class Strategy(Enum):
    SLP = "SLP"
    TLP = "TLP"


class Packing:
    """Container-wide registry of committed circles.

    Centers and radii live in one preallocated (3, capacity) buffer that
    doubles when full, so arrays() hands out views instead of rebuilding
    arrays after every commit.  Committed columns are never rewritten,
    which keeps views taken before a later add() valid.
    """

    def __init__(self):
        self.circles: list[PlacedCircle] = []
        self._buf = np.empty((3, 64))

    def add(self, c: PlacedCircle) -> None:
        n = len(self.circles)
        if n == self._buf.shape[1]:
            grown = np.empty((3, 2 * n))
            grown[:, :n] = self._buf
            self._buf = grown
        self._buf[:, n] = (c.x, c.y, c.r)
        self.circles.append(c)

    def arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Views of the x, y and r columns of the committed circles."""
        n = len(self.circles)
        return self._buf[0, :n], self._buf[1, :n], self._buf[2, :n]

    def __len__(self) -> int:
        return len(self.circles)

    @property
    def total_area(self) -> float:
        return sum(c.area for c in self.circles)


@dataclass(frozen=True)
class LanePlacement:
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

    @property
    def width(self) -> float:
        return self.frame.width

    @property
    def length(self) -> float:
        return self.frame.length


def find_position(lane: LaneState, r: float, packing: Packing,
                  eps: float = EPS) -> Optional[tuple[float, float]]:
    """Candidate canonical position for the next circle, without committing."""
    if lane.closed:
        return None
    w, length = lane.width, lane.length
    if r > w / 2.0 + eps or r > length / 2.0 + eps:
        return None
    v = r if lane.parity == 0 else w - r
    if lane.last is None:
        floor = 0.0
    elif lane.strategy is Strategy.SLP:
        floor = lane.last[0] + min(r, lane.last[1])
    else:
        # TLP keeps the left-to-right order but allows tight packing.
        floor = lane.last[0]
    xs, ys, rs = packing.arrays()
    if len(xs):
        us, vs = lane.frame.to_local(xs, ys)
    else:
        us, vs = xs, ys
    exclusions = lane.exclusions if lane.strategy is Strategy.SLP else ()
    u = leftmost_feasible(r, length - r, v, r, us, vs, rs,
                          exclusions=exclusions, floor=floor, eps=eps)
    if u is None:
        return None
    return (u, v)


def commit(lane: LaneState, u: float, v: float, r: float, seq: int,
           class_index: int, packing: Packing) -> PlacedCircle:
    x, y = lane.frame.to_container(u, v)
    circle = PlacedCircle(x=x, y=y, r=r, seq=seq, lane_id=lane.lane_id,
                          class_index=class_index)
    lane.placed.append(LanePlacement(u=u, v=v, r=r, seq=seq))
    lane.last = (u, r)
    lane.parity ^= 1
    packing.add(circle)
    return circle


def slp_place(lane: LaneState, r: float, seq: int, class_index: int,
              packing: Packing, eps: float = EPS) -> Optional[PlacedCircle]:
    assert lane.strategy is Strategy.SLP
    pos = find_position(lane, r, packing, eps)
    if pos is None:
        return None
    return commit(lane, pos[0], pos[1], r, seq, class_index, packing)


def tlp_place(lane: LaneState, r: float, seq: int, class_index: int,
              packing: Packing, eps: float = EPS) -> Optional[PlacedCircle]:
    assert lane.strategy is Strategy.TLP
    pos = find_position(lane, r, packing, eps)
    if pos is None:
        return None
    return commit(lane, pos[0], pos[1], r, seq, class_index, packing)


def packing_extent(lane: LaneState) -> Optional[tuple[float, float]]:
    """Longitudinal extent [u_min, u_max] of the lane's own circles."""
    if not lane.placed:
        return None
    lo = min(p.u - p.r for p in lane.placed)
    hi = max(p.u + p.r for p in lane.placed)
    return (lo, hi)


def metrics(lane: LaneState,
            extra_extents: tuple[tuple[float, float], ...] = ()) -> LaneMetrics:
    """Packing length, circle-free length, and occupied area of a lane.

    extra_extents lets callers include content that sits geometrically
    inside the lane but is tracked elsewhere (vertical sub-lanes).
    """
    extents = []
    own = packing_extent(lane)
    if own is not None:
        extents.append(own)
    extents.extend(extra_extents)
    if extents:
        p = max(e[1] for e in extents) - min(e[0] for e in extents)
    else:
        p = 0.0
    occ = sum(math.pi * c.r * c.r for c in lane.placed)
    return LaneMetrics(packing_length=p, free_length=lane.length - p,
                       occupied_area=occ)
