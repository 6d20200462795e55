"""Axis-aligned geometric primitives and the leftmost-feasible-position solver.

All lane strategies reduce circle placement to a 1-D question: at a fixed
height inside a lane, what is the smallest x at which a circle of radius r
can sit without hitting an obstacle circle or a reserved vertical strip?
Each obstacle excludes a single open x-interval at that height, so the
solver is an exact interval-merge sweep.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

# Global default tolerance (container units). Circles may touch exactly;
# penetration smaller than EPS is legal.
EPS = 1e-9


@dataclass(frozen=True)
class PlacedCircle:
    """A committed circle in container coordinates.  It and PackResult
    stay dataclasses, so that dataclasses.replace edits a copy of either."""

    x: float
    y: float
    r: float
    seq: int
    lane_id: str
    class_index: int = -1


class Record:
    """A plain record, equal to a record of its own type with equal fields.
    Its fields are assigned once, in __init__; nothing edits them after."""

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and vars(other) == vars(self)

    def __repr__(self) -> str:
        fields = ", ".join(f"{k}={v!r}" for k, v in vars(self).items())
        return f"{type(self).__name__}({fields})"


class Rect(Record):
    def __init__(self, x0: float, y0: float, x1: float, y1: float):
        self.x0, self.y0, self.x1, self.y1 = x0, y0, x1, y1
        if not (x0 < x1 and y0 < y1):
            raise ValueError(f"degenerate rectangle {self}")

    @property
    def width(self) -> float:
        return self.x1 - self.x0

    @property
    def height(self) -> float:
        return self.y1 - self.y0

    @property
    def area(self) -> float:
        return self.width * self.height


class Orientation(Enum):
    RIGHTWARDS = "rightwards"
    LEFTWARDS = "leftwards"
    UPWARDS = "upwards"
    DOWNWARDS = "downwards"


# Direction of the canonical u (length) and v (width) axes in the parent
# coordinate system, per orientation.  v always points from the side that
# plays the role of the canonical bottom.
_AXES = {
    Orientation.RIGHTWARDS: ((1, 0), (0, 1)),
    Orientation.LEFTWARDS: ((-1, 0), (0, 1)),
    Orientation.UPWARDS: ((0, 1), (1, 0)),
    Orientation.DOWNWARDS: ((0, -1), (1, 0)),
}


class Frame(Record):
    """Isometric map between a lane's canonical coordinates and the container.

    Canonical coordinates: u in [0, length] along the packing direction,
    v in [0, width] across the lane, (0, 0) at the corner where packing
    starts on the canonical bottom side.  The basis vectors are axis-aligned
    unit vectors, so composition stays exact.  A subclass adds fields
    after these; from_rect passes it its trailing arguments.
    """

    def __init__(self, origin: tuple[float, float], eu: tuple[int, int],
                 ev: tuple[int, int], length: float, width: float):
        self.origin, self.eu, self.ev = origin, eu, ev
        self.length, self.width = length, width

    @classmethod
    def from_rect(cls, rect: Rect, orientation: Orientation, *tag) -> "Frame":
        (eux, euy), (evx, evy) = _AXES[orientation]
        length, width = ((rect.width, rect.height) if eux
                         else (rect.height, rect.width))
        if width > length + EPS:
            raise ValueError(f"lane width {width} exceeds length {length}")
        # Canonical origin: the corner at u = v = 0, from which eu and ev
        # point into the rectangle (ev never points down or left).
        origin = (rect.x1 if eux < 0 else rect.x0,
                  rect.y1 if euy < 0 else rect.y0)
        return cls(origin, (eux, euy), (evx, evy), length, width, *tag)

    def to_container(self, u: float, v: float) -> tuple[float, float]:
        return (
            self.origin[0] + u * self.eu[0] + v * self.ev[0],
            self.origin[1] + u * self.eu[1] + v * self.ev[1],
        )

    def to_local(self, x, y):
        """Map container coordinates into the canonical frame.

        Works on floats and elementwise on numpy arrays.
        """
        dx = x - self.origin[0]
        dy = y - self.origin[1]
        u = dx * self.eu[0] + dy * self.eu[1]
        v = dx * self.ev[0] + dy * self.ev[1]
        return u, v


def leftmost_feasible(x_min: float, x_max: float, y: float, r: float,
                      obs_x: Sequence[float], obs_y: Sequence[float],
                      obs_r: Sequence[float],
                      exclusions: Sequence[tuple[float, float]] = (),
                      floor: float = 0.0, eps: float = EPS) -> Optional[float]:
    """Smallest feasible x in [max(x_min, floor), x_max], or None.

    Feasible means: x avoids every obstacle's forbidden interval and
    [x - r, x + r] does not enter the interior of any exclusion interval.
    Forbidden intervals are shrunk by eps/2, so tangency stays feasible
    and the committed penetration stays strictly below eps even after
    rounding.  An interval is dropped when x + rsum <= lo: its half-length
    sqrt(rsum^2 - dy^2) never exceeds rsum in floating point, so it ends
    at or before lo and no sweep starting at lo can meet it.
    """
    lo = max(x_min, floor)
    if lo > x_max:
        return None
    half = 0.5 * eps
    intervals = []
    for cx, cy, ro in zip(obs_x, obs_y, obs_r):
        rsum = ro + r - half
        dy = cy - y
        if abs(dy) < rsum and cx + rsum > lo:
            d = math.sqrt(rsum * rsum - dy * dy)
            intervals.append((cx - d, cx + d))
    return sweep(lo, x_max, r, intervals, exclusions, eps)


def sweep(lo: float, x_max: float, r: float,
          intervals: list[tuple[float, float]],
          exclusions: Sequence[tuple[float, float]] = (),
          eps: float = EPS) -> Optional[float]:
    """Smallest x in [lo, x_max] outside every open interval, with
    [x - r, x + r] out of the exclusions' interiors; else None.  Adds the
    exclusions' intervals to `intervals`.  The order of intervals with
    equal starts does not matter.
    """
    for a, b in exclusions:
        s, e = a - r + 0.5 * eps, b + r - 0.5 * eps
        if s < e:
            intervals.append((s, e))
    x = lo
    for s, e in sorted(intervals):
        if e <= x:
            continue
        if s >= x:
            break
        x = e
    return x if x <= x_max else None
