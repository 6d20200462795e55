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
    """A committed circle in container coordinates."""

    x: float
    y: float
    r: float
    seq: int
    lane_id: str
    class_index: int = -1

    @property
    def area(self) -> float:
        return math.pi * self.r * self.r


@dataclass(frozen=True)
class Rect:
    x0: float
    y0: float
    x1: float
    y1: float

    def __post_init__(self):
        if not (self.x0 < self.x1 and self.y0 < self.y1):
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


@dataclass(frozen=True)
class Frame:
    """Isometric map between a lane's canonical coordinates and the container.

    Canonical coordinates: u in [0, length] along the packing direction,
    v in [0, width] across the lane, (0, 0) at the corner where packing
    starts on the canonical bottom side.  The basis vectors are axis-aligned
    unit vectors, so composition stays exact.  A subclass adds fields
    after these; from_rect and subframe pass it their trailing arguments.
    """

    origin: tuple[float, float]
    eu: tuple[int, int]
    ev: tuple[int, int]
    length: float
    width: float

    @classmethod
    def from_rect(cls, rect: Rect, orientation: Orientation, *tag) -> "Frame":
        (eux, euy), (evx, evy) = _AXES[orientation]
        if orientation in (Orientation.RIGHTWARDS, Orientation.LEFTWARDS):
            length, width = rect.width, rect.height
        else:
            length, width = rect.height, rect.width
        if width > length + EPS:
            raise ValueError(f"lane width {width} exceeds length {length}")
        # Canonical origin: corner at u=0, v=0.
        if orientation == Orientation.RIGHTWARDS:
            origin = (rect.x0, rect.y0)
        elif orientation == Orientation.LEFTWARDS:
            origin = (rect.x1, rect.y0)
        elif orientation == Orientation.UPWARDS:
            origin = (rect.x0, rect.y0)
        else:  # DOWNWARDS
            origin = (rect.x0, rect.y1)
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

    def subframe(self, local_rect: Rect, orientation: Orientation,
                 *tag) -> "Frame":
        """Frame, of this frame's class, of a sub-lane given by its
        rectangle in canonical coordinates."""
        inner = Frame.from_rect(local_rect, orientation)
        ox, oy = self.to_container(inner.origin[0], inner.origin[1])

        def _map_dir(d: tuple[int, int]) -> tuple[int, int]:
            return (
                d[0] * self.eu[0] + d[1] * self.ev[0],
                d[0] * self.eu[1] + d[1] * self.ev[1],
            )

        return type(self)((ox, oy), _map_dir(inner.eu), _map_dir(inner.ev),
                          inner.length, inner.width, *tag)

    def bounding_rect(self) -> Rect:
        corners = [self.to_container(u, v)
                   for u in (0.0, self.length) for v in (0.0, self.width)]
        xs = [c[0] for c in corners]
        ys = [c[1] for c in corners]
        return Rect(min(xs), min(ys), max(xs), max(ys))


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
