"""Scalar geometry predicates, lane rectangles and lane extents that tests
check the packer against.

The packer and the audit never call these: they are written the plain
way, one pair, one obstacle or one circle at a time, so that they can
serve as oracles for the vectorised, windowed and incremental code in
src/.
"""

import math
from typing import Optional

from lanepack.geometry import EPS, PlacedCircle, Rect


def circles_overlap(a: PlacedCircle, b: PlacedCircle, eps: float = EPS) -> bool:
    """True iff the disks properly overlap; touching is not overlap."""
    return math.hypot(a.x - b.x, a.y - b.y) < a.r + b.r - eps


def circle_in_rect(c: PlacedCircle, rect: Rect, eps: float = EPS) -> bool:
    """True iff the disk lies inside the rectangle with slack -eps per side."""
    return (c.x - c.r >= rect.x0 - eps and c.x + c.r <= rect.x1 + eps
            and c.y - c.r >= rect.y0 - eps and c.y + c.r <= rect.y1 + eps)


def forbidden_interval(obstacle: PlacedCircle, y: float, r: float
                       ) -> Optional[tuple[float, float]]:
    """Open x-interval excluded by one obstacle for a circle of radius r at height y."""
    rsum = r + obstacle.r
    dy = y - obstacle.y
    if abs(dy) >= rsum:
        return None
    d = math.sqrt(rsum * rsum - dy * dy)
    return (obstacle.x - d, obstacle.x + d)


def bounding_rect(frame) -> Rect:
    """The axis-parallel rectangle a lane frame covers, from its corners."""
    corners = [frame.to_container(u, v)
               for u in (0.0, frame.length) for v in (0.0, frame.width)]
    xs = [c[0] for c in corners]
    ys = [c[1] for c in corners]
    return Rect(min(xs), min(ys), max(xs), max(ys))


def vlane_extents(d) -> list[tuple[float, float]]:
    """Longitudinal extents, in host-canonical u, of the circles packed
    into a DSLP lane's vertical sub-lanes: each circle is mapped from its
    sub-lane's frame to the container and back into the host's frame."""
    extents = []
    for vl in d.ledger.all_vlanes:
        for p in vl.lane.placed:
            x, y = vl.lane.frame.to_container(p.u, p.v)
            u, _ = d.host.frame.to_local(x, y)
            extents.append((u - p.r, u + p.r))
    return extents
