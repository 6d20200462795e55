"""Scalar geometry predicates, lane rectangles, lane scans, the
single-sided lane bounds and the lane density lemma audits that tests
check the packer against.

The packer and the audit never call these: they are written the plain
way, one pair, one obstacle or one circle at a time, so that they can
serve as oracles for the vectorised, windowed and incremental code in
src/.  The packer keeps only a count, the last circle and a running
extent per lane; the lane scans read the circles each lane committed
from a CommitLog, which records them from outside the packer.
"""

import math
from contextlib import contextmanager
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

from lanepack import bounds, dslp, lanes
from lanepack.geometry import EPS, PlacedCircle, Rect

BOUND_TOL = 1e-9


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


def near(packing, x0: float, y0: float, x1: float,
         y1: float) -> list[tuple[float, float, float]]:
    """The circles of packing.groups() whose box meets [x0, x1] x [y0, y1]
    by find_position's box test, a superset of the exact answer: the test
    rounds towards inclusion."""
    return [c for group in packing.groups(x0, y0, x1, y1) for c in group
            if c[0] - c[2] <= x1 and c[0] + c[2] >= x0
            and c[1] - c[2] <= y1 and c[1] + c[2] >= y0]


def packed(packing) -> list[PlacedCircle]:
    """A packing's committed circles, one per row of its columns."""
    return list(map(PlacedCircle, *packing.columns))


def committed(packing, point) -> Optional[PlacedCircle]:
    """The circle that a call returning `point` committed last: None for
    None, else the packing's last row, which must sit at point."""
    if point is None:
        return None
    circle = PlacedCircle(*(column[-1] for column in packing.columns))
    assert (circle.x, circle.y) == point
    return circle


class LanePlacement(NamedTuple):
    """A circle in lane-canonical coordinates, as lanes.commit took it."""

    u: float
    v: float
    r: float
    seq: int


class CommitLog:
    """The circles each lane committed while the log was installed.

    installed() wraps lanes.commit where the `lanes` and `dslp` modules
    bind it, as bench/tracing.py does, and records each call's lane-
    canonical circle under its lane.
    """

    def __init__(self):
        # id(lane) -> (lane, its circles); holding the lane keeps its id.
        self._lanes: dict[int, tuple[object, list[LanePlacement]]] = {}

    def placed(self, lane) -> list[LanePlacement]:
        """The lane's circles in commit order."""
        entry = self._lanes.get(id(lane))
        return [] if entry is None else entry[1]

    @contextmanager
    def installed(self):
        commit = lanes.commit

        def recorded(lane, u, v, r, packing):
            seq = len(packing)  # the arrival index is the row
            point = commit(lane, u, v, r, packing)
            entry = self._lanes.setdefault(id(lane), (lane, []))
            entry[1].append(LanePlacement(u, v, r, seq))
            return point

        bound = [m for m in (lanes, dslp) if m.commit is commit]
        for module in bound:
            module.commit = recorded
        try:
            yield self
        finally:
            for module in bound:
                module.commit = commit


def packing_extent(placed: Sequence[LanePlacement]
                   ) -> Optional[tuple[float, float]]:
    """Longitudinal extent [u_min, u_max] of a lane's circles, by a scan;
    the packer's running extent is (lane.lo, lane.hi)."""
    if not placed:
        return None
    lo = min([p.u - p.r for p in placed])
    hi = max([p.u + p.r for p in placed])
    return (lo, hi)


@dataclass
class LaneMetrics:
    packing_length: float
    free_length: float
    occupied_area: float


def metrics(lane, placed: Sequence[LanePlacement],
            extra_extents: Sequence[tuple[float, float]] = ()
            ) -> LaneMetrics:
    """Packing length, circle-free length, and occupied area of a lane
    holding `placed`, by a scan, so that they can check the running
    extent.  extra_extents adds content the lane holds in other lanes'
    records (vertical sub-lanes)."""
    own = packing_extent(placed)
    extents = ([] if own is None else [own]) + list(extra_extents)
    p = (max([e[1] for e in extents]) - min([e[0] for e in extents])
         if extents else 0.0)
    occ = 0.0  # left to right, as total_packed_area adds
    for c in placed:
        occ += math.pi * c.r * c.r
    return LaneMetrics(packing_length=p, free_length=lane.frame.length - p,
                       occupied_area=occ)


def vlane_extents(d, log: CommitLog) -> list[tuple[float, float]]:
    """Longitudinal extents, in host-canonical u, of the circles packed
    into a DSLP lane's vertical sub-lanes: each circle is mapped from its
    sub-lane's frame to the container and back into the host's frame."""
    extents = []
    for lane in d.vlanes:
        for p in log.placed(lane):
            x, y = lane.frame.to_container(p.u, p.v)
            u, _ = d.host.frame.to_local(x, y)
            extents.append((u - p.r, u + p.r))
    return extents


def frontier(d) -> float:
    """Right edge of a DSLP lane's host content: the max over its sparse
    blocks' owner edges and its sub-lane strips' right ends, in that
    order.  A dense block ends at the centre of the medium circle that
    opens the next sparse block, so it adds nothing."""
    edge = 0.0
    for block in d.sparse:
        edge = max(edge, block.owner_u + block.owner_r)
    for _, x1 in d.host.exclusions:
        edge = max(edge, x1)
    return edge


def occupied_area(d, log: CommitLog) -> float:
    """Area of every circle a DSLP lane holds, lane by lane."""
    total = 0.0
    for lane in [d.host, d.top, d.bottom] + d.vlanes:
        total += metrics(lane, log.placed(lane)).occupied_area
    return total


def min_slp(p: float, w: float, z: float, delta_min: float) -> float:
    """Lower bound for the occupied area of a single-sidedly packed lane.

    Two semicircles of the smallest admissible radius z plus the remaining
    packing length at density delta_min.  Clamped for p < 2z so the bound
    stays total on near-empty lanes.
    """
    rect_term = max(0.0, p - 2.0 * z) * w * delta_min
    return rect_term + 2.0 * bounds.semicircle_area(z)


def sparse_lower(length: float, w: float, z: float, delta_min: float) -> float:
    """Lower bound for the occupied area of a sparse block of given length."""
    if length < z:
        raise ValueError(f"sparse block length {length} below minimum {z}")
    return (length - z) * w * delta_min + bounds.semicircle_area(z)


def audit_slp_lane(lane, placed: Sequence[LanePlacement], q: float,
                   w: float, tol: float = BOUND_TOL) -> bool:
    """Occupied area of a plain single-class lane holding `placed` meets
    its lower bound."""
    if not placed:
        raise ValueError("audit requires at least one packed circle")
    m = metrics(lane, placed)
    bound = min_slp(m.packing_length, w, q * w, bounds.delta(q))
    return m.occupied_area >= bound - tol


def audit_dslp_lane(d, log: CommitLog, tol: float = BOUND_TOL) -> bool:
    """Occupied area of a double-sided lane meets its lower bound,

    with the open-sub-lane overhead allowance subtracted.
    """
    if not log.placed(d.host):
        raise ValueError("audit requires a nonempty host lane")
    w = d.host.frame.width
    row2 = d.table.row(2)
    z = row2.lower_bound
    p_t, p_b = dslp.dslp_metrics(d)
    bound = (bounds.min_dslp(p_t, p_b, w, z, bounds.delta(row2.q))
             - bounds.overhead_bound(w))
    return occupied_area(d, log) >= bound - tol
