"""Online packing runs into the 1 x b rectangle and the unit square.

One driver runs both containers' lane layouts.  It is strictly online:
circles are placed one at a time, never moved, and the run stops at the
first circle that cannot be placed.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, field
from typing import Iterable, Optional

from . import bounds
from .classification import (ClassTable, TooLarge, TooSmall,
                             build_class_table, classify)
from .dslp import DslpLane, _dslp_shape, dslp_metrics, dslp_pack, new_dslp
from .geometry import EPS, Orientation, PlacedCircle, Rect
from .lanes import LaneInfo, LaneState, Packing, packing_length, place

SQUARE_WIDTH_GENERAL = 0.288480
SQUARE_WIDTH_NO_TINY = 0.277927
NO_TINY_Q2 = 0.191578
NO_TINY_MIN_RADIUS = 0.026623

STATUS_ALL_PACKED = "all_packed"
STATUS_REJECTED = "rejected"


@dataclass
class PackResult:
    status: str
    container: str  # 'square' or 'rect'
    mode: Optional[str]  # square packing mode, None for rect
    w: float  # medium lane width (1.0 for the rectangle)
    b: Optional[float]  # rectangle aspect, None for the square
    guarantee: float
    placements: list[PlacedCircle]
    lanes: list[LaneInfo]  # the lanes that hold circles, in lane order
    rejected_index: Optional[int] = None
    rejected_radius: Optional[float] = None
    per_lane: dict = field(default_factory=dict)
    eps: float = EPS

    @property
    def total_packed_area(self) -> float:
        total = 0.0  # left to right: sum() compensates from Python 3.12
        for c in self.placements:
            total += c.area
        return total

    def to_json_dict(self) -> dict:
        """Schema 2: placements and lanes each as one list per key."""
        ps, lanes = self.placements, self.lanes
        out = {
            "schema": 2,
            "status": self.status,
            "container": self.container,
            "mode": self.mode,
            "w": self.w,
            "b": self.b,
            "guarantee": self.guarantee,
            "eps": self.eps,
            "total_packed_area": self.total_packed_area,
            "placements": {
                "i": [c.seq for c in ps], "x": [c.x for c in ps],
                "y": [c.y for c in ps], "r": [c.r for c in ps],
                "class": [c.class_index for c in ps],
                "lane": [c.lane_id for c in ps]},
            "lanes": {
                "id": [li.lane_id for li in lanes],
                "origin": [list(li.origin) for li in lanes],
                "eu": [list(li.eu) for li in lanes],
                "ev": [list(li.ev) for li in lanes],
                "length": [li.length for li in lanes],
                "width": [li.width for li in lanes],
                "strategy": [li.strategy for li in lanes],
                "class": [li.class_index for li in lanes]},
            "per_lane": self.per_lane,
        }
        if self.rejected_index is not None:
            out["rejected_index"] = self.rejected_index
            out["rejected_radius"] = self.rejected_radius
        return out

    @staticmethod
    def from_json_dict(d: dict) -> "PackResult":
        """Read schema 2; ValueError for another schema or uneven columns."""
        schema = d["schema"] if "schema" in d else None
        if schema != 2:
            raise ValueError(f"result schema {schema!r} is not 2; re-run "
                             f"pack to write a schema-2 file")
        x, y, r, i, lane, cls = _columns(d["placements"], "placement",
                                         ("x", "y", "r", "i", "lane", "class"))
        origin, eu, ev, *rest = _columns(
            d["lanes"], "lane", ("origin", "eu", "ev", "length", "width",
                                 "id", "strategy", "class"))
        return PackResult(
            status=d["status"], container=d["container"], mode=d.get("mode"),
            w=d["w"], b=d.get("b"), guarantee=d["guarantee"],
            placements=list(map(PlacedCircle, x, y, r, i, lane, cls)),
            lanes=list(map(LaneInfo, map(tuple, origin), map(tuple, eu),
                           map(tuple, ev), *rest)),
            rejected_index=d.get("rejected_index"),
            rejected_radius=d.get("rejected_radius"),
            per_lane=d.get("per_lane", {}), eps=d.get("eps", EPS))


def _columns(table: dict, record: str, keys: tuple[str, ...]) -> list:
    """The named columns of a table, refused unless all are one length."""
    columns = [table[key] for key in keys]
    lengths = [len(column) for column in columns]
    if min(lengths) != max(lengths):
        raise ValueError(f"{record} columns differ in length: "
                         f"{dict(zip(keys, lengths))}")
    return columns


@functools.lru_cache(maxsize=16)
def table_for(container: str, mode: Optional[str], w: float) -> ClassTable:
    """Class table of a container; cached, since tables are immutable."""
    if container == "rect":
        return build_class_table(1.0)
    if mode == "no_tiny":
        return build_class_table(w, q2_override=NO_TINY_Q2,
                                 min_radius=NO_TINY_MIN_RADIUS, large=True)
    return build_class_table(w, large=True)


def container_rect(result: PackResult) -> Rect:
    if result.container == "rect":
        return Rect(0.0, 0.0, result.b, 1.0)
    return Rect(0.0, 0.0, 1.0, 1.0)


def square_layout(w: float) -> dict[str, tuple[Rect, Orientation]]:
    """Lane rectangles and orientations for the unit square, given the

    medium lane width w.  The four medium lanes spiral around the border;
    the large lane is the bottom slab of height 1 - w.
    """
    if not (0 < w < 0.5):
        raise ValueError(f"lane width must be in (0, 0.5), got {w}")
    return {
        "L0": (Rect(0.0, 0.0, 1.0, 1.0 - w), Orientation.LEFTWARDS),
        "L1": (Rect(0.0, 1.0 - w, 1.0, 1.0), Orientation.RIGHTWARDS),
        "L2": (Rect(1.0 - w, 0.0, 1.0, 1.0 - w), Orientation.DOWNWARDS),
        "L3": (Rect(0.0, 0.0, 1.0 - w, w), Orientation.RIGHTWARDS),
        "L4": (Rect(0.0, w, w, 1.0 - w), Orientation.UPWARDS),
    }


@functools.lru_cache(maxsize=4)
def _square_shape(w: float):
    """The large lane's description and the four medium lanes' (name,
    DSLP shape); cached per lane width, all frozen."""
    layout = square_layout(w)
    large = LaneInfo.from_rect(*layout["L0"], "L0", "TLP", 0)
    medium = tuple((name, _dslp_shape(name, rect.x0, rect.y0, rect.x1,
                                      rect.y1, orientation))
                   for name, (rect, orientation) in layout.items()
                   if name != "L0")
    return large, medium


def _is_real(x) -> bool:
    # bool is an int subclass; numpy scalars register as Real.  A float
    # skips the slower ABC check.
    return type(x) is float or (isinstance(x, numbers.Real)
                                and not isinstance(x, bool))


def _plain(x):
    """A checked real as JSON can write it: an int or float stays as it
    is (an int aspect serializes as "b": 2), any other real becomes a
    float."""
    return x if type(x) in (int, float) else float(x)


class _OnlineRun:
    """One online packing run over a container's lane layout.

    The square is a TLP lane for the large class plus four DSLP lanes; the
    1 x b rectangle is one DSLP lane.  A run may be fed in several pack()
    calls; arrival indices continue across calls.  Every call checks all
    of its radii before committing any, and a run that has rejected a
    circle takes no further input.
    """

    def __init__(self, container: str, mode: Optional[str], w: float,
                 b: Optional[float], eps: float):
        if not (_is_real(eps) and 0 < eps < math.inf):
            raise ValueError(f"eps must be a positive finite number, "
                             f"got {eps!r}")
        eps = _plain(eps)
        if container == "square":
            self.guarantee = bounds.guarantee_square(mode)  # checks mode
            large, medium = _square_shape(w)
        elif _is_real(b) and 1 <= b < math.inf:
            b = _plain(b)
            large = None
            medium = (("L1", _dslp_shape("L1", 0.0, 0.0, b, 1.0,
                                         Orientation.RIGHTWARDS)),)
            self.guarantee = bounds.guarantee_rect(b)
        else:
            raise ValueError(f"aspect b must be a finite number >= 1, "
                             f"got {b!r}")
        self.container, self.mode, self.w, self.b = container, mode, w, b
        self.eps = eps
        self.table = table_for(container, mode, w)
        # No-tiny inputs must fall into a class of the truncated table.
        self.min_radius = self.table.min_radius if mode == "no_tiny" else 0.0
        self.large_lane = None if large is None else LaneState(large)
        self.medium_lanes: list[DslpLane] = [
            new_dslp(name, shape, self.table) for name, shape in medium]
        self.packing = Packing()
        self.arrivals = 0
        self.rejected_index: Optional[int] = None
        self.rejected_radius: Optional[float] = None

    def pack(self, radii: Iterable[float]) -> PackResult:
        """Place radii in arrival order; the result covers the whole run."""
        if self.rejected_index is not None:
            raise ValueError(f"run stopped at arrival {self.rejected_index};"
                             f" it accepts no further circles")
        checked = []
        for i, r in enumerate(radii):
            if type(r) is not float:
                if not _is_real(r):
                    raise ValueError(f"radius at input {i} must be a real "
                                     f"number, got {r!r}")
                r = float(r)
            if not (math.isfinite(r) and r > 0):
                raise ValueError(f"radius at input {i} must be positive "
                                 f"and finite, got {r!r}")
            if r <= self.min_radius:
                raise ValueError(f"radius {r!r} at input {i} is not above "
                                 f"the deepest class bound "
                                 f"{self.min_radius!r}")
            checked.append(r)
        for r in checked:
            seq = self.arrivals
            self.arrivals += 1
            if not self._pack_one(r, seq):
                self.rejected_index = seq
                self.rejected_radius = r
                break
        return self._result()

    def _pack_one(self, r: float, seq: int) -> bool:
        try:
            cls = classify(r, self.table)
        except (TooLarge, TooSmall):
            return False
        if cls == 0:
            # Only a table with a large class, hence a layout with a TLP
            # lane, yields class 0.
            return place(self.large_lane, r, seq, self.packing,
                         self.eps) is not None
        for d in self.medium_lanes:
            if d.host.closed:
                continue
            if dslp_pack(d, r, cls, seq, self.packing, self.eps) is not None:
                return True
        return False

    def _result(self) -> PackResult:
        states, per_lane = [], {}
        if self.large_lane is not None:
            lane = self.large_lane
            states.append(lane)
            per_lane[lane.frame.lane_id] = {
                "n": lane.n, "p": packing_length(lane)}
        # The rectangle's one lane also records the run's circle count.
        count = {"n": len(self.packing)} if self.container == "rect" else {}
        for d in self.medium_lanes:
            states += [d.host, d.top, d.bottom]
            states += d.ledger.vlanes
            p_t, p_b = dslp_metrics(d)
            per_lane[d.lane_id] = {
                **count, "p_t": p_t, "p_b": p_b,
                "closed": d.host.closed, "blocks": d.ledger.to_dict(),
            }
        # A result lists only the lanes that hold circles, in lane order.
        lanes = [lane.frame for lane in states if lane.n]
        return PackResult(
            status=(STATUS_ALL_PACKED if self.rejected_index is None
                    else STATUS_REJECTED),
            container=self.container, mode=self.mode, w=self.w, b=self.b,
            guarantee=self.guarantee, placements=list(self.packing.circles),
            lanes=lanes, rejected_index=self.rejected_index,
            rejected_radius=self.rejected_radius,
            per_lane=per_lane, eps=self.eps)


class RectRun(_OnlineRun):
    """One online packing run into a 1 x b rectangle."""

    def __init__(self, b: float, eps: float = EPS):
        super().__init__("rect", None, 1.0, b, eps)


class SquareRun(_OnlineRun):
    """One online packing run into the unit square."""

    def __init__(self, mode: str = "general", eps: float = EPS):
        w = (SQUARE_WIDTH_GENERAL if mode == "general"
             else SQUARE_WIDTH_NO_TINY)
        super().__init__("square", mode, w, None, eps)


def pack_rect_online(b: float, radii: Iterable[float],
                     eps: float = EPS) -> PackResult:
    return RectRun(b, eps).pack(radii)


def pack_square_online(mode: str, radii: Iterable[float],
                       eps: float = EPS) -> PackResult:
    return SquareRun(mode, eps).pack(radii)
