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
from typing import Iterable, NamedTuple, Optional, Sequence

from . import bounds
from .classification import (ClassTable, TooLarge, TooSmall,
                             build_class_table, classify)
from .blocks import _POS_TOL, BlockLedger, vlane_info
from .dslp import _dslp_shape, dslp_metrics, dslp_pack, new_dslp
from .geometry import EPS, Orientation, PlacedCircle, Rect
from .lanes import LaneInfo, LaneState, Packing, packing_length, place

SQUARE_WIDTH_GENERAL = 0.288480
SQUARE_WIDTH_NO_TINY = 0.277927
NO_TINY_Q2 = 0.191578

STATUS_ALL_PACKED = "all_packed"
STATUS_REJECTED = "rejected"


@dataclass
class PackResult:
    status: str
    container: str  # 'square' or 'rect'
    mode: Optional[str]  # square packing mode, None for rect
    b: Optional[float]  # rectangle aspect, None for the square
    placements: Sequence[PlacedCircle]  # Placements, or any such sequence
    lanes: list[LaneInfo]  # the lanes that hold circles, in lane order
    rejected_index: Optional[int] = None
    rejected_radius: Optional[float] = None
    per_lane: dict = field(default_factory=dict)

    # The layout decides w and the guarantee; a file's copies are not read.
    @property
    def w(self) -> float:
        """The medium lane width (1.0 for the rectangle)."""
        return layout(self.container, self.mode, self.b).table.base_width

    @property
    def guarantee(self) -> float:
        return layout(self.container, self.mode, self.b).guarantee

    @property
    def total_packed_area(self) -> float:
        return _packed_area(columns(self.placements)[2])

    def to_json_dict(self) -> dict:
        """Schema 3: placements and lanes each as one list per key; only a
        sub-lane's strip start and side add to what the layout fixes."""
        x, y, r, seq, lane, cls = columns(self.placements)
        out = {
            "schema": 3,
            "status": self.status,
            "container": self.container,
            "mode": self.mode,
            "w": self.w,
            "b": self.b,
            "guarantee": self.guarantee,
            "eps": EPS,  # the audit's constant tolerance; not read back
            "total_packed_area": _packed_area(r),
            "placements": {
                "i": list(seq), "x": list(x), "y": list(y), "r": list(r),
                "class": list(cls), "lane": list(lane)},
            "lanes": {
                "id": [li.lane_id for li in self.lanes],
                "x0": [li.x0 for li in self.lanes],
                "down": [li.down for li in self.lanes]},
            "per_lane": self.per_lane,
        }
        if self.rejected_index is not None:
            out["rejected_index"] = self.rejected_index
        if self.rejected_radius is not None:
            out["rejected_radius"] = self.rejected_radius
        return out

    @staticmethod
    def from_json_dict(d: dict) -> "PackResult":
        """Read schema 3; ValueError for another schema, uneven columns, a
        mistyped column (arrival indices and classes ints, ids strings), a
        lane not in its layout (see _lane), a lane id listed twice or
        overlapping sub-lanes (see _check_strips).  The audit checks the
        placements' coordinates and radii."""
        schema = d["schema"] if "schema" in d else None
        if schema != 3:
            raise ValueError(f"result schema {schema!r} is not 3; re-run "
                             f"pack to write a schema-3 file")
        x, y, r, i, lane, cls = _columns(d["placements"], "placement",
                                         ("x", "y", "r", "i", "lane", "class"))
        ids, x0s, downs = _columns(d["lanes"], "lane", ("id", "x0", "down"))
        # A placement's lane that is not a string matches no lane id, and
        # the audit reports it.
        ints = [*i, *cls]
        if (list(map(type, ints)).count(int) != len(ints)
                or list(map(type, ids)).count(str) != len(ids)):
            raise ValueError("arrival indices and classes must be ints "
                             "(not bools), and lane ids strings")
        frames = layout(d["container"], d.get("mode"), d.get("b"))
        lanes = [_lane(frames, *row) for row in zip(ids, x0s, downs)]
        if len(set(ids)) < len(ids):
            twice = sorted(k for k in set(ids) if ids.count(k) > 1)
            raise ValueError(f"lane ids listed twice: {twice}")
        _check_strips(frames, lanes)
        return PackResult(
            status=d["status"], container=d["container"], mode=d.get("mode"),
            b=d.get("b"), placements=Placements(x, y, r, i, lane, cls),
            lanes=lanes,
            rejected_index=d.get("rejected_index"),
            rejected_radius=d.get("rejected_radius"),
            per_lane=d.get("per_lane", {}))


class Placements(Sequence):
    """A result's placements, from a run or from JSON, kept as their six
    columns, read-only.  It builds a PlacedCircle only when asked for one;
    a slice is a list."""

    __slots__ = ("_columns",)

    def __init__(self, *columns):  # x, y, r, seq, lane_id, class_index
        self._columns = tuple(map(tuple, columns))

    def __len__(self) -> int:
        return len(self._columns[0])

    def __getitem__(self, k):
        if isinstance(k, slice):
            return list(map(PlacedCircle, *(c[k] for c in self._columns)))
        return PlacedCircle(*(c[k] for c in self._columns))

    def __iter__(self):
        return map(PlacedCircle, *self._columns)

    def __eq__(self, other) -> bool:
        if type(other) is Placements:
            return self._columns == other._columns
        if not isinstance(other, Sequence):
            return NotImplemented
        return list(self) == list(other)


def columns(placements: Sequence[PlacedCircle]) -> tuple:
    """The (x, y, r, seq, lane_id, class_index) columns of placements: a
    Placements' own tuples, or one list per field of any other sequence."""
    if type(placements) is Placements:
        return placements._columns
    return ([c.x for c in placements], [c.y for c in placements],
            [c.r for c in placements], [c.seq for c in placements],
            [c.lane_id for c in placements],
            [c.class_index for c in placements])


def _packed_area(rs) -> float:
    total = 0.0  # left to right: sum() compensates from Python 3.12
    for r in rs:
        total += math.pi * r * r
    return total


def _columns(table: dict, record: str, keys: tuple[str, ...]) -> list:
    """The named columns of a table, refused unless all are one length."""
    columns = [table[key] for key in keys]
    lengths = [len(column) for column in columns]
    if min(lengths) != max(lengths):
        raise ValueError(f"{record} columns differ in length: "
                         f"{dict(zip(keys, lengths))}")
    return columns


def _lane(frames: Layout, lane_id: str, x0, down) -> LaneInfo:
    """A file's lane: a layout lane, x0 and down null, or the sub-lane
    <DSLP host id>:v<class>#<ordinal> of a table class >= 3 on the strip
    [x0, x0 + class width] of its host, x0 a finite float, down a bool."""
    info = frames.lanes.get(lane_id)
    if info is not None:
        if x0 is None and down is None:
            return info
        raise ValueError(f"layout lane {lane_id} has a non-null x0 or down")
    host_id, _, sub = lane_id.rpartition(":v")
    host, (cls, _, k) = frames.lanes.get(host_id), sub.partition("#")
    if not (host and host.class_index == 1 and cls.isdecimal()
            and k.isdecimal() and f"{host_id}:v{int(cls)}#{int(k)}" == lane_id
            and 3 <= int(cls) <= frames.table.rows[-1].index):
        raise ValueError(f"lane id {lane_id!r} names no lane of the layout "
                         f"and no sub-lane of a table class >= 3")
    if not (type(x0) is float and math.isfinite(x0) and type(down) is bool):
        raise ValueError(f"sub-lane {lane_id} needs a finite float x0 and "
                         f"a bool down, not {x0!r} and {down!r}")
    return vlane_info(host, frames.table.row(int(cls)).width, int(cls), x0,
                      down, int(k))


def _check_strips(frames: Layout, lanes: list[LaneInfo]) -> None:
    """ValueError if two sub-lane strips [x0, x0 + class width] of one host
    overlap by more than the _POS_TOL slack with which the packer fits a
    strip beside another.  The test is blocks._leftmost_strip's, float for
    float, for either of the two strips opened last."""
    strips: dict[str, list] = {}
    for li in lanes:
        if li.x0 is not None:
            x1 = li.x0 + frames.table.row(li.class_index).width
            strips.setdefault(li.lane_id.rpartition(":v")[0], []).append(
                (li.x0, x1, li.lane_id))
    for row in strips.values():
        end, last = -math.inf, None  # the largest x1 so far, and its lane
        for x0, x1, lane_id in sorted(row):
            if not (end <= x0 + _POS_TOL or x0 >= end - _POS_TOL):
                raise ValueError(f"the strips of sub-lanes {last} and "
                                 f"{lane_id} overlap")
            if x1 > end:
                end, last = x1, lane_id


def _is_real(x) -> bool:
    # bool is an int subclass; numpy scalars register as Real.  A float
    # skips the slower ABC check.
    return type(x) is float or (isinstance(x, numbers.Real)
                                and not isinstance(x, bool))


class Layout(NamedTuple):
    """What a container, mode and aspect fix for every run: class table,
    guarantee, box, large TLP lane (None in the rectangle), each medium
    DSLP lane's (name, shape), and all these lanes by id."""

    table: ClassTable
    guarantee: float
    box: Rect
    large: Optional[LaneInfo]
    medium: tuple[tuple[str, tuple[LaneInfo, ...]], ...]
    lanes: dict[str, LaneInfo]


@functools.lru_cache(maxsize=32, typed=True)
def layout(container: str, mode: Optional[str], b) -> Layout:
    """The layout of the 1 x b rectangle ("rect", None, b) or of the unit
    square ("square", "general" or "no_tiny", None); ValueError for any
    other arguments.

    The rectangle is one DSLP lane.  In the square the four medium lanes
    of width w spiral around the border, and the large lane is the bottom
    slab of height 1 - w.  Cached, since a layout is frozen; the key holds
    the arguments' types, so True is refused even once 1 is cached.
    """
    if container == "rect" and mode is None:
        if not (_is_real(b) and 1 <= b < math.inf):
            raise ValueError(f"aspect b must be a finite number >= 1, "
                             f"got {b!r}")
        box = Rect(0.0, 0.0, b, 1.0)
        table, guarantee, large = (build_class_table(1.0),
                                   bounds.guarantee_rect(b), None)
        medium = (("L1", _dslp_shape("L1", box, Orientation.RIGHTWARDS)),)
    elif (container != "square" or mode not in ("general", "no_tiny")
            or b is not None):
        raise ValueError(f"no layout for container {container!r} in mode "
                         f"{mode!r} with aspect {b!r}")
    else:
        table = (build_class_table(SQUARE_WIDTH_GENERAL, large=True)
                 if mode == "general" else build_class_table(
                     SQUARE_WIDTH_NO_TINY, large=True, qs=(0.25, NO_TINY_Q2)))
        w, box = table.base_width, Rect(0.0, 0.0, 1.0, 1.0)
        guarantee = bounds.guarantee_square(mode)
        large = LaneInfo.from_rect(Rect(0.0, 0.0, 1.0, 1.0 - w),
                                   Orientation.LEFTWARDS, "L0", 0)
        medium = tuple((name, _dslp_shape(name, rect, orientation))
                       for name, rect, orientation in (
            ("L1", Rect(0.0, 1.0 - w, 1.0, 1.0), Orientation.RIGHTWARDS),
            ("L2", Rect(1.0 - w, 0.0, 1.0, 1.0 - w), Orientation.DOWNWARDS),
            ("L3", Rect(0.0, 0.0, 1.0 - w, w), Orientation.RIGHTWARDS),
            ("L4", Rect(0.0, w, w, 1.0 - w), Orientation.UPWARDS)))
    lanes = {info.lane_id: info for _, shape in medium for info in shape}
    return Layout(table, guarantee, box, large, medium,
                  lanes if large is None else {"L0": large, **lanes})


class _OnlineRun:
    """One online packing run over a container's layout (see layout).

    A run may be fed in several pack() calls; arrival indices continue
    across calls.  Every call checks all of its radii before committing
    any, and a run that has rejected a circle takes no further input.
    """

    def __init__(self, container: str, mode: Optional[str],
                 b: Optional[float]):
        # As JSON writes it: an int stays ("b": 2), other reals float.
        if _is_real(b) and type(b) not in (int, float):
            b = float(b)
        self.table, self.guarantee, _, large, medium, _ = layout(
            container, mode, b)
        self.container, self.mode, self.b = container, mode, b
        self.large_lane = None if large is None else LaneState(large)
        self.medium_lanes: list[BlockLedger] = [
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
        table = self.table
        checked = []  # (radius, class), class None when too large
        for i, r in enumerate(radii):
            if type(r) is not float:
                if not _is_real(r):
                    raise ValueError(f"radius at input {i} must be a real "
                                     f"number, got {r!r}")
                r = float(r)
            try:
                checked.append((r, classify(r, table)))
            except TooLarge:
                checked.append((r, None))  # rejected at its arrival
            except TooSmall:
                # A radius at or below the last class's lower bound is an
                # input error: refusing it as a rejection would break the
                # guarantee, which its area is within, and the result would
                # fail its own audit.
                raise ValueError(f"radius {r!r} at input {i} is not above "
                                 f"the deepest class bound "
                                 f"{table.min_radius!r}") from None
            except ValueError:
                raise ValueError(f"radius at input {i} must be positive "
                                 f"and finite, got {r!r}") from None
        for r, cls in checked:
            seq = self.arrivals
            self.arrivals += 1
            if not self._pack_one(r, cls, seq):
                self.rejected_index = seq
                self.rejected_radius = r
                break
        return self._result()

    def _pack_one(self, r: float, cls: Optional[int], seq: int) -> bool:
        if cls is None:  # too large for every class
            return False
        if cls == 0:
            # Only a table with a large class, hence a layout with a TLP
            # lane, yields class 0.
            return place(self.large_lane, r, seq, self.packing) is not None
        for d in self.medium_lanes:
            if d.host.closed:
                continue
            if dslp_pack(d, r, cls, seq, self.packing) is not None:
                return True
        return False

    def _result(self) -> PackResult:
        states, per_lane = [], {}
        if self.large_lane is not None:
            states.append(self.large_lane)
            per_lane["L0"] = {"p": packing_length(self.large_lane)}
        for d in self.medium_lanes:
            states += [d.host, d.top, d.bottom]
            states += d.vlanes
            p_t, p_b = dslp_metrics(d)
            per_lane[d.lane_id] = {"p_t": p_t, "p_b": p_b,
                                   "closed": d.host.closed}
        # A result lists only the lanes that hold circles, in lane order.
        lanes = [lane.frame for lane in states if lane.n]
        return PackResult(
            status=(STATUS_ALL_PACKED if self.rejected_index is None
                    else STATUS_REJECTED),
            container=self.container, mode=self.mode, b=self.b,
            placements=Placements(*self.packing.columns), lanes=lanes,
            rejected_index=self.rejected_index,
            rejected_radius=self.rejected_radius, per_lane=per_lane)


class RectRun(_OnlineRun):
    """One online packing run into a 1 x b rectangle."""

    def __init__(self, b: float):
        super().__init__("rect", None, b)


class SquareRun(_OnlineRun):
    """One online packing run into the unit square."""

    def __init__(self, mode: str = "general"):
        super().__init__("square", mode, None)


def pack_rect_online(b: float, radii: Iterable[float]) -> PackResult:
    return RectRun(b).pack(radii)


def pack_square_online(mode: str, radii: Iterable[float]) -> PackResult:
    return SquareRun(mode).pack(radii)
