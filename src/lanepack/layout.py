"""What a container fixes for every run, and what a run's result holds.

layout() gives a container's class table, guarantee, box and lane
frames; lane_frames() derives from it the frame of each lane in a
result's lane table.  Nothing here imports packer code.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, field
from operator import countOf
from typing import NamedTuple, Optional, Sequence

from . import bounds
from .classification import ClassTable, build_class_table
from .geometry import EPS, Frame, Orientation, PlacedCircle, Rect

SQUARE_WIDTH_GENERAL = 0.288480
SQUARE_WIDTH_NO_TINY = 0.277927
NO_TINY_Q2 = 0.191578

STATUS_ALL_PACKED = "all_packed"
STATUS_REJECTED = "rejected"

# The packer's slack in fitting a sub-lane strip (blocks._leftmost_strip).
_POS_TOL = 1e-12

# The longest rectangle.  Lanes packed from its far end commit x = b - u,
# which rounds by up to ulp(b)/2; up to 2**20 a float's spacing is at most
# 2**-32 (2.3e-10), under EPS/4.  guarantee_rect is pi/4 from b = 2.36 on.
MAX_ASPECT = 2.0 ** 20


class LaneInfo(Frame):
    """One lane: its frame, size class (TLP packs class 0, SLP every
    other) and, for a sub-lane, strip start x0 on its host and side
    (down).  Never edited, so a layout's runs share its lanes."""

    def __init__(self, origin: tuple[float, float], eu: tuple[int, int],
                 ev: tuple[int, int], length: float, width: float,
                 lane_id: str, class_index: int, x0: Optional[float] = None,
                 down: Optional[bool] = None):
        # Set here, not by Frame.__init__: a sub-lane is built per strip.
        self.origin, self.eu, self.ev = origin, eu, ev
        self.length, self.width = length, width
        self.lane_id, self.class_index = lane_id, class_index
        self.x0, self.down = x0, down


class LaneRow(NamedTuple):
    """A lane of a result's lane table: x0 and down are None for a lane
    of the layout, and a sub-lane's strip start and side otherwise."""

    lane_id: str
    x0: Optional[float]
    down: Optional[bool]


def _dslp_shape(lane_id: str, rect: Rect,
                orientation: Orientation) -> tuple[LaneInfo, ...]:
    """A DSLP lane's host, top and bottom lanes, built once per layout.
    The halves [w/2, w] and [0, w/2] across the host pack from its far
    end back (u along -eu, v along ev), by Frame.to_container's floats."""
    host = LaneInfo.from_rect(rect, orientation, f"{lane_id}:host", 1)
    (ox, oy), (eux, euy), (evx, evy) = host.origin, host.eu, host.ev
    length, half = host.length, host.width / 2.0
    return (host,) + tuple(
        LaneInfo((ox + length * eux + v0 * evx, oy + length * euy + v0 * evy),
                 (-eux, -euy), (evx, evy), length, half,
                 f"{lane_id}:{name}", 2)
        for name, v0 in (("top", half), ("bottom", 0.0)))


def vlane_info(host: LaneInfo, width: float, class_index: int, x0: float,
               down: bool, ordinal: int) -> LaneInfo:
    """Sub-lane `ordinal` of class_index on the strip [x0, x0 + width] of
    the host, packed across it: from the host's far side along -ev
    (down) or from its near side along ev, with v along eu from x0;
    ValueError if the strip leaves the host."""
    (ox, oy), (eux, euy), (evx, evy) = host.origin, host.eu, host.ev
    x1 = x0 + width
    if not 0.0 <= x0 <= x1 <= host.length + _POS_TOL:
        raise ValueError(f"strip [{x0!r}, {x1!r}] leaves the "
                         f"{host.length!r}-long host {host.lane_id}")
    v, s = (host.width, -1) if down else (0.0, 1)
    return LaneInfo((ox + x0 * eux + v * evx, oy + x0 * euy + v * evy),
                    (s * evx, s * evy), (eux, euy), host.width, x1 - x0,
                    f"{host.lane_id}:v{class_index}#{ordinal}", class_index,
                    x0, down)


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
        if not (_is_real(b) and 1 <= b <= MAX_ASPECT):
            raise ValueError(f"aspect b must be a finite number >= 1, at "
                             f"most 2**20, got {b!r}")
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


@functools.lru_cache(maxsize=1024)  # short results repeat a few ids
def _sub_lane_id(lane_id: str) -> Optional[tuple[str, int, int]]:
    """(host id, class, ordinal) if f"{host}:v{cls}#{k}" spells lane_id."""
    host_id, _, sub = lane_id.rpartition(":v")
    cls, _, k = sub.partition("#")
    if not (cls.isdecimal() and k.isdecimal()):
        return None
    cls, k = int(cls), int(k)
    return (host_id, cls, k) if f"{host_id}:v{cls}#{k}" == lane_id else None


def lane_frames(frames: Layout,
                lanes: Sequence[LaneRow]) -> dict[str, LaneInfo]:
    """The frames of a lane table's lanes, by id, from the layout alone.
    ValueError unless each lane is a layout lane (x0 and down None) or
    the sub-lane <DSLP host id>:v<class>#<ordinal> of a table class >= 3
    on the strip [x0, x0 + class width] of its host (x0 a finite float,
    down a bool; see vlane_info), no id is listed twice, and no two
    strips of one host overlap by more than _POS_TOL: the packer's test
    in blocks._leftmost_strip, for either of the two strips opened last."""
    out: dict[str, LaneInfo] = {}
    strips: dict[str, list] = {}
    last = frames.table.rows[-1].index
    for lane_id, x0, down in lanes:
        info = frames.lanes.get(lane_id)
        if info is not None:
            if x0 is not None or down is not None:
                raise ValueError(f"layout lane {lane_id} has a non-null x0 "
                                 f"or down")
            out[lane_id] = info
            continue
        host_id, cls, k = (isinstance(lane_id, str) and _sub_lane_id(lane_id)
                           or (None, -1, -1))
        host = frames.lanes.get(host_id)
        if not (host and host.class_index == 1 and 3 <= cls <= last):
            raise ValueError(f"lane id {lane_id!r} names no lane of the "
                             f"layout and no sub-lane of a table class >= 3")
        if not (type(x0) is float and math.isfinite(x0)
                and type(down) is bool):
            raise ValueError(f"sub-lane {lane_id} needs a finite float x0 "
                             f"and a bool down, not {x0!r} and {down!r}")
        width = frames.table.row(cls).width
        out[lane_id] = vlane_info(host, width, cls, x0, down, k)
        strips.setdefault(host_id, []).append((x0, x0 + width, lane_id))
    if len(out) < len(lanes):
        ids = [lane[0] for lane in lanes]
        twice = sorted(k for k in out if ids.count(k) > 1)
        raise ValueError(f"lane ids listed twice: {twice}")
    for row in strips.values():
        end, last = -math.inf, None  # the largest x1 so far, and its lane
        for x0, x1, lane_id in sorted(row):
            if not (end <= x0 + _POS_TOL or x0 >= end - _POS_TOL):
                raise ValueError(f"the strips of sub-lanes {last} and "
                                 f"{lane_id} overlap")
            if x1 > end:
                end, last = x1, lane_id
    return out


@dataclass
class PackResult:
    status: str
    container: str  # 'square' or 'rect'
    mode: Optional[str]  # square packing mode, None for rect
    b: Optional[float]  # rectangle aspect, None for the square
    placements: Sequence[PlacedCircle]  # Placements, or any such sequence
    lanes: list[LaneRow]  # the lane table: lanes holding circles, in order
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
        """Read schema 3; ValueError for another schema, uneven columns or
        a mistyped column (arrival indices and classes ints, ids strings).
        The audit checks the lane table (lane_frames) and the rest."""
        schema = d["schema"] if "schema" in d else None
        if schema != 3:
            raise ValueError(f"result schema {schema!r} is not 3; re-run "
                             f"pack to write a schema-3 file")
        x, y, r, i, lane, cls = _columns(d["placements"], "placement",
                                         ("x", "y", "r", "i", "lane", "class"))
        ids, x0s, downs = _columns(d["lanes"], "lane", ("id", "x0", "down"))
        # A placement's lane that is not a string matches no lane id, and
        # the audit reports it.
        if (countOf(map(type, i), int) != len(i)
                or countOf(map(type, cls), int) != len(cls)
                or countOf(map(type, ids), str) != len(ids)):
            raise ValueError("arrival indices and classes must be ints "
                             "(not bools), and lane ids strings")
        return PackResult(
            status=d["status"], container=d["container"], mode=d.get("mode"),
            b=d.get("b"), placements=Placements(x, y, r, i, lane, cls),
            lanes=list(map(LaneRow, ids, x0s, downs)),
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
    n = len(columns[0])
    for column in columns:
        if len(column) != n:
            raise ValueError(f"{record} columns differ in length: "
                             f"{dict(zip(keys, map(len, columns)))}")
    return columns
