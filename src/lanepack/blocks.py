"""Dense/sparse/free block bookkeeping inside a medium lane.

A medium circle's center line splits the lane into blocks: two consecutive
centers bound a dense block, the last center opens a sparse block that
runs until the next medium circle caps it at its left tangent.  Tiny and
very tiny circles (classes >= 3) go into vertical sub-lanes placed inside
sparse blocks, or directly into the lane's free area, via a five-step
routine; when every step fails the whole lane closes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from .classification import ClassTable
from .geometry import EPS
from .lanes import LaneInfo, LaneState, Packing, PlacedCircle, place

FREE = "free"
CLOSED = "closed"

_POS_TOL = 1e-12


def reservation_for(class_index: int) -> str:
    if class_index in (3, 4):
        return f"reserved_{class_index}"
    if class_index >= 5:
        return "reserved_ge5"
    raise ValueError(f"no reservation state for class {class_index}")


@dataclass
class SparseBlock:
    owner_u: float  # center of the medium circle whose half it contains
    owner_r: float
    half_side: str  # 'bottom' or 'top', in host-canonical terms
    x_cap: float
    state: str = FREE
    # Its sub-lanes' strips, the entries of host.exclusions they opened.
    vlanes: list[tuple[float, float]] = field(default_factory=list)


@dataclass
class DenseBlock:
    x_left: float
    x_right: float
    mixed: bool = False


@dataclass
class BlockLedger:
    host: LaneState
    table: ClassTable
    # The host's vertical sub-lane strips are host.exclusions; these are
    # the same strips in the small lanes' u, which runs opposite.
    mirrored: list[tuple[float, float]] = field(default_factory=list)
    dense: list[DenseBlock] = field(default_factory=list)
    sparse: list[SparseBlock] = field(default_factory=list)
    free_vlanes: list[tuple[float, float]] = field(default_factory=list)
    vlanes: list[LaneState] = field(default_factory=list)  # opening order
    # Each class's newest sub-lane, the only one of its class that can be
    # open: a class opens a sub-lane only after step 1 closed its last.
    open_vlane: dict[int, LaneState] = field(default_factory=dict)
    current: Optional[SparseBlock] = None  # uncapped block of the last medium
    # Running extent of all sub-lane circles along the host's u axis.
    lo: float = math.inf
    hi: float = -math.inf

    def frontier(self) -> float:
        """Right edge of all committed content in host-canonical x."""
        edge = 0.0
        for d in self.dense:
            edge = max(edge, d.x_right)
        for s in self.sparse:
            edge = max(edge, s.owner_u + s.owner_r)
        for _, x1 in self.host.exclusions:
            edge = max(edge, x1)
        return edge

    def to_dict(self) -> dict:
        return {
            "dense": [{"x_left": d.x_left, "x_right": d.x_right,
                       "mixed": d.mixed} for d in self.dense],
            "sparse": [{"x_left": s.owner_u, "x_cap": s.x_cap,
                        "state": s.state, "half_side": s.half_side,
                        "vlanes": [list(strip) for strip in s.vlanes]}
                       for s in self.sparse],
            "free_vlanes": [list(strip) for strip in self.free_vlanes],
        }


def on_medium_packed(ledger: BlockLedger, u: float, r: float,
                     half_side: str) -> None:
    """Update block structure after a medium circle landed at canonical u."""
    prev = ledger.current
    if prev is not None:
        if not prev.vlanes:
            ledger.sparse.remove(prev)
            ledger.dense.append(DenseBlock(prev.owner_u, u, mixed=False))
        else:
            prev.x_cap = u - r
            ledger.dense.append(DenseBlock(prev.owner_u, u, mixed=True))
    block = SparseBlock(owner_u=u, owner_r=r, half_side=half_side,
                        x_cap=ledger.host.frame.length)
    ledger.sparse.append(block)
    ledger.current = block


def _leftmost_strip(start: float, cap: float, width: float,
                    intervals: list[tuple[float, float]]) -> Optional[float]:
    """Leftmost x >= start with [x, x+width] free of intervals and inside cap."""
    x = start
    for a, b in sorted(intervals):
        if b <= x + _POS_TOL:
            continue
        if a >= x + width - _POS_TOL:
            break
        x = b
    if x + width <= cap + _POS_TOL:
        return x
    return None


def vlane_position(ledger: BlockLedger, block: SparseBlock,
                   width: float) -> Optional[float]:
    """Leftmost feasible position for a new vertical lane inside a block."""
    return _leftmost_strip(block.owner_u + block.owner_r, block.x_cap,
                           width, ledger.host.exclusions)


def _eligible(block: SparseBlock, class_index: int) -> bool:
    return block.state in (FREE, reservation_for(class_index))


def _create_vlane(ledger: BlockLedger, class_index: int, x0: float,
                  downwards: bool,
                  strips: list[tuple[float, float]]) -> LaneState:
    """Open the strip [x0, x0 + width] across the host, with the frame that
    Frame.subframe gives it DOWNWARDS or UPWARDS, by the same floats, and
    record the strip in `strips` too."""
    host = ledger.host.frame
    width = ledger.table.row(class_index).width
    (ox, oy), (eux, euy), (evx, evy) = host.origin, host.eu, host.ev
    x1 = x0 + width
    length, lane_width = host.width, x1 - x0
    if lane_width > length + EPS:
        raise ValueError(f"lane width {lane_width} exceeds length {length}")
    v, s = (length, -1) if downwards else (0.0, 1)
    info = LaneInfo((ox + x0 * eux + v * evx, oy + x0 * euy + v * evy),
                    (s * evx, s * evy), (eux, euy), length, lane_width,
                    f"{host.lane_id}:v{class_index}#{len(ledger.vlanes)}",
                    "SLP", class_index)
    lane = LaneState(info)
    ledger.vlanes.append(lane)
    ledger.open_vlane[class_index] = lane
    ledger.host.exclusions.append((x0, x1))
    strips.append((x0, x1))
    ledger.mirrored.append((host.length - x1, host.length - x0))
    return lane


def _place_in(ledger: BlockLedger, lane: LaneState, r: float, seq: int,
              packing: Packing, eps: float) -> Optional[PlacedCircle]:
    """Place into a vertical lane and widen the ledger's extent by the
    circle, with Frame.to_local's floats; close the lane if it is full."""
    circle = place(lane, r, seq, packing, eps)
    if circle is None:
        lane.closed = True
        return None
    (ox, oy), (eux, euy) = ledger.host.frame.origin, ledger.host.frame.eu
    u = (circle.x - ox) * eux + (circle.y - oy) * euy
    ledger.lo, ledger.hi = min(ledger.lo, u - r), max(ledger.hi, u + r)
    return circle


def pack_small_class(ledger: BlockLedger, r: float, class_index: int,
                     seq: int, packing: Packing,
                     eps: float = EPS) -> Optional[PlacedCircle]:
    """Pack a class >= 3 circle via the five-step routine.

    Returns the placed circle, or None after closing the host lane.
    """
    if class_index < 3:
        raise ValueError(f"five-step routine only handles classes >= 3, "
                         f"got {class_index}")
    host = ledger.host
    width = ledger.table.row(class_index).width

    # Step 1: try the open vertical lane of this class, closing it on failure.
    lane = ledger.open_vlane.get(class_index)
    if lane is not None and not lane.closed:
        circle = _place_in(ledger, lane, r, seq, packing, eps)
        if circle is not None:
            return circle

    # Step 2: close exhausted sparse blocks eligible for this class.
    for block in ledger.sparse:
        if (_eligible(block, class_index)
                and vlane_position(ledger, block, width) is None):
            block.state = CLOSED

    # Step 3: open a new vertical lane inside the leftmost eligible block.
    for block in sorted(ledger.sparse, key=lambda s: s.owner_u):
        if not _eligible(block, class_index):
            continue
        pos = vlane_position(ledger, block, width)
        if pos is None:
            continue
        lane = _create_vlane(ledger, class_index, pos,
                             block.half_side == "bottom", block.vlanes)
        if block.state == FREE:
            block.state = reservation_for(class_index)
        # A fresh lane fails only when circles of other lanes obstruct it.
        circle = _place_in(ledger, lane, r, seq, packing, eps)
        if circle is not None:
            return circle
        break

    # Step 4: place a vertical lane in the free area at the frontier.
    pos = _leftmost_strip(ledger.frontier(), host.frame.length, width,
                          host.exclusions)
    if pos is not None:
        lane = _create_vlane(ledger, class_index, pos, False,
                             ledger.free_vlanes)
        circle = _place_in(ledger, lane, r, seq, packing, eps)
        if circle is not None:
            return circle

    # Step 5: the lane is exhausted for this class; close it for good.
    host.closed = True
    return None
