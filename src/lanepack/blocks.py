"""One record per DSLP lane: its host, small lanes and host blocks.

A medium circle's center line splits the host into blocks: two
consecutive centers bound a dense block, the last center opens a sparse
block, sparse[-1], that runs until the next medium circle caps it at its
left tangent.  Only sparse blocks are recorded: the packer never acts on
a dense one.  Medium centers advance strictly, so sparse is in owner
order.  Tiny and very tiny circles (classes >= 3) go into vertical
sub-lanes placed inside sparse blocks, or directly into the host's free
area, via a five-step routine whose steps 2 and 3 are one pass over
sparse; when every step fails the whole lane closes.
"""

from __future__ import annotations

import math
from typing import Optional

from .classification import ClassTable
from .lanes import LaneState, Packing, place
from .layout import _POS_TOL, vlane_info


class SparseBlock:
    def __init__(self, owner_u: float, owner_r: float, down: bool,
                 x_cap: float, edge: float):
        # Center and radius of the medium circle whose half it contains.
        self.owner_u, self.owner_r = owner_u, owner_r
        self.down = down  # whether that half is the host-canonical bottom
        self.x_cap = x_cap
        self.edge = edge  # max owner_u + owner_r of it and all blocks before
        # min(class, 5) of its sub-lanes, or None before the first opens:
        # classes 3 and 4 each reserve a block, and classes >= 5 share one.
        self.reserved: Optional[int] = None
        self.closed = False  # takes no more sub-lanes; keeps its reservation


class BlockLedger:
    def __init__(self, lane_id: str, host: LaneState, top: LaneState,
                 bottom: LaneState, table: ClassTable,
                 mirrored: list[tuple[float, float]]):
        self.lane_id, self.table = lane_id, table
        self.host, self.top, self.bottom = host, top, bottom
        # The host's vertical sub-lane strips are host.exclusions; these
        # are the same strips in the small lanes' u, which runs opposite.
        self.mirrored = mirrored
        self.sparse: list[SparseBlock] = []
        self.vlanes: list[LaneState] = []  # opening order
        # Each class's newest sub-lane, the only one of its class that can
        # be open: a class opens a sub-lane only after step 1 closed its last.
        self.open_vlane: dict[int, LaneState] = {}
        # Running extent of all sub-lane circles along the host's u axis.
        self.lo, self.hi = math.inf, -math.inf
        self.strip_end = 0.0  # max right end of host.exclusions, which grows

    def frontier(self) -> float:
        """Right edge of all committed content in host-canonical x.  A
        dense block ends at a medium center, which the newest sparse
        block's owner edge passes; its edge covers every owner edge."""
        edge = self.sparse[-1].edge if self.sparse else 0.0
        return max(edge, self.strip_end)


def on_medium_packed(ledger: BlockLedger, u: float, r: float,
                     down: bool) -> None:
    """Update block structure after a medium circle landed at canonical u:
    the previous medium's block, sparse[-1], is capped, or dropped if it
    holds no sub-lane."""
    if ledger.sparse:
        prev = ledger.sparse[-1]
        if prev.reserved is not None:
            prev.x_cap = u - r
        else:
            ledger.sparse.pop()
    edge = ledger.sparse[-1].edge if ledger.sparse else 0.0
    ledger.sparse.append(SparseBlock(owner_u=u, owner_r=r, down=down,
                                     x_cap=ledger.host.frame.length,
                                     edge=max(edge, u + r)))


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


def _create_vlane(ledger: BlockLedger, class_index: int, x0: float,
                  downwards: bool) -> LaneState:
    """Open the strip [x0, x0 + width] across the host (see vlane_info)."""
    host, width = ledger.host.frame, ledger.table.row(class_index).width
    lane = LaneState(vlane_info(host, width, class_index, x0, downwards,
                                len(ledger.vlanes)))
    x1 = x0 + width
    ledger.vlanes.append(lane)
    ledger.open_vlane[class_index] = lane
    ledger.host.exclusions.append((x0, x1))
    ledger.strip_end = max(ledger.strip_end, x1)
    ledger.mirrored.append((host.length - x1, host.length - x0))
    return lane


def _place_in(ledger: BlockLedger, lane: LaneState, r: float,
              packing: Packing) -> Optional[tuple[float, float]]:
    """Place into a vertical lane and widen the ledger's extent by the
    circle, with Frame.to_local's floats; close the lane if it is full.
    The circle's container point, or None."""
    point = place(lane, r, packing)
    if point is None:
        lane.closed = True
        return None
    (ox, oy), (eux, euy) = ledger.host.frame.origin, ledger.host.frame.eu
    u = (point[0] - ox) * eux + (point[1] - oy) * euy
    if u - r < ledger.lo:
        ledger.lo = u - r
    if u + r > ledger.hi:
        ledger.hi = u + r
    return point


def pack_small_class(ledger: BlockLedger, r: float, class_index: int,
                     packing: Packing) -> Optional[tuple[float, float]]:
    """Pack a class >= 3 circle via the five-step routine.

    Returns the circle's container point, or None after closing the host
    lane.
    """
    if class_index < 3:
        raise ValueError(f"five-step routine only handles classes >= 3, "
                         f"got {class_index}")
    host = ledger.host
    width = ledger.table.row(class_index).width

    # Step 1: try the open vertical lane of this class, closing it on failure.
    lane = ledger.open_vlane.get(class_index)
    if lane is not None and not lane.closed:
        point = _place_in(ledger, lane, r, packing)
        if point is not None:
            return point

    # Steps 2 and 3, one pass in owner order over the open sparse blocks
    # that are free or reserved for this class: close the exhausted ones,
    # and open a new vertical lane inside the leftmost one with room.
    reserve = min(class_index, 5)
    target = None
    for block in ledger.sparse:
        if not block.closed and block.reserved in (None, reserve):
            pos = _leftmost_strip(block.owner_u + block.owner_r, block.x_cap,
                                  width, host.exclusions)
            if pos is None:
                block.closed = True
            elif target is None:
                target, target_pos = block, pos
    if target is not None:
        lane = _create_vlane(ledger, class_index, target_pos, target.down)
        target.reserved = reserve
        # A fresh lane fails only when circles of other lanes obstruct it.
        point = _place_in(ledger, lane, r, packing)
        if point is not None:
            return point

    # Step 4: place a vertical lane in the free area at the frontier.
    pos = _leftmost_strip(ledger.frontier(), host.frame.length, width,
                          host.exclusions)
    if pos is not None:
        lane = _create_vlane(ledger, class_index, pos, False)
        point = _place_in(ledger, lane, r, packing)
        if point is not None:
            return point

    # Step 5: the lane is exhausted for this class; close it for good.
    host.closed = True
    return None
