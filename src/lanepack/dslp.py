"""Double-sided lane packing: a medium lane plus two half-width small lanes.

The host lane takes medium circles (standard placement) and tiny/very-tiny
circles (via the block engine); the two small lanes partition the host
rectangle and are packed in the opposite direction.  A small circle goes
to whichever small lane ends up with the shorter packing length, ties to
the bottom lane.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional

from .blocks import BlockLedger, on_medium_packed, pack_small_class
from .classification import ClassTable
from .geometry import EPS, Orientation, PlacedCircle, Rect
from .lanes import (LaneInfo, LaneState, Packing, commit, find_position,
                    packing_length)


@dataclass
class DslpLane:
    lane_id: str
    host: LaneState
    ledger: BlockLedger
    top: LaneState
    bottom: LaneState


@functools.lru_cache(maxsize=32, typed=True)
def _dslp_shape(lane_id: str, x0: float, y0: float, x1: float, y1: float,
                orientation: Orientation) -> tuple[LaneInfo, ...]:
    """Descriptions of a DSLP lane's host, top and bottom lanes.

    Cached per shape, since they are frozen; each run builds its own
    lane states from them.  The key holds the typed coordinates, so an
    int and a float aspect keep their own descriptions.
    """
    host = LaneInfo.from_rect(Rect(x0, y0, x1, y1), orientation,
                              f"{lane_id}:host", "SLP", 1)
    w, length = host.width, host.length
    halves = {"top": Rect(0.0, w / 2.0, length, w),
              "bottom": Rect(0.0, 0.0, length, w / 2.0)}
    return (host,) + tuple(
        host.subframe(rect, Orientation.LEFTWARDS, f"{lane_id}:{name}", "SLP",
                      2)
        for name, rect in halves.items())


def new_dslp(lane_id: str, shape: tuple[LaneInfo, ...],
             table: ClassTable) -> DslpLane:
    """An empty DSLP lane of a shape that _dslp_shape built.  The small
    lanes share the ledger's list of mirrored sub-lane strips."""
    host = LaneState(shape[0])
    ledger = BlockLedger(host, table)
    top, bottom = [LaneState(info, exclusions=ledger.mirrored)
                   for info in shape[1:]]
    return DslpLane(lane_id, host, ledger, top, bottom)


def _length_after(lane: LaneState, u: float, r: float) -> float:
    if lane.n == 0:
        return 2.0 * r
    return max(lane.hi, u + r) - min(lane.lo, u - r)


def dslp_pack(d: DslpLane, r: float, class_index: int, seq: int,
              packing: Packing, eps: float = EPS) -> Optional[PlacedCircle]:
    """Pack one circle; None means this lane could not take it.

    A class >= 3 failure closes the host lane (five-step routine, last
    step); medium and small failures leave the lane open.
    """
    if d.host.closed:
        return None
    if class_index == 1:
        pos = find_position(d.host, r, packing, eps)
        if pos is None:
            return None
        u, v = pos
        circle = commit(d.host, u, v, r, seq, packing)
        half_side = "bottom" if v <= d.host.frame.width / 2.0 else "top"
        on_medium_packed(d.ledger, u, r, half_side)
        return circle
    if class_index >= 3:
        return pack_small_class(d.ledger, r, class_index, seq, packing, eps)
    # Class 2: tentatively place into both small lanes, keep the shorter one.
    # The small lanes honor the host's vertical sub-lane strips, mirrored
    # (see BlockLedger.mirrored).
    pos_top = find_position(d.top, r, packing, eps)
    pos_bottom = find_position(d.bottom, r, packing, eps)
    if pos_top is None and pos_bottom is None:
        return None
    if pos_bottom is None:
        lane, pos = d.top, pos_top
    elif pos_top is None:
        lane, pos = d.bottom, pos_bottom
    else:
        p_top = _length_after(d.top, pos_top[0], r)
        p_bottom = _length_after(d.bottom, pos_bottom[0], r)
        if p_bottom <= p_top:
            lane, pos = d.bottom, pos_bottom
        else:
            lane, pos = d.top, pos_top
    return commit(lane, pos[0], pos[1], r, seq, packing)


def dslp_metrics(d: DslpLane) -> tuple[float, float]:
    """(p_t, p_b): the host's packing length, sub-lane circles included,
    plus the top or the bottom small lane's."""
    p_host = packing_length(d.host, [(d.ledger.lo, d.ledger.hi)])
    length = d.host.frame.length
    # The host stream and a small-lane stream may interleave once the lane
    # is nearly full; their combined longitudinal extent still cannot
    # exceed the lane.
    return (min(length, p_host + packing_length(d.top)),
            min(length, p_host + packing_length(d.bottom)))
