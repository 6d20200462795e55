"""Double-sided lane packing: a medium lane plus two half-width small lanes.

The host lane takes medium circles (standard placement) and tiny/very-tiny
circles (via the block engine); the two small lanes partition the host
rectangle and are packed in the opposite direction.  A small circle goes
to whichever small lane ends up with the shorter packing length, ties to
the bottom lane.  A blocks.BlockLedger holds all of one lane's state.
"""

from __future__ import annotations

from typing import Optional

from .blocks import BlockLedger, on_medium_packed, pack_small_class
from .classification import ClassTable
from .lanes import LaneState, Packing, commit, find_position, packing_length
from .layout import LaneInfo


def new_dslp(lane_id: str, shape: tuple[LaneInfo, ...],
             table: ClassTable) -> BlockLedger:
    """An empty DSLP lane of a shape that layout._dslp_shape built.  The small
    lanes share the ledger's list of mirrored sub-lane strips."""
    mirrored = []
    top, bottom = [LaneState(info, exclusions=mirrored) for info in shape[1:]]
    return BlockLedger(lane_id, LaneState(shape[0]), top, bottom, table,
                       mirrored)


def _length_after(lane: LaneState, u: float, r: float) -> float:
    if lane.n == 0:
        return 2.0 * r
    return max(lane.hi, u + r) - min(lane.lo, u - r)


def dslp_pack(d: BlockLedger, r: float, class_index: int,
              packing: Packing) -> Optional[tuple[float, float]]:
    """Pack one circle; its container point, or None when this lane could
    not take it.

    A class >= 3 failure closes the host lane (five-step routine, last
    step); medium and small failures leave the lane open.
    """
    if d.host.closed:
        return None
    if class_index == 1:
        pos = find_position(d.host, r, packing)
        if pos is None:
            return None
        u, v = pos
        point = commit(d.host, u, v, r, packing)
        on_medium_packed(d, u, r, v <= d.host.frame.width / 2.0)
        return point
    if class_index >= 3:
        return pack_small_class(d, r, class_index, packing)
    # Class 2: tentatively place into both small lanes, keep the shorter one.
    # The small lanes honor the host's vertical sub-lane strips, mirrored
    # (see BlockLedger.mirrored).
    pos_top = find_position(d.top, r, packing)
    pos_bottom = find_position(d.bottom, r, packing)
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
    return commit(lane, pos[0], pos[1], r, packing)


def dslp_metrics(d: BlockLedger) -> tuple[float, float]:
    """(p_t, p_b): the host's packing length, sub-lane circles included,
    plus the top or the bottom small lane's."""
    p_host = packing_length(d.host, d.lo, d.hi)
    length = d.host.frame.length
    # The host stream and a small-lane stream may interleave once the lane
    # is nearly full; their combined longitudinal extent still cannot
    # exceed the lane.
    return (min(length, p_host + packing_length(d.top)),
            min(length, p_host + packing_length(d.bottom)))
