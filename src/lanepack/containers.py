"""Online packing runs into the 1 x b rectangle and the unit square.

One driver runs both containers' lane layouts.  It is strictly online:
circles are placed one at a time, never moved, and the run stops at the
first circle that cannot be placed.
"""

from __future__ import annotations

from typing import Iterable, Optional

from .blocks import BlockLedger
from .classification import TooLarge, TooSmall, classify
from .dslp import dslp_metrics, dslp_pack, new_dslp
from .lanes import LaneState, Packing, packing_length, place
from .layout import (STATUS_ALL_PACKED, STATUS_REJECTED, LaneRow,
                     PackResult, Placements, _is_real, layout)


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
        lanes = [LaneRow(lane.frame.lane_id, lane.frame.x0, lane.frame.down)
                 for lane in states if lane.n]
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
