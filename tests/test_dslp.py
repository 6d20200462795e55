import math

import pytest

from lanepack.classification import build_class_table
from lanepack.dslp import dslp_metrics, dslp_pack, new_dslp
from lanepack.geometry import Orientation, Rect
from lanepack.lanes import Packing
from lanepack.layout import _dslp_shape
from oracles import (CommitLog, bounding_rect, circles_overlap, committed,
                     metrics, occupied_area, packed, vlane_extents)

TABLE = build_class_table(1.0)
R_MEDIUM = 0.4  # class 1: 0.25 < r <= 0.5
R_SMALL = 0.12  # class 2: 0.0841 < r <= 0.25
R_TINY = 0.07  # class 3


def make(b=4.0):
    return new_dslp("L1", _dslp_shape("L1", Rect(0, 0, b, 1),
                                      Orientation.RIGHTWARDS),
                    TABLE), Packing()


@pytest.fixture
def log():
    log = CommitLog()
    with log.installed():
        yield log


class TestConstruction:
    def test_sub_lane_geometry(self):
        d, _ = make(b=4.0)
        assert d.host.frame.width == 1.0
        assert d.top.frame.width == 0.5
        assert d.bottom.frame.width == 0.5
        assert d.top.frame.length == d.bottom.frame.length == 4.0
        # Small lanes pack right-to-left while the host packs left-to-right.
        assert d.top.frame.eu[0] == -d.host.frame.eu[0]
        assert d.bottom.frame.eu[0] == -d.host.frame.eu[0]

    def test_sub_lanes_partition_host_rect(self):
        d, _ = make()
        top_rect = bounding_rect(d.top.frame)
        bottom_rect = bounding_rect(d.bottom.frame)
        assert bottom_rect.y1 == pytest.approx(top_rect.y0)
        assert bottom_rect.y0 == pytest.approx(0.0)
        assert top_rect.y1 == pytest.approx(1.0)

    def test_small_lanes_share_the_mirrored_strips(self):
        d, p = make(b=4.0)
        assert d.top.exclusions is d.bottom.exclusions is d.mirrored
        dslp_pack(d, R_MEDIUM, 1, p)
        dslp_pack(d, R_TINY, 3, p)
        dslp_pack(d, 0.03, 4, p)  # class 4 opens a second sub-lane
        strips = d.host.exclusions
        assert [x1 - x0 for x0, x1 in strips] == [
            lane.frame.width for lane in d.vlanes]
        assert len(strips) == 2
        # Class 3 reserved the sparse block; class 4 went to the free area.
        assert d.sparse[0].reserved == 3
        assert [lane.frame.x0 for lane in d.vlanes] == [x0 for x0, _ in strips]
        assert d.top.exclusions == [(4.0 - x1, 4.0 - x0) for x0, x1 in strips]
        # A small circle keeps clear of both strips.
        c = committed(p, dslp_pack(d, R_SMALL, 2, p))
        for x0, x1 in strips:
            assert c.x + c.r <= x0 + 1e-9 or c.x - c.r >= x1 - 1e-9


class TestRouting:
    def test_medium_goes_to_host(self):
        d, p = make()
        c = committed(p, dslp_pack(d, R_MEDIUM, 1, p))
        assert c.lane_id == "L1:host"
        assert len(d.sparse) == 1

    def test_small_goes_to_a_small_lane(self):
        d, p = make()
        c = committed(p, dslp_pack(d, R_SMALL, 2, p))
        assert c.lane_id in ("L1:top", "L1:bottom")

    def test_first_small_takes_bottom_on_tie(self):
        d, p = make()
        c = committed(p, dslp_pack(d, R_SMALL, 2, p))
        assert c.lane_id == "L1:bottom"

    def test_second_small_balances_to_top(self):
        d, p = make()
        dslp_pack(d, R_SMALL, 2, p)
        c = committed(p, dslp_pack(d, R_SMALL, 2, p))
        assert c.lane_id == "L1:top"

    def test_small_lanes_fill_from_far_end(self):
        d, p = make(b=4.0)
        c = committed(p, dslp_pack(d, R_SMALL, 2, p))
        assert c.x == pytest.approx(4.0 - R_SMALL, abs=1e-8)

    def test_tiny_uses_block_engine(self):
        d, p = make()
        dslp_pack(d, R_MEDIUM, 1, p)
        c = committed(p, dslp_pack(d, R_TINY, 3, p))
        assert ":v3#" in c.lane_id

    def test_tiny_failure_closes_whole_lane(self):
        d, p = make(b=1.0)
        dslp_pack(d, 0.5, 1, p)
        assert dslp_pack(d, R_TINY, 3, p) is None
        assert d.host.closed
        assert dslp_pack(d, R_SMALL, 2, p) is None

    def test_medium_failure_keeps_lane_open(self):
        d, p = make(b=1.0)
        dslp_pack(d, 0.5, 1, p)
        assert dslp_pack(d, 0.5, 1, p) is None
        assert not d.host.closed


class TestOppositeDirectionInteraction:
    def test_streams_meet_without_overlap(self):
        d, p = make(b=3.0)
        radii = [(R_MEDIUM, 1), (R_SMALL, 2)] * 12
        for r, cls in radii:
            dslp_pack(d, r, cls, p)
        circles = packed(p)
        for i in range(len(circles)):
            for j in range(i + 1, len(circles)):
                assert not circles_overlap(circles[i], circles[j])

    def test_small_rejected_when_streams_collide(self):
        d, p = make(b=1.2)
        placed = 0
        for _ in range(40):
            if dslp_pack(d, R_SMALL, 2, p) is None:
                break
            placed += 1
        assert 0 < placed < 40
        assert not d.host.closed


class TestMetrics:
    def test_empty(self, log):
        d, _ = make()
        assert dslp_metrics(d) == (0.0, 0.0)
        assert metrics(d.host, log.placed(d.host),
                       vlane_extents(d, log)).packing_length == 0.0
        assert occupied_area(d, log) == 0.0

    def test_host_and_small_lengths_add(self):
        d, p = make(b=4.0)
        dslp_pack(d, R_MEDIUM, 1, p)
        dslp_pack(d, R_SMALL, 2, p)
        p_t, p_b = dslp_metrics(d)
        assert p_b == pytest.approx(2 * R_MEDIUM + 2 * R_SMALL, abs=1e-8)
        assert p_t == pytest.approx(2 * R_MEDIUM, abs=1e-8)

    def test_host_extent_includes_vlane_circles(self, log):
        d, p = make()
        dslp_pack(d, R_MEDIUM, 1, p)
        host = log.placed(d.host)
        before = metrics(d.host, host, vlane_extents(d, log)).packing_length
        dslp_pack(d, R_TINY, 3, p)
        assert metrics(d.host, host).packing_length == before
        assert metrics(d.host, host,
                       vlane_extents(d, log)).packing_length > before

    def test_occupied_area_counts_everything(self, log):
        d, p = make()
        for r, cls in [(R_MEDIUM, 1), (R_SMALL, 2), (R_TINY, 3), (R_TINY, 3)]:
            assert dslp_pack(d, r, cls, p) is not None
        expect = math.pi * (R_MEDIUM ** 2 + R_SMALL ** 2 + 2 * R_TINY ** 2)
        assert occupied_area(d, log) == pytest.approx(expect, rel=1e-12)
