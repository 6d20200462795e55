import dataclasses
import math
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lanepack import lanes
from lanepack.geometry import EPS, Frame, Orientation, PlacedCircle, Rect
from lanepack.lanes import (LaneInfo, LaneState, Packing, find_position,
                            place)
from oracles import CommitLog, metrics, packing_extent
from test_geometry import GRID, circ, sweep_oracle


def make_lane(length=10.0, width=1.0, strategy="SLP",
              orientation=Orientation.RIGHTWARDS, lane_id="L"):
    rect = (Rect(0, 0, length, width)
            if orientation in (Orientation.RIGHTWARDS, Orientation.LEFTWARDS)
            else Rect(0, 0, width, length))
    return LaneState(LaneInfo.from_rect(rect, orientation, lane_id, strategy,
                                        1))


class TestSlpPlacement:
    def test_first_circle_in_corner(self):
        lane = make_lane()
        p = Packing()
        c = place(lane, 0.5, 0, p)
        assert (c.x, c.y) == pytest.approx((0.5, 0.5))

    def test_alternates_sides(self):
        lane = make_lane()
        p = Packing()
        a = place(lane, 0.5, 0, p)
        b = place(lane, 0.5, 1, p)
        assert a.y == pytest.approx(0.5)
        assert b.y == pytest.approx(0.5)  # w - r with r = w/2
        assert b.x == pytest.approx(1.5, abs=1e-8)
        c = place(lane, 0.3, 2, p)
        assert c.y == pytest.approx(0.3)  # bottom again

    def test_two_half_width_circles_touch(self):
        lane = make_lane()
        p = Packing()
        place(lane, 0.5, 0, p)
        b = place(lane, 0.5, 1, p)
        # Same height, so the second sits tangent one diameter along.
        assert b.x == pytest.approx(1.5, abs=1e-8)

    def test_minimum_gap_rule(self):
        # A small circle after a big one on the opposite side could slide
        # far left geometrically; the gap rule keeps it min(r, r') ahead.
        lane = make_lane()
        p = Packing()
        big = place(lane, 0.5, 0, p)
        small = place(lane, 0.1, 1, p)
        u_big, u_small = big.x, small.x
        assert u_small - u_big >= 0.1 - 1e-9

    def test_gap_binds_when_geometry_is_loose(self):
        lane = make_lane()
        p = Packing()
        place(lane, 0.45, 0, p)
        c = place(lane, 0.05, 1, p)
        # Geometrically the tiny top circle could go to u = 0.05; the gap
        # rule forces u >= 0.45 + 0.05.
        assert c.x >= 0.5 - 1e-9

    def test_respects_exclusions(self):
        lane = make_lane()
        lane.exclusions.append((0.0, 1.0))
        p = Packing()
        c = place(lane, 0.2, 0, p)
        assert c.x - c.r >= 1.0 - 1e-9

    def test_too_wide_rejected(self):
        lane = make_lane(width=0.5)
        assert place(lane, 0.26, 0, Packing()) is None

    def test_longer_than_half_lane_rejected(self):
        lane = make_lane(length=1.0, width=1.0)
        assert place(lane, 0.51, 0, Packing()) is None

    def test_closed_lane_rejects(self):
        lane = make_lane()
        lane.closed = True
        assert place(lane, 0.2, 0, Packing()) is None

    def test_full_lane_rejects(self):
        lane = make_lane(length=1.0)
        p = Packing()
        assert place(lane, 0.5, 0, p) is not None
        assert place(lane, 0.5, 1, p) is None

    def test_cross_lane_obstacles_respected(self):
        # A circle committed by another lane blocks this lane's corner.
        other = make_lane(lane_id="other")
        lane = make_lane(lane_id="mine")
        p = Packing()
        place(other, 0.5, 0, p)
        c = place(lane, 0.5, 1, p)
        assert c.x == pytest.approx(1.5, abs=1e-8)


class TestTlpPlacement:
    def test_no_gap_rule(self):
        # Two radius-0.25 circles in a width-1 lane touch diagonally: TLP
        # stacks them at the same u, SLP keeps a 0.25 longitudinal gap.
        slp = make_lane(strategy="SLP")
        tlp = make_lane(strategy="TLP")
        ps, pt = Packing(), Packing()
        place(slp, 0.25, 0, ps)
        place(tlp, 0.25, 0, pt)
        a = place(slp, 0.25, 1, ps)
        b = place(tlp, 0.25, 1, pt)
        assert a.x == pytest.approx(0.5)
        assert b.x == pytest.approx(0.25)

    def test_frontier_still_monotone(self):
        lane = make_lane(strategy="TLP")
        p = Packing()
        us = []
        rng = random.Random(5)
        for i in range(30):
            c = place(lane, rng.uniform(0.02, 0.5), i, p)
            if c is None:
                break
            us.append(c.x)
        assert us == sorted(us)

    def test_ignores_exclusions(self):
        lane = make_lane(strategy="TLP")
        lane.exclusions.append((0.0, 1.0))
        p = Packing()
        c = place(lane, 0.2, 0, p)
        assert c.x == pytest.approx(0.2)

    def test_never_longer_than_slp(self):
        rng = random.Random(11)
        for trial in range(20):
            radii = [rng.uniform(0.05, 0.5) for _ in range(25)]
            slp, tlp = (make_lane(length=40, strategy=s)
                        for s in ("SLP", "TLP"))
            ps, pt = Packing(), Packing()
            log = CommitLog()
            with log.installed():
                for i, r in enumerate(radii):
                    place(slp, r, i, ps)
                    place(tlp, r, i, pt)
            p_slp = metrics(slp, log.placed(slp)).packing_length
            p_tlp = metrics(tlp, log.placed(tlp)).packing_length
            assert p_tlp <= p_slp + 1e-9


class TestOrientations:
    def test_same_canonical_result_in_all_orientations(self):
        radii = [0.4, 0.3, 0.25, 0.35, 0.2]
        canonical = None
        for orientation in Orientation:
            lane = make_lane(length=5, orientation=orientation)
            p = Packing()
            log = CommitLog()
            with log.installed():
                placed = [place(lane, r, i, p) for i, r in enumerate(radii)]
            assert all(c is not None for c in placed)
            local = [(pl.u, pl.v) for pl in log.placed(lane)]
            assert len(local) == len(radii)
            if canonical is None:
                canonical = local
            else:
                for (u, v), (cu, cv) in zip(local, canonical):
                    assert u == pytest.approx(cu, abs=1e-9)
                    assert v == pytest.approx(cv, abs=1e-9)

    def test_container_coordinates_inside_rect(self):
        rect = Rect(0.25, 0.5, 0.75, 3.5)
        lane = LaneState(LaneInfo.from_rect(rect, Orientation.DOWNWARDS, "d",
                                            "SLP", 1))
        p = Packing()
        for i in range(6):
            c = place(lane, 0.2, i, p)
            assert c is not None
            assert rect.x0 <= c.x - c.r and c.x + c.r <= rect.x1
            assert rect.y0 <= c.y - c.r and c.y + c.r <= rect.y1
        # Packing proceeds downwards: y decreases.
        ys = [c.y for c in p.circles]
        assert ys == sorted(ys, reverse=True)


class TestMetrics:
    """The scan oracles of tests/oracles.py over logged lanes."""

    @pytest.fixture
    def log(self):
        log = CommitLog()
        with log.installed():
            yield log

    def test_empty(self, log):
        lane = make_lane()
        assert lane.n == 0
        m = metrics(lane, log.placed(lane))
        assert m.packing_length == 0.0
        assert m.free_length == lane.frame.length
        assert m.occupied_area == 0.0
        assert packing_extent(log.placed(lane)) is None

    def test_single_circle(self, log):
        lane = make_lane()
        p = Packing()
        place(lane, 0.5, 0, p)
        m = metrics(lane, log.placed(lane))
        assert m.packing_length == pytest.approx(1.0)
        assert m.free_length == pytest.approx(9.0)
        assert m.occupied_area == pytest.approx(math.pi * 0.25)

    def test_extra_extents_extend_length(self, log):
        lane = make_lane()
        p = Packing()
        place(lane, 0.5, 0, p)
        m = metrics(lane, log.placed(lane), extra_extents=((2.0, 3.5),))
        assert m.packing_length == pytest.approx(3.5)

    def test_occupancy_sums_circle_areas(self, log):
        lane = make_lane(length=20)
        p = Packing()
        radii = [0.5, 0.3, 0.2, 0.45]
        for i, r in enumerate(radii):
            place(lane, r, i, p)
        assert lane.n == len(radii)
        assert metrics(lane, log.placed(lane)).occupied_area == pytest.approx(
            sum(math.pi * r * r for r in radii))


# Radii 2^-9 .. 2^-2 fall on four grid levels (cell sides 2^-6 .. 2^0).
POWER_RADII = tuple(2.0 ** -k for k in range(2, 10))

# _SCAN_MAX values that force the grid and the linear scan.
GRID_ALWAYS, SCAN_ALWAYS = 0, 1 << 30


def refiled(packing, scan_max):
    """A fresh packing holding the same circles, built with _SCAN_MAX
    patched to scan_max."""
    with mock.patch.object(lanes, "_SCAN_MAX", scan_max):
        fresh = Packing()
        for c in packing.circles:
            fresh.add(c)
    return fresh


def full_scan_position(lane, r, packing, eps):
    """find_position's answer from a scalar sweep over every committed
    circle, with no index and no window."""
    w, length = lane.frame.width, lane.frame.length
    if r > w / 2.0 + eps or r > length / 2.0 + eps:
        return None
    v = w - r if lane.n & 1 else r
    if lane.last is None:
        floor = 0.0
    elif lane.frame.strategy == "SLP":
        floor = lane.last[0] + min(r, lane.last[1])
    else:
        floor = lane.last[0]
    local = [circ(*lane.frame.to_local(c.x, c.y), c.r)
             for c in packing.circles]
    exclusions = lane.exclusions if lane.frame.strategy == "SLP" else ()
    u = sweep_oracle(r, length - r, v, r, local, exclusions, floor, eps)
    return None if u is None else (u, v)


ROUNDING_RECT = Rect(1.511136377957703, -1.505704547601769,
                     1.7326969916238637, 1.608221436605246)


def _frames():
    """Lane frames of length 2 and width 1/2 placed off the origin in all
    four orientations, a vertical sub-lane of a leftwards host, and a
    lane whose origin lies off the dyadic grid."""
    frames = [Frame.from_rect(Rect(0.25, 0.5, 2.25, 1.0), o)
              for o in (Orientation.RIGHTWARDS, Orientation.LEFTWARDS)]
    frames += [Frame.from_rect(Rect(0.5, 0.25, 1.0, 2.25), o)
               for o in (Orientation.UPWARDS, Orientation.DOWNWARDS)]
    host = Frame.from_rect(Rect(0.0, 0.0, 2.5, 0.5), Orientation.LEFTWARDS)
    frames.append(host.subframe(Rect(0.75, 0.0, 1.25, 0.5),
                                Orientation.DOWNWARDS))
    # An origin off the dyadic grid, so mapping between frames rounds.
    frames.append(Frame.from_rect(ROUNDING_RECT, Orientation.UPWARDS))
    return frames


FRAMES = _frames()


@st.composite
def placement_instances(draw):
    def grid(lo, hi):
        return draw(st.integers(lo, hi)) * GRID

    frame = draw(st.sampled_from(FRAMES))
    strategy = draw(st.sampled_from(["SLP", "TLP"]))
    lane = LaneState(LaneInfo(*dataclasses.astuple(frame), "q", strategy, 1),
                     n=draw(st.integers(0, 1)))
    w, length = frame.width, frame.length
    r = draw(st.one_of(st.sampled_from(POWER_RADII[2:]), st.builds(
        lambda k: k * GRID, st.integers(2, 256))))
    # A negative tolerance widens every forbidden interval.
    eps = draw(st.sampled_from([0.0, EPS, 2.0 ** -20, -2.0 ** -20]))
    if draw(st.booleans()):
        last_u = draw(st.one_of(st.integers(0, 1536).map(lambda k: k * GRID),
                                st.floats(0.0, 1.5)))
        lane.last = (last_u, draw(st.sampled_from(POWER_RADII)))
    if strategy == "SLP":
        for _ in range(draw(st.integers(0, 2))):
            a = grid(0, 2048)
            lane.exclusions.append((a, a + grid(0, 64)))
    v = w - r if lane.n & 1 else r
    if lane.last is None:
        lo = r
    elif strategy == "SLP":
        lo = max(r, lane.last[0] + min(r, lane.last[1]))
    else:
        lo = max(r, lane.last[0])
    packing = Packing()
    anchor = lo  # tangent obstacles chain forward from the sweep's start
    for seq in range(draw(st.integers(0, 40))):
        ro = draw(st.one_of(st.sampled_from(POWER_RADII), st.builds(
            lambda k: k * GRID, st.integers(1, 256))))
        kind = draw(st.sampled_from(["anywhere", "cell_edge", "near_start",
                                     "hairline", "tangent", "beside"]))
        if kind == "cell_edge":
            # Center on a cell corner of some level, in container terms.
            h = draw(st.sampled_from([2.0 ** -6, 2.0 ** -4, 2.0 ** -2, 1.0]))
            x = draw(st.integers(-2, 40)) * h
            y = draw(st.integers(-2, 40)) * h
        else:
            if kind == "anywhere":
                u, vo = grid(-512, 2560), grid(-256, 768)
            elif kind == "near_start":
                u, vo = lo + grid(-256, 256), v + grid(-128, 128)
            elif kind == "hairline":
                # Interval ending within rounding distance of the start.
                delta = draw(st.sampled_from([0.0, 1e-13, 1e-11])
                             | st.integers(1, 8).map(
                                 lambda k: k * math.ulp(lo)))
                u = lo - (r + ro - 0.5 * eps) + draw(
                    st.sampled_from([-1.0, 1.0])) * delta
                vo = v + draw(st.sampled_from([0.0, 1e-7, -1e-7]))
            elif kind == "tangent":
                # Interval starting exactly at the anchor.
                u, vo = anchor + r + ro, v
                anchor = u + ro + r + grid(0, 2) * draw(st.booleans())
            else:
                # Beside the start, its interval at height v a hairline
                # wide, empty, or just wider than the disks' sum.
                u = lo + grid(-2, 2)
                vo = v + draw(st.sampled_from([-1.0, 1.0])) * (
                    r + ro - 0.5 * eps + draw(st.sampled_from(
                        [-GRID, -2.0 ** -30, 0.0, 2.0 ** -30, GRID])))
            x, y = frame.to_container(u, vo)
            if kind == "hairline":
                x += draw(st.integers(-4, 4)) * math.ulp(x)
                y += draw(st.integers(-4, 4)) * math.ulp(y)
        packing.add(PlacedCircle(x=x, y=y, r=ro, seq=seq, lane_id="o"))
    return lane, r, packing, eps


class TestFindPositionOracle:
    @settings(max_examples=200, deadline=None)
    @given(placement_instances())
    def test_equals_full_scan(self, inst):
        lane, r, packing, eps = inst
        expect = full_scan_position(lane, r, packing, eps)
        assert find_position(lane, r, packing, eps) == expect
        for scan_max in (GRID_ALWAYS, SCAN_ALWAYS):
            assert find_position(lane, r, refiled(packing, scan_max),
                                 eps) == expect, scan_max

    def test_answer_beyond_the_first_window(self):
        # A wall of obstacles fills the first windows, so the sweep has
        # to look up to the end of the lane.
        lane = make_lane(length=4.0, width=0.5)
        p = Packing()
        for i in range(12):
            p.add(PlacedCircle(x=0.125 + 0.25 * i, y=0.125, r=0.125,
                               seq=i, lane_id="o"))
        got = find_position(lane, 0.125, p, 0.0)
        assert got == full_scan_position(lane, 0.125, p, 0.0)
        assert got == (3.125, 0.125)

    def test_negative_tolerance_widens_the_band(self):
        # With eps < 0 an obstacle whose box stays clear of the circle's
        # box by less than |eps|/2 still forbids a short interval.
        lane = make_lane(length=2.0, width=0.5)
        r, ro, eps = 0.125, 0.0625, -2.0 ** -20
        p = Packing()
        x, y = lane.frame.to_container(r, r + (r + ro - 0.5 * eps)
                                       - 2.0 ** -30)
        p.add(PlacedCircle(x=x, y=y, r=ro, seq=0, lane_id="o"))
        got = find_position(lane, r, p, eps)
        assert got == full_scan_position(lane, r, p, eps)
        assert got[0] > r

    @pytest.mark.parametrize("orientation, n, last_u, r, circle", [
        (Orientation.UPWARDS, 0, 1.5022664242509787, 0.0356210168254341,
         (1.546757394783137, -0.13874158174164652, 0.09968244156542211)),
        (Orientation.DOWNWARDS, 1, 3.3796139418704425, 0.1498528393440235,
         (3.9737773461769947, 0.48435911680670757, 0.06574382753493964)),
    ])
    def test_rounding_at_the_window_edge(self, orientation, n, last_u,
                                         r, circle):
        # Found by a random search: an obstacle whose interval ends a few
        # ulps past the start while its box misses the unwidened window.
        rect = (ROUNDING_RECT if orientation is Orientation.UPWARDS else
                Rect(3.6589044911664956, -0.042866566843218656,
                     4.1236301855210185, 3.648376391798187))
        lane = LaneState(LaneInfo.from_rect(rect, orientation, "q", "TLP", 1),
                         n=n, last=(last_u, 0.1))
        p = Packing()
        x, y, ro = circle
        p.add(PlacedCircle(x=x, y=y, r=ro, seq=0, lane_id="o"))
        got = find_position(lane, r, p, 0.0)
        assert got == full_scan_position(lane, r, p, 0.0)
        assert got[0] > last_u


def _meets(c, x0, y0, x1, y1):
    """Exact test: the circle's bounding box meets the closed rectangle."""
    x, y, r = Fraction(c.x), Fraction(c.y), Fraction(c.r)
    return (x - r <= Fraction(x1) and x + r >= Fraction(x0)
            and y - r <= Fraction(y1) and y + r >= Fraction(y0))


@st.composite
def near_instances(draw):
    # Multiples of 2^-10 include every cell edge of the levels above it;
    # a few arbitrary floats fall between them.
    coord = st.one_of(st.integers(-1024, 3072).map(lambda k: k * GRID),
                      st.floats(-1.0, 3.0))
    radius = st.one_of(st.sampled_from(POWER_RADII),
                       st.integers(1, 511).map(lambda k: k * GRID),
                       st.floats(2.0 ** -12, 0.5, exclude_max=True))
    packing = Packing()
    for seq, (x, y, r) in enumerate(draw(st.lists(
            st.tuples(coord, coord, radius), max_size=40))):
        packing.add(PlacedCircle(x=x, y=y, r=r, seq=seq, lane_id="o"))
    xa, xb, ya, yb = (draw(coord) for _ in range(4))
    return packing, min(xa, xb), min(ya, yb), max(xa, xb), max(ya, yb)


class TestPackingNear:
    @settings(max_examples=200, deadline=None)
    @given(near_instances())
    def test_superset_of_circles_meeting_the_rectangle(self, inst):
        packing, x0, y0, x1, y1 = inst
        for p in (packing, refiled(packing, GRID_ALWAYS),
                  refiled(packing, SCAN_ALWAYS)):
            got = p.near(x0, y0, x1, y1)
            ids = {id(c) for c in got}
            assert len(ids) == len(got)
            assert ids <= {id(c) for c in packing.circles}
            for c in packing.circles:
                if _meets(c, x0, y0, x1, y1):
                    assert id(c) in ids, c

    def test_grid_built_at_scan_max_answers_as_from_the_start(self):
        rng = random.Random(5)
        grown = Packing()
        for seq in range(lanes._SCAN_MAX + 1):
            grown.add(PlacedCircle(x=rng.uniform(0, 2), y=rng.uniform(0, 1),
                                   r=rng.choice(POWER_RADII), seq=seq,
                                   lane_id="o"))
        assert grown._levels is not None
        filed = refiled(grown, GRID_ALWAYS)
        for _ in range(200):
            xa, xb = sorted(rng.uniform(-0.5, 2.5) for _ in range(2))
            ya, yb = sorted(rng.uniform(-0.5, 1.5) for _ in range(2))
            assert sorted(c.seq for c in grown.near(xa, ya, xb, yb)) == (
                sorted(c.seq for c in filed.near(xa, ya, xb, yb)))

    def test_touching_boxes_below_zero(self):
        # Boxes touching the rectangle at a corner or an edge, on cell
        # boundaries of their level and at negative coordinates.
        p = Packing()
        touching = [PlacedCircle(-0.25, -0.25, 0.25, 0, "o"),
                    PlacedCircle(1.5, -0.5, 0.5, 1, "o"),
                    PlacedCircle(-2.0 ** -6, 0.5, 2.0 ** -6, 2, "o")]
        apart = [PlacedCircle(-0.25, -0.25, 0.25 - 2.0 ** -30, 3, "o")]
        for c in touching + apart:
            p.add(c)
        got = {id(c) for c in p.near(0.0, 0.0, 1.0, 1.0)}
        assert all(id(c) in got for c in touching)
        assert id(apart[0]) not in got
