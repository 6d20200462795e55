import math
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lanepack import lanes
from lanepack.containers import pack_square_online
from lanepack.geometry import EPS, Frame, Orientation, Rect
from lanepack.lanes import LaneState, Packing, find_position, place
from lanepack.layout import LaneInfo, vlane_info
from oracles import (CommitLog, committed, metrics, near, packed,
                     packing_extent)
from test_geometry import GRID, circ, sweep_oracle


def make_lane(length=10.0, width=1.0, class_index=1,
              orientation=Orientation.RIGHTWARDS, lane_id="L"):
    """A lane of class_index: class 0 packs by TLP, any other by SLP."""
    rect = (Rect(0, 0, length, width)
            if orientation in (Orientation.RIGHTWARDS, Orientation.LEFTWARDS)
            else Rect(0, 0, width, length))
    return LaneState(LaneInfo.from_rect(rect, orientation, lane_id,
                                        class_index))


class TestSlpPlacement:
    def test_first_circle_in_corner(self):
        lane = make_lane()
        p = Packing()
        c = committed(p, place(lane, 0.5, p))
        assert (c.x, c.y) == pytest.approx((0.5, 0.5))

    def test_alternates_sides(self):
        lane = make_lane()
        p = Packing()
        a = committed(p, place(lane, 0.5, p))
        b = committed(p, place(lane, 0.5, p))
        assert a.y == pytest.approx(0.5)
        assert b.y == pytest.approx(0.5)  # w - r with r = w/2
        assert b.x == pytest.approx(1.5, abs=1e-8)
        c = committed(p, place(lane, 0.3, p))
        assert c.y == pytest.approx(0.3)  # bottom again

    def test_two_half_width_circles_touch(self):
        lane = make_lane()
        p = Packing()
        place(lane, 0.5, p)
        b = committed(p, place(lane, 0.5, p))
        # Same height, so the second sits tangent one diameter along.
        assert b.x == pytest.approx(1.5, abs=1e-8)

    def test_minimum_gap_rule(self):
        # A small circle after a big one on the opposite side could slide
        # far left geometrically; the gap rule keeps it min(r, r') ahead.
        lane = make_lane()
        p = Packing()
        big = committed(p, place(lane, 0.5, p))
        small = committed(p, place(lane, 0.1, p))
        u_big, u_small = big.x, small.x
        assert u_small - u_big >= 0.1 - 1e-9

    def test_gap_binds_when_geometry_is_loose(self):
        lane = make_lane()
        p = Packing()
        place(lane, 0.45, p)
        c = committed(p, place(lane, 0.05, p))
        # Geometrically the tiny top circle could go to u = 0.05; the gap
        # rule forces u >= 0.45 + 0.05.
        assert c.x >= 0.5 - 1e-9

    def test_respects_exclusions(self):
        lane = make_lane()
        lane.exclusions.append((0.0, 1.0))
        p = Packing()
        c = committed(p, place(lane, 0.2, p))
        assert c.x - c.r >= 1.0 - 1e-9

    def test_too_wide_rejected(self):
        lane = make_lane(width=0.5)
        assert place(lane, 0.26, Packing()) is None

    def test_longer_than_half_lane_rejected(self):
        lane = make_lane(length=1.0, width=1.0)
        assert place(lane, 0.51, Packing()) is None

    def test_closed_lane_rejects(self):
        lane = make_lane()
        lane.closed = True
        assert place(lane, 0.2, Packing()) is None

    def test_full_lane_rejects(self):
        lane = make_lane(length=1.0)
        p = Packing()
        assert place(lane, 0.5, p) is not None
        assert place(lane, 0.5, p) is None

    def test_cross_lane_obstacles_respected(self):
        # A circle committed by another lane blocks this lane's corner.
        other = make_lane(lane_id="other")
        lane = make_lane(lane_id="mine")
        p = Packing()
        place(other, 0.5, p)
        c = committed(p, place(lane, 0.5, p))
        assert c.x == pytest.approx(1.5, abs=1e-8)


class TestTlpPlacement:
    def test_no_gap_rule(self):
        # Two radius-0.25 circles in a width-1 lane touch diagonally: TLP
        # stacks them at the same u, SLP keeps a 0.25 longitudinal gap.
        slp = make_lane(class_index=1)
        tlp = make_lane(class_index=0)
        ps, pt = Packing(), Packing()
        place(slp, 0.25, ps)
        place(tlp, 0.25, pt)
        a = committed(ps, place(slp, 0.25, ps))
        b = committed(pt, place(tlp, 0.25, pt))
        assert a.x == pytest.approx(0.5)
        assert b.x == pytest.approx(0.25)

    def test_frontier_still_monotone(self):
        lane = make_lane(class_index=0)
        p = Packing()
        us = []
        rng = random.Random(5)
        for i in range(30):
            c = committed(p, place(lane, rng.uniform(0.02, 0.5), p))
            if c is None:
                break
            us.append(c.x)
        assert us == sorted(us)

    def test_ignores_exclusions(self):
        lane = make_lane(class_index=0)
        lane.exclusions.append((0.0, 1.0))
        p = Packing()
        c = committed(p, place(lane, 0.2, p))
        assert c.x == pytest.approx(0.2)

    def test_never_longer_than_slp(self):
        rng = random.Random(11)
        for trial in range(20):
            radii = [rng.uniform(0.05, 0.5) for _ in range(25)]
            slp, tlp = (make_lane(length=40, class_index=k) for k in (1, 0))
            ps, pt = Packing(), Packing()
            log = CommitLog()
            with log.installed():
                for r in radii:
                    place(slp, r, ps)
                    place(tlp, r, pt)
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
                placed = [place(lane, r, p) for r in radii]
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
        for _ in range(6):
            c = committed(p, place(lane, 0.2, p))
            assert c is not None
            assert rect.x0 <= c.x - c.r and c.x + c.r <= rect.x1
            assert rect.y0 <= c.y - c.r and c.y + c.r <= rect.y1
        # Packing proceeds downwards: y decreases.
        ys = [c.y for c in packed(p)]
        assert ys == sorted(ys, reverse=True)


class TestPackingColumns:
    def test_commit_appends_a_row_and_returns_its_point(self):
        lane = make_lane(lane_id="L")
        p = Packing()
        for r in (0.2, 0.3, 0.4):
            point = place(lane, r, p)
            assert point == (p.x[-1], p.y[-1])
        assert len(p) == 3
        assert (p.r, p.columns[3]) == ([0.2, 0.3, 0.4], range(3))
        assert (p.lane_id, p.class_index) == (["L"] * 3, [1] * 3)
        xs, ys, rs = p.arrays()
        assert (xs.tolist(), ys.tolist(), rs.tolist()) == (p.x, p.y, p.r)


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
        place(lane, 0.5, p)
        m = metrics(lane, log.placed(lane))
        assert m.packing_length == pytest.approx(1.0)
        assert m.free_length == pytest.approx(9.0)
        assert m.occupied_area == pytest.approx(math.pi * 0.25)

    def test_extra_extents_extend_length(self, log):
        lane = make_lane()
        p = Packing()
        place(lane, 0.5, p)
        m = metrics(lane, log.placed(lane), extra_extents=((2.0, 3.5),))
        assert m.packing_length == pytest.approx(3.5)

    def test_occupancy_sums_circle_areas(self, log):
        lane = make_lane(length=20)
        p = Packing()
        radii = [0.5, 0.3, 0.2, 0.45]
        for r in radii:
            place(lane, r, p)
        assert lane.n == len(radii)
        assert metrics(lane, log.placed(lane)).occupied_area == pytest.approx(
            sum(math.pi * r * r for r in radii))


# Radii 2^-9 .. 2^-2 fall on four grid levels (cell sides 2^-6 .. 2^0).
POWER_RADII = tuple(2.0 ** -k for k in range(2, 10))

# _SCAN_MAX values that force the grid and the linear scan, and one that
# grids some levels while others are still scanned.
GRID_ALWAYS, SCAN_ALWAYS, MIXED = 0, 1 << 30, 3


def refiled(packing, scan_max):
    """A fresh packing holding the same circles, built with _SCAN_MAX
    patched to scan_max."""
    with mock.patch.object(lanes, "_SCAN_MAX", scan_max):
        fresh = Packing()
        for row in zip(packing.x, packing.y, packing.r, packing.lane_id,
                       packing.class_index):
            fresh.add(*row)
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
    elif lane.frame.class_index != 0:  # SLP
        floor = lane.last[0] + min(r, lane.last[1])
    else:
        floor = lane.last[0]
    local = [circ(*lane.frame.to_local(x, y), r)
             for x, y, r in zip(packing.x, packing.y, packing.r)]
    exclusions = lane.exclusions if lane.frame.class_index != 0 else ()
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
    host = LaneInfo.from_rect(Rect(0.0, 0.0, 2.5, 0.5),
                              Orientation.LEFTWARDS, "h", 1)
    frames.append(vlane_info(host, 0.5, 3, 0.75, True, 0))
    # An origin off the dyadic grid, so mapping between frames rounds.
    frames.append(Frame.from_rect(ROUNDING_RECT, Orientation.UPWARDS))
    return frames


FRAMES = _frames()


@st.composite
def placement_instances(draw):
    def grid(lo, hi):
        return draw(st.integers(lo, hi)) * GRID

    frame = draw(st.sampled_from(FRAMES))
    strategy = draw(st.sampled_from(["SLP", "TLP"]))  # class 1 or 0
    lane = LaneState(LaneInfo(frame.origin, frame.eu, frame.ev, frame.length,
                              frame.width, "q", int(strategy == "SLP")))
    lane.n = draw(st.integers(0, 1))
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
    for _ in range(draw(st.integers(0, 40))):
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
        packing.add(x, y, ro, "o", -1)
    return lane, r, packing, eps


class TestFindPositionOracle:
    @settings(max_examples=200, deadline=None)
    @given(placement_instances())
    def test_equals_full_scan(self, inst):
        lane, r, packing, eps = inst
        expect = full_scan_position(lane, r, packing, eps)
        assert find_position(lane, r, packing, eps) == expect
        for scan_max in (GRID_ALWAYS, SCAN_ALWAYS, MIXED):
            assert find_position(lane, r, refiled(packing, scan_max),
                                 eps) == expect, scan_max

    def test_answer_beyond_the_first_window(self):
        # A wall of obstacles fills the first windows, so the sweep has
        # to look up to the end of the lane.
        lane = make_lane(length=4.0, width=0.5)
        p = Packing()
        for i in range(12):
            p.add(0.125 + 0.25 * i, 0.125, 0.125, "o", -1)
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
        p.add(x, y, ro, "o", -1)
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
        lane = LaneState(LaneInfo.from_rect(rect, orientation, "q", 0))
        lane.n, lane.last = n, (last_u, 0.1)
        p = Packing()
        x, y, ro = circle
        p.add(x, y, ro, "o", -1)
        got = find_position(lane, r, p, 0.0)
        assert got == full_scan_position(lane, r, p, 0.0)
        assert got[0] > last_u


def _meets(c, x0, y0, x1, y1):
    """Exact test: the (x, y, r) circle's bounding box meets the closed
    rectangle."""
    x, y, r = map(Fraction, c)
    return (x - r <= Fraction(x1) and x + r >= Fraction(x0)
            and y - r <= Fraction(y1) and y + r >= Fraction(y0))


def indexed(packing):
    """The (x, y, r) tuples of a packing's scan list and grid cells."""
    return packing._scan + [c for _, cells, _ in packing._levels.values()
                            for cell in cells.values() for c in cell]


def assert_superset(packing, x0, y0, x1, y1):
    """Both the candidates that groups() hands to find_position and the
    answer of near() hold every circle whose box meets the rectangle in
    exact arithmetic, each at most once."""
    disks = indexed(packing)
    exact = [c for c in disks if _meets(c, x0, y0, x1, y1)]
    candidates = [c for g in packing.groups(x0, y0, x1, y1) for c in g]
    got = near(packing, x0, y0, x1, y1)
    for found in (candidates, got):
        ids = {id(c) for c in found}
        assert len(ids) == len(found)
        assert ids <= {id(c) for c in disks}
        for c in exact:
            assert id(c) in ids, (c, (x0, y0, x1, y1))
    assert {id(c) for c in got} <= {id(c) for c in candidates}


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
    for x, y, r in draw(st.lists(st.tuples(coord, coord, radius),
                                 max_size=40)):
        packing.add(x, y, r, "o", -1)
    xa, xb, ya, yb = (draw(coord) for _ in range(4))
    return packing, min(xa, xb), min(ya, yb), max(xa, xb), max(ya, yb)


@st.composite
def cell_edge_instances(draw):
    """Circles of one grid level, with radii that are not powers of two,
    centered a few ulps from a cell boundary of that level, and a
    rectangle whose edge touches one of them.  The level's cells go down
    to far below the spacing of floats at the coordinates, and the
    coordinates may be negative."""
    e = 2 * draw(st.integers(-40, 2))
    h = 2.0 ** e
    ks = st.one_of(st.integers(-64, 64), st.integers(-2 ** 60, 2 ** 60))

    def near_edge():
        edge = draw(ks) * h
        return edge + draw(st.integers(-3, 3)) * math.ulp(edge)

    radius = st.floats(0.125, 0.5, exclude_max=True).map(lambda f: f * h)
    disks = [(near_edge(), near_edge(), draw(radius))
             for _ in range(draw(st.integers(1, 6)))]
    x, y, r = draw(st.sampled_from(disks))
    ulps = st.integers(-2, 2)
    # The rectangle's left or bottom edge near the disk's right or top
    # one, or its right or top edge near the disk's left or bottom one.
    x0, x1 = x + r, x + r + draw(st.sampled_from([0.0, h, 64 * h]))
    y0, y1 = y - draw(st.sampled_from([0.0, h])), y + r
    if draw(st.booleans()):
        x0, x1 = x - r - (x1 - x0), x - r
    if draw(st.booleans()):
        y0, y1 = y - r, y - r + (y1 - y0)
    x0 += draw(ulps) * math.ulp(x0)
    y1 += draw(ulps) * math.ulp(y1)
    packing = Packing()
    for disk in disks:
        packing.add(*disk, "o", -1)
    return packing, min(x0, x1), min(y0, y1), max(x0, x1), max(y0, y1)


class TestPackingNear:
    @settings(max_examples=200, deadline=None)
    @given(near_instances())
    def test_superset_of_circles_meeting_the_rectangle(self, inst):
        packing, x0, y0, x1, y1 = inst
        rows = sorted(zip(packing.x, packing.y, packing.r))
        for p in (packing, refiled(packing, GRID_ALWAYS),
                  refiled(packing, SCAN_ALWAYS), refiled(packing, MIXED)):
            # The scan list and the grid hold every circle once.
            assert sorted(indexed(p)) == rows
            assert_superset(p, x0, y0, x1, y1)

    @settings(max_examples=200, deadline=None)
    @given(cell_edge_instances())
    def test_superset_at_cell_edges(self, inst):
        packing, x0, y0, x1, y1 = inst
        for p in (packing, refiled(packing, GRID_ALWAYS)):
            assert_superset(p, x0, y0, x1, y1)

    @pytest.mark.parametrize("x", [-3.0, -0.578125, -2.0 ** 40])
    def test_radii_far_below_the_float_spacing(self, x):
        # Cells of side 2**-64 at coordinates whose floats lie 2**-51 or
        # more apart: x0 - m rounds back to x0, and the disk centered at
        # x0 still meets the rectangle while its neighbours do not.
        r = 1e-20
        disks = [(x, -1.5, r), (math.nextafter(x, -math.inf), -1.5, r),
                 (math.nextafter(x, math.inf), -1.5, 2.5e-20),
                 (x, math.nextafter(-1.5, 0.0), 7e-21)]
        with mock.patch.object(lanes, "_SCAN_MAX", GRID_ALWAYS):
            p = Packing()
            for disk in disks:
                p.add(*disk, "o", -1)
        assert list(p._levels) == [lanes._level(r)]
        for box in ((x, -2.0, x, -1.5), (x - 1.0, -1.5, x, -1.0),
                    (math.nextafter(x, 0.0), -1.5, 0.0, -1.5)):
            assert_superset(p, *box)
        got = near(p, x, -1.5, x, -1.5)
        assert (x, -1.5, r) in got and disks[1] not in got

    def test_edge_just_across_a_cell_boundary(self):
        # A disk centered just below the cell boundary -37h whose box
        # touches x0 exactly: x0 - m falls in the cell below the one
        # holding x0, and only a pad of at least r reaches it.
        h = 2.0 ** -6
        r = 0.003  # level h, not a power of two
        x = math.nextafter(-37 * h, -math.inf)
        x0 = math.nextafter(x + r, -math.inf)
        assert Fraction(x0) <= Fraction(x) + Fraction(r)
        assert math.floor(x0 / h) == -37 > math.floor(x / h)
        with mock.patch.object(lanes, "_SCAN_MAX", GRID_ALWAYS):
            p = Packing()
            p.add(x, -0.25, r, "o", -1)
            p.add(0.5, 0.5, 0.0021, "o", -1)
        assert p._levels[lanes._level(r)][2] == r
        assert_superset(p, x0, -0.25, x0 + h, -0.25)
        assert (x, -0.25, r) in near(p, x0, -0.25, x0 + h, -0.25)

    def test_larger_radius_filed_after_queries(self):
        # The pad is the level's running largest radius: a disk larger
        # than every earlier one of its level, filed after queries, is
        # found by the next query, which the old largest radius would not
        # have reached.
        h = 2.0 ** -6
        with mock.patch.object(lanes, "_SCAN_MAX", GRID_ALWAYS):
            p = Packing()
            p.add(0.75, 0.75, 0.002, "o", -1)
            box = (0.502, 0.25, 0.51, 0.26)
            assert near(p, *box) == []
            assert_superset(p, *box)
            late = (0.499, 0.255, 0.0035)
            assert lanes._level(late[2]) == lanes._level(0.002)
            p.add(*late, "o", -1)
        level = p._levels[lanes._level(0.002)]
        assert level[0] == h and level[2] == 0.0035
        # 0.502 - 0.002 is the boundary of the cell after late's.
        assert math.floor((box[0] - 0.002) / h) > math.floor(late[0] / h)
        assert near(p, *box) == [late]
        assert_superset(p, *box)

    def test_tiny_stream_box_tests_per_query(self):
        # The seeded 3,000-circle tiny stream into the general square, as
        # the benchmark draws it at seed 7.  Padded by its largest radius,
        # the stream's grid level hands find_position 11.6 circles to box
        # test per query; padded by half a cell side, it handed 17.1.
        rng = random.Random("square_tiny_stream/7")
        radii = [rng.uniform(0.002, 0.004) for _ in range(3000)]
        sizes = []
        groups = Packing.groups

        def counted(self, *box):
            out = groups(self, *box)
            sizes.append(sum(map(len, out)))
            return out

        with mock.patch.object(Packing, "groups", counted):
            assert pack_square_online("general", radii).status == (
                "all_packed")
        assert (len(sizes), sum(sizes)) == (3008, 34762)
        assert sum(sizes) / len(sizes) < 17.1

    def test_grid_built_at_scan_max_answers_as_from_the_start(self):
        rng = random.Random(5)
        grown = Packing()
        for _ in range(lanes._SCAN_MAX + 1):
            grown.add(rng.uniform(0, 2), rng.uniform(0, 1),
                      rng.choice(POWER_RADII), "o", -1)
        assert grown._levels
        filed = refiled(grown, GRID_ALWAYS)
        for _ in range(200):
            xa, xb = sorted(rng.uniform(-0.5, 2.5) for _ in range(2))
            ya, yb = sorted(rng.uniform(-0.5, 1.5) for _ in range(2))
            assert sorted(near(grown, xa, ya, xb, yb)) == (
                sorted(near(filed, xa, ya, xb, yb)))

    def test_touching_boxes_below_zero(self):
        # Boxes touching the rectangle at a corner or an edge, on cell
        # boundaries of their level and at negative coordinates.
        p = Packing()
        touching = [(-0.25, -0.25, 0.25), (1.5, -0.5, 0.5),
                    (-2.0 ** -6, 0.5, 2.0 ** -6)]
        apart = [(-0.25, -0.25, 0.25 - 2.0 ** -30)]
        for c in touching + apart:
            p.add(*c, "o", -1)
        for q in (p, refiled(p, GRID_ALWAYS)):
            got = set(near(q, 0.0, 0.0, 1.0, 1.0))
            assert all(c in got for c in touching)
            assert apart[0] not in got

    def test_short_run_is_scanned_whole(self):
        p = Packing()
        for k in range(lanes._SCAN_MAX - 1):
            p.add(0.0, 0.0, 4.0 ** -(k % 20), "o", -1)
        assert not p._levels
        assert len(p._scan) == len(p)

    def test_sparse_level_stays_scanned(self):
        # Only the level that fills the scan list gets a grid; the few
        # large circles stay in the list.
        rng = random.Random(4)
        p = Packing()
        for k in range(200):
            r = 0.2 if k % 50 == 0 else rng.uniform(0.002, 0.004)
            p.add(rng.uniform(0, 2), rng.uniform(0, 1), r, "o", -1)
        assert list(p._levels) == [lanes._level(0.003)]
        assert [c[2] for c in p._scan] == [0.2] * 4

    def test_scan_list_stays_bounded_over_many_levels(self):
        # Radii over 25 grid levels, interleaved, so the levels get grids
        # one by one while the others are still scanned.
        rng = random.Random(3)
        p = Packing()
        mixed = False
        for _ in range(400):
            r = rng.uniform(1.0, 4.0) * 4.0 ** -rng.randrange(2, 27)
            p.add(rng.uniform(-1.0, 3.0), rng.uniform(-1.0, 3.0), r, "o", -1)
            # No query scans more than _SCAN_MAX circles linearly.
            assert len(p._scan) <= lanes._SCAN_MAX
            mixed = mixed or bool(p._scan and p._levels)
            # Each circle is filed once: in its own level's grid if that
            # level has one, else in the scan list.
            assert sorted(indexed(p)) == sorted(zip(p.x, p.y, p.r))
            assert all(lanes._level(c[2]) not in p._levels for c in p._scan)
            for e, (_, cells, m) in p._levels.items():
                filed = [c for cell in cells.values() for c in cell]
                assert all(lanes._level(c[2]) == e for c in filed)
                # The level's pad is the largest radius filed in it.
                assert m == max(c[2] for c in filed)
            # A rectangle of any scale, at random or around a circle.
            k = rng.randrange(len(p))
            half = 4.0 ** -rng.randrange(0, 27)
            if rng.random() < 0.5:
                cx, cy = rng.uniform(-1.0, 3.0), rng.uniform(-1.0, 3.0)
            else:
                cx, cy = p.x[k], p.y[k]
            box = (cx - half, cy - rng.uniform(0, 2) * half,
                   cx + rng.uniform(0, 2) * half, cy + half)
            assert_superset(p, *box)
        assert len({lanes._level(r) for r in p.r}) >= 20
        assert len(p._levels) >= 20 and mixed
