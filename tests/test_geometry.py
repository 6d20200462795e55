import dataclasses
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lanepack.geometry import (EPS, Frame, Orientation, PlacedCircle, Rect,
                               leftmost_feasible)
from lanepack.layout import LaneInfo, vlane_info
from oracles import circle_in_rect, circles_overlap, forbidden_interval


def circ(x, y, r, seq=0, lane="t"):
    return PlacedCircle(x=x, y=y, r=r, seq=seq, lane_id=lane)


class TestCirclesOverlap:
    def test_tangent_is_not_overlap(self):
        assert not circles_overlap(circ(0, 0, 1), circ(2, 0, 1), 1e-9)

    def test_penetrating(self):
        assert circles_overlap(circ(0, 0, 1), circ(1.9, 0, 1), 1e-9)

    def test_tolerance_absorbs_tiny_penetration(self):
        assert not circles_overlap(circ(0, 0, 1), circ(2 - 1e-12, 0, 1), 1e-9)

    @given(st.floats(-5, 5), st.floats(-5, 5), st.floats(0.01, 2),
           st.floats(-5, 5), st.floats(-5, 5), st.floats(0.01, 2))
    def test_symmetric(self, x1, y1, r1, x2, y2, r2):
        a, b = circ(x1, y1, r1), circ(x2, y2, r2)
        assert circles_overlap(a, b) == circles_overlap(b, a)


class TestCircleInRect:
    UNIT = Rect(0, 0, 1, 1)

    def test_inscribed(self):
        assert circle_in_rect(circ(0.5, 0.5, 0.5), self.UNIT, 1e-9)

    def test_slightly_too_big(self):
        assert not circle_in_rect(circ(0.5, 0.5, 0.5 + 1e-6), self.UNIT, 1e-9)

    def test_half_rect(self):
        assert circle_in_rect(circ(0.25, 0.25, 0.25), Rect(0, 0, 1, 0.5))


class TestForbiddenInterval:
    def test_same_height(self):
        lo, hi = forbidden_interval(circ(1, 0.5, 0.5), y=0.5, r=0.5)
        assert lo == pytest.approx(0.0)
        assert hi == pytest.approx(2.0)

    def test_vertical_gap_too_large(self):
        assert forbidden_interval(circ(1, 0.9, 0.1), y=0.1, r=0.1) is None

    def test_chord_formula_matches_dense_block_length(self):
        # Obstacle on the top side, query on the bottom side of a width-1
        # lane, both radius q: half-width must be sqrt(4q - 1).
        q = 0.5
        lo, hi = forbidden_interval(circ(0, 1 - q, q), y=q, r=q)
        half = (hi - lo) / 2
        assert half == pytest.approx(math.sqrt(4 * q - 1), abs=1e-12)

    @given(st.floats(0, 1), st.floats(0.05, 0.5), st.floats(0, 1),
           st.floats(0.05, 0.5))
    def test_symmetric_in_roles(self, y1, r1, y2, r2):
        a = forbidden_interval(circ(0.3, y1, r1), y=y2, r=r2)
        b = forbidden_interval(circ(0.3, y2, r2), y=y1, r=r1)
        if a is None:
            assert b is None
        else:
            assert b == pytest.approx(a)


def brute_force_leftmost(x_min, x_max, y, r, obstacles, exclusions, floor,
                         step=1e-6):
    lo = max(x_min, floor)
    if lo > x_max:
        return None
    xs = np.arange(lo, x_max + step, step)
    ok = np.ones(len(xs), dtype=bool)
    for o in obstacles:
        iv = forbidden_interval(o, y, r)
        if iv:
            ok &= ~((xs > iv[0]) & (xs < iv[1]))
    for a, b in exclusions:
        ok &= ~((xs + r > a) & (xs - r < b))
    idx = np.nonzero(ok)[0]
    return float(xs[idx[0]]) if len(idx) else None


class TestLeftmostFeasible:
    def _solve(self, x_min, x_max, y, r, obstacles, exclusions=(), floor=0.0):
        xs = np.array([o.x for o in obstacles])
        ys = np.array([o.y for o in obstacles])
        rs = np.array([o.r for o in obstacles])
        return leftmost_feasible(x_min, x_max, y, r, xs, ys, rs,
                                 exclusions=exclusions, floor=floor)

    def test_empty(self):
        assert self._solve(0.25, 10, 0.25, 0.25, []) == 0.25

    def test_single_tangency(self):
        x = self._solve(0.25, 10, 0.25, 0.25, [circ(0.25, 0.25, 0.25)])
        assert x == pytest.approx(0.75, abs=1e-8)

    def test_matches_brute_force_on_random_instances(self):
        rng = random.Random(42)
        for _ in range(25):
            n = rng.randint(0, 20)
            obstacles = [circ(rng.uniform(0, 3), rng.uniform(0, 1),
                              rng.uniform(0.02, 0.2)) for _ in range(n)]
            r = rng.uniform(0.02, 0.3)
            y = rng.uniform(r, 1 - r) if r < 0.5 else 0.5
            exclusions = [(a, a + rng.uniform(0.01, 0.2))
                          for a in (rng.uniform(0, 3),)] if rng.random() < 0.5 else []
            got = self._solve(r, 3 - r, y, r, obstacles, exclusions)
            want = brute_force_leftmost(r, 3 - r, y, r, obstacles, exclusions,
                                        0.0)
            if want is None:
                # The grid may just miss a sliver; accept a solution only if
                # it is genuinely feasible.
                if got is not None:
                    self._assert_feasible(got, y, r, obstacles, exclusions)
            else:
                assert got is not None
                assert got <= want + 1e-6

    def _assert_feasible(self, x, y, r, obstacles, exclusions):
        me = circ(x, y, r)
        for o in obstacles:
            assert not circles_overlap(me, o, EPS)
        for a, b in exclusions:
            assert x + r <= a + EPS or x - r >= b - EPS

    def test_result_never_overlaps(self):
        rng = random.Random(7)
        for _ in range(50):
            obstacles = [circ(rng.uniform(0, 2), rng.uniform(0, 1),
                              rng.uniform(0.05, 0.3))
                         for _ in range(rng.randint(1, 15))]
            r = rng.uniform(0.05, 0.4)
            y = r
            x = self._solve(r, 2 - r, y, r, obstacles)
            if x is not None:
                self._assert_feasible(x, y, r, obstacles, [])

    def test_floor_respected(self):
        assert self._solve(0.1, 5, 0.5, 0.1, [], floor=1.3) == 1.3

    def test_infeasible_returns_none(self):
        blocked = [circ(x / 10, 0.5, 0.5) for x in range(0, 25)]
        assert self._solve(0.2, 2.2, 0.5, 0.2, blocked) is None

    def test_smaller_eps_never_removes_feasibility(self):
        rng = random.Random(3)
        for _ in range(20):
            obstacles = [circ(rng.uniform(0, 2), rng.uniform(0, 1),
                              rng.uniform(0.05, 0.3))
                         for _ in range(rng.randint(1, 10))]
            xs = np.array([o.x for o in obstacles])
            ys = np.array([o.y for o in obstacles])
            rs = np.array([o.r for o in obstacles])
            r = rng.uniform(0.05, 0.4)
            loose = leftmost_feasible(r, 2 - r, r, r, xs, ys, rs, eps=1e-9)
            tight = leftmost_feasible(r, 2 - r, r, r, xs, ys, rs, eps=1e-12)
            if loose is not None:
                assert tight is not None
                assert tight <= loose + 1e-9


def sweep_oracle(x_min, x_max, y, r, obstacles, exclusions, floor, eps):
    """Scalar leftmost feasible x over every obstacle, with no windowing.

    A circle of radius r at height y against an obstacle is a point
    against the obstacle inflated by r - eps/2, so each forbidden interval
    comes from forbidden_interval with the same arithmetic as the solver.
    The answer is the smallest candidate (the floor or an interval end)
    that no open interval covers.
    """
    lo = max(x_min, floor)
    if lo > x_max:
        return None
    intervals = []
    for o in obstacles:
        inflated = dataclasses.replace(o, r=o.r + r - 0.5 * eps)
        iv = forbidden_interval(inflated, y, 0.0)
        if iv is not None:
            intervals.append(iv)
    for a, b in exclusions:
        s, e = a - r + 0.5 * eps, b + r - 0.5 * eps
        if s < e:
            intervals.append((s, e))
    candidates = sorted([lo] + [e for _, e in intervals if e > lo])
    for c in candidates:
        if not any(s < c < e for s, e in intervals):
            return c if c <= x_max else None
    raise AssertionError("the largest interval end is always free")


GRID = 2.0 ** -10  # coarse grid, so tangencies are exact


@st.composite
def sweep_instances(draw):
    def grid(lo, hi):
        return draw(st.integers(lo, hi)) * GRID

    length = 4.0
    r = grid(8, 256)
    y = draw(st.one_of(st.just(r), st.just(1.0 - r), st.builds(
        lambda k: k * GRID, st.integers(0, 1024))))
    floor = grid(0, 4096)
    eps = draw(st.sampled_from([0.0, EPS, 2.0 ** -20]))
    lo = max(r, floor)
    obstacles = []
    anchor = lo  # tangent obstacles chain forward from the sweep's start
    for _ in range(draw(st.integers(0, 30))):
        ro = grid(8, 512)
        kind = draw(st.sampled_from(["anywhere", "behind", "at_start",
                                     "hairline", "tangent"]))
        if kind == "anywhere":
            xo, yo = grid(-1024, 5120), grid(-256, 1280)
        elif kind == "behind":
            # The forbidden interval ends well before the sweep's start.
            xo = lo - r - ro - grid(0, 2048)
            yo = y + grid(-512, 512)
        elif kind == "at_start":
            # On the circle's line, ending a few grid steps around lo.
            xo, yo = lo - r - ro + grid(-3, 3), y
        elif kind == "hairline":
            # Ending within rounding distance of lo.
            delta = draw(st.sampled_from([0.0, 1e-15, 1e-13, 1e-11]))
            sign = draw(st.sampled_from([-1.0, 1.0]))
            xo, yo = lo - (r + ro - 0.5 * eps) + sign * delta, y
        else:
            # On the circle's line, its interval starting exactly at the
            # anchor, so a circle at the anchor would touch it.
            xo, yo = anchor + r + ro, y
            anchor = xo + ro + r + grid(0, 2) * draw(st.booleans())
        obstacles.append(circ(xo, yo, ro))
    exclusions = []
    for _ in range(draw(st.integers(0, 3))):
        a = grid(0, 4096)
        exclusions.append((a, a + grid(0, 256)))
    return (r, length - r, y, r, obstacles, exclusions, floor, eps)


class TestLeftmostFeasibleOracle:
    @settings(max_examples=400, deadline=None)
    @given(sweep_instances())
    def test_equals_scalar_sweep(self, inst):
        x_min, x_max, y, r, obstacles, exclusions, floor, eps = inst
        xs = np.array([o.x for o in obstacles])
        ys = np.array([o.y for o in obstacles])
        rs = np.array([o.r for o in obstacles])
        got = leftmost_feasible(x_min, x_max, y, r, xs, ys, rs,
                                exclusions=exclusions, floor=floor, eps=eps)
        assert got == sweep_oracle(x_min, x_max, y, r, obstacles,
                                   exclusions, floor, eps)

    def test_touching_chain_stops_at_the_gap(self):
        # Two obstacles on the line leave a gap of exactly 2r.
        r = 0.25
        obstacles = [circ(1.0, r, r), circ(2.0, r, r)]
        xs, ys, rs = (np.array([getattr(o, a) for o in obstacles])
                      for a in "xyr")
        got = leftmost_feasible(r, 4 - r, r, r, xs, ys, rs, floor=1.0,
                                eps=0.0)
        assert got == 1.5
        assert got == sweep_oracle(r, 4 - r, r, r, obstacles, (), 1.0, 0.0)


class TestFrame:
    def test_orientation_roundtrip(self):
        rect = Rect(0.2, 0.1, 1.2, 0.5)
        for orientation in Orientation:
            if orientation in (Orientation.UPWARDS, Orientation.DOWNWARDS):
                r = Rect(0.2, 0.1, 0.6, 1.2)
            else:
                r = rect
            f = Frame.from_rect(r, orientation)
            for u, v in [(0, 0), (f.length, f.width), (0.3, 0.1)]:
                x, y = f.to_container(u, v)
                uu, vv = f.to_local(x, y)
                assert uu == pytest.approx(u, abs=1e-12)
                assert vv == pytest.approx(v, abs=1e-12)
                assert (r.x0 - 1e-12 <= x <= r.x1 + 1e-12
                        and r.y0 - 1e-12 <= y <= r.y1 + 1e-12)

    def test_leftwards_mirrors_x(self):
        f = Frame.from_rect(Rect(0, 0, 2, 1), Orientation.LEFTWARDS)
        assert f.to_container(0.25, 0.1) == pytest.approx((1.75, 0.1))

    def test_subframe_composition_is_isometric(self):
        # A vertical sub-lane on the strip [0.5, 0.7] of a leftwards host,
        # packed down from the host's far side.
        host = LaneInfo.from_rect(Rect(0, 0, 3, 1), Orientation.LEFTWARDS,
                                  "h", 1)
        sub = vlane_info(host, 0.2, 3, 0.5, True, 0)
        assert sub.length == pytest.approx(1.0)
        assert sub.width == pytest.approx(0.2)
        # Distances are preserved through the composition.
        a = sub.to_container(0.1, 0.05)
        b = sub.to_container(0.9, 0.15)
        assert math.hypot(a[0] - b[0], a[1] - b[1]) == pytest.approx(
            math.hypot(0.8, 0.1))

    def test_width_exceeding_length_rejected(self):
        with pytest.raises(ValueError):
            Frame.from_rect(Rect(0, 0, 0.5, 1), Orientation.RIGHTWARDS)
