import dataclasses
import math
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lanepack import audit
from lanepack.audit import validate
from lanepack.bounds import delta, min_slp
from lanepack.containers import pack_rect_online, pack_square_online
from lanepack.geometry import Orientation, PlacedCircle, Rect
from lanepack.genseq import GenSpec, generate
from lanepack.lanes import LaneInfo, LaneState, Packing, place
from oracles import (CommitLog, LanePlacement, audit_dslp_lane,
                     audit_slp_lane, metrics)


def square_result(seed=0, threshold=0.3, r_min=0.01):
    radii = generate(GenSpec(kind="greedy_adversary", seed=seed,
                             threshold=threshold, r_min=r_min))
    return pack_square_online("general", radii)


def seven_circles():
    result = pack_square_online(
        "general", [0.3, 0.12, 0.07, 0.05, 0.02, 0.01, 0.003])
    assert result.status == "all_packed" and validate(result).valid
    return result


class TestValidate:
    def test_clean_runs_are_valid(self):
        for seed in range(5):
            report = validate(square_result(seed=seed))
            assert report.valid, [v.detail for v in report.violations]
            assert report.density > 0

    def test_rect_run_valid(self):
        radii = generate(GenSpec(kind="greedy_adversary", seed=2,
                                 threshold=0.59))
        report = validate(pack_rect_online(2.0, radii))
        assert report.valid

    def _tampered(self, mutate):
        result = square_result(seed=1)
        assert len(result.placements) >= 2
        mutate(result)
        return validate(result)

    def test_detects_overlap(self):
        def mutate(result):
            a = result.placements[0]
            b = result.placements[1]
            result.placements[1] = PlacedCircle(
                x=a.x + 0.5 * (a.r + b.r), y=a.y, r=b.r, seq=b.seq,
                lane_id=b.lane_id, class_index=b.class_index)

        report = self._tampered(mutate)
        assert not report.valid
        assert any(v.kind == "overlap" for v in report.violations)

    def test_detects_escape(self):
        def mutate(result):
            c = result.placements[0]
            result.placements[0] = PlacedCircle(
                x=1.2, y=c.y, r=c.r, seq=c.seq, lane_id=c.lane_id,
                class_index=c.class_index)

        report = self._tampered(mutate)
        assert any(v.kind == "out_of_container" for v in report.violations)

    def test_detects_class_mismatch(self):
        def mutate(result):
            c = result.placements[0]
            result.placements[0] = PlacedCircle(
                x=c.x, y=c.y, r=c.r, seq=c.seq, lane_id=c.lane_id,
                class_index=c.class_index + 1)

        report = self._tampered(mutate)
        assert any(v.kind == "class_mismatch" for v in report.violations)

    def test_detects_unknown_lane(self):
        def mutate(result):
            c = result.placements[0]
            result.placements[0] = PlacedCircle(
                x=c.x, y=c.y, r=c.r, seq=c.seq, lane_id="nope",
                class_index=c.class_index)

        report = self._tampered(mutate)
        assert any(v.kind == "class_mismatch" for v in report.violations)

    def test_detects_duplicate_sequence(self):
        def mutate(result):
            c = result.placements[1]
            result.placements[1] = PlacedCircle(
                x=c.x, y=c.y, r=c.r, seq=result.placements[0].seq,
                lane_id=c.lane_id, class_index=c.class_index)

        report = self._tampered(mutate)
        assert any(v.kind == "order" for v in report.violations)

    def _order_kinds(self, result):
        return {v.kind for v in validate(result).violations}

    def test_detects_dropped_arrival(self):
        r = seven_circles()
        dropped = dataclasses.replace(
            r, placements=[r.placements[0]] + r.placements[2:])
        assert self._order_kinds(dropped) == {"order"}

    def test_detects_shifted_arrivals(self):
        r = seven_circles()
        shifted = dataclasses.replace(r, placements=[
            dataclasses.replace(c, seq=c.seq + 5) for c in r.placements])
        assert self._order_kinds(shifted) == {"order"}

    def test_detects_inconsistent_rejection(self):
        r = seven_circles()
        for changes in ({"status": "rejected", "rejected_index": 2},
                        {"rejected_index": 7}, {"status": "rejected"},
                        {"status": "stopped", "rejected_index": 7}):
            assert self._order_kinds(dataclasses.replace(r, **changes)) == {
                "order"}, changes

    @pytest.mark.parametrize("radius", [None, 0.0, -0.5, math.inf,
                                        math.nan, True])
    def test_detects_rejected_run_without_a_refused_radius(self, radius):
        r = pack_rect_online(2.0, [0.4, 0.3, 2.0])
        assert r.status == "rejected" and validate(r).valid
        assert self._order_kinds(dataclasses.replace(
            r, rejected_radius=radius)) == {"order"}

    def test_detects_complete_run_with_a_refused_radius(self):
        r = seven_circles()
        assert r.status == "all_packed"
        assert self._order_kinds(dataclasses.replace(
            r, rejected_radius=0.01)) == {"order"}

    def test_rejected_run_is_consistent(self):
        result = pack_square_online("general", [0.3, 0.12, 0.9])
        assert result.status == "rejected"
        assert result.rejected_index == len(result.placements) == 2
        assert validate(result).valid

    def test_detects_radius_outside_lane_class(self):
        def mutate(result):
            # Keep the recorded class consistent but shrink the radius far
            # below the class band.
            c = result.placements[0]
            result.placements[0] = PlacedCircle(
                x=c.x, y=c.y, r=c.r / 10, seq=c.seq, lane_id=c.lane_id,
                class_index=c.class_index)

        report = self._tampered(mutate)
        assert any(v.kind == "class_mismatch" for v in report.violations)

    def test_areas_add_left_to_right(self):
        # pi, then ten areas of 2e-16: each rounds away when added to pi
        # left to right, but not in a compensated sum (math.fsum, and
        # sum() of floats from Python 3.12 on).
        r = seven_circles()
        c = r.placements[0]
        tiny = math.sqrt(2e-16 / math.pi)
        placements = [dataclasses.replace(c, r=1.0)] + [
            dataclasses.replace(c, r=tiny, seq=k) for k in range(1, 11)]
        areas = [math.pi * p.r * p.r for p in placements]
        left = 0.0
        for area in areas:
            left += area
        assert left == math.pi != math.fsum(areas)
        result = dataclasses.replace(r, placements=placements)
        assert result.total_packed_area == left
        report = validate(result)
        assert report.per_lane_occ == {c.lane_id: left}
        assert report.density == left  # the unit square
        lane = LaneState(LaneInfo.from_rect(
            Rect(0, 0, 10, 1), Orientation.RIGHTWARDS, "L", "SLP", 1))
        placed = [LanePlacement(u=p.x, v=p.y, r=p.r, seq=p.seq)
                  for p in placements]
        assert metrics(lane, placed).occupied_area == left


class TestLaneAudits:
    def _random_lane(self, rng):
        q = rng.uniform(0.17, 0.5)
        w = rng.uniform(0.1, 1.0)
        length = rng.uniform(2 * w, 20 * w)
        lane = LaneState(LaneInfo.from_rect(
            Rect(0, 0, length, w), Orientation.RIGHTWARDS, "L", "SLP", 1))
        p = Packing()
        seq = 0
        log = CommitLog()
        with log.installed():
            while True:
                r = rng.uniform(q * w, 0.5 * w)
                if place(lane, r, seq, p) is None:
                    break
                seq += 1
        return lane, log.placed(lane), q, w

    def test_slp_lower_bound_on_random_lanes(self):
        rng = random.Random(23)
        checked = 0
        for _ in range(60):
            lane, placed, q, w = self._random_lane(rng)
            if lane.n == 0:
                continue
            assert audit_slp_lane(lane, placed, q, w)
            checked += 1
        assert checked >= 40

    def test_slp_audit_rejects_fabricated_sparse_lane(self):
        lane = LaneState(LaneInfo.from_rect(
            Rect(0, 0, 10, 1), Orientation.RIGHTWARDS, "L", "SLP", 1))
        placed = [LanePlacement(u=0.1, v=0.1, r=0.1, seq=0),
                  LanePlacement(u=9.0, v=0.1, r=0.1, seq=1)]
        assert not audit_slp_lane(lane, placed, 0.25, 1.0)

    def test_slp_audit_requires_content(self):
        lane = LaneState(LaneInfo.from_rect(
            Rect(0, 0, 10, 1), Orientation.RIGHTWARDS, "L", "SLP", 1))
        with pytest.raises(ValueError):
            audit_slp_lane(lane, [], 0.25, 1.0)

    def test_bound_is_attainable_scale(self):
        # The audited bound never exceeds the true occupancy by design;
        # check it is also within a constant factor (not vacuously small).
        rng = random.Random(5)
        lane, placed, q, w = self._random_lane(rng)
        m = metrics(lane, placed)
        bound = min_slp(m.packing_length, w, q * w, delta(q))
        assert bound >= 0.1 * m.occupied_area

    def test_dslp_audit_on_rejected_runs(self):
        from lanepack.bounds import guarantee_rect
        for seed in range(5):
            radii = generate(GenSpec(kind="greedy_adversary", seed=seed,
                                     threshold=1.2 * guarantee_rect(2.0)))
            run_radii = list(radii) + [0.4] * 50  # force a rejection
            from lanepack.containers import RectRun
            run = RectRun(2.0)
            log = CommitLog()
            with log.installed():
                result = run.pack(run_radii)
            assert result.status == "rejected"
            if run.medium_lanes[0].host.n:
                assert audit_dslp_lane(run.medium_lanes[0], log)

    def test_dslp_audit_requires_content(self):
        from lanepack.containers import RectRun
        run = RectRun(2.0)
        with pytest.raises(ValueError):
            audit_dslp_lane(run.medium_lanes[0], CommitLog())


def dense_overlaps(placements, eps):
    """All-pairs oracle: every pair (i, j), i < j, tested in one block."""
    xs = np.array([c.x for c in placements])
    ys = np.array([c.y for c in placements])
    rs = np.array([c.r for c in placements])
    dx = xs[:, None] - xs[None, :]
    dy = ys[:, None] - ys[None, :]
    rsum = rs[:, None] + rs[None, :] - eps
    bad = (rsum > 0) & (dx * dx + dy * dy < rsum * rsum)
    return [(int(i), int(j)) for i, j in zip(*np.nonzero(bad)) if i < j]


OVERLAP_GRID = 2.0 ** -8


def disk(x, y, r, seq):
    return PlacedCircle(x=x, y=y, r=r, seq=seq, lane_id="t")


def strip_layout(layout):
    """Disks that stress the strip sweep, some of them overlapping."""
    rng = random.Random(layout)
    if layout == "spanning":
        # One disk as wide as the whole set, then 2,000 tiny ones.
        xy = [(0.5, 0.5, 0.5)] + [
            (rng.uniform(0.01, 0.99), rng.uniform(0, 1),
             rng.uniform(0.001, 0.003)) for _ in range(2000)]
    elif layout in ("column", "row"):
        # Each disk overlaps the next, or just misses it.
        t = [0.0]
        for _ in range(299):
            t.append(t[-1] + rng.choice([1.99e-3, 2.01e-3]))
        xy = [(0.3, s, 1e-3) for s in t]
        if layout == "row":
            xy = [(y, x, r) for x, y, r in xy]
    elif layout == "negative":
        xy = [(rng.uniform(-3, -1), rng.uniform(-3, -1), rng.uniform(0, 0.05))
              for _ in range(500)]
    elif layout == "scattered":
        # With eps = 0.5, only disks with r_a + r_b > 0.5 can overlap.
        xy = [(rng.uniform(0, 20), rng.uniform(0, 20), rng.uniform(0.1, 1))
              for _ in range(300)]
    else:
        xy = [(0.25, 0.75, 0.125)] * 200
    return [disk(x, y, r, k) for k, (x, y, r) in enumerate(xy)]


@st.composite
def disk_sets(draw):
    def grid(lo, hi):
        return draw(st.integers(lo, hi)) * OVERLAP_GRID

    disks = []
    for _ in range(draw(st.integers(0, 40))):
        kind = draw(st.sampled_from(["free", "overlap", "tangent",
                                     "pythagorean", "duplicate"]))
        r = grid(1, 64)
        if kind == "free" or not disks:
            disks.append((grid(-256, 512), grid(-256, 512), r))
            continue
        x, y, ro = disks[draw(st.integers(0, len(disks) - 1))]
        if kind == "overlap":
            disks.append((x + grid(-8, 8), y + grid(-8, 8), r))
        elif kind == "tangent":
            sx, sy = draw(st.sampled_from([(1, 0), (-1, 0), (0, 1),
                                           (0, -1)]))
            disks.append((x + sx * (ro + r), y + sy * (ro + r), r))
        elif kind == "pythagorean":
            # Centres 5k apart along a 3-4-5 triangle, radii summing to 5k.
            k = grid(1, 16)
            disks.append((x + 3 * k, y + 4 * k, max(5 * k - ro, k)))
        else:
            disks.append((x, y, r))
    # A few coordinates or radii set to NaN, an infinity, a signed zero
    # or their own negation.
    for _ in range(draw(st.integers(0, 3)) if disks else 0):
        k = draw(st.integers(0, len(disks) - 1))
        field = draw(st.integers(0, 2))
        value = draw(st.sampled_from([math.nan, math.inf, -math.inf, 0.0,
                                      -0.0, -disks[k][field]]))
        disks[k] = disks[k][:field] + (value,) + disks[k][field + 1:]
    return [disk(x, y, r, i) for i, (x, y, r) in enumerate(disks)]


class TestPairwiseOverlaps:
    @settings(max_examples=300, deadline=None)
    @given(disk_sets(), st.sampled_from([0.0, 1e-9, 2.0 ** -6, 0.5]),
           st.sampled_from([1, 7, 1 << 18]))
    def test_equals_dense_oracle(self, disks, eps, chunk):
        with np.errstate(invalid="ignore", over="ignore"):
            want = dense_overlaps(disks, eps) if disks else []
            assert audit._pairwise_overlaps(disks, eps) == want
            # Force the pure-Python sweep, then the strip sweep, whatever
            # the size.
            with mock.patch.object(audit, "_ALL_PAIRS_MAX", 1 << 30):
                assert audit._pairwise_overlaps(disks, eps) == want
            with mock.patch.multiple(audit, _PAIR_CHUNK=chunk,
                                     _ALL_PAIRS_MAX=0):
                assert audit._pairwise_overlaps(disks, eps) == want

    @pytest.mark.parametrize("name, value", [
        ("r", math.nan), ("r", math.inf), ("r", -0.5), ("r", 0.0),
        ("x", math.nan), ("x", math.inf), ("y", -math.inf), ("x", -0.0)])
    def test_special_value_among_overlapping_disks(self, name, value):
        # Five disks of radius 0.5 in a row, neighbours 0.75 apart, so
        # neighbours overlap; then one field of the middle disk replaced.
        disks = [disk(0.75 * k, 0.0, 0.5, k) for k in range(5)]
        disks[2] = dataclasses.replace(disks[2], **{name: value})
        with np.errstate(invalid="ignore", over="ignore"):
            want = dense_overlaps(disks, 1e-9)
            for all_pairs_max in (1 << 30, 0):
                with mock.patch.object(audit, "_ALL_PAIRS_MAX",
                                       all_pairs_max):
                    assert audit._pairwise_overlaps(disks, 1e-9) == want
        assert (0, 1) in want and (3, 4) in want

    def test_disks_below_eps_never_overlap(self):
        # With r_a + r_b < eps two disks overlap by less than eps even when
        # they share a centre.
        result = pack_square_online("general", [1e-10] * 5)
        assert result.status == "all_packed"
        assert validate(result).valid
        disks = [disk(0.0, 0.0, 1e-10, k) for k in range(40)]
        for all_pairs_max in (1 << 30, 0):
            with mock.patch.object(audit, "_ALL_PAIRS_MAX", all_pairs_max):
                assert audit._pairwise_overlaps(disks, 1e-9) == []

    @pytest.mark.parametrize("extra", [0, 1])
    def test_threshold_sizes(self, extra):
        # A row of separated unit disks, then one tangent and one
        # overlapping neighbour, at the threshold and one past it.
        n = audit._ALL_PAIRS_MAX + extra
        disks = [disk(3.0 * k, 0.0, 1.0, k) for k in range(n - 2)]
        disks.append(disk(disks[0].x, 2.0, 1.0, n - 2))  # tangent to 0
        disks.append(disk(disks[1].x, 1.5, 1.0, n - 1))  # overlaps 1
        found = audit._pairwise_overlaps(disks, 1e-9)
        assert found == [(1, n - 1)]
        assert found == dense_overlaps(disks, 1e-9)

    @pytest.mark.parametrize("layout, eps, chunk", [
        ("spanning", 1e-9, 1 << 18), ("column", 1e-9, 1 << 18),
        ("row", 1e-9, 1 << 18), ("negative", 1e-9, 1 << 18),
        ("scattered", 0.5, 1 << 18), ("coincident", 1e-9, 7)])
    def test_strip_sweep_matches_dense_oracle(self, layout, eps, chunk):
        disks = strip_layout(layout)
        with mock.patch.multiple(audit, _PAIR_CHUNK=chunk, _ALL_PAIRS_MAX=0):
            found = audit._pairwise_overlaps(disks, eps)
        assert found == dense_overlaps(disks, eps)
        assert found
        with mock.patch.object(audit, "_ALL_PAIRS_MAX", 1 << 30):
            assert audit._pairwise_overlaps(disks, eps) == found
        # Strip entries stay within the bound that the strip width sets.
        d = np.array([[c.x for c in disks], [c.y for c in disks],
                      [c.r for c in disks]])
        first, last = audit._strips(audit._extents(d, eps)[:, 0])
        assert (last - first + 1).sum() <= 2.5 * len(disks)
        if layout == "spanning":
            assert (first[0], last[0]) == (0, last.max()) and last[0] > 10

    def test_packed_stream_matches_dense_oracle(self):
        radii = [0.002 + 0.002 * ((k * 7919) % 1000) / 1000
                 for k in range(1500)]
        placements = pack_square_online("general", radii).placements
        shifted = placements + [disk(c.x + 1e-3, c.y, c.r, len(radii) + k)
                                for k, c in enumerate(placements[::50])]
        found = audit._pairwise_overlaps(shifted, 1e-9)
        assert found == dense_overlaps(shifted, 1e-9)
        assert len(found) >= len(placements[::50])
