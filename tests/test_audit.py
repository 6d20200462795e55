import dataclasses
import functools
import json
import math
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lanepack import audit, audit_arrays
from lanepack.audit import validate
from lanepack.bounds import delta
from lanepack.containers import pack_rect_online, pack_square_online
from lanepack.geometry import EPS, Orientation, PlacedCircle, Rect
from lanepack.genseq import GenSpec, generate
from lanepack.lanes import LaneState, Packing, place
from lanepack.layout import (LaneInfo, LaneRow, PackResult, columns,
                             lane_frames, layout)
from oracles import (CommitLog, LanePlacement, audit_dslp_lane,
                     audit_slp_lane, metrics, min_slp)


def square_result(seed=0, threshold=0.3, r_min=0.01):
    radii = generate(GenSpec(kind="greedy_adversary", seed=seed,
                             threshold=threshold, r_min=r_min))
    return pack_square_online("general", radii)


def seven_circles():
    result = pack_square_online(
        "general", [0.3, 0.12, 0.07, 0.05, 0.02, 0.01, 0.003])
    assert result.status == "all_packed" and validate(result).valid
    return result


@functools.cache
def large_packing():
    """The 400 circles of the uniform seed-100 sequence in the general
    square, and the frames of its lanes."""
    result = pack_square_online("general", generate(GenSpec(
        "uniform", seed=100, count=400, r_min=0.001, r_max=0.032)))
    shape = layout(result.container, result.mode, result.b)
    return result, lane_frames(shape, result.lanes)


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
        result.placements = list(result.placements)  # an editable copy
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

    @pytest.mark.parametrize("container, cls", [
        ("rect", 99), ("rect", 41), ("rect", 0), ("rect", -5),
        ("rect", 1.0), ("rect", True), ("square", 41), ("square", None),
        ("no_tiny", 3)])
    def test_lane_class_outside_the_table(self, container, cls):
        # The rectangle's table has classes 1 to 40, the general square's
        # 0 to 40 and the no-tiny square's 0 to 2.
        if container == "rect":
            result = pack_rect_online(2.0, [0.4, 0.3, 0.12, 0.07, 0.03])
        elif container == "square":
            result = square_result(seed=1)
        else:
            result = pack_square_online("no_tiny", [0.3, 0.1, 0.05, 0.03])
        shape = layout(result.container, result.mode, result.b)
        rows = shape.table.rows
        assert (rows[0].index, rows[-1].index) == {
            "rect": (1, 40), "square": (0, 40), "no_tiny": (0, 2)}[container]
        # A lane's class is its layout's, or the class >= 3 of the table
        # that a sub-lane's id names, so a sub-lane of another class is
        # refused before any report, in memory and in a file alike.
        sub = LaneRow(f"L1:host:v{cls!r}#0", 0.5, False)
        listed = dataclasses.replace(result, lanes=result.lanes + [sub])
        for edited in (listed, PackResult.from_json_dict(json.loads(
                json.dumps(listed.to_json_dict())))):
            with pytest.raises(ValueError,
                               match="names no lane of the layout"):
                validate(edited)
        # A circle that records the class in a lane of the layout is a
        # class_mismatch, one per circle, whichever passes audit it; so is
        # a class equal to the lane's that is not an int (1.0) or is a
        # bool (True), as it would be in a file.
        lane = result.lanes[0]
        held = [c.seq for c in result.placements
                if c.lane_id == lane.lane_id]
        assert held
        edited = dataclasses.replace(result, placements=[
            dataclasses.replace(c, class_index=cls)
            if c.lane_id == lane.lane_id else c for c in result.placements])
        same = (type(cls) is int
                and cls == shape.lanes[lane.lane_id].class_index)
        for split in (0, 1 << 30):
            with mock.patch.object(audit, "_ALL_PAIRS_MAX", split):
                report = validate(edited)
            assert [v.indices[0] for v in report.violations] == (
                [] if same else held)
            assert {v.kind for v in report.violations} <= {"class_mismatch"}

    def test_recorded_w_does_not_pick_the_table(self):
        # Class 1 of the general square ends at w/2 = 0.14424; at w = 0.3
        # it would end at 0.15, past the moved radius.  A file's "w" and
        # "guarantee" are not read: the result takes both from its layout.
        result = pack_square_online("general", [0.1, 0.05])
        c = result.placements[0]
        assert c.class_index == 1
        result.placements = list(result.placements)  # an editable copy
        result.placements[0] = dataclasses.replace(c, r=0.148)
        d = json.loads(json.dumps(result.to_json_dict()))
        report = validate(PackResult.from_json_dict(d))
        assert "class_mismatch" in {v.kind for v in report.violations}
        edited = PackResult.from_json_dict({**d, "w": 0.3, "guarantee": 0})
        shape = layout("square", "general", None)
        assert edited.w == result.w == shape.table.base_width
        assert edited.guarantee == result.guarantee == shape.guarantee
        assert edited.to_json_dict() == d
        assert validate(edited).to_json_dict() == report.to_json_dict()

    def test_the_lane_class_decides_the_gap_check(self):
        # The packer takes SLP for every class but 0, so the minimum gap
        # of the class-1 lane is checked.  A file cannot name a strategy:
        # its lanes come from the layout.
        result = pack_rect_online(2.0, [0.26, 0.26])
        result.placements = list(result.placements)  # an editable copy
        c = result.placements[1]
        result.placements[1] = dataclasses.replace(
            c, x=result.placements[0].x + 0.22)
        report = validate(result)
        assert [(v.kind, v.detail) for v in report.violations] == [
            ("order", "circle 1 in L1:host violates the minimum gap")]
        back = PackResult.from_json_dict(result.to_json_dict())
        assert back.lanes == result.lanes
        assert validate(back).to_json_dict() == report.to_json_dict()

    @pytest.mark.parametrize("make, changes", [
        (seven_circles, {"mode": "bogus"}),
        (seven_circles, {"container": "bogus"}),
        (lambda: pack_rect_online(2.0, [0.4, 0.1]), {"mode": "general"}),
        (lambda: pack_rect_online(2.0, [0.4, 0.1]), {"b": 0.5}),
        (lambda: pack_rect_online(2.0, [0.4, 0.1]), {"b": True}),
        (lambda: pack_rect_online(2.0, [0.4, 0.1]), {"b": math.inf}),
        (lambda: pack_rect_online(2.0, [0.4, 0.1]), {"b": None}),
        (seven_circles, {"b": 2.0})],
        ids=["square-bogus", "bogus-general", "rect-general", "rect-half",
             "rect-true", "rect-inf", "rect-none", "square-2"])
    def test_container_and_mode_without_a_table(self, make, changes):
        # The audit takes its table and box from the container, mode and
        # aspect, so a result no run could make is unreadable.
        result = dataclasses.replace(make(), **changes)
        with pytest.raises(ValueError, match="no layout for container|"
                                             "aspect b must be"):
            validate(result)

    def test_lane_class_in_the_table_keeps_its_radius_range(self):
        # The one sub-lane renamed to class 40, the table's last: its
        # class-5 circle is checked against class 40's radius range, in
        # memory and in a file alike.
        result = pack_rect_online(2.0, [0.4, 0.3, 0.01])
        host, sub = result.lanes
        assert sub.lane_id == "L1:host:v5#0"
        deep = "L1:host:v40#0"
        result = dataclasses.replace(
            result, lanes=[host, sub._replace(lane_id=deep)],
            placements=[dataclasses.replace(c, lane_id=deep, class_index=40)
                        if c.lane_id == sub.lane_id else c
                        for c in result.placements])
        report = validate(result)
        assert [v.indices for v in report.violations] == [(2,)]
        assert report.violations[0].detail.startswith(
            "radius 0.01 outside class-40 range")
        back = PackResult.from_json_dict(json.loads(json.dumps(
            result.to_json_dict())))
        assert validate(back).to_json_dict() == report.to_json_dict()

    @pytest.mark.parametrize("copy_first", [True, False],
                             ids=["copy-first", "copy-last"])
    def test_a_lane_listed_twice_is_refused_in_either_order(self,
                                                            copy_first):
        # Keyed by id, the copy would replace the sub-lane or be replaced
        # by it: the report would depend on the order of the lanes.
        result = pack_rect_online(2.0, [0.4, 0.3, 0.01])
        host, sub = result.lanes
        assert sub.lane_id == "L1:host:v5#0" and validate(result).valid
        moved = sub._replace(x0=sub.x0 + 0.5)
        lanes = [host, moved, sub] if copy_first else [host, sub, moved]
        with pytest.raises(ValueError, match=r"lane ids listed twice: "
                                             r"\['L1:host:v5#0'\]"):
            validate(dataclasses.replace(result, lanes=lanes))

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

    @pytest.mark.parametrize("index", [1.0, True])
    def test_detects_rejected_index_that_is_not_an_int(self, index):
        # Both equal 1, so an equality test alone let a file with such an
        # index read valid.
        r = pack_rect_online(1.0, [0.5, 0.5])
        assert r.rejected_index == 1 and validate(r).valid
        d = json.loads(json.dumps(r.to_json_dict()))
        d["rejected_index"] = index
        back = PackResult.from_json_dict(d)
        assert self._order_kinds(back) == {"order"}

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

    def test_detects_rejection_within_the_guarantee(self):
        # Every sequence of area at most the guarantee packs, so a run
        # that claims to have refused a second 0.1 circle broke it.
        result = dataclasses.replace(
            pack_square_online("general", [0.1]), status="rejected",
            rejected_index=1, rejected_radius=0.1)
        report = validate(result)
        assert [v.kind for v in report.violations] == ["guarantee"]
        # The file's own "guarantee" does not set the bound.
        d = result.to_json_dict()
        d["guarantee"] = 0
        back = PackResult.from_json_dict(json.loads(json.dumps(d)))
        assert validate(back).to_json_dict() == report.to_json_dict()

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
        # The pure-Python passes, then the numpy array passes.
        for split in (1 << 30, 0):
            with mock.patch.object(audit, "_ALL_PAIRS_MAX", split):
                report = validate(result)
            assert report.per_lane_occ == {c.lane_id: left}
            assert report.density == left  # the unit square
        lane = LaneState(LaneInfo.from_rect(
            Rect(0, 0, 10, 1), Orientation.RIGHTWARDS, "L", "SLP", 1))
        placed = [LanePlacement(u=p.x, v=p.y, r=p.r, seq=p.seq)
                  for p in placements]
        assert metrics(lane, placed).occupied_area == left

    @pytest.mark.parametrize("field, value", [
        ("x", 0), ("y", True), ("r", 1), ("seq", True), ("seq", 1 << 70),
        ("seq", 5.0), ("class_index", True), ("class_index", 3.0),
        ("x", "0.5")])
    def test_a_column_that_does_not_hold_takes_the_python_passes(
            self, field, value):
        # Above _ALL_PAIRS_MAX validate runs numpy array passes only on
        # float x, y, r and int64 seq and class columns; any other column
        # gets the pure-Python passes and their report.
        result = pack_square_online("general", generate(GenSpec(
            "uniform", seed=100, count=400, r_min=0.001, r_max=0.032)))
        n = len(result.placements)
        assert n > audit._ALL_PAIRS_MAX
        placements = list(result.placements)
        placements[n // 2] = dataclasses.replace(placements[n // 2],
                                                 **{field: value})
        edited = dataclasses.replace(result, placements=placements)
        outcomes = []
        for split in (audit._ALL_PAIRS_MAX, 1 << 30):
            with mock.patch.object(audit, "_ALL_PAIRS_MAX", split), \
                    mock.patch.object(
                        audit_arrays, "array_passes",
                        wraps=audit_arrays.array_passes) as passes:
                try:
                    outcomes.append(json.dumps(
                        validate(edited).to_json_dict()))
                except TypeError as exc:  # a string does not subtract
                    outcomes.append(repr(exc))
            assert not passes.called
        assert outcomes[0] == outcomes[1]


    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_one_tampered_circle_gets_one_report(self, data):
        # The 400-circle packing with one circle moved along its lane's u
        # or v by about the structural tolerance or EPS, given a NaN or an
        # infinite x, y or r, another class or lane, or its arrival index
        # swapped with another's: the array passes accept it or not, and
        # the report is the one the pure-Python passes alone write.
        result, frames = large_packing()
        placements = list(result.placements)
        n = len(placements)
        k = data.draw(st.integers(0, n - 1))
        c = placements[k]
        how = data.draw(st.sampled_from(
            ["u", "v", "special", "class", "lane", "unknown", "swap"]))
        if how in ("u", "v"):
            info = frames[c.lane_id]
            ex, ey = info.eu if how == "u" else info.ev
            step = (data.draw(st.sampled_from([-1.0, 1.0]))
                    * data.draw(st.sampled_from([audit._STRUCT_TOL, EPS]))
                    * data.draw(st.floats(0.5, 2.0)))
            placements[k] = dataclasses.replace(c, x=c.x + step * ex,
                                                y=c.y + step * ey)
        elif how == "special":
            placements[k] = dataclasses.replace(c, **{
                data.draw(st.sampled_from("xyr")):
                data.draw(st.sampled_from([math.nan, math.inf, -math.inf]))})
        elif how == "class":
            placements[k] = dataclasses.replace(
                c, class_index=c.class_index + data.draw(
                    st.sampled_from([-1, 1])))
        elif how in ("lane", "unknown"):
            lane_id = ("L9" if how == "unknown" else data.draw(
                st.sampled_from([row.lane_id for row in result.lanes])))
            placements[k] = dataclasses.replace(c, lane_id=lane_id)
        else:
            j = data.draw(st.integers(0, n - 1))
            other = placements[j]
            placements[j] = dataclasses.replace(other, seq=c.seq)
            placements[k] = dataclasses.replace(c, seq=other.seq)
        edited = dataclasses.replace(result, placements=placements)
        reports = []
        for split in (audit._ALL_PAIRS_MAX, 1 << 30):
            with mock.patch.object(audit, "_ALL_PAIRS_MAX", split), \
                    mock.patch.object(
                        audit_arrays, "array_passes",
                        wraps=audit_arrays.array_passes) as passes:
                reports.append(json.dumps(validate(edited).to_json_dict()))
            assert passes.called == (split < n)
        assert reports[0] == reports[1]


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


def xyr(disks):
    """The x, y and r columns that audit._pairwise_overlaps takes."""
    return columns(disks)[:3]


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
            assert audit._pairwise_overlaps(*xyr(disks), eps) == want
            # Force the pure-Python sweep, then the strip sweep, whatever
            # the size.
            with mock.patch.object(audit, "_ALL_PAIRS_MAX", 1 << 30):
                assert audit._pairwise_overlaps(*xyr(disks), eps) == want
            with mock.patch.object(audit_arrays, "_PAIR_CHUNK", chunk), \
                    mock.patch.object(audit, "_ALL_PAIRS_MAX", 0):
                assert audit._pairwise_overlaps(*xyr(disks), eps) == want

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
                    assert audit._pairwise_overlaps(*xyr(disks), 1e-9) == want
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
                assert audit._pairwise_overlaps(*xyr(disks), 1e-9) == []

    @pytest.mark.parametrize("extra", [0, 1])
    def test_threshold_sizes(self, extra):
        # A row of separated unit disks, then one tangent and one
        # overlapping neighbour, at the threshold and one past it.
        n = audit._ALL_PAIRS_MAX + extra
        disks = [disk(3.0 * k, 0.0, 1.0, k) for k in range(n - 2)]
        disks.append(disk(disks[0].x, 2.0, 1.0, n - 2))  # tangent to 0
        disks.append(disk(disks[1].x, 1.5, 1.0, n - 1))  # overlaps 1
        found = audit._pairwise_overlaps(*xyr(disks), 1e-9)
        assert found == [(1, n - 1)]
        assert found == dense_overlaps(disks, 1e-9)

    @pytest.mark.parametrize("layout, eps, chunk", [
        ("spanning", 1e-9, 1 << 18), ("column", 1e-9, 1 << 18),
        ("row", 1e-9, 1 << 18), ("negative", 1e-9, 1 << 18),
        ("scattered", 0.5, 1 << 18), ("coincident", 1e-9, 7)])
    def test_strip_sweep_matches_dense_oracle(self, layout, eps, chunk):
        disks = strip_layout(layout)
        with mock.patch.object(audit_arrays, "_PAIR_CHUNK", chunk), \
                mock.patch.object(audit, "_ALL_PAIRS_MAX", 0):
            found = audit._pairwise_overlaps(*xyr(disks), eps)
        assert found == dense_overlaps(disks, eps)
        assert found
        with mock.patch.object(audit, "_ALL_PAIRS_MAX", 1 << 30):
            assert audit._pairwise_overlaps(*xyr(disks), eps) == found
        # Strip entries stay within the bound that the strip width sets.
        d = np.array([[c.x for c in disks], [c.y for c in disks],
                      [c.r for c in disks]])
        first, last = audit_arrays._strips(
            audit_arrays._extents(d, eps)[:, 0])
        assert (last - first + 1).sum() <= 2.5 * len(disks)
        if layout == "spanning":
            assert (first[0], last[0]) == (0, last.max()) and last[0] > 10

    def test_packed_stream_matches_dense_oracle(self):
        radii = [0.002 + 0.002 * ((k * 7919) % 1000) / 1000
                 for k in range(1500)]
        placements = list(pack_square_online("general", radii).placements)
        shifted = placements + [disk(c.x + 1e-3, c.y, c.r, len(radii) + k)
                                for k, c in enumerate(placements[::50])]
        found = audit._pairwise_overlaps(*xyr(shifted), 1e-9)
        assert found == dense_overlaps(shifted, 1e-9)
        assert len(found) >= len(placements[::50])
