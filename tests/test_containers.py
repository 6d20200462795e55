import dataclasses
import json
import math
import random
from unittest import mock

import numpy as np
import pytest

from lanepack.audit import validate
from lanepack.bounds import guarantee_rect, guarantee_square
from lanepack.containers import (RectRun, SquareRun, pack_rect_online,
                                 pack_square_online)
from lanepack.dslp import dslp_metrics
from lanepack.genseq import GenSpec, generate
from lanepack.geometry import EPS, PlacedCircle
from lanepack.lanes import packing_length
from lanepack.layout import (_POS_TOL, MAX_ASPECT, NO_TINY_Q2,
                             SQUARE_WIDTH_GENERAL, SQUARE_WIDTH_NO_TINY,
                             PackResult, Placements, layout)


# The no-tiny sequences' smallest radius, above the no-tiny table's deepest
# class bound 0.0266223.
NO_TINY_R_MIN = 0.026623

MODE_OF_WIDTH = {SQUARE_WIDTH_GENERAL: "general",
                 SQUARE_WIDTH_NO_TINY: "no_tiny"}


def square_lanes(w):
    """The square layout of medium lane width w, as a dict of lane name
    -> (x0, y0, x1, y1), the corners of its lane frame."""
    shape = layout("square", MODE_OF_WIDTH[w], None)
    assert shape.table.base_width == w
    frames = {"L0": shape.large}
    frames.update((name, host) for name, (host, _, _) in shape.medium)
    corners = {}
    for name, frame in frames.items():
        far = frame.to_container(frame.length, frame.width)
        (x0, x1), (y0, y1) = map(sorted, zip(frame.origin, far))
        corners[name] = (x0, y0, x1, y1)
    return corners


class TestSquareLayout:
    @pytest.mark.parametrize("w", [SQUARE_WIDTH_GENERAL, SQUARE_WIDTH_NO_TINY])
    def test_lanes_cover_unit_square(self, w):
        n = 800
        xs, ys = np.meshgrid(np.linspace(0, 1, n), np.linspace(0, 1, n))
        covered = np.zeros_like(xs, dtype=bool)
        for x0, y0, x1, y1 in square_lanes(w).values():
            covered |= (xs >= x0) & (xs <= x1) & (ys >= y0) & (ys <= y1)
        assert covered.all()

    @pytest.mark.parametrize("w", [SQUARE_WIDTH_GENERAL, SQUARE_WIDTH_NO_TINY])
    def test_medium_lanes_have_width_w(self, w):
        lanes = square_lanes(w)
        for name in ("L1", "L2", "L3", "L4"):
            x0, y0, x1, y1 = lanes[name]
            assert min(x1 - x0, y1 - y0) == pytest.approx(w)

    def test_large_lane_is_bottom_slab(self):
        w = SQUARE_WIDTH_GENERAL
        x0, y0, x1, y1 = square_lanes(w)["L0"]
        assert (x0, y0, x1) == (0.0, 0.0, 1.0)
        assert y1 == pytest.approx(1 - w)

    def test_invalid_arguments(self):
        # The layout has no width argument: the mode picks the width.
        for args in [("square", "general", 2.0), ("square", "no_tiny", 1),
                     ("square", "bogus", None), ("square", None, None),
                     ("rect", "general", 2.0), ("bogus", None, 2.0)]:
            with pytest.raises(ValueError, match="no layout for container"):
                layout(*args)


class TestTables:
    def test_rect_table_base_width_one(self):
        t = layout("rect", None, 2.0).table
        assert t.base_width == 1.0
        assert t.rows[0].index == 1  # no large class

    def test_square_general_table(self):
        w = SQUARE_WIDTH_GENERAL
        t = layout("square", "general", None).table
        assert t.base_width == w
        assert len(t.rows) == 41
        large = t.row(0)
        assert large is t.rows[0]
        assert large.width == 1.0 - w
        assert large.lower_bound == w / 2.0 == t.row(1).upper_bound
        assert large.upper_bound == (1.0 - w) / 2.0

    def test_square_no_tiny_table(self):
        t = layout("square", "no_tiny", None).table
        assert t.base_width == SQUARE_WIDTH_NO_TINY
        assert [row.index for row in t.rows] == [0, 1, 2]
        assert t.row(2).q == NO_TINY_Q2
        assert t.min_radius == pytest.approx(0.0266223, abs=1e-7)


class TestRectRun:
    def test_half_circle_just_fits_any_aspect(self):
        for b in (1.0, 1.5, 2.36, 5.0):
            result = pack_rect_online(b, [0.5])
            assert result.status == "all_packed"

    def test_oversize_circle_rejected(self):
        result = pack_rect_online(2.0, [0.5 + 1e-6])
        assert result.status == "rejected"
        assert result.rejected_index == 0
        assert result.rejected_radius == 0.5 + 1e-6

    def test_placements_are_accepted_prefix(self):
        radii = [0.5, 0.5, 0.5, 0.5]
        result = pack_rect_online(1.5, radii)
        assert result.status == "rejected"
        k = result.rejected_index
        assert len(result.placements) == k
        assert [c.seq for c in result.placements] == list(range(k))

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            pack_rect_online(0.5, [0.1])
        with pytest.raises(ValueError):
            pack_rect_online(2.0, [-0.1])
        with pytest.raises(ValueError):
            pack_rect_online(2.0, [math.nan])

    def test_guarantee_recorded(self):
        result = pack_rect_online(2.0, [0.1])
        assert result.guarantee == pytest.approx(guarantee_rect(2.0))
        assert result.b == 2.0
        assert result.container == "rect"
        assert result.mode is None

    def test_deterministic(self):
        radii = generate(GenSpec(kind="greedy_adversary", seed=3,
                                 threshold=guarantee_rect(2.0)))
        a = pack_rect_online(2.0, radii).to_json_dict()
        b = pack_rect_online(2.0, radii).to_json_dict()
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


class TestSquareRun:
    def test_large_circle_goes_to_large_lane(self):
        result = pack_square_online("general", [0.3])
        assert result.status == "all_packed"
        assert result.placements[0].lane_id == "L0"
        assert result.placements[0].class_index == 0

    def test_medium_circle_goes_to_first_medium_lane(self):
        result = pack_square_online("general", [0.1])
        assert result.placements[0].lane_id.startswith("L1")

    def test_too_large_rejected(self):
        w = SQUARE_WIDTH_GENERAL
        result = pack_square_online("general", [(1 - w) / 2 + 1e-6])
        assert result.status == "rejected"

    def test_no_tiny_rejects_tiny_input_as_error(self):
        with pytest.raises(ValueError):
            pack_square_online("no_tiny", [NO_TINY_R_MIN / 2])

    def test_no_tiny_accepts_boundary_radius(self):
        result = pack_square_online("no_tiny", [NO_TINY_R_MIN])
        assert result.status == "all_packed"

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            SquareRun("sparse")

    def test_lane_overflow_moves_to_next_lane(self):
        # Enough medium circles overflow L1 into L2.
        result = pack_square_online("general", [0.14] * 30)
        lanes = {c.lane_id.split(":")[0] for c in result.placements}
        assert "L2" in lanes

    def test_guarantee_recorded(self):
        result = pack_square_online("no_tiny", [0.1])
        assert result.guarantee == guarantee_square("no_tiny")
        assert result.w == SQUARE_WIDTH_NO_TINY
        assert result.b is None

    def test_deterministic(self):
        radii = generate(GenSpec(kind="greedy_adversary", seed=9,
                                 threshold=0.350389))
        a = pack_square_online("general", radii).to_json_dict()
        b = pack_square_online("general", radii).to_json_dict()
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


class TestSharedShapes:
    """Runs of one container shape share one layout, nothing else."""

    RUNS = [(lambda: RectRun(2.0), "rect", 2.0),
            (lambda: SquareRun("general"), "square", "general"),
            (lambda: SquareRun("no_tiny"), "square", "no_tiny")]

    @pytest.mark.parametrize("make, container, param", RUNS)
    def test_a_run_leaves_no_state_for_the_next(self, make, container,
                                                param):
        budget = (guarantee_rect(param) if container == "rect"
                  else guarantee_square(param))
        r_min = NO_TINY_R_MIN if param == "no_tiny" else 0.001

        def radii(seed):
            return generate(GenSpec("greedy_adversary", seed=seed,
                                    threshold=budget, r_min=r_min))

        assert len(make().pack(radii(1)).placements) > 5
        second = make().pack(radii(2)).to_json_dict()
        layout.cache_clear()
        assert make().pack(radii(2)).to_json_dict() == second

    def test_equal_shapes_of_other_types_keep_their_own_frames(self):
        # True == 1 and 3 == 3.0, but the layout cache tells the types
        # apart: True stays refused, and an int aspect keeps its int box.
        assert layout("rect", None, 1).box.x1 == 1
        with pytest.raises(ValueError, match="aspect b must be"):
            layout("rect", None, True)
        assert type(layout("rect", None, 3).box.x1) is int
        assert type(layout("rect", None, 3.0).box.x1) is float
        origin = layout("rect", None, 3).lanes["L1:host"].origin
        assert [type(x) for x in origin] == [float, float]

    @pytest.mark.parametrize("container, param", [
        ("rect", 1.0), ("rect", 1.5), ("rect", 2.0), ("rect", 3.0),
        ("square", "general"), ("square", "no_tiny")])
    def test_runs_leave_the_cached_layout_as_built(self, container, param):
        # Layout records are plain classes that nothing stops a run from
        # editing; a run that edited its shared table or frames shows here.
        if container == "rect":
            make, key = RectRun, ("rect", None, param)
            budget, r_min = guarantee_rect(param), 0.001
        else:
            make, key = SquareRun, ("square", param, None)
            budget = guarantee_square(param)
            r_min = NO_TINY_R_MIN if param == "no_tiny" else 0.001
        for seed in (1, 2):
            make(param).pack(generate(GenSpec(
                "greedy_adversary", seed=seed, threshold=budget,
                r_min=r_min)))
        cached, fresh = layout(*key), layout.__wrapped__(*key)
        assert cached.table.rows == fresh.table.rows
        assert cached.box == fresh.box
        assert cached.large == fresh.large
        assert cached.medium == fresh.medium

    def test_frames_shared_lanes_not(self):
        a, b = SquareRun("general"), SquareRun("general")
        assert a.large_lane.frame is b.large_lane.frame
        assert a.medium_lanes[0].top.frame is b.medium_lanes[0].top.frame
        assert a.large_lane is not b.large_lane
        assert a.medium_lanes[0].host.exclusions is not (
            b.medium_lanes[0].host.exclusions)


class TestRunInput:
    """A run checks all radii of a call before committing any."""

    def test_second_pack_call_continues_arrivals(self):
        run = SquareRun("general")
        run.pack([0.05, 0.04])
        result = run.pack([0.03])
        assert [c.seq for c in result.placements] == [0, 1, 2]
        assert validate(result).valid

    def test_second_pack_call_on_rect_run(self):
        run = RectRun(2.0)
        run.pack([0.3])
        result = run.pack([0.2, 0.1])
        assert [c.seq for c in result.placements] == [0, 1, 2]
        assert validate(result).valid

    def test_rejection_index_counts_earlier_calls(self):
        run = RectRun(1.0)
        run.pack([0.5])
        result = run.pack([0.5])
        assert result.status == "rejected"
        assert result.rejected_index == 1
        assert validate(result).valid

    def test_pack_after_rejection_raises(self):
        run = SquareRun("general")
        assert run.pack([0.4]).status == "rejected"
        with pytest.raises(ValueError, match="arrival 0"):
            run.pack([0.01])
        assert len(run.packing) == 0

    def test_float32_radius_accepted(self):
        result = pack_square_online("general", [np.float32(0.05)])
        assert result.status == "all_packed"
        assert result.placements[0].r == float(np.float32(0.05))
        assert type(result.placements[0].r) is float

    def test_float64_and_int_radii_accepted(self):
        assert pack_rect_online(2.0, [np.float64(0.1)]).status == "all_packed"
        result = pack_rect_online(2.0, [0.1, 1])
        assert result.status == "rejected"
        assert result.rejected_index == 1

    @pytest.mark.parametrize("flag", [True, False, np.bool_(True)])
    def test_bool_radius_rejected(self, flag):
        with pytest.raises(ValueError, match="input 1"):
            pack_square_online("general", [0.05, flag])

    def test_non_number_rejected(self):
        with pytest.raises(ValueError, match="input 0"):
            pack_rect_online(2.0, ["0.1"])

    def test_no_tiny_accepts_radius_just_above_class_bound(self):
        table = layout("square", "no_tiny", None).table
        assert table.min_radius < 0.0266226 < NO_TINY_R_MIN
        result = pack_square_online("no_tiny", [0.0266226])
        assert result.status == "all_packed"
        assert result.placements[0].class_index == 2

    @pytest.mark.parametrize("make_run", [
        lambda: RectRun(2.0), lambda: SquareRun("general"),
        lambda: SquareRun("no_tiny")], ids=["rect", "general", "no_tiny"])
    def test_deepest_class_bound_is_exclusive(self, make_run):
        # A radius at or below the last class's lower bound is an input
        # error in every layout; refused as a rejection, it would give a
        # result that fails its own guarantee audit.
        bound = make_run().table.min_radius
        for r in (bound, 1e-25):
            run = make_run()
            with pytest.raises(ValueError,
                               match="input 0 is not above the deepest"):
                run.pack([r])
            assert len(run.packing) == 0
        result = make_run().pack([math.nextafter(bound, 1.0)])
        assert result.status == "all_packed"
        assert validate(result).valid

    @pytest.mark.parametrize("make_run,radii", [
        (lambda: SquareRun("no_tiny"), [0.1, 0.05, 0.01]),
        (lambda: SquareRun("general"), [0.1, 0.05, math.inf]),
        (lambda: RectRun(2.0), [0.3, 0.2, math.nan]),
        (lambda: RectRun(2.0), [0.3, 0.2, -0.1]),
    ])
    def test_value_error_commits_nothing(self, make_run, radii):
        run = make_run()
        with pytest.raises(ValueError, match="input 2"):
            run.pack(radii)
        assert len(run.packing) == 0
        assert run.pack([0.05]).placements[0].seq == 0

    def test_table_is_cached(self):
        assert layout("rect", None, 2.0).table is RectRun(2.0).table
        assert (layout("square", "general", None).table
                is SquareRun("general").table)


class TestRunArguments:
    """A run checks the aspect b like radii, before it starts."""

    @pytest.mark.parametrize("entry", [
        lambda: RectRun(2.0, eps=1e-9),
        lambda: SquareRun("general", eps=1e-9),
        lambda: pack_rect_online(2.0, [0.3], eps=1e-9),
        lambda: pack_square_online("general", [0.3], eps=1e-9)],
        ids=["RectRun", "SquareRun", "pack_rect_online",
             "pack_square_online"])
    def test_tolerance_is_not_an_argument(self, entry):
        # The tolerance is the constant geometry.EPS.
        with pytest.raises(TypeError, match="eps"):
            entry()

    @pytest.mark.parametrize("b", [True, np.bool_(True), "2", None], ids=repr)
    def test_aspect_must_be_a_real_number(self, b):
        with pytest.raises(ValueError, match="aspect b must be"):
            pack_rect_online(b, [0.3])

    @pytest.mark.parametrize("b", [2, 1.0, np.float64(2.0)], ids=repr)
    def test_real_arguments_accepted(self, b):
        result = pack_rect_online(b, [0.3])
        assert result.status == "all_packed"
        assert validate(result).valid

    @staticmethod
    def _mixed(seed: int) -> list[float]:
        """60 radii drawn from three size bands, so that medium, small and
        intermediate lanes of the DSLP lane all pack."""
        rng = random.Random(seed)
        bands = [(0.2, 0.5), (0.05, 0.2), (0.001, 0.05)]
        return [rng.uniform(*rng.choice(bands)) for _ in range(60)]

    def test_longest_rectangle_audits_valid(self):
        # Lanes packed from the far end commit x = b - u, rounded to the
        # float spacing at b, which stays under EPS/4 up to MAX_ASPECT.
        assert MAX_ASPECT == 2.0 ** 20 and math.ulp(MAX_ASPECT) <= EPS / 4
        for seed in range(200):
            result = pack_rect_online(MAX_ASPECT, self._mixed(seed))
            assert validate(result).valid, seed
        assert pack_rect_online(2 ** 20, [0.3]).status == "all_packed"

    @pytest.mark.parametrize("b", [
        math.nextafter(MAX_ASPECT, math.inf), 2.0 ** 24, 1e7, 1e16,
        10 ** 400], ids=repr)
    def test_aspect_above_2_20_is_refused(self, b):
        # Unrefused, these mixes overlapped by up to 1.4e-9 at 2**24 and
        # 1e7 and 0.5 at 1e16, and failed their own audit; the guarantee
        # is pi/4 from b = 2.36 on, so the bound costs none of it.
        with pytest.raises(ValueError, match="aspect b must be a finite "
                                             "number >= 1, at most 2"):
            RectRun(b)
        with pytest.raises(ValueError, match="aspect b must be"):
            pack_rect_online(b, self._mixed(0))

    @pytest.mark.parametrize("b, b_json", [
        (np.float32(2.0), '"b": 2.0,'), (2, '"b": 2,')], ids=repr)
    def test_arguments_round_trip_through_json(self, b, b_json):
        # Real arguments other than int and float are stored as float.
        result = pack_rect_online(b, [0.3])
        text = json.dumps(result.to_json_dict())
        assert b_json in text
        back = PackResult.from_json_dict(json.loads(text))
        assert back == result
        assert validate(back).valid


class TestSerialization:
    def _result(self):
        radii = generate(GenSpec(kind="greedy_adversary", seed=1,
                                 threshold=0.3, r_min=0.01))
        return pack_square_online("general", radii)

    def test_round_trip_preserves_everything(self):
        result = self._result()
        d = result.to_json_dict()
        back = PackResult.from_json_dict(json.loads(json.dumps(d)))
        assert back.status == result.status
        assert back.w == result.w
        assert back.guarantee == result.guarantee
        assert len(back.placements) == len(result.placements)
        for a, b in zip(back.placements, result.placements):
            assert (a.x, a.y, a.r, a.seq, a.lane_id, a.class_index) == \
                (b.x, b.y, b.r, b.seq, b.lane_id, b.class_index)
        assert len(back.lanes) == len(result.lanes)
        for a, b in zip(back.lanes, result.lanes):
            assert a == b

    def test_schema_3_columns(self):
        # Lane frames come from the layout: a file holds each lane's id,
        # and a sub-lane's strip start and side.
        result = self._result()
        d = json.loads(json.dumps(result.to_json_dict()))
        assert d["schema"] == 3
        placements, lanes = d["placements"], d["lanes"]
        assert list(placements) == ["i", "x", "y", "r", "class", "lane"]
        assert list(lanes) == ["id", "x0", "down"]
        assert placements["r"] == [c.r for c in result.placements]
        assert lanes["id"] == [li.lane_id for li in result.lanes]
        sub = [":v" in lane_id for lane_id in lanes["id"]]
        assert True in sub and False in sub
        assert [x0 is None for x0 in lanes["x0"]] == [not s for s in sub]
        assert [type(down) for down in lanes["down"]] == [
            bool if s else type(None) for s in sub]
        # Every lane, frame and sub-lane strip included, reads back equal.
        back = PackResult.from_json_dict(d)
        assert back == result

    @pytest.mark.parametrize("container, param", [
        ("square", "general"), ("square", "no_tiny"), ("rect", 2.0)])
    def test_only_lanes_holding_circles_are_listed(self, container, param):
        run = SquareRun(param) if container == "square" else RectRun(param)
        r_min = NO_TINY_R_MIN if param == "no_tiny" else 0.001
        result = run.pack(generate(GenSpec(
            "greedy_adversary", seed=3, threshold=0.3, r_min=r_min)))
        every = [] if run.large_lane is None else [run.large_lane]
        for d in run.medium_lanes:
            every += [d.host, d.top, d.bottom]
            every += d.vlanes
        used = {c.lane_id for c in result.placements}
        assert len(used) < len(every)
        assert result.lanes == [
            (lane.frame.lane_id, lane.frame.x0, lane.frame.down)
            for lane in every if lane.frame.lane_id in used]
        # per_lane still covers every top-level lane, with lane numbers
        # alone: L0's packing length p, and each DSLP lane's p_t and p_b
        # (dslp_metrics) and whether its host closed.
        want = {} if run.large_lane is None else {
            "L0": {"p": packing_length(run.large_lane)}}
        for d in run.medium_lanes:
            p_t, p_b = dslp_metrics(d)
            want[d.lane_id] = {"p_t": p_t, "p_b": p_b,
                               "closed": d.host.closed}
        assert result.per_lane == want
        assert {tuple(v) for v in result.per_lane.values()} == (
            {("p_t", "p_b", "closed")}
            | ({("p",)} if container == "square" else set()))
        back = PackResult.from_json_dict(json.loads(json.dumps(
            result.to_json_dict())))
        assert back.per_lane == result.per_lane
        assert json.dumps(back.per_lane) == json.dumps(result.per_lane)

    def test_all_tiny_square_lists_its_sub_lanes_alone(self):
        result = pack_square_online("general", [0.003] * 20)
        assert [li.lane_id for li in result.lanes] == ["L1:host:v5#0"]
        assert validate(PackResult.from_json_dict(
            json.loads(json.dumps(result.to_json_dict())))).valid

    @pytest.mark.parametrize("side", ["after", "before"])
    def test_sub_lane_strips_may_overlap_by_the_packer_slack(self, side):
        # The packer fits a strip beside another with up to _POS_TOL of
        # overlap; a file's strips of one host may overlap that much, and
        # a clear margin more is refused by the audit.
        d = json.loads(json.dumps(pack_rect_online(
            2.0, [0.4, 0.3, 0.01]).to_json_dict()))
        lanes = d["lanes"]
        assert lanes["id"] == ["L1:host", "L1:host:v5#0"]
        x0 = lanes["x0"][1]
        width = layout("rect", None, 2.0).table.row(5).width
        for overlap, reads in ((0.0, True), (0.5 * _POS_TOL, True),
                               (4 * _POS_TOL, False)):
            start = (x0 + width - overlap if side == "after"
                     else x0 - width + overlap)
            edited = {**d, "lanes": {"id": lanes["id"] + ["L1:host:v5#1"],
                                     "x0": lanes["x0"] + [start],
                                     "down": lanes["down"] + [False]}}
            back = PackResult.from_json_dict(edited)
            assert len(back.lanes) == 3
            if reads:
                assert validate(back).valid
            else:
                with pytest.raises(ValueError, match="overlap"):
                    validate(back)

    @pytest.mark.parametrize("schema", [None, 1, 2, "3", 4])
    def test_other_schemas_are_refused(self, schema):
        d = self._result().to_json_dict()
        if schema is None:
            del d["schema"]
        else:
            d["schema"] = schema
        with pytest.raises(ValueError, match=f"schema {schema!r} is not 3"):
            PackResult.from_json_dict(d)

    @pytest.mark.parametrize("table, key", [
        ("placements", "x"), ("placements", "i"), ("placements", "lane"),
        ("lanes", "id"), ("lanes", "x0"), ("lanes", "down")])
    def test_columns_of_unequal_length_are_refused(self, table, key):
        # map() would stop at the shortest column and drop records.
        d = self._result().to_json_dict()
        del d[table][key][-1]
        record = table[:-1]
        with pytest.raises(ValueError,
                           match=f"{record} columns differ in length"):
            PackResult.from_json_dict(d)

    def test_rejection_fields_round_trip(self):
        result = pack_rect_online(1.0, [0.5, 0.5])
        back = PackResult.from_json_dict(result.to_json_dict())
        assert back.rejected_index == 1
        assert back.rejected_radius == 0.5

    def test_stray_rejected_radius_is_written(self):
        # A complete run that names a refused radius is inconsistent; the
        # file carries that to the audit instead of dropping it.
        result = dataclasses.replace(pack_rect_online(1.0, [0.5]),
                                     rejected_radius=0.25)
        d = result.to_json_dict()
        assert "rejected_index" not in d and d["rejected_radius"] == 0.25
        assert not validate(PackResult.from_json_dict(d)).valid

    def test_eps_is_written_as_the_constant_and_ignored_on_read(self):
        d = self._result().to_json_dict()
        assert d["eps"] == EPS
        loose = PackResult.from_json_dict({**d, "eps": 0.5})
        assert loose == PackResult.from_json_dict(d)

    def test_container_rect(self):
        r = pack_rect_online(2.5, [0.1])
        assert layout(r.container, r.mode, r.b).box.x1 == 2.5
        s = pack_square_online("general", [0.1])
        rect = layout(s.container, s.mode, s.b).box
        assert (rect.x1, rect.y1) == (1.0, 1.0)

    def test_total_packed_area(self):
        result = pack_rect_online(2.0, [0.1, 0.2])
        assert result.total_packed_area == pytest.approx(
            math.pi * (0.01 + 0.04))


def counting_placed_circles():
    """A patch of PlacedCircle.__init__ and the list of the circles it
    saw built while it was active."""
    built = []
    init = PlacedCircle.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    return mock.patch.object(PlacedCircle, "__init__", counting_init), built


class TestPlacementsView:
    """A result's placements, from a run or read from JSON: a read-only
    view of the six columns."""

    def _pair(self):
        result = pack_rect_online(2.0, generate(GenSpec(
            "greedy_adversary", seed=2, threshold=0.59)))
        d = json.loads(json.dumps(result.to_json_dict()))
        return result, d, PackResult.from_json_dict(d)

    def test_equality_both_ways(self):
        result, _, back = self._pair()
        view = back.placements
        assert isinstance(view, Placements)
        # bench/checks.py roundtrip_failures compares list != view.
        assert not result.placements != view
        assert not view != result.placements
        assert view == result.placements and result.placements == view
        assert view == PackResult.from_json_dict(result.to_json_dict()
                                                 ).placements
        edited = list(result.placements)
        edited[0] = dataclasses.replace(edited[0], r=edited[0].r / 2)
        assert edited != view and view != edited
        assert view != edited[:-1] and view != 3

    def test_views_compare_their_columns(self):
        result, d, back = self._pair()
        patch, built = counting_placed_circles()
        with patch:
            assert result.placements == back.placements
            assert not result.placements != back.placements
        assert built == []
        # A list of circles still compares equal, either way round.
        assert back.placements == list(result.placements)
        assert list(result.placements) == back.placements
        # One float one ulp off reads unequal.
        d["placements"]["y"][3] = math.nextafter(d["placements"]["y"][3],
                                                 math.inf)
        moved = PackResult.from_json_dict(d).placements
        assert moved != result.placements and result.placements != moved
        assert not moved == back.placements

    def test_indexing_and_slicing(self):
        result, _, back = self._pair()
        view, placed = back.placements, result.placements
        assert len(view) == len(placed) > 2
        assert view[-1] == placed[-1] and view[0] == placed[0]
        assert list(view) == placed
        with pytest.raises(IndexError):
            view[len(placed)]
        for part in (view[1:3], view[::-1], view[5:2]):
            assert type(part) is list
        assert view[1:3] == placed[1:3] and view[::-1] == placed[::-1]

    def test_read_only(self):
        _, d, back = self._pair()
        with pytest.raises(TypeError):
            back.placements[0] = back.placements[1]
        # The view keeps its own columns, not the dict's lists.
        x0 = back.placements[0].x
        d["placements"]["x"][0] += 1.0
        assert back.placements[0].x == x0

    def test_to_json_dict_of_a_view(self):
        result, d, back = self._pair()
        assert back.to_json_dict() == d
        assert (json.dumps(back.to_json_dict())
                == json.dumps(result.to_json_dict()))
        assert back.total_packed_area.hex() == result.total_packed_area.hex()

    def test_edited_copy_is_audited(self):
        _, _, back = self._pair()
        placed = list(back.placements)
        placed[1] = dataclasses.replace(placed[1], x=placed[0].x,
                                        y=placed[0].y)
        report = validate(dataclasses.replace(back, placements=placed))
        assert [v.indices for v in report.violations
                if v.kind == "overlap"] == [(0, 1)]
        assert validate(back).valid

    def test_audit_builds_no_placed_circle(self):
        _, d, _ = self._pair()
        patch, built = counting_placed_circles()
        with patch:
            report = validate(PackResult.from_json_dict(d))
            assert report.valid and built == []
            # The patch sees a circle that a caller asks for.
            PackResult.from_json_dict(d).placements[0]
        assert len(built) == 1


class TestPackerResultView:
    """A run's result holds the same read-only view of its columns as a
    result read from JSON, copied when the result is made."""

    RADII = [0.3, 0.12, 0.07, 0.05, 0.02, 0.01, 0.003]

    def test_packer_result_is_a_view(self):
        result = pack_square_online("general", self.RADII)
        assert type(result.placements) is Placements
        assert [c.seq for c in result.placements] == list(range(7))

    def test_first_result_is_a_snapshot(self):
        run = SquareRun("general")
        first = run.pack(self.RADII[:4])
        before = list(first.placements)
        text = json.dumps(first.to_json_dict())
        second = run.pack(self.RADII[4:])
        assert len(second.placements) == 7
        assert len(first.placements) == 4
        assert list(first.placements) == before
        assert json.dumps(first.to_json_dict()) == text
        assert second.placements[:4] == before

    def test_read_only(self):
        result = pack_rect_online(2.0, [0.4, 0.3])
        with pytest.raises(TypeError):
            result.placements[0] = result.placements[1]

    def test_edited_copy_is_audited(self):
        result = pack_square_online("general", self.RADII)
        copy = list(result.placements)
        copy[1] = dataclasses.replace(copy[1], x=copy[0].x, y=copy[0].y)
        report = validate(dataclasses.replace(result, placements=copy))
        assert [v.indices for v in report.violations
                if v.kind == "overlap"] == [(0, 1)]
        assert validate(result).valid

    def test_pack_write_and_audit_build_no_placed_circle(self):
        patch, built = counting_placed_circles()
        with patch:
            result = pack_rect_online(2.0, generate(GenSpec(
                "greedy_adversary", seed=2, threshold=0.59)))
            d = result.to_json_dict()
            assert validate(result).valid
            assert result.total_packed_area == d["total_packed_area"]
        assert built == []
