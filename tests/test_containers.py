import json
import math

import numpy as np
import pytest

from lanepack import containers, dslp
from lanepack.audit import validate
from lanepack.bounds import guarantee_rect, guarantee_square
from lanepack.containers import (NO_TINY_MIN_RADIUS, NO_TINY_Q2,
                                 SQUARE_WIDTH_GENERAL, SQUARE_WIDTH_NO_TINY,
                                 PackResult, RectRun, SquareRun,
                                 container_rect, pack_rect_online,
                                 pack_square_online, square_layout, table_for)
from lanepack.genseq import GenSpec, generate
from lanepack.geometry import Orientation


class TestSquareLayout:
    @pytest.mark.parametrize("w", [SQUARE_WIDTH_GENERAL, SQUARE_WIDTH_NO_TINY])
    def test_lanes_cover_unit_square(self, w):
        layout = square_layout(w)
        n = 800
        xs, ys = np.meshgrid(np.linspace(0, 1, n), np.linspace(0, 1, n))
        covered = np.zeros_like(xs, dtype=bool)
        for rect, _ in layout.values():
            covered |= ((xs >= rect.x0) & (xs <= rect.x1)
                        & (ys >= rect.y0) & (ys <= rect.y1))
        assert covered.all()

    @pytest.mark.parametrize("w", [SQUARE_WIDTH_GENERAL, SQUARE_WIDTH_NO_TINY])
    def test_medium_lanes_have_width_w(self, w):
        layout = square_layout(w)
        for name in ("L1", "L2", "L3", "L4"):
            rect, _ = layout[name]
            assert min(rect.width, rect.height) == pytest.approx(w)

    def test_large_lane_is_bottom_slab(self):
        w = SQUARE_WIDTH_GENERAL
        rect, _ = square_layout(w)["L0"]
        assert (rect.x0, rect.y0, rect.x1) == (0.0, 0.0, 1.0)
        assert rect.y1 == pytest.approx(1 - w)

    def test_invalid_width(self):
        for w in (0.0, 0.5, 0.7):
            with pytest.raises(ValueError):
                square_layout(w)


class TestTables:
    def test_rect_table_base_width_one(self):
        t = table_for("rect", None, 1.0)
        assert t.base_width == 1.0
        assert t.large is None

    def test_square_general_table(self):
        t = table_for("square", "general", SQUARE_WIDTH_GENERAL)
        assert t.large is not None
        assert t.large.q0 == pytest.approx(SQUARE_WIDTH_GENERAL / 2)
        assert t.large.max_radius == pytest.approx(
            (1 - SQUARE_WIDTH_GENERAL) / 2)

    def test_square_no_tiny_table(self):
        t = table_for("square", "no_tiny", SQUARE_WIDTH_NO_TINY)
        assert t.row(2).q == NO_TINY_Q2
        assert t.rows[-1].index == 2
        assert t.min_radius == pytest.approx(NO_TINY_MIN_RADIUS, abs=1e-6)


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
            pack_square_online("no_tiny", [NO_TINY_MIN_RADIUS / 2])

    def test_no_tiny_accepts_boundary_radius(self):
        result = pack_square_online("no_tiny", [NO_TINY_MIN_RADIUS])
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
    """Runs of one container shape share frozen frames, nothing else."""

    RUNS = [(lambda: RectRun(2.0), "rect", 2.0),
            (lambda: SquareRun("general"), "square", "general"),
            (lambda: SquareRun("no_tiny"), "square", "no_tiny")]

    @pytest.mark.parametrize("make, container, param", RUNS)
    def test_a_run_leaves_no_state_for_the_next(self, make, container,
                                                param):
        budget = (guarantee_rect(param) if container == "rect"
                  else guarantee_square(param))
        r_min = NO_TINY_MIN_RADIUS if param == "no_tiny" else 0.001

        def radii(seed):
            return generate(GenSpec("greedy_adversary", seed=seed,
                                    threshold=budget, r_min=r_min))

        assert len(make().pack(radii(1)).placements) > 5
        second = make().pack(radii(2)).to_json_dict()
        dslp._dslp_shape.cache_clear()
        containers._square_shape.cache_clear()
        assert make().pack(radii(2)).to_json_dict() == second

    def test_equal_shapes_of_other_types_keep_their_own_frames(self):
        # The shape (0, 0, 3, 1) equals (0.0, 0.0, 3.0, 1.0), but lane
        # descriptions built from it hold ints, which serialize differently.
        host = dslp._dslp_shape("L1", 0, 0, 3, 1, Orientation.RIGHTWARDS)[0]
        assert [type(x) for x in host.origin] == [int, int]
        result = pack_rect_online(3.0, [0.3])
        assert [type(x) for x in result.lanes[0].origin] == [float, float]

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
        table = table_for("square", "no_tiny", SQUARE_WIDTH_NO_TINY)
        assert table.min_radius < 0.0266226 < NO_TINY_MIN_RADIUS
        result = pack_square_online("no_tiny", [0.0266226])
        assert result.status == "all_packed"
        assert result.placements[0].class_index == 2

    def test_no_tiny_class_bound_is_exclusive(self):
        table = table_for("square", "no_tiny", SQUARE_WIDTH_NO_TINY)
        with pytest.raises(ValueError, match="input 0"):
            pack_square_online("no_tiny", [table.min_radius])

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
        assert table_for("rect", None, 1.0) is RectRun(2.0).table
        assert (table_for("square", "general", SQUARE_WIDTH_GENERAL)
                is SquareRun("general").table)


class TestRunArguments:
    """A run checks eps and the aspect b like radii, before it starts."""

    RUNS = {"rect": lambda eps: RectRun(2.0, eps),
            "square": lambda eps: SquareRun("no_tiny", eps)}

    @pytest.mark.parametrize("container", ["rect", "square"])
    @pytest.mark.parametrize("eps", [0, 0.0, -2.0 ** -20, math.nan, math.inf,
                                     True, None, "1e-9"], ids=repr)
    def test_eps_must_be_positive_and_finite(self, container, eps):
        with pytest.raises(ValueError, match="eps must be"):
            self.RUNS[container](eps)

    @pytest.mark.parametrize("b", [True, np.bool_(True), "2", None], ids=repr)
    def test_aspect_must_be_a_real_number(self, b):
        with pytest.raises(ValueError, match="aspect b must be"):
            pack_rect_online(b, [0.3])

    @pytest.mark.parametrize("b, eps", [(2, 1e-9), (1.0, 1e-6),
                                        (np.float64(2.0), np.float64(1e-9))],
                             ids=repr)
    def test_real_arguments_accepted(self, b, eps):
        result = pack_rect_online(b, [0.3], eps=eps)
        assert result.status == "all_packed"
        assert validate(result).valid

    @pytest.mark.parametrize("b, eps, b_json", [
        (np.float32(2.0), np.float32(1e-9), '"b": 2.0,'),
        (2, 1e-9, '"b": 2,')], ids=repr)
    def test_arguments_round_trip_through_json(self, b, eps, b_json):
        # Real arguments other than int and float are stored as float.
        result = pack_rect_online(b, [0.3], eps=eps)
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
        assert back.eps == result.eps
        assert len(back.placements) == len(result.placements)
        for a, b in zip(back.placements, result.placements):
            assert (a.x, a.y, a.r, a.seq, a.lane_id, a.class_index) == \
                (b.x, b.y, b.r, b.seq, b.lane_id, b.class_index)
        assert len(back.lanes) == len(result.lanes)
        for a, b in zip(back.lanes, result.lanes):
            assert a == b

    def test_schema_2_columns(self):
        result = self._result()
        d = json.loads(json.dumps(result.to_json_dict()))
        assert d["schema"] == 2
        placements, lanes = d["placements"], d["lanes"]
        assert list(placements) == ["i", "x", "y", "r", "class", "lane"]
        assert list(lanes) == ["id", "origin", "eu", "ev", "length",
                               "width", "strategy", "class"]
        assert placements["r"] == [c.r for c in result.placements]
        assert lanes["origin"] == [list(li.origin) for li in result.lanes]
        back = PackResult.from_json_dict(d)
        assert back == result

    @pytest.mark.parametrize("container, param", [
        ("square", "general"), ("square", "no_tiny"), ("rect", 2.0)])
    def test_only_lanes_holding_circles_are_listed(self, container, param):
        run = SquareRun(param) if container == "square" else RectRun(param)
        r_min = NO_TINY_MIN_RADIUS if param == "no_tiny" else 0.001
        result = run.pack(generate(GenSpec(
            "greedy_adversary", seed=3, threshold=0.3, r_min=r_min)))
        every = [] if run.large_lane is None else [run.large_lane]
        for d in run.medium_lanes:
            every += [d.host, d.top, d.bottom]
            every += d.ledger.vlanes
        used = {c.lane_id for c in result.placements}
        assert len(used) < len(every)
        assert result.lanes == [lane.frame for lane in every
                                if lane.frame.lane_id in used]
        # per_lane still covers every top-level lane.
        assert set(result.per_lane) == (
            {d.lane_id for d in run.medium_lanes}
            | ({"L0"} if container == "square" else set()))

    def test_all_tiny_square_lists_its_sub_lanes_alone(self):
        result = pack_square_online("general", [0.003] * 20)
        assert [li.lane_id for li in result.lanes] == ["L1:host:v5#0"]
        assert validate(PackResult.from_json_dict(
            json.loads(json.dumps(result.to_json_dict())))).valid

    @pytest.mark.parametrize("schema", [None, 1, "2", 3])
    def test_other_schemas_are_refused(self, schema):
        d = self._result().to_json_dict()
        if schema is None:
            del d["schema"]
        else:
            d["schema"] = schema
        with pytest.raises(ValueError, match=f"schema {schema!r} is not 2"):
            PackResult.from_json_dict(d)

    @pytest.mark.parametrize("table, key", [
        ("placements", "x"), ("placements", "i"), ("placements", "lane"),
        ("lanes", "id"), ("lanes", "origin"), ("lanes", "class")])
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

    def test_container_rect(self):
        r = pack_rect_online(2.5, [0.1])
        assert container_rect(r).x1 == 2.5
        s = pack_square_online("general", [0.1])
        rect = container_rect(s)
        assert (rect.x1, rect.y1) == (1.0, 1.0)

    def test_total_packed_area(self):
        result = pack_rect_online(2.0, [0.1, 0.2])
        assert result.total_packed_area == pytest.approx(
            math.pi * (0.01 + 0.04))
