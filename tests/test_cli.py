import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest
from click.testing import CliRunner

from lanepack.bounds import guarantee_rect
from lanepack.cli import main
from lanepack.genseq import KINDS, GenSpec, generate
from lanepack.layout import PackResult

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture
def runner():
    return CliRunner()


def invoke(runner, args, **kwargs):
    return runner.invoke(main, args, catch_exceptions=False, **kwargs)


class TestPack:
    def test_stdin_lines_to_stdout_json(self, runner):
        res = invoke(runner, ["pack", "--container", "square"],
                     input="0.1\n0.2\n")
        assert res.exit_code == 0
        data = json.loads(res.output)
        assert data["status"] == "all_packed"
        assert len(data["placements"]["i"]) == 2

    def test_json_array_input(self, runner):
        res = invoke(runner, ["pack", "--container", "rect", "--b", "2"],
                     input="[0.1, 0.2, 0.3]")
        assert res.exit_code == 0
        assert len(json.loads(res.output)["placements"]["x"]) == 3

    def test_comments_and_blank_lines_ignored(self, runner):
        res = invoke(runner, ["pack", "--container", "square"],
                     input="# header\n\n0.1\n")
        assert res.exit_code == 0

    def test_prints_one_json_line(self, runner):
        res = invoke(runner, ["pack", "--container", "rect", "--b", "2"],
                     input="0.1\n0.2\n0.05\n")
        assert res.exit_code == 0
        [line] = res.output.splitlines()
        back = PackResult.from_json_dict(json.loads(line))
        assert [c.r for c in back.placements] == [0.1, 0.2, 0.05]

    def test_rejection_exit_code(self, runner):
        res = invoke(runner, ["pack", "--container", "rect", "--b", "2"],
                     input="0.500001\n")
        assert res.exit_code == 2
        data = json.loads(res.output)
        assert data["status"] == "rejected"
        assert data["rejected_index"] == 0

    def test_malformed_line_reports_line_number(self, runner):
        res = invoke(runner, ["pack", "--container", "square"],
                     input="0.1\nbogus\n")
        assert res.exit_code == 1
        assert "line 2" in res.output

    @pytest.mark.parametrize("text", ['[true, 0.1]', '["0.1"]'])
    def test_json_non_numbers_are_input_errors(self, runner, text):
        # JSON values reach the run unconverted, so booleans and strings
        # are refused instead of being packed as numbers.
        res = invoke(runner, ["pack", "--container", "square"], input=text)
        assert res.exit_code == 1
        assert "must be a real number" in res.output

    def test_rect_requires_aspect(self, runner):
        res = invoke(runner, ["pack", "--container", "rect"], input="0.1\n")
        assert res.exit_code == 1

    def test_square_refuses_aspect(self, runner):
        res = invoke(runner, ["pack", "--container", "square", "--b", "2"],
                     input="0.1\n")
        assert res.exit_code == 1

    def test_no_tiny_input_error(self, runner):
        res = invoke(runner, ["pack", "--container", "square",
                              "--mode", "no-tiny"], input="0.001\n")
        assert res.exit_code == 1

    @pytest.mark.parametrize("mode", ["general", "no-tiny"])
    def test_rect_refuses_mode(self, runner, mode):
        # The rectangle has one layout; a --mode for it is an input error,
        # not a run that drops the option.
        res = invoke(runner, ["pack", "--container", "rect", "--b", "2",
                              "--mode", mode], input="0.001\n")
        assert res.exit_code == 1
        assert (f"no layout for container 'rect' in mode "
                f"{mode.replace('-', '_')!r} with aspect 2.0") in res.output
        assert "Traceback" not in res.output

    @pytest.mark.parametrize("args", [
        ["--container", "square"], ["--container", "square", "--mode",
                                    "no-tiny"],
        ["--container", "rect", "--b", "2"]],
        ids=["general", "no_tiny", "rect"])
    def test_radius_below_the_deepest_class_is_an_input_error(self, runner,
                                                             args):
        res = invoke(runner, ["pack", *args], input="1e-25\n")
        assert res.exit_code == 1
        assert "not above the deepest class bound" in res.output
        assert "Traceback" not in res.output

    def test_rect_refuses_aspect_above_2_20(self, runner):
        # Longer rectangles round far-end coordinates past the tolerance.
        res = invoke(runner, ["pack", "--container", "rect", "--b", "1e7"],
                     input="0.2\n")
        assert res.exit_code == 1
        assert "aspect b must be a finite number >= 1, at most 2**20" in (
            res.output)
        assert "Traceback" not in res.output

    def test_dash_names_stdin_and_stdout(self, runner):
        default = invoke(runner, ["pack", "--container", "square"],
                         input="0.1\n0.2\n")
        dashes = invoke(runner, ["pack", "--container", "square", "--input",
                                 "-", "--json", "-"], input="0.1\n0.2\n")
        assert default.exit_code == dashes.exit_code == 0
        assert dashes.output == default.output
        res = invoke(runner, ["verify", "-"], input=default.output)
        assert res.exit_code == 0
        assert json.loads(res.output)["valid"] is True

    def test_mode_defaults_by_container(self, runner):
        square = invoke(runner, ["pack", "--container", "square"],
                        input="0.1\n")
        rect = invoke(runner, ["pack", "--container", "rect", "--b", "2"],
                      input="0.1\n")
        assert square.exit_code == rect.exit_code == 0
        assert json.loads(square.output)["mode"] == "general"
        assert json.loads(rect.output)["mode"] is None

    def test_output_files(self, runner, tmp_path):
        out_json = tmp_path / "r.json"
        out_svg = tmp_path / "r.svg"
        res = invoke(runner, ["pack", "--container", "square",
                              "--json", str(out_json), "--svg", str(out_svg)],
                     input="0.1\n")
        assert res.exit_code == 0
        data = json.loads(out_json.read_text())
        assert data["container"] == "square"
        ET.fromstring(out_svg.read_text())

    def test_rect_svg_is_well_formed(self, runner, tmp_path):
        out_svg = tmp_path / "r.svg"
        res = invoke(runner, ["pack", "--container", "rect", "--b", "2",
                              "--svg", str(out_svg)], input="0.3\n")
        assert res.exit_code == 0
        ET.fromstring(out_svg.read_text())

    def test_byte_identical_reruns(self, runner, tmp_path):
        radii = "\n".join(["0.3", "0.12", "0.08", "0.05"])
        outputs = []
        for _ in range(2):
            res = invoke(runner, ["pack", "--container", "square"],
                         input=radii)
            outputs.append(res.output)
        assert outputs[0] == outputs[1]


SQUARE = ["--container", "square"]
RECT_2 = ["--container", "rect", "--b", "2"]
GREEDY_7 = ["gen", "--kind", "greedy_adversary", "--seed", "7"]
# 400 circles, past the 64 (_ALL_PAIRS_MAX) up to which the audit runs its
# pure-Python passes alone: the numpy array passes accept a valid packing.
UNIFORM_400 = ["gen", "--kind", "uniform", "--seed", "100", "--count", "400",
               "--rmin", "0.001", "--rmax", "0.032"]


def _reverse_placements(data):
    """Every placement column reversed: the array passes decline the
    packing, and the pure-Python passes report an order violation."""
    for column in data["placements"].values():
        column.reverse()


def _move_out_of_the_square(data):
    """The first circle moved out of the square: the array passes
    decline, and the pure-Python passes report it."""
    data["placements"]["x"][0] = 1.5


def _class_outside_the_table(data):
    """A placement class outside the container's table is a
    class_mismatch violation, not an unreadable file."""
    data["placements"]["class"][0] = 99


def _mode_without_a_table(data):
    """A mode with no class table makes the file unreadable, not a valid
    packing."""
    data["mode"] = "bogus"


def _under_the_slp_gap(data):
    """Two class-1 circles closer than the SLP minimum gap: the audit
    takes SLP from the lane's class (a file cannot name a strategy), so
    this is an order violation."""
    x = data["placements"]["x"]
    x[1] = x[0] + 0.22


def _rejected_within_the_guarantee(data):
    """A run that says it refused a second 0.1 circle in the square broke
    the guarantee, whatever "guarantee" the file records."""
    data.update(status="rejected", rejected_index=1, rejected_radius=0.1,
                guarantee=0)


# Radii (a gen command or text), the container, an edit of the packing's
# result file, and verify's exit code and a text its output must include.
ROUND_TRIPS = [
    pytest.param(GREEDY_7, SQUARE, None, 0, '"valid": true',
                 id="greedy-adversary"),
    pytest.param(UNIFORM_400, SQUARE, None, 0, '"valid": true',
                 id="400-circles"),
    pytest.param(UNIFORM_400, SQUARE, _reverse_placements, 1,
                 '"kind": "order"', id="400-circles-reversed"),
    pytest.param(UNIFORM_400, SQUARE, _move_out_of_the_square, 1,
                 '"kind": "out_of_container"', id="400-circles-one-escaped"),
    pytest.param(GREEDY_7, SQUARE, _class_outside_the_table, 1,
                 '"kind": "class_mismatch"', id="class-outside-the-table"),
    pytest.param(GREEDY_7, SQUARE, _mode_without_a_table, 1,
                 "unreadable result file", id="mode-without-a-table"),
    pytest.param("0.26\n0.26\n", RECT_2, _under_the_slp_gap, 1,
                 '"kind": "order"', id="under-the-slp-gap"),
    pytest.param("0.1\n", SQUARE, _rejected_within_the_guarantee, 1,
                 '"kind": "guarantee"', id="rejected-within-the-guarantee"),
]


class TestVerify:
    @pytest.mark.parametrize("radii, container, tamper, exit_code, expected",
                             ROUND_TRIPS)
    def test_round_trip(self, runner, tmp_path, radii, container, tamper,
                        exit_code, expected):
        if isinstance(radii, list):
            radii = invoke(runner, radii).output
        out = tmp_path / "r.json"
        res = invoke(runner, ["pack", *container, "--json", str(out)],
                     input=radii)
        assert res.exit_code == 0
        if tamper is not None:
            data = json.loads(out.read_text())
            tamper(data)
            out.write_text(json.dumps(data))
        res = invoke(runner, ["verify", str(out)])
        assert res.exit_code == exit_code
        assert expected in res.output

    def test_pack_then_verify_ok(self, runner, tmp_path):
        out = tmp_path / "r.json"
        invoke(runner, ["pack", "--container", "rect", "--b", "2",
                        "--json", str(out)], input="0.4\n0.3\n")
        res = invoke(runner, ["verify", str(out)])
        assert res.exit_code == 0
        report = json.loads(res.output)
        assert report["valid"] is True
        assert report["violations"] == []

    def test_tampered_result_fails(self, runner, tmp_path):
        out = tmp_path / "r.json"
        invoke(runner, ["pack", "--container", "rect", "--b", "2",
                        "--json", str(out)], input="0.4\n0.3\n")
        data = json.loads(out.read_text())
        data["placements"]["x"][1] = data["placements"]["x"][0]
        data["placements"]["y"][1] = data["placements"]["y"][0]
        out.write_text(json.dumps(data))
        res = invoke(runner, ["verify", str(out)])
        assert res.exit_code == 1
        report = json.loads(res.output)
        assert report["valid"] is False
        assert report["violations"]

    def test_disks_below_eps_pack_and_verify(self, runner, tmp_path):
        out = tmp_path / "r.json"
        res = invoke(runner, ["pack", "--container", "rect", "--b", "2",
                              "--json", str(out)],
                     input="1e-10\n1e-10\n1e-10\n")
        assert res.exit_code == 0
        res = invoke(runner, ["verify", str(out)])
        assert res.exit_code == 0

    def test_file_cannot_loosen_the_audit(self, runner, tmp_path):
        # The audit runs at the constant tolerance, whatever "eps" the
        # file records.
        out = tmp_path / "r.json"
        invoke(runner, ["pack", "--container", "square", "--json", str(out)],
               input="0.3\n0.12\n0.07\n0.05\n")
        data = json.loads(out.read_text())
        p = data["placements"]
        p["x"][1], p["y"][1] = p["x"][0], p["y"][0]
        data["eps"] = 0.5
        out.write_text(json.dumps(data))
        res = invoke(runner, ["verify", str(out)])
        assert res.exit_code == 1
        kinds = {v["kind"] for v in json.loads(res.output)["violations"]}
        assert "overlap" in kinds

    def test_unreadable_file(self, runner, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        res = invoke(runner, ["verify", str(bad)])
        assert res.exit_code == 1

    @pytest.mark.parametrize("tamper", ["list", "placements", "x"])
    def test_wrong_json_types_are_unreadable(self, runner, tmp_path, tamper):
        out = tmp_path / "r.json"
        invoke(runner, ["pack", "--container", "rect", "--b", "2",
                        "--json", str(out)], input="0.4\n0.3\n")
        data = json.loads(out.read_text())
        if tamper == "list":
            data = []
        elif tamper == "placements":
            data = {"placements": 5}
        else:
            data["placements"]["x"][0] = "a"
        out.write_text(json.dumps(data))
        res = invoke(runner, ["verify", str(out)])
        assert res.exit_code == 1
        assert "unreadable result file" in res.output

    @pytest.mark.parametrize("table, key, value", [
        ("placements", "i", 0.0), ("placements", "i", True),
        ("placements", "class", 1.0), ("placements", "class", True),
        ("lanes", "id", None), ("lanes", "x0", "a"), ("lanes", "x0", 1),
        ("lanes", "x0", True), ("lanes", "x0", None),
        ("lanes", "x0", math.inf), ("lanes", "x0", math.nan),
        ("lanes", "down", 0), ("lanes", "down", None),
        ("lanes", "down", "true"),
    ], ids=repr)
    def test_mistyped_columns_are_unreadable(self, runner, tmp_path, table,
                                             key, value):
        # Untyped, some of these would read valid or raise a TypeError;
        # typed, each is unreadable for its type.  The last lane is a
        # vertical sub-lane, whose x0 and down the file must give.
        out = tmp_path / "r.json"
        invoke(runner, ["pack", "--container", "rect", "--b", "2",
                        "--json", str(out)], input="0.4\n0.3\n0.01\n")
        data = json.loads(out.read_text())
        assert ":v" in data["lanes"]["id"][-1]
        data[table][key][-1] = value
        out.write_text(json.dumps(data))
        res = invoke(runner, ["verify", str(out)])
        assert res.exit_code == 1
        assert "unreadable result file" in res.output
        why = "finite float x0" if key in ("x0", "down") else "must be ints"
        assert why in res.output

    @pytest.mark.parametrize("cut", ["schema-1", "short-x", "short-lane-id",
                                     "schema-2"])
    def test_cut_or_old_files_are_refused(self, runner, tmp_path, cut):
        # A file cut short must not audit as a valid packing of fewer
        # circles, and a schema-1 or schema-2 file is not read at all.
        out = tmp_path / "r.json"
        invoke(runner, ["pack", "--container", "rect", "--b", "2",
                        "--json", str(out)], input="0.4\n0.3\n0.01\n")
        data = json.loads(out.read_text())
        if cut == "schema-1":
            data = schema_1(data)
        elif cut == "schema-2":  # wrote the lane frames schema 3 derives
            data["schema"] = 2
        elif cut == "short-x":
            del data["placements"]["x"][-1]
        else:
            del data["lanes"]["id"][-1]
        out.write_text(json.dumps(data))
        res = invoke(runner, ["verify", str(out)])
        assert res.exit_code == 1
        assert "unreadable result file" in res.output
        assert '"valid"' not in res.output

    @staticmethod
    def _sub_lane_file(tmp_path, edit):
        """The rectangle's file with a host and one sub-lane, L1:host:v5#0,
        edited by edit(lanes, placements)."""
        out = tmp_path / "r.json"
        invoke(CliRunner(), ["pack", "--container", "rect", "--b", "2",
                             "--json", str(out)], input="0.4\n0.3\n0.01\n")
        data = json.loads(out.read_text())
        assert data["lanes"]["id"] == ["L1:host", "L1:host:v5#0"]
        edit(data["lanes"], data["placements"])
        out.write_text(json.dumps(data))
        return out

    @pytest.mark.parametrize("cls", [99, 0, -5, 2])
    def test_lane_class_outside_the_table(self, runner, tmp_path, cls):
        # The rectangle's table has classes 1 to 40, and a sub-lane holds
        # a class >= 3; the file names the class in the sub-lane's id.
        def edit(lanes, placements):
            lanes["id"][1] = placements["lane"][2] = f"L1:host:v{cls}#0"

        res = invoke(runner, ["verify", str(self._sub_lane_file(tmp_path,
                                                                edit))])
        assert res.exit_code == 1
        assert res.exception is None or isinstance(res.exception, SystemExit)
        assert "unreadable result file" in res.output
        assert f"'L1:host:v{cls}#0' names no lane of the layout" in res.output

    @pytest.mark.parametrize("column, k, value, why", [
        ("id", 1, "L2:host:v5#0", "names no lane of the layout"),
        ("id", 1, "L1:top:v5#0", "names no lane of the layout"),
        ("id", 1, "L1:host:v5", "names no lane of the layout"),
        ("id", 1, "L1:host:v5#-1", "names no lane of the layout"),
        ("id", 1, "L1:host:v05#0", "names no lane of the layout"),
        ("x0", 1, 2.0, "leaves the 2.0-long host L1:host"),
        ("x0", 1, -1e-3, "leaves the 2.0-long host L1:host"),
        ("x0", 0, 0.5, "layout lane L1:host has a non-null x0 or down"),
        ("down", 0, False, "layout lane L1:host has a non-null x0 or down"),
    ], ids=["other-host", "not-a-host", "no-ordinal", "negative-ordinal",
            "padded-class", "strip-past-host-end", "strip-before-host",
            "layout-lane-x0", "layout-lane-down"])
    def test_lanes_the_layout_lacks_are_unreadable(self, runner, tmp_path,
                                                   column, k, value, why):
        # A lane's frame is the layout's: a sub-lane must name a DSLP host
        # and lie inside it, and a layout lane has no strip of its own.
        def edit(lanes, placements):
            lanes[column][k] = value

        res = invoke(runner, ["verify", str(self._sub_lane_file(tmp_path,
                                                                edit))])
        assert res.exit_code == 1
        assert res.exception is None or isinstance(res.exception, SystemExit)
        assert "unreadable result file" in res.output
        assert why in res.output

    @pytest.mark.parametrize("lane_id, shift, why", [
        ("L1:host:v5#0", 0.0, "lane ids listed twice: ['L1:host:v5#0']"),
        ("L1:host:v5#7", 0.01, "sub-lanes L1:host:v5#0 and L1:host:v5#7 "
                               "overlap"),
    ], ids=["sub-lane-twice", "strips-overlap"])
    def test_sub_lanes_that_clash_are_unreadable(self, runner, tmp_path,
                                                 lane_id, shift, why):
        # validate keys lanes by id, and the packer fits a strip beside
        # another; a file listing a sub-lane twice, or two whose strips
        # overlap, would otherwise read and audit valid.
        def edit(lanes, placements):
            lanes["id"].append(lane_id)
            lanes["x0"].append(lanes["x0"][1] + shift)
            lanes["down"].append(lanes["down"][1])

        res = invoke(runner, ["verify", str(self._sub_lane_file(tmp_path,
                                                                edit))])
        assert res.exit_code == 1
        assert res.exception is None or isinstance(res.exception, SystemExit)
        assert "unreadable result file" in res.output
        assert why in res.output


def schema_1(data: dict) -> dict:
    """A schema-3 result dict in the earliest layout: no "schema" key, one
    dict per placement and per lane."""
    old = {k: v for k, v in data.items() if k != "schema"}
    for table in ("placements", "lanes"):
        columns = data[table]
        old[table] = [dict(zip(columns, row))
                      for row in zip(*columns.values())]
    return old


class TestBounds:
    def test_delta(self, runner):
        res = invoke(runner, ["bounds", "--delta", "0.15"])
        assert res.exit_code == 0
        assert float(res.output) == pytest.approx(0.47123, abs=1e-5)

    def test_rect(self, runner):
        res = invoke(runner, ["bounds", "--rect", "2.0"])
        assert float(res.output) == pytest.approx(0.599338, abs=1e-6)

    def test_square(self, runner):
        res = invoke(runner, ["bounds", "--square-mode", "general"])
        assert float(res.output) == 0.350389
        res = invoke(runner, ["bounds", "--square-mode", "no-tiny"])
        assert float(res.output) == 0.375898

    def test_table(self, runner):
        res = invoke(runner, ["bounds", "--table"])
        assert res.exit_code == 0
        lines = res.output.strip().splitlines()
        assert lines[0] == "i,q_i,w_i,q_i*w_i"
        first = lines[1].split(",")
        assert first[:2] == ["1", "0.25"]

    # SHA-256 of the output when --table built the square's table, large
    # class included, for every width other than 1; that class is never
    # printed, so the output must not change.
    @pytest.mark.parametrize("args, digest", [
        ([], "5e58e18ced2706dd1e6ef105c53f661a"
             "4c89fbb0c189cb8d14ff3906e0888949"),
        (["--width", "0.28848"], "7475093fd4988165c4ac5dd224ff1d9c"
                                 "5c0a2d4633fa0f766e40fea525cc409f")],
        ids=["default-width", "square-width"])
    def test_table_output_unchanged(self, runner, args, digest):
        res = invoke(runner, ["bounds", "--table", *args])
        assert res.exit_code == 0
        assert hashlib.sha256(res.output.encode()).hexdigest() == digest

    def test_requires_an_action(self, runner):
        res = invoke(runner, ["bounds"])
        assert res.exit_code == 1

    def test_width_without_table_is_refused(self, runner):
        # Refused, not dropped while the other values print.
        res = invoke(runner, ["bounds", "--delta", "0.2", "--width", "0.5"])
        assert res.exit_code == 1
        assert res.output == "Error: --width applies only to --table\n"

    def test_domain_error(self, runner):
        res = invoke(runner, ["bounds", "--delta", "0.9"])
        assert res.exit_code == 1

    @pytest.mark.parametrize("aspect", ["nan", "inf"])
    def test_rect_refuses_non_finite_aspect(self, runner, aspect):
        res = invoke(runner, ["bounds", "--rect", aspect])
        assert res.exit_code == 1
        assert "aspect b must be finite and >= 1" in res.output


class TestGen:
    def test_emits_parseable_radii(self, runner):
        res = invoke(runner, ["gen", "--kind", "uniform", "--seed", "3",
                              "--count", "17"])
        assert res.exit_code == 0
        radii = [float(line) for line in res.output.split()]
        assert len(radii) == 17

    def test_deterministic_per_seed(self, runner):
        a = invoke(runner, ["gen", "--kind", "greedy_adversary", "--seed",
                            "5"]).output
        b = invoke(runner, ["gen", "--kind", "greedy_adversary", "--seed",
                            "5"]).output
        assert a == b

    @pytest.mark.parametrize("kind", KINDS)
    def test_every_generator_kind(self, runner, kind):
        res = invoke(runner, ["gen", "--kind", kind, "--seed", "1"])
        assert res.exit_code == 0
        assert all(float(line) > 0 for line in res.output.split())

    @pytest.mark.parametrize("args", [
        ["--kind", "greedy_adversary", "--threshold", "inf"],
        ["--kind", "greedy_adversary", "--threshold", "nan"],
        ["--kind", "uniform", "--rmax", "inf"],
    ])
    def test_non_finite_bounds_are_input_errors(self, runner, args):
        res = invoke(runner, ["gen"] + args)
        assert res.exit_code == 1
        assert res.output.startswith("Error: need finite")

    def test_negative_count_is_an_input_error(self, runner):
        res = invoke(runner, ["gen", "--kind", "uniform", "--count", "-3"])
        assert res.exit_code == 1
        assert res.output == "Error: need count >= 0, got -3\n"

    @pytest.mark.parametrize("kind", ["greedy_adversary", "class_boundary"])
    def test_count_for_a_kind_that_reads_none_is_an_input_error(
            self, runner, kind):
        # Refused, not printed as a sequence of another length.
        res = invoke(runner, ["gen", "--kind", kind, "--count", "5"])
        assert res.exit_code == 1
        assert res.output == f"Error: kind '{kind}' takes no count\n"
        assert res.exception is None or isinstance(res.exception, SystemExit)

    @pytest.mark.parametrize("kind", [k for k in KINDS
                                      if k != "greedy_adversary"])
    def test_threshold_for_a_kind_that_reads_none_is_an_input_error(
            self, runner, kind):
        res = invoke(runner, ["gen", "--kind", kind, "--threshold", "0.9"])
        assert res.exit_code == 1
        assert res.output == f"Error: kind '{kind}' takes no threshold\n"

    @pytest.mark.parametrize("args", [
        ["--rmin", "0.6", "--rmax", "0.7"], ["--rmax", "0.7"]])
    def test_bounds_for_single_worstcase_are_an_input_error(self, runner,
                                                           args):
        # Refused, not ignored: the kind prints one fixed radius.
        res = invoke(runner, ["gen", "--kind", "single_worstcase"] + args)
        assert res.exit_code == 1
        assert res.output == ("Error: kind 'single_worstcase' takes no "
                              "r_min or r_max\n")
        res = invoke(runner, ["gen", "--kind", "single_worstcase"])
        assert (res.exit_code, res.output) == (0, "0.500001\n")

    def test_gen_feeds_pack(self, runner):
        seq = invoke(runner, ["gen", "--kind", "greedy_adversary",
                              "--seed", "2", "--threshold", "0.350389"]).output
        res = invoke(runner, ["pack", "--container", "square"], input=seq)
        assert res.exit_code == 0


class TestBatch:
    def test_square_batch_all_pack(self, runner):
        res = invoke(runner, ["batch", "--container", "square",
                              "--seeds", "0:5"])
        assert res.exit_code == 0
        lines = res.output.strip().splitlines()
        assert len(lines) == 5
        for line in lines:
            summary = json.loads(line)
            assert summary["status"] == "all_packed"
            assert summary["packed_area"] <= 0.350389 + 1e-12

    def test_rect_batch(self, runner):
        res = invoke(runner, ["batch", "--container", "rect", "--b", "2",
                              "--seeds", "0:3"])
        assert res.exit_code == 0

    def test_overfull_threshold_reports_failures(self, runner):
        res = invoke(runner, ["batch", "--container", "square",
                              "--seeds", "0:3", "--threshold", "0.7",
                              "--rmin", "0.05"])
        assert res.exit_code == 2
        lines = [json.loads(l) for l in res.output.strip().splitlines()]
        assert any(s["status"] == "rejected" for s in lines)

    def test_slack_of_rejected_runs(self, runner):
        # A prefix under the guarantee always packs, so a rejected run's
        # packed area plus the refused circle's is over budget.
        res = invoke(runner, ["batch", "--container", "square",
                              "--kind", "uniform", "--rmax", "0.2",
                              "--seeds", "0:3"])
        assert res.exit_code == 2
        for line in res.output.strip().splitlines():
            summary = json.loads(line)
            assert list(summary) == ["seed", "n", "status", "packed_area",
                                     "rejected_index", "slack"]
            assert summary["status"] == "rejected"
            assert summary["slack"] > 1
            radii = generate(GenSpec(kind="uniform", seed=summary["seed"],
                                     r_max=0.2))
            refused = math.pi * radii[summary["rejected_index"]] ** 2
            assert summary["slack"] == pytest.approx(
                (summary["packed_area"] + refused) / 0.350389, rel=1e-12)

    def test_slack_of_complete_runs(self, runner):
        res = invoke(runner, ["batch", "--container", "rect", "--b", "2",
                              "--seeds", "0:3"])
        for line in res.output.strip().splitlines():
            summary = json.loads(line)
            assert list(summary) == ["seed", "n", "status", "packed_area",
                                     "slack"]
            assert summary["slack"] == (summary["packed_area"]
                                        / guarantee_rect(2))

    @pytest.mark.parametrize("kind", KINDS)
    def test_every_generator_kind(self, runner, kind):
        res = invoke(runner, ["batch", "--container", "rect", "--b", "2",
                              "--kind", kind, "--seeds", "0:2"])
        assert res.exit_code in (0, 2)
        assert len(res.output.strip().splitlines()) == 2

    def test_input_below_the_no_tiny_floor(self, runner):
        # Class-boundary radii reach below the no-tiny table's last class.
        res = invoke(runner, ["batch", "--container", "square", "--mode",
                              "no-tiny", "--kind", "class_boundary"])
        assert res.exit_code == 1
        assert "not above the deepest class bound" in res.output

    def test_square_refuses_aspect(self, runner):
        res = invoke(runner, ["batch", "--container", "square", "--b", "0.5",
                              "--seeds", "0:1"])
        assert res.exit_code == 1
        assert ("no layout for container 'square' in mode 'general' with "
                "aspect 0.5") in res.output

    def test_rect_refuses_mode(self, runner):
        res = invoke(runner, ["batch", "--container", "rect", "--b", "2",
                              "--mode", "no-tiny", "--seeds", "0:1"])
        assert res.exit_code == 1
        assert ("no layout for container 'rect' in mode 'no_tiny' with "
                "aspect 2.0") in res.output
        assert "Traceback" not in res.output

    @pytest.mark.parametrize("aspect", ["nan", "inf"])
    def test_rect_refuses_non_finite_aspect(self, runner, aspect):
        res = invoke(runner, ["batch", "--container", "rect", "--b", aspect,
                              "--seeds", "0:1"])
        assert res.exit_code == 1
        assert "aspect b must be a finite number >= 1" in res.output

    def test_bad_seed_range(self, runner):
        res = invoke(runner, ["batch", "--container", "square",
                              "--seeds", "oops"])
        assert res.exit_code == 1

    @pytest.mark.parametrize("seeds", ["3:1", "2:2"])
    def test_empty_seed_range_is_refused(self, runner, seeds):
        # Refused, not a run of no sequences that exits 0.
        res = invoke(runner, ["batch", "--container", "square",
                              "--seeds", seeds])
        assert res.exit_code == 1
        assert res.output == (f"Error: empty --seeds range '{seeds}': "
                              f"stop must be above start\n")

    def test_threshold_for_a_kind_that_reads_none_is_an_input_error(
            self, runner):
        # The container's guarantee is the default budget of the greedy
        # adversary alone.
        res = invoke(runner, ["batch", "--container", "square", "--kind",
                              "uniform", "--threshold", "5"])
        assert res.exit_code == 1
        assert res.output == "Error: kind 'uniform' takes no threshold\n"


class TestFileArguments:
    """A path that cannot be opened exits 1 with a message."""

    @pytest.mark.parametrize("args", [
        ["pack", "--container", "square", "--input", "{tmp}/missing.txt"],
        ["verify", "{tmp}/missing.json"],
        ["pack", "--container", "square", "--json", "{tmp}"]],
        ids=["missing-input", "missing-result", "json-is-a-directory"])
    def test_exit_1_without_a_traceback(self, runner, tmp_path, args):
        res = invoke(runner, [a.format(tmp=tmp_path) for a in args],
                     input="0.1\n")
        assert res.exit_code == 1
        assert str(tmp_path) in res.output
        assert "Traceback" not in res.output

    def test_no_json_file_when_the_input_is_refused(self, runner, tmp_path):
        # The --json file is opened at its first write, after packing.
        out = tmp_path / "r.json"
        res = invoke(runner, ["pack", "--container", "square", "--json",
                              str(out)], input="bogus\n")
        assert res.exit_code == 1
        assert not out.exists()


class TestUsageErrors:
    """Usage errors exit 1, like other bad input; 2 means a rejection."""

    @pytest.mark.parametrize("args", [
        ["pack", "--container", "square", "--eps", "1e-9"],
        ["pack", "--container", "cube"],
        ["pack"],
        ["gen", "--kind", "uniform", "--count", "abc"]],
        ids=["unknown-option", "bad-choice", "missing-option", "bad-int"])
    def test_exit_1_without_a_traceback(self, runner, args):
        res = invoke(runner, args, input="0.1\n")
        assert res.exit_code == 1
        assert "Usage:" in res.output
        assert "Traceback" not in res.output


def _interpreters():
    """The CLI run as a module of the source tree, and the installed
    console script where there is one, each with its environment."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    yield [sys.executable, "-m", "lanepack.cli"], env
    script = shutil.which("lanepack")
    if script is not None:
        env = dict(os.environ)
        env.pop("PYTHONPATH", None)  # the installed package, not src
        yield [script], env


def test_real_interpreter(tmp_path):
    """Exit codes and stderr as a shell sees them, which an in-process
    runner cannot show: a traceback would print, and exit 1."""
    for command, env in _interpreters():
        def run(*args, stdin=""):
            return subprocess.run([*command, *args], input=stdin, env=env,
                                  cwd=tmp_path, capture_output=True,
                                  text=True, timeout=60)

        gen = run(*UNIFORM_400)
        pack = run("pack", *SQUARE, "--json", "big.json", stdin=gen.stdout)
        verify = run("verify", "big.json")
        assert [gen.returncode, pack.returncode, verify.returncode] == [
            0, 0, 0], (command, gen.stderr + pack.stderr + verify.stderr)

        data = json.loads((tmp_path / "big.json").read_text())
        _reverse_placements(data)
        (tmp_path / "reversed.json").write_text(json.dumps(data))
        tampered = run("verify", "reversed.json")
        assert tampered.returncode == 1, (command, tampered.stderr)
        assert json.loads(tampered.stdout)["valid"] is False
        assert "Traceback" not in tampered.stderr

        usage = run("pack", *SQUARE, "--eps", "1e-9")
        assert usage.returncode == 1, (command, usage.stderr)
        refused = run("pack", *SQUARE, stdin="1e-25\n")
        assert refused.returncode == 1, (command, refused.stderr)
        for res in (usage, refused):
            assert "Error:" in res.stderr and "Traceback" not in res.stderr

        rejected = run("pack", *RECT_2, stdin="0.500001\n")
        assert rejected.returncode == 2, (command, rejected.stderr)
