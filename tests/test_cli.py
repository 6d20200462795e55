import hashlib
import json
import math
import xml.etree.ElementTree as ET

import pytest
from click.testing import CliRunner

from lanepack.bounds import guarantee_rect
from lanepack.cli import main
from lanepack.containers import PackResult
from lanepack.genseq import KINDS, GenSpec, generate


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

    @pytest.mark.parametrize("args, env", [
        (["--eps", "0"], {}), (["--eps", "-1e-9"], {}),
        (["--eps", "nan"], {}), ([], {"CIRCLEPACK_EPS": "0"})],
        ids=["zero", "negative", "nan", "env-zero"])
    def test_eps_must_be_positive(self, runner, args, env):
        res = invoke(runner, ["pack", "--container", "rect", "--b", "2",
                              *args], input="0.1\n", env=env)
        assert res.exit_code == 1
        assert "eps must be a positive finite number" in res.output

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

    def test_byte_identical_reruns(self, runner, tmp_path):
        radii = "\n".join(["0.3", "0.12", "0.08", "0.05"])
        outputs = []
        for _ in range(2):
            res = invoke(runner, ["pack", "--container", "square"],
                         input=radii)
            outputs.append(res.output)
        assert outputs[0] == outputs[1]


class TestVerify:
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

    @pytest.mark.parametrize("cut", ["schema-1", "short-x", "short-lane-id"])
    def test_cut_or_old_files_are_refused(self, runner, tmp_path, cut):
        # A file cut short must not audit as a valid packing of fewer
        # circles, and a schema-1 file is not read at all.
        out = tmp_path / "r.json"
        invoke(runner, ["pack", "--container", "rect", "--b", "2",
                        "--json", str(out)], input="0.4\n0.3\n0.01\n")
        data = json.loads(out.read_text())
        if cut == "schema-1":
            data = schema_1(data)
        elif cut == "short-x":
            del data["placements"]["x"][-1]
        else:
            del data["lanes"]["id"][-1]
        out.write_text(json.dumps(data))
        res = invoke(runner, ["verify", str(out)])
        assert res.exit_code == 1
        assert "unreadable result file" in res.output
        assert '"valid"' not in res.output


def schema_1(data: dict) -> dict:
    """A schema-2 result dict in the earlier layout: no "schema" key, one
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

    def test_domain_error(self, runner):
        res = invoke(runner, ["bounds", "--delta", "0.9"])
        assert res.exit_code == 1


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

    def test_eps_must_be_positive(self, runner):
        res = invoke(runner, ["batch", "--container", "square",
                              "--seeds", "0:1", "--eps", "0"])
        assert res.exit_code == 1
        assert "eps must be a positive finite number" in res.output

    def test_square_refuses_aspect(self, runner):
        res = invoke(runner, ["batch", "--container", "square", "--b", "0.5",
                              "--seeds", "0:1"])
        assert res.exit_code == 1
        assert "--b only applies to the rect container" in res.output

    @pytest.mark.parametrize("aspect", ["nan", "inf"])
    def test_rect_refuses_non_finite_aspect(self, runner, aspect):
        res = invoke(runner, ["batch", "--container", "rect", "--b", aspect,
                              "--seeds", "0:1"])
        assert res.exit_code == 1
        assert "requires a finite --b >= 1" in res.output

    def test_bad_seed_range(self, runner):
        res = invoke(runner, ["batch", "--container", "square",
                              "--seeds", "oops"])
        assert res.exit_code == 1
