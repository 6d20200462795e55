import json
import xml.etree.ElementTree as ET

from lanepack.containers import pack_rect_online, pack_square_online
from lanepack.genseq import GenSpec, generate
from lanepack.layout import PackResult
from lanepack.svg import render_svg

SVG_NS = "{http://www.w3.org/2000/svg}"


def square_result(seed=4):
    radii = generate(GenSpec(kind="greedy_adversary", seed=seed,
                             threshold=0.3, r_min=0.01))
    return pack_square_online("general", radii)


class TestRenderSvg:
    def test_well_formed_xml(self):
        root = ET.fromstring(render_svg(square_result()))
        assert root.tag == f"{SVG_NS}svg"

    def test_one_circle_element_per_placement(self):
        result = square_result()
        root = ET.fromstring(render_svg(result))
        circles = root.findall(f"{SVG_NS}circle")
        assert len(circles) == len(result.placements)

    def test_lane_outlines_present(self):
        result = square_result()
        root = ET.fromstring(render_svg(result))
        texts = [t.text for t in root.findall(f"{SVG_NS}text")]
        assert set(texts) == {"L0", "L1", "L2", "L3", "L4"}

    def test_recorded_w_does_not_move_the_lanes(self):
        # The lanes come from the container and mode: "w" is written to
        # the result file but not read back into the drawing.
        d = json.loads(json.dumps(square_result().to_json_dict()))
        svg = render_svg(PackResult.from_json_dict(d))
        for w in (0.3, 0.6):
            assert render_svg(PackResult.from_json_dict({**d, "w": w})) == svg

    def test_deterministic(self):
        result = square_result()
        assert render_svg(result) == render_svg(result)

    def test_scale_controls_canvas(self):
        result = pack_rect_online(2.0, [0.25])
        root = ET.fromstring(render_svg(result, scale=100))
        assert root.get("width") == "200"
        assert root.get("height") == "100"

    def test_circles_inside_canvas(self):
        result = square_result()
        root = ET.fromstring(render_svg(result, scale=500))
        for c in root.findall(f"{SVG_NS}circle"):
            cx, cy, r = (float(c.get(k)) for k in ("cx", "cy", "r"))
            assert -1e-3 <= cx - r and cx + r <= 500 + 1e-3
            assert -1e-3 <= cy - r and cy + r <= 500 + 1e-3

    def test_rect_result_has_single_lane_label(self):
        result = pack_rect_online(2.0, [0.25])
        root = ET.fromstring(render_svg(result))
        texts = [t.text for t in root.findall(f"{SVG_NS}text")]
        assert texts == ["L1"]

    def test_all_tiny_square_keeps_every_lane_outline(self):
        # Tiny circles fill L1's vertical sub-lanes alone, so the result
        # lists no top-level lane; the outlines come from the layout.
        result = pack_square_online("general", [0.003] * 20)
        assert all(":v" in li.lane_id for li in result.lanes)
        root = ET.fromstring(render_svg(result))
        texts = [t.text for t in root.findall(f"{SVG_NS}text")]
        assert texts == ["L0", "L1", "L2", "L3", "L4"]
