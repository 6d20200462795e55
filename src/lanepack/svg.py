"""Deterministic SVG rendering of packing results."""

from __future__ import annotations

from .containers import PackResult, container_rect

# Fill colors indexed by circle class (class 0 first); deep classes cycle.
_PALETTE = (
    "#4c72b0",  # large
    "#dd8452",  # medium
    "#55a868",  # small
    "#c44e52",  # tiny (3)
    "#8172b3",  # tiny (4)
    "#937860",  # very tiny (5+)
    "#da8bc3",
    "#8c8c8c",
)


def _fill(class_index: int) -> str:
    if class_index < 0:
        return "#cccccc"
    return _PALETTE[class_index % len(_PALETTE)]


def _fmt(value: float) -> str:
    return f"{value:.6f}".rstrip("0").rstrip(".")


def render_svg(result: PackResult, scale: float = 600.0) -> str:
    """SVG document: container outline, lane rectangles, circles in order.

    y is flipped so the container's mathematical y-axis points up.
    """
    box = container_rect(result)
    width = box.width * scale
    height = box.height * scale

    def sx(x: float) -> str:
        return _fmt((x - box.x0) * scale)

    def sy(y: float) -> str:
        return _fmt((box.y1 - y) * scale)

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" '
        f'width="{_fmt(width)}" height="{_fmt(height)}" '
        f'viewBox="0 0 {_fmt(width)} {_fmt(height)}">',
        f'<rect x="0" y="0" width="{_fmt(width)}" height="{_fmt(height)}" '
        f'fill="white" stroke="black" stroke-width="2"/>',
    ]
    # Top-level lanes only; sub-lanes would clutter the drawing.
    for li in result.lanes:
        if ":" in li.lane_id and not li.lane_id.endswith(":host"):
            continue
        rect = li.bounding_rect()
        label = li.lane_id.split(":")[0]
        lines.append(
            f'<rect x="{sx(rect.x0)}" y="{sy(rect.y1)}" '
            f'width="{_fmt(rect.width * scale)}" '
            f'height="{_fmt(rect.height * scale)}" '
            f'fill="none" stroke="#999999" stroke-width="1" '
            f'stroke-dasharray="4 3"/>')
        lines.append(
            f'<text x="{sx(rect.x0 + 0.01 * box.width)}" '
            f'y="{sy(rect.y1 - 0.03 * box.height)}" '
            f'font-size="{_fmt(0.025 * scale)}" fill="#999999">{label}</text>')
    for c in sorted(result.placements, key=lambda c: c.seq):
        lines.append(
            f'<circle cx="{sx(c.x)}" cy="{sy(c.y)}" r="{_fmt(c.r * scale)}" '
            f'fill="{_fill(c.class_index)}" fill-opacity="0.75" '
            f'stroke="black" stroke-width="0.5"/>')
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
