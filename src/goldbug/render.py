"""Deterministic SVG rendering of the dig-site plan view.

Element order is fixed (trunk circle, drop-point markers, rays, dig circles,
lens, labels), every coordinate is written with exactly 4 decimal places, and
nothing in the document depends on runtime state, so identical inputs yield
identical bytes.  Drop points are drawn as cross markers, not circles: the
only ``circle`` elements are the trunk and the two holes.

Styling (line weights, colours, label offsets) is this renderer's own; at the
true scale the 2.5-inch socket separation is invisible next to 50-foot rays,
so an optional display-only angle exaggeration can spread the rays apart,
announced in the document title.  Distances along the rays stay true to scale
either way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .scenario import Scenario, dig_center_radius, half_angle_sin
from .units import DomainError

_LABEL_FONT = 'font-family="sans-serif" font-size="12"'


class CanvasFitError(DomainError):
    """The scene does not fit the requested canvas."""


@dataclass(frozen=True)
class CanvasSpec:
    width_px: int = 1200
    height_px: int = 260
    margin_px: int = 24
    feet_per_px: float = 0.05
    show_labels: bool = True
    angle_exaggeration: float = 1.0

    def __post_init__(self) -> None:
        if self.width_px <= 0 or self.height_px <= 0:
            raise DomainError("canvas width/height must be positive")
        if self.margin_px < 0:
            raise DomainError("canvas margin must be >= 0")
        if not (math.isfinite(self.feet_per_px) and self.feet_per_px > 0):
            raise DomainError("feet_per_px must be a positive finite number")
        if not (math.isfinite(self.angle_exaggeration) and self.angle_exaggeration >= 1):
            raise DomainError("angle exaggeration factor must be >= 1")


def _fmt(value: float) -> str:
    # Every number in the document passes here.  At a tiny feet_per_px on a
    # huge canvas a coordinate, or a square in the lens's chord algebra (the
    # squared pixel distance overflows past about 1.3e154 px), is no longer a
    # finite float: refuse the canvas rather than write nan or inf.
    if not math.isfinite(value):
        raise CanvasFitError(
            f"pixel coordinate {value!r} out of float range (enlarge feet_per_px)"
        )
    out = f"{value:.4f}"
    return "0.0000" if out == "-0.0000" else out


def render_svg(s: Scenario, c: CanvasSpec = CanvasSpec()) -> str:
    """Render the scenario as an SVG 1.1 document string."""
    sin_true = float(half_angle_sin(s))
    theta = math.asin(min(1.0, sin_true)) * c.angle_exaggeration
    if theta > math.pi / 2:
        max_factor = (math.pi / 2) / math.asin(min(1.0, sin_true))
        raise DomainError(
            f"angle exaggeration {c.angle_exaggeration:g} pushes the display "
            f"half-angle past 90 degrees (max usable factor {max_factor:.2f})"
        )
    cos_t, sin_t = math.cos(theta), math.sin(theta)

    trunk_r = float(s.trunk_radius.feet)
    drop_r = float(s.drop_radius.feet)
    ray_r = float(dig_center_radius(s).feet)
    hole_a_r = float(s.hole_radius_a.feet)
    hole_b_r = float(s.hole_radius_b.feet)

    drop_a = (drop_r * cos_t, drop_r * sin_t)
    drop_b = (drop_r * cos_t, -drop_r * sin_t)
    dig_a = (ray_r * cos_t, ray_r * sin_t)
    dig_b = (ray_r * cos_t, -ray_r * sin_t)

    # Scene bounds in feet: trunk circle, drop points, both dig circles.
    min_x = min(-trunk_r, dig_a[0] - hole_a_r, dig_b[0] - hole_b_r)
    max_x = max(trunk_r, drop_a[0], dig_a[0] + hole_a_r, dig_b[0] + hole_b_r)
    max_y = max(trunk_r, drop_a[1], dig_a[1] + hole_a_r)
    min_y = min(-trunk_r, drop_b[1], dig_b[1] - hole_b_r)

    scale = 1.0 / c.feet_per_px
    span_x = (max_x - min_x) * scale
    span_y = (max_y - min_y) * scale
    need_w = span_x + 2 * c.margin_px
    need_h = span_y + 2 * c.margin_px
    if need_w > c.width_px or need_h > c.height_px:
        raise CanvasFitError(
            f"scene needs a {math.ceil(need_w)}x{math.ceil(need_h)} px canvas at "
            f"{c.feet_per_px:g} ft/px; got {c.width_px}x{c.height_px} "
            "(enlarge the canvas or feet_per_px)"
        )

    off_x = (c.width_px - span_x) / 2.0
    off_y = (c.height_px - span_y) / 2.0

    def px(point: tuple[float, float]) -> tuple[float, float]:
        return (
            off_x + (point[0] - min_x) * scale,
            off_y + (max_y - point[1]) * scale,
        )

    origin = px((0.0, 0.0))
    p_drop_a, p_drop_b = px(drop_a), px(drop_b)
    p_dig_a, p_dig_b = px(dig_a), px(dig_b)

    title = "dig-site plan"
    if c.angle_exaggeration != 1:
        title += (
            f" (display half-angle exaggerated {c.angle_exaggeration:g}x;"
            " distances along the rays are to scale)"
        )

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{c.width_px}" height="{c.height_px}" '
        f'viewBox="0 0 {c.width_px} {c.height_px}">',
        f"<title>{title}</title>",
        _circle("trunk", origin, trunk_r * scale, "#7a5230", "#b08a5a"),
        _cross("drop", p_drop_a),
        _cross("drop", p_drop_b),
        _line("ray", origin, p_dig_a),
        _line("ray", origin, p_dig_b),
        _circle("hole", p_dig_a, hole_a_r * scale, "#555555", "none"),
        _circle("hole", p_dig_b, hole_b_r * scale, "#555555", "none"),
    ]

    lens = _lens_path(p_dig_a, hole_a_r * scale, p_dig_b, hole_b_r * scale)
    if lens is not None:
        parts.append(lens)

    if c.show_labels:
        parts.extend(
            [
                _text("O", origin[0] - 10.0, origin[1] - 8.0),
                _text("a", p_drop_a[0] + 5.0, p_drop_a[1] - 6.0),
                _text("b", p_drop_b[0] + 5.0, p_drop_b[1] + 14.0),
                _text("A", p_dig_a[0], p_dig_a[1] - hole_a_r * scale - 6.0),
                _text("B", p_dig_b[0], p_dig_b[1] + hole_b_r * scale + 14.0),
                _text("2θ", origin[0] + 0.15 * ray_r * scale, origin[1] - 4.0),
            ]
        )

    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _circle(cls: str, center: tuple[float, float], radius_px: float, stroke: str, fill: str) -> str:
    return (
        f'<circle class="{cls}" cx="{_fmt(center[0])}" cy="{_fmt(center[1])}" '
        f'r="{_fmt(radius_px)}" stroke="{stroke}" stroke-width="1.5" fill="{fill}"/>'
    )


def _cross(cls: str, center: tuple[float, float], arm: float = 3.0) -> str:
    x, y = center
    d = (
        f"M {_fmt(x - arm)} {_fmt(y)} L {_fmt(x + arm)} {_fmt(y)} "
        f"M {_fmt(x)} {_fmt(y - arm)} L {_fmt(x)} {_fmt(y + arm)}"
    )
    return f'<path class="{cls}" d="{d}" stroke="#222222" stroke-width="1.2" fill="none"/>'


def _line(cls: str, a: tuple[float, float], b: tuple[float, float]) -> str:
    return (
        f'<line class="{cls}" x1="{_fmt(a[0])}" y1="{_fmt(a[1])}" '
        f'x2="{_fmt(b[0])}" y2="{_fmt(b[1])}" stroke="#888888" '
        'stroke-width="1.0" stroke-dasharray="6,4"/>'
    )


def _text(label: str, x: float, y: float) -> str:
    return f'<text x="{_fmt(x)}" y="{_fmt(y)}" {_LABEL_FONT}>{label}</text>'


def _lens_path(
    center_a: tuple[float, float],
    radius_a: float,
    center_b: tuple[float, float],
    radius_b: float,
) -> str | None:
    """Path outlining the intersection of the two displayed circles.

    The circles are mirror images: they share their x, and B lies below A
    (a larger y in the SVG frame).  Returns None when they do not overlap.
    Containment (one circle inside the other) degenerates to the smaller
    circle drawn as a two-arc path so the circle-element count stays fixed.
    """
    cx, ay = center_a
    by = center_b[1]
    dist = by - ay
    if dist >= radius_a + radius_b:
        return None
    style = 'fill="#cc4444" fill-opacity="0.35" stroke="none"'
    if dist <= abs(radius_a - radius_b):
        cy, r = (ay, radius_a) if radius_a <= radius_b else (by, radius_b)
        d = (
            f"M {_fmt(cx - r)} {_fmt(cy)} "
            f"A {_fmt(r)} {_fmt(r)} 0 1 0 {_fmt(cx + r)} {_fmt(cy)} "
            f"A {_fmt(r)} {_fmt(r)} 0 1 0 {_fmt(cx - r)} {_fmt(cy)} Z"
        )
        return f'<path class="lens" d="{d}" {style}/>'

    # The chord is horizontal, along_a below A's centre.
    along_a = (dist * dist + radius_a * radius_a - radius_b * radius_b) / (2.0 * dist)
    half_chord = math.sqrt(max(0.0, radius_a * radius_a - along_a * along_a))
    p1 = (cx - half_chord, ay + along_a)
    p2 = (cx + half_chord, ay + along_a)

    arc1 = _arc_to(center_a, radius_a, p1, p2, (cx, ay + radius_a))
    arc2 = _arc_to(center_b, radius_b, p2, p1, (cx, by - radius_b))
    d = f"M {_fmt(p1[0])} {_fmt(p1[1])} {arc1} {arc2} Z"
    return f'<path class="lens" d="{d}" {style}/>'


def _arc_to(
    center: tuple[float, float],
    radius: float,
    start: tuple[float, float],
    end: tuple[float, float],
    through: tuple[float, float],
) -> str:
    """SVG arc command from start to end on the given circle, choosing the
    sweep that passes through the given waypoint."""
    two_pi = 2.0 * math.pi
    a_start = math.atan2(start[1] - center[1], start[0] - center[0])
    a_end = math.atan2(end[1] - center[1], end[0] - center[0])
    a_through = math.atan2(through[1] - center[1], through[0] - center[0])
    ccw_span = (a_end - a_start) % two_pi
    ccw_to_through = (a_through - a_start) % two_pi
    if ccw_to_through <= ccw_span:
        sweep = 1  # increasing angle in SVG's y-down frame
        large = 1 if ccw_span > math.pi else 0
    else:
        sweep = 0
        large = 1 if (two_pi - ccw_span) > math.pi else 0
    return (
        f"A {_fmt(radius)} {_fmt(radius)} 0 {large} {sweep} "
        f"{_fmt(end[0])} {_fmt(end[1])}"
    )
