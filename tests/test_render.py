import hashlib
import math
import re
import xml.etree.ElementTree as ET
from fractions import Fraction
from pathlib import Path

import pytest

from goldbug.render import CanvasFitError, CanvasSpec, render_svg
from goldbug.scenario import Scenario
from goldbug.units import DomainError, parse_length

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
SVG_NS = "{http://www.w3.org/2000/svg}"

STORY = Scenario(trunk_radius=parse_length("2in"), socket_offset=parse_length("3ft"))
CLEAR = Scenario(trunk_radius=parse_length("0in"), socket_offset=parse_length("2ft"))


def _parse(svg):
    return ET.fromstring(svg)


def _circles(root):
    return root.findall(f"{SVG_NS}circle")


def _by_class(root, tag, cls):
    return [e for e in root.findall(f"{SVG_NS}{tag}") if e.get("class") == cls]


def test_story_matches_golden_file():
    golden = (GOLDEN_DIR / "plan_r2in_L3ft.svg").read_bytes()
    assert render_svg(STORY).encode("utf-8") == golden


def _scene(r, L, **lengths):
    return Scenario(
        trunk_radius=parse_length(r),
        socket_offset=parse_length(L),
        **{k: parse_length(v) for k, v in lengths.items()},
    )


# sha256 of the rendered bytes, one case per lens geometry.  Tangency sits at
# r + L = 250/91 ft, where AB is exactly rA + rB = 4 ft.
RENDER_DIGESTS = {
    "clear": (
        _scene("0in", "2ft"),
        CanvasSpec(),
        "7bf6e164e9def60c7cb0091fa504322d044615cde785e51221948a2c85de5f3f",
    ),
    "partial overlap": (
        _scene("2in", "3ft"),
        CanvasSpec(),
        "1a6cd4bd5f6194db827ada577d507eb6d91ad5f32b04a541592f89f4731e5a8c",
    ),
    "A inside B": (
        _scene("0in", "4ft", hole_radius_a="1ft", hole_radius_b="4ft"),
        CanvasSpec(width_px=1400),
        "be918872bd2d4deb58174f6a7b35d5dc46bbad2d6ef40400013eca8248176226",
    ),
    "B inside A": (
        _scene("0in", "4ft", hole_radius_a="4ft", hole_radius_b="1ft"),
        CanvasSpec(width_px=1400),
        "524061a9b97c1144090a5d34195418661240e7a5a36d59752946fae188c0d992",
    ),
    "tangent, r = 0": (
        _scene("0in", "250/91ft"),
        CanvasSpec(),
        "62b9eadfabc6ca469931b3ed75c9b0382b5291cc7aa208cb700a1e5a3967f2d5",
    ),
    "tangent, r = 2in": (
        _scene("2in", "1409/546ft"),
        CanvasSpec(),
        "6d73b38a19d380dae79b829ae541b0ae28e9fb2cc3a4fe419b68654a061d0a8f",
    ),
    "d = 2(r+L)": (
        _scene("1in", "1/4in", socket_separation="2.5in"),
        CanvasSpec(width_px=400, height_px=400, feet_per_px=0.5),
        "a54b8a8e71846808ccf419fdf2a66b2628232b42ca8aea88fb47f30a1cfd54eb",
    ),
    "exaggerated 7x, no labels": (
        _scene("2in", "3ft"),
        CanvasSpec(height_px=1000, angle_exaggeration=7.0, show_labels=False),
        "d841d54d0b6367054c80ca53beb3b4b449938f61d6de697381c0683e587528fc",
    ),
    "exaggerated 7x, no labels, lens": (
        _scene("2in", "3ft", hole_radius_a="16ft", hole_radius_b="14ft"),
        CanvasSpec(width_px=1600, height_px=1400, angle_exaggeration=7.0, show_labels=False),
        "00d39ffea6cf9e4e4d11256b10285185c21891280176056ca006ee80b1dbccaf",
    ),
}


def test_render_bytes_are_pinned():
    got = {
        name: hashlib.sha256(render_svg(s, c).encode("utf-8")).hexdigest()
        for name, (s, c, _) in RENDER_DIGESTS.items()
    }
    assert got == {name: digest for name, (_, _, digest) in RENDER_DIGESTS.items()}


def test_rendering_is_deterministic():
    assert render_svg(STORY) == render_svg(STORY)
    assert render_svg(CLEAR) == render_svg(CLEAR)


def test_document_structure():
    svg = render_svg(STORY)
    root = _parse(svg)
    assert root.get("width") == "1200"
    assert root.get("height") == "260"
    assert root.get("viewBox") == "0 0 1200 260"
    assert root.find(f"{SVG_NS}title").text == "dig-site plan"

    # Exactly three circles: the trunk and the two holes.  Drop points are
    # cross markers, not circles.
    assert len(_circles(root)) == 3
    assert len(_by_class(root, "circle", "trunk")) == 1
    assert len(_by_class(root, "circle", "hole")) == 2
    assert len(_by_class(root, "path", "drop")) == 2
    assert len(_by_class(root, "line", "ray")) == 2
    assert svg.startswith('<?xml version="1.0" encoding="UTF-8"?>')


def test_coordinates_have_four_decimals():
    svg = render_svg(STORY)
    for value in re.findall(r'(?:cx|cy|r|x\d|y\d)="([^"]+)"', svg):
        assert re.fullmatch(r"-?\d+\.\d{4}", value), value
    assert "-0.0000" not in svg


def test_overlapping_holes_get_a_lens():
    root = _parse(render_svg(STORY))
    assert len(_by_class(root, "path", "lens")) == 1


def test_clear_holes_have_no_lens():
    root = _parse(render_svg(CLEAR))
    assert len(_by_class(root, "path", "lens")) == 0
    assert len(_circles(root)) == 3


def test_labels_can_be_dropped():
    with_labels = _parse(render_svg(STORY))
    assert {t.text for t in with_labels.findall(f"{SVG_NS}text")} == {
        "O", "a", "b", "A", "B", "2θ",
    }
    bare = _parse(render_svg(STORY, CanvasSpec(show_labels=False)))
    assert bare.findall(f"{SVG_NS}text") == []


def test_pixel_positions_match_the_geometry():
    spec = CanvasSpec()
    root = _parse(render_svg(STORY, spec))
    holes = _by_class(root, "circle", "hole")
    ax, ay = float(holes[0].get("cx")), float(holes[0].get("cy"))
    bx, by = float(holes[1].get("cx")), float(holes[1].get("cy"))

    # Hole centres are mirror images; their separation is AB at 20 px/ft.
    assert ax == bx
    ab_px = float(Fraction(1595, 456)) / spec.feet_per_px
    assert abs(ay - by) == pytest.approx(ab_px, abs=0.01)

    trunk = _by_class(root, "circle", "trunk")[0]
    assert float(trunk.get("r")) == pytest.approx((2 / 12) / spec.feet_per_px, abs=0.01)
    assert float(holes[0].get("r")) == pytest.approx(2 / spec.feet_per_px, abs=0.01)


def test_lens_arcs_meet_at_the_circle_intersections():
    spec = CanvasSpec()
    root = _parse(render_svg(STORY, spec))
    holes = _by_class(root, "circle", "hole")
    ax, ay, ra = (float(holes[0].get(k)) for k in ("cx", "cy", "r"))
    bx, by, rb = (float(holes[1].get(k)) for k in ("cx", "cy", "r"))
    d = _by_class(root, "path", "lens")[0].get("d")

    numbers = [float(v) for v in re.findall(r"-?\d+\.\d{4}", d)]
    start = (numbers[0], numbers[1])
    arc1_end = (numbers[4], numbers[5])
    arc2_end = (numbers[8], numbers[9])
    assert arc2_end == start  # closed outline

    # Both endpoints lie on both displayed circles.
    for px, py in (start, arc1_end):
        assert math.hypot(px - ax, py - ay) == pytest.approx(ra, abs=0.01)
        assert math.hypot(px - bx, py - by) == pytest.approx(rb, abs=0.01)
    assert start != arc1_end


def test_contained_hole_renders_as_full_circle_lens():
    s = Scenario(
        trunk_radius=parse_length("0in"),
        socket_offset=parse_length("4ft"),
        hole_radius_a=parse_length("4ft"),
        hole_radius_b=parse_length("1ft"),
    )
    # AB = 2.8125 ft < rA - rB, so hole B sits entirely inside hole A.
    root = _parse(render_svg(s, CanvasSpec(width_px=1400)))
    lens = _by_class(root, "path", "lens")
    assert len(lens) == 1
    assert " 0 1 0 " in lens[0].get("d")  # two large arcs: the full circle
    assert len(_circles(root)) == 3


def test_angle_exaggeration_is_display_only():
    flat = _parse(render_svg(STORY, CanvasSpec()))
    wide = _parse(render_svg(STORY, CanvasSpec(height_px=1000, angle_exaggeration=12.0)))

    def ray_px(root):
        trunk = _by_class(root, "circle", "trunk")[0]
        hole = _by_class(root, "circle", "hole")[0]
        return math.hypot(
            float(hole.get("cx")) - float(trunk.get("cx")),
            float(hole.get("cy")) - float(trunk.get("cy")),
        )

    def spread_px(root):
        holes = _by_class(root, "circle", "hole")
        return abs(float(holes[0].get("cy")) - float(holes[1].get("cy")))

    # The spread follows the exaggerated half-angle; the ray length (the
    # true distance to the holes) stays put.
    theta = math.asin(float(Fraction(5, 152)))
    expected = math.sin(12.0 * theta) / math.sin(theta)
    assert spread_px(wide) / spread_px(flat) == pytest.approx(expected, rel=1e-4)
    assert ray_px(wide) == pytest.approx(ray_px(flat), abs=0.01)


def test_angle_exaggeration_announced_in_title():
    root = _parse(render_svg(STORY, CanvasSpec(height_px=400, angle_exaggeration=2.5)))
    title = root.find(f"{SVG_NS}title").text
    assert "exaggerated 2.5x" in title
    assert "to scale" in title


def test_excessive_exaggeration_rejected():
    with pytest.raises(DomainError, match="max usable factor"):
        render_svg(STORY, CanvasSpec(angle_exaggeration=100.0))


def test_scene_must_fit_the_canvas():
    with pytest.raises(CanvasFitError, match="enlarge the canvas"):
        render_svg(STORY, CanvasSpec(width_px=80, height_px=40))


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(width_px=0),
        dict(height_px=-5),
        dict(margin_px=-1),
        dict(feet_per_px=0.0),
        dict(feet_per_px=math.inf),
        dict(angle_exaggeration=0.5),
        dict(angle_exaggeration=math.nan),
    ],
)
def test_canvas_spec_validation(kwargs):
    with pytest.raises(DomainError):
        CanvasSpec(**kwargs)
