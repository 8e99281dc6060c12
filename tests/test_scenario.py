import dataclasses
import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from goldbug.analysis import OverlapReport, lens_area, overlap_report
from goldbug.scenario import (
    DEFAULT_EXTENSION,
    DEFAULT_HOLE_RADIUS,
    DEFAULT_SOCKET_SEPARATION,
    PARAMS,
    Convention,
    Layout,
    Point,
    Scenario,
    center_distance,
    dig_center_radius,
    half_angle_sin,
    layout,
)
from goldbug.units import INCHES_PER_FOOT, MAX_DIGITS, DomainError, Length, parse_length

# The story layout: 2 in trunk radius, sockets 3 ft past the trunk surface.
STORY = Scenario(trunk_radius=parse_length("2in"), socket_offset=parse_length("3ft"))


def test_defaults_are_the_story_values():
    assert DEFAULT_SOCKET_SEPARATION == parse_length("2.5in")
    assert DEFAULT_EXTENSION == parse_length("50ft")
    assert DEFAULT_HOLE_RADIUS == parse_length("2ft")
    assert STORY.socket_separation == parse_length("2.5in")
    assert STORY.extension == parse_length("50ft")
    assert STORY.hole_radius_a == STORY.hole_radius_b == parse_length("2ft")
    assert STORY.convention is Convention.FROM_DROP_POINT


def test_story_derived_quantities():
    assert STORY.drop_radius == parse_length("38in")
    assert STORY.radii_sum == parse_length("4ft")
    assert half_angle_sin(STORY) == Fraction(5, 152)
    assert dig_center_radius(STORY) == parse_length("638in")
    assert center_distance(STORY) == Fraction(1595, 456)


def test_from_trunk_measures_extension_from_the_bark():
    s = dataclasses.replace(STORY, convention=Convention.FROM_TRUNK)
    assert dig_center_radius(s) == parse_length("602in")
    assert center_distance(s) == Fraction(1505, 456)
    # Same offset, shorter rays: the holes land closer together.
    assert center_distance(s) < center_distance(STORY)


def test_layout_geometry():
    lay = layout(STORY)
    assert lay.tree_center == Point(0.0, 0.0)
    assert lay.sin_half_angle == Fraction(5, 152)
    assert lay.half_angle_rad == math.asin(float(Fraction(5, 152)))

    # Mirror symmetry about the x-axis, drop separation exactly d.
    assert lay.drop_a.x == lay.drop_b.x
    assert lay.drop_a.y == -lay.drop_b.y
    assert lay.drop_a.y == float(Fraction(5, 48))

    # Drop points sit on the circle of radius r+L, dig centres on radius D.
    assert math.hypot(*lay.drop_a) == pytest.approx(38 / 12, rel=1e-15)
    assert math.hypot(*lay.dig_a) == pytest.approx(638 / 12, rel=1e-15)

    # Dig centres are the drop points scaled from the origin.
    scale = 638 / 38
    assert lay.dig_a.x == pytest.approx(lay.drop_a.x * scale, rel=1e-15)
    assert lay.dig_a.y == pytest.approx(lay.drop_a.y * scale, rel=1e-15)


def test_layout_at_maximum_separation():
    # d == 2(r+L) is legal: the drop points sit diametrically opposite.
    s = Scenario(
        trunk_radius=parse_length("0in"),
        socket_offset=parse_length("2in"),
        socket_separation=parse_length("4in"),
    )
    assert half_angle_sin(s) == 1
    lay = layout(s)
    assert lay.drop_a.x == 0.0
    assert center_distance(s) == 2 * dig_center_radius(s).feet


def test_closed_form_matches_coordinates():
    from goldbug.oracle import center_distance_oracle, random_scenarios

    for s in [STORY] + random_scenarios(300, seed=7):
        closed = float(center_distance(s))
        coord = center_distance_oracle(s)
        assert abs(closed - coord) / closed < 1e-12


def test_distance_shrinks_as_offset_grows():
    previous = None
    for feet in range(1, 20):
        s = dataclasses.replace(STORY, socket_offset=Length.from_feet(feet))
        ab = center_distance(s)
        if previous is not None:
            assert ab < previous
        previous = ab


def test_distance_limit_is_the_socket_separation():
    # AB - d = d*E/(r+L) exactly, so a mile-scale offset leaves only a
    # sub-millifoot excess over d.
    s = Scenario(trunk_radius=parse_length("0in"), socket_offset=Length.from_feet(10**6))
    excess = center_distance(s) - s.socket_separation.feet
    assert excess == Fraction(1, 96000)
    assert float(excess) < 1e-4


small_lengths = st.fractions(
    min_value=Fraction(1, 16), max_value=60, max_denominator=16
).map(Length.from_inches)


@given(small_lengths, small_lengths, small_lengths, small_lengths)
def test_excess_identity_holds_everywhere(r, l, d, e):
    assume(d.inches <= 2 * (r + l).inches)
    s = Scenario(
        trunk_radius=r, socket_offset=l, socket_separation=d, extension=e
    )
    excess = center_distance(s) - d.feet
    assert excess == d.feet * e.feet / s.drop_radius.feet


@given(small_lengths, small_lengths, small_lengths)
def test_from_trunk_never_exceeds_from_drop(r, l, d):
    assume(d.inches <= 2 * (r + l).inches)
    drop = Scenario(trunk_radius=r, socket_offset=l, socket_separation=d)
    trunk = dataclasses.replace(drop, convention=Convention.FROM_TRUNK)
    assert center_distance(trunk) < center_distance(drop)


@pytest.mark.parametrize(
    "kwargs,message",
    [
        (dict(trunk_radius="-1in", socket_offset="3ft"), "trunk radius"),
        (dict(trunk_radius="2in", socket_offset="0in"), "socket offset"),
        (dict(trunk_radius="2in", socket_offset="3ft", socket_separation="0in"), "separation"),
        (dict(trunk_radius="2in", socket_offset="3ft", extension="-1in"), "extension"),
        (dict(trunk_radius="2in", socket_offset="3ft", hole_radius_a="0in"), "first hole"),
        (dict(trunk_radius="2in", socket_offset="3ft", hole_radius_b="0in"), "second hole"),
        (dict(trunk_radius="0in", socket_offset="4in", socket_separation="10in"), "d/2"),
    ],
)
def test_invalid_scenarios_rejected(kwargs, message):
    parsed = {k: parse_length(v) for k, v in kwargs.items()}
    with pytest.raises(DomainError, match=message):
        Scenario(**parsed)


def test_from_trunk_needs_positive_ray():
    with pytest.raises(DomainError, match="r\\+E"):
        Scenario(
            trunk_radius=parse_length("0in"),
            socket_offset=parse_length("3ft"),
            extension=parse_length("0in"),
            convention=Convention.FROM_TRUNK,
        )
    # Fine from the drop points: the ray is r+L+E = r+L.
    s = Scenario(
        trunk_radius=parse_length("0in"),
        socket_offset=parse_length("3ft"),
        extension=parse_length("0in"),
    )
    assert center_distance(s) == s.socket_separation.feet


def test_scenario_is_immutable():
    with pytest.raises(dataclasses.FrozenInstanceError):
        STORY.socket_offset = parse_length("4ft")


# ---------------------------------------------------------------------------
# The integer path against the Fraction route it replaced
# ---------------------------------------------------------------------------


def _fraction_center_distance(s):
    """center_distance as it was computed from Fractions (the reference)."""
    # Worked in inches, one conversion to feet at the end.
    ray = dig_center_radius(s).inches
    return s.socket_separation.inches * ray / (INCHES_PER_FOOT * s.drop_radius.inches)


def _fraction_layout(s):
    """layout as it was computed from Fractions (the reference)."""
    # Each exact length is formed once, in inches; every float below is the
    # correctly rounded value of an exact ratio, whatever route formed it.
    drop = s.drop_radius.inches
    if drop == 0:
        raise DomainError("r+L must be > 0 to define the half-angle")
    half_sep_in = s.socket_separation.inches / 2
    sin_t = half_sep_in / drop
    cos_t = math.sqrt(float(1 - sin_t * sin_t))
    drop_x = float(drop / INCHES_PER_FOOT) * cos_t
    half_sep = float(half_sep_in / INCHES_PER_FOOT)
    scale = float(dig_center_radius(s).inches / drop)

    drop_a = Point(drop_x, half_sep)
    drop_b = Point(drop_x, -half_sep)
    return Layout(
        tree_center=Point(0.0, 0.0),
        drop_a=drop_a,
        drop_b=drop_b,
        dig_a=Point(drop_a.x * scale, drop_a.y * scale),
        dig_b=Point(drop_b.x * scale, drop_b.y * scale),
        sin_half_angle=sin_t,
        half_angle_rad=math.asin(float(sin_t)),
    )


def _fraction_overlap_report(s):
    """overlap_report as it was computed from Fractions (the reference)."""
    ab = _fraction_center_distance(s)
    radii_sum = s.radii_sum.feet
    margin = ab - radii_sum
    overlaps = margin < 0
    if overlaps:
        radius_a, radius_b = s.hole_radius_a.feet, s.hole_radius_b.feet
        # Containment is decided on the rationals: at exact internal
        # tangency the float test inside lens_area can miss it.  Distance 0
        # takes lens_area's full-disc branch, input checks included.
        distance = 0.0 if ab <= abs(radius_a - radius_b) else float(ab)
        if float(radius_a) and float(radius_b):
            lens = lens_area(distance, float(radius_a), float(radius_b))
        else:
            # A radius underflows to 0.0 ft: the true lens is below the
            # smallest float.
            lens = 0.0
    else:
        # Rational gate: margin >= 0 means zero intersection exactly, no
        # float rounding allowed to say otherwise.
        lens = 0.0
    return OverlapReport(
        ab_ft=ab,
        radii_sum_ft=radii_sum,
        overlaps=overlaps,
        margin_ft=margin,
        lens_area_sqft=lens,
        scenario=s,
    )


def _outcome(fn, s):
    """What fn(s) gives, floats spelt bit for bit, or the error it raises."""
    try:
        got = fn(s)
    except (DomainError, OverflowError) as exc:
        return type(exc), str(exc)
    if isinstance(got, Layout):
        points = (got.tree_center, got.drop_a, got.drop_b, got.dig_a, got.dig_b)
        return (
            [v.hex() for p in points for v in p],
            got.sin_half_angle,
            got.half_angle_rad.hex(),
        )
    if isinstance(got, OverlapReport):
        return (
            got.ab_ft,
            got.radii_sum_ft,
            got.overlaps,
            got.margin_ft,
            got.lens_area_sqft.hex(),
            got.scenario is s,
        )
    assert type(got) is Fraction
    return got


def _assert_int_path_matches_fractions(s):
    for new, old in (
        (center_distance, _fraction_center_distance),
        (layout, _fraction_layout),
        (overlap_report, _fraction_overlap_report),
    ):
        assert _outcome(new, s) == _outcome(old, s), new.__name__
    assert [Fraction(n, s.scale) for n in s.counts] == [
        getattr(s, field).inches for field in PARAMS.values()
    ]


@st.composite
def wide_fractions(draw, min_value=1):
    """A Fraction with numerator and denominator of up to MAX_DIGITS digits."""
    num_digits, den_digits = (
        draw(st.sampled_from((1, 3, 20, 150, MAX_DIGITS))) for _ in range(2)
    )
    return Fraction(
        draw(st.integers(min_value, 10**num_digits - 1)),
        draw(st.integers(1, 10**den_digits - 1)),
    )


@st.composite
def edge_scenarios(draw):
    r = Fraction(0) if draw(st.booleans()) else draw(wide_fractions())
    L = draw(wide_fractions())
    # d = 2(r+L) puts the drop points diametrically opposite.
    d = 2 * (r + L) * (1 if draw(st.booleans()) else draw(wide_fractions()) / 10**MAX_DIGITS)
    assume(0 < d <= 2 * (r + L))
    E = draw(wide_fractions(min_value=0))
    convention = draw(st.sampled_from(Convention))
    assume(convention is Convention.FROM_DROP_POINT or r + E > 0)
    lengths = dict(
        trunk_radius=Length(r), socket_offset=Length(L), socket_separation=Length(d),
        extension=Length(E), convention=convention,
    )
    rA = draw(wide_fractions())
    ab = INCHES_PER_FOOT * _fraction_center_distance(Scenario(**lengths))
    tangency = draw(st.sampled_from(("none", "external", "internal")))
    if tangency == "external":
        assume(rA < ab)
        rB = ab - rA
    elif tangency == "internal":
        rB = rA + ab
    else:
        rB = draw(wide_fractions())
    return Scenario(**lengths, hole_radius_a=Length(rA), hole_radius_b=Length(rB))


@settings(deadline=None)
@given(edge_scenarios())
def test_int_path_matches_fractions_on_wide_lengths(s):
    _assert_int_path_matches_fractions(s)


def test_int_path_matches_fractions_on_seeded_scenarios():
    from goldbug.oracle import random_scenarios

    for seed in (1843, 7):
        for s in random_scenarios(6_000, seed=seed):
            _assert_int_path_matches_fractions(s)


def test_derived_ints_stay_out_of_identity():
    s = dataclasses.replace(STORY, extension=parse_length("40ft"))
    assert (s.scale, s.counts) == (2, (4, 72, 5, 960, 48, 48))
    assert repr(STORY) == repr(Scenario(STORY.trunk_radius, STORY.socket_offset))
    assert "counts" not in repr(STORY) and "scale" not in repr(STORY)
    same = Scenario(Length(Fraction(4, 2)), parse_length("36in"))
    assert same == STORY and hash(same) == hash(STORY)
