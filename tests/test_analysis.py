import json
import math
from fractions import Fraction

import pytest
import scipy.integrate
from hypothesis import assume, given
from hypothesis import strategies as st

from goldbug.analysis import (
    ThresholdKind,
    lens_area,
    max_l_for_nonoverlap,
    nonoverlap_threshold,
    nonoverlap_threshold_from_trunk,
    overlap_report,
)
from goldbug.claims import CLAIM_IDS, verify_claims
from goldbug.jsonio import sweep_to_json
from goldbug.scenario import Convention, Scenario
from goldbug.sweeps import SWEEP_ROW_LIMIT, SweepAxis, sweep
from goldbug.units import DomainError, Length, parse_length

STORY = Scenario(trunk_radius=parse_length("2in"), socket_offset=parse_length("3ft"))


# ---------------------------------------------------------------------------
# Overlap reports
# ---------------------------------------------------------------------------


def test_story_report():
    rep = overlap_report(STORY)
    assert rep.ab_ft == Fraction(1595, 456)
    assert rep.radii_sum_ft == 4
    assert rep.overlaps
    assert rep.margin_ft == Fraction(-229, 456)
    assert rep.lens_area_sqft == pytest.approx(0.658274688770558, rel=1e-12)
    assert rep.scenario is STORY


def test_tangency_is_not_overlap():
    # r+L exactly at the 250/91 ft bound: AB == 4 ft, margin 0, no overlap.
    s = Scenario(
        trunk_radius=parse_length("0in"),
        socket_offset=Length.from_feet(Fraction(250, 91)),
    )
    rep = overlap_report(s)
    assert rep.ab_ft == 4
    assert rep.margin_ft == 0
    assert not rep.overlaps
    assert rep.lens_area_sqft == 0.0


def test_tangency_from_trunk():
    offset = Length.from_feet(Fraction(1505, 576)) - parse_length("2in")
    s = Scenario(
        trunk_radius=parse_length("2in"),
        socket_offset=offset,
        convention=Convention.FROM_TRUNK,
    )
    rep = overlap_report(s)
    assert rep.margin_ft == 0
    assert not rep.overlaps


def test_clear_report_has_zero_lens():
    s = Scenario(trunk_radius=parse_length("0in"), socket_offset=parse_length("2ft"))
    rep = overlap_report(s)
    assert rep.ab_ft == Fraction(65, 12)
    assert not rep.overlaps
    assert rep.margin_ft == Fraction(17, 12)
    assert rep.lens_area_sqft == 0.0


def test_small_holes_never_overlap():
    s = Scenario(
        trunk_radius=parse_length("0in"),
        socket_offset=parse_length("100ft"),
        hole_radius_a=parse_length("1in"),
        hole_radius_b=parse_length("1in"),
    )
    rep = overlap_report(s)
    assert rep.ab_ft == Fraction(5, 16)
    assert not rep.overlaps
    assert rep.margin_ft == Fraction(7, 48)


# ---------------------------------------------------------------------------
# Lens area
# ---------------------------------------------------------------------------


def _lens_by_quadrature(d, ra, rb):
    """Numerical slab integral of the intersection, kink split at the chord."""
    kink = (d * d + ra * ra - rb * rb) / (2 * d)

    def width(x):
        wa = math.sqrt(max(0.0, ra * ra - x * x))
        wb = math.sqrt(max(0.0, rb * rb - (x - d) ** 2))
        return 2.0 * min(wa, wb)

    value, _ = scipy.integrate.quad(width, d - rb, ra, points=[kink], limit=200)
    return value


def test_lens_frozen_value():
    assert lens_area(2.8125, 2.0, 2.0) == pytest.approx(2.328360381327415, rel=1e-12)


@pytest.mark.parametrize(
    "d,ra,rb",
    [
        (2.8125, 2.0, 2.0),
        (float(Fraction(1595, 456)), 2.0, 2.0),
        (1.0, 2.0, 1.5),
        (0.6, 0.5, 1.0),
        (3.9, 2.0, 2.0),
    ],
)
def test_lens_matches_quadrature(d, ra, rb):
    assert lens_area(d, ra, rb) == pytest.approx(_lens_by_quadrature(d, ra, rb), abs=1e-9)


def test_lens_separated_and_tangent_are_zero():
    assert lens_area(4.0, 2.0, 2.0) == 0.0
    assert lens_area(4.5, 2.0, 2.0) == 0.0
    assert lens_area(3.5, 2.0, 1.5) == 0.0


def test_lens_containment_is_the_smaller_circle():
    assert lens_area(0.0, 2.0, 2.0) == math.pi * 4.0
    assert lens_area(0.5, 2.0, 1.0) == math.pi * 1.0
    assert lens_area(1.0, 1.0, 2.0) == math.pi * 1.0


# Sites at exact internal tangency, AB = rA - rB: with r = 0 at the story's
# d and E, AB = (53/24, 29/24) ft, rA = (35/12, 13/6) ft, rB = (17/24, 23/24) ft.
INTERNAL_TANGENCY = [
    (Fraction(125, 2), Fraction(35), Fraction(17, 2)),
    (Fraction(125), Fraction(26), Fraction(23, 2)),
]


@pytest.mark.parametrize("offset,ra,rb", INTERNAL_TANGENCY)
def test_exact_internal_tangency_is_containment(offset, ra, rb):
    s = Scenario(
        trunk_radius=Length.from_inches(0),
        socket_offset=Length.from_inches(offset),
        hole_radius_a=Length.from_inches(ra),
        hole_radius_b=Length.from_inches(rb),
    )
    rep = overlap_report(s)
    assert rep.ab_ft == (ra - rb) / 12
    assert rep.lens_area_sqft == math.pi * float(rb / 12) ** 2


@pytest.mark.parametrize("offset,ra,rb", INTERNAL_TANGENCY)
def test_lens_never_exceeds_the_smaller_disc(offset, ra, rb):
    ab, fa, fb = float((ra - rb) / 12), float(ra / 12), float(rb / 12)
    assert lens_area(ab, fa, fb) <= math.pi * fb**2


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(distance=-0.1, radius_a=1.0, radius_b=1.0),
        dict(distance=1.0, radius_a=0.0, radius_b=1.0),
        dict(distance=1.0, radius_a=1.0, radius_b=-2.0),
        dict(distance=math.nan, radius_a=1.0, radius_b=1.0),
        dict(distance=1.0, radius_a=math.inf, radius_b=1.0),
        dict(distance=1.0, radius_a=1e200, radius_b=1e200),
    ],
)
def test_lens_rejects_bad_inputs(kwargs):
    with pytest.raises(DomainError):
        lens_area(**kwargs)


radii = st.floats(min_value=0.1, max_value=10.0, allow_nan=False)


@given(st.floats(min_value=0.0, max_value=25.0), radii, radii)
def test_lens_is_symmetric(d, ra, rb):
    assert lens_area(d, ra, rb) == pytest.approx(lens_area(d, rb, ra), rel=1e-12, abs=1e-15)


@given(radii, radii, st.floats(min_value=0.0, max_value=1.0), st.floats(min_value=0.0, max_value=1.0))
def test_lens_shrinks_with_distance(ra, rb, t1, t2):
    span = ra + rb
    d1, d2 = sorted((t1 * span, t2 * span))
    assert lens_area(d1, ra, rb) >= lens_area(d2, ra, rb) - 1e-9


# ---------------------------------------------------------------------------
# Thresholds
# ---------------------------------------------------------------------------

TWO_FT = parse_length("2ft")


def test_story_threshold():
    t = nonoverlap_threshold(TWO_FT, TWO_FT)
    assert t.kind is ThresholdKind.FINITE
    assert t.bound_ft == Fraction(250, 91)


def test_threshold_other_radii():
    assert nonoverlap_threshold(TWO_FT, parse_length("3ft")).bound_ft == Fraction(50, 23)


def test_threshold_small_holes_always_clear():
    inch = parse_length("1in")
    t = nonoverlap_threshold(inch, inch)
    assert t.kind is ThresholdKind.ALWAYS_NONOVERLAP
    assert t.bound_ft is None
    # Radii sum equal to the separation is still the always-clear side.
    half = parse_length("1.25in")
    assert nonoverlap_threshold(half, half).kind is ThresholdKind.ALWAYS_NONOVERLAP


def test_threshold_from_trunk():
    t = nonoverlap_threshold_from_trunk(parse_length("2in"), TWO_FT, TWO_FT)
    assert t.kind is ThresholdKind.FINITE
    assert t.bound_ft == Fraction(1505, 576)


def test_threshold_from_trunk_degenerate_zero():
    # r = 0 and E = 0 leaves zero-length rays: the bound collapses to 0.
    t = nonoverlap_threshold_from_trunk(
        parse_length("0in"), TWO_FT, TWO_FT, extension=parse_length("0in")
    )
    assert t.kind is ThresholdKind.FINITE
    assert t.bound_ft == 0


def test_max_l_story():
    t = max_l_for_nonoverlap(parse_length("2in"), TWO_FT, TWO_FT)
    assert t.kind is ThresholdKind.FINITE
    assert t.bound_ft == Fraction(1409, 546)


def test_max_l_from_trunk():
    t = max_l_for_nonoverlap(
        parse_length("2in"), TWO_FT, TWO_FT, convention=Convention.FROM_TRUNK
    )
    assert t.bound_ft == Fraction(1409, 576)


def test_max_l_huge_trunk_leaves_no_room():
    t = max_l_for_nonoverlap(parse_length("3ft"), TWO_FT, TWO_FT)
    assert t.kind is ThresholdKind.NO_VALID_L
    assert t.bound_ft is None


def test_max_l_propagates_always_clear():
    inch = parse_length("1in")
    t = max_l_for_nonoverlap(parse_length("10ft"), inch, inch)
    assert t.kind is ThresholdKind.ALWAYS_NONOVERLAP


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(radius_a=parse_length("0in"), radius_b=TWO_FT),
        dict(radius_a=TWO_FT, radius_b=parse_length("-1in")),
        dict(radius_a=TWO_FT, radius_b=TWO_FT, separation=parse_length("0in")),
        dict(radius_a=TWO_FT, radius_b=TWO_FT, extension=parse_length("-1in")),
    ],
)
def test_threshold_rejects_bad_inputs(kwargs):
    with pytest.raises(DomainError):
        nonoverlap_threshold(**kwargs)


def test_threshold_rejects_negative_trunk():
    with pytest.raises(DomainError):
        nonoverlap_threshold_from_trunk(parse_length("-1in"), TWO_FT, TWO_FT)
    with pytest.raises(DomainError):
        max_l_for_nonoverlap(parse_length("-1in"), TWO_FT, TWO_FT)


grid_lengths = st.fractions(
    min_value=Fraction(1, 8), max_value=48, max_denominator=8
).map(Length.from_inches)
EPS_FT = Fraction(1, 10**6)


@given(grid_lengths, grid_lengths, grid_lengths, grid_lengths)
def test_threshold_agrees_with_reports(ra, rb, d, e):
    """The bound is sharp: margin is 0 at r+L = bound and flips sign around it."""
    t = nonoverlap_threshold(ra, rb, d, e)
    if t.kind is ThresholdKind.ALWAYS_NONOVERLAP:
        far = Scenario(
            trunk_radius=parse_length("0in"),
            socket_offset=Length.from_feet(100) + d,
            socket_separation=d,
            extension=e,
            hole_radius_a=ra,
            hole_radius_b=rb,
        )
        assert not overlap_report(far).overlaps
        return
    bound = t.bound_ft
    assume(bound > EPS_FT)
    assume(d.feet <= 2 * (bound - EPS_FT))

    def margin_at(drop_ft):
        s = Scenario(
            trunk_radius=parse_length("0in"),
            socket_offset=Length.from_feet(drop_ft),
            socket_separation=d,
            extension=e,
            hole_radius_a=ra,
            hole_radius_b=rb,
        )
        return overlap_report(s).margin_ft

    assert margin_at(bound) == 0
    assert margin_at(bound - EPS_FT) > 0
    assert margin_at(bound + EPS_FT) < 0


@given(grid_lengths, grid_lengths, grid_lengths, grid_lengths, grid_lengths)
def test_from_trunk_threshold_agrees_with_reports(r, ra, rb, d, e):
    t = nonoverlap_threshold_from_trunk(r, ra, rb, d, e)
    assert t.kind is ThresholdKind.FINITE
    bound = t.bound_ft
    assume(bound > r.feet + EPS_FT)
    assume(d.feet <= 2 * (bound - EPS_FT))

    def margin_at(drop_ft):
        s = Scenario(
            trunk_radius=r,
            socket_offset=Length.from_feet(drop_ft) - r,
            socket_separation=d,
            extension=e,
            hole_radius_a=ra,
            hole_radius_b=rb,
            convention=Convention.FROM_TRUNK,
        )
        return overlap_report(s).margin_ft

    assert margin_at(bound) == 0
    assert margin_at(bound - EPS_FT) > 0
    assert margin_at(bound + EPS_FT) < 0


@given(grid_lengths, grid_lengths, grid_lengths)
def test_bigger_second_hole_tightens_the_bound(ra, rb, growth):
    t1 = nonoverlap_threshold(ra, rb)
    t2 = nonoverlap_threshold(ra, rb + growth)
    if t2.kind is ThresholdKind.FINITE and t1.kind is ThresholdKind.FINITE:
        assert t2.bound_ft < t1.bound_ft


def test_verdict_matches_lens_positivity():
    from goldbug.oracle import random_scenarios

    for s in random_scenarios(200, seed=23):
        rep = overlap_report(s)
        if abs(rep.margin_ft) < Fraction(1, 10**9):
            continue
        assert rep.overlaps == (rep.lens_area_sqft > 0.0)


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------

BASE = Scenario(trunk_radius=parse_length("0in"), socket_offset=parse_length("1ft"))


def _axis(param, start, stop, step):
    return SweepAxis(param, parse_length(start), parse_length(stop), parse_length(step))


def test_sweep_offset_through_the_threshold():
    table = sweep(BASE, [_axis("L", "2.5ft", "3ft", "0.25ft")])
    assert [row.values for row in table.rows] == [
        (("L", parse_length("2.5ft")),),
        (("L", parse_length("2.75ft")),),
        (("L", parse_length("3ft")),),
    ]
    assert [row.report.overlaps for row in table.rows] == [False, True, True]
    assert [row.report.margin_ft for row in table.rows] == [
        Fraction(3, 8),
        Fraction(-1, 264),
        Fraction(-23, 72),
    ]


def test_sweep_single_point():
    table = sweep(BASE, [_axis("L", "3ft", "3ft", "1in")])
    assert len(table.rows) == 1
    assert table.rows[0].report.ab_ft == Fraction(265, 72)


def test_sweep_stop_is_inclusive_only_on_the_grid():
    table = sweep(BASE, [_axis("L", "1ft", "2ft", "0.75ft")])
    assert [row.values[0][1] for row in table.rows] == [
        parse_length("1ft"),
        parse_length("1.75ft"),
    ]


def test_sweep_two_axes_row_order():
    table = sweep(BASE, [_axis("r", "0in", "2in", "1in"), _axis("L", "3ft", "4ft", "1ft")])
    combos = [tuple(str(v) for _, v in row.values) for row in table.rows]
    assert combos == [
        ("0in", "36in"),
        ("0in", "48in"),
        ("1in", "36in"),
        ("1in", "48in"),
        ("2in", "36in"),
        ("2in", "48in"),
    ]
    assert all(row.report is not None for row in table.rows)


def test_sweep_flags_invalid_points():
    table = sweep(BASE, [_axis("L", "0.5in", "1.5in", "0.5in")])
    reasons = [row.invalid_reason for row in table.rows]
    assert reasons[0] is not None and "separation" in reasons[0]
    assert reasons[1] is not None
    assert reasons[2] is None
    assert table.rows[2].report is not None


@pytest.mark.parametrize(
    "axes,message",
    [
        ([], "1 or 2 axes"),
        (["L", "r", "E"], "1 or 2 axes"),
        (["bogus"], "unknown sweep parameter"),
        (["L", "L"], "duplicate"),
    ],
)
def test_sweep_rejects_bad_axes(axes, message):
    built = [_axis(p, "1in", "2in", "1in") for p in axes]
    with pytest.raises(DomainError, match=message):
        sweep(BASE, built)


def test_sweep_rejects_bad_ranges():
    with pytest.raises(DomainError, match="step"):
        sweep(BASE, [_axis("L", "1in", "2in", "0in")])
    with pytest.raises(DomainError, match="start > stop"):
        sweep(BASE, [_axis("L", "2in", "1in", "1in")])


def test_sweep_row_limit():
    axes = [_axis("L", "1in", "1001in", "1in"), _axis("E", "0in", "1000in", "1in")]
    with pytest.raises(DomainError, match=str(SWEEP_ROW_LIMIT)):
        sweep(BASE, axes)


def test_sweep_is_deterministic():
    axes = [_axis("L", "2.5ft", "3ft", "0.25ft")]
    first = json.dumps(sweep_to_json(sweep(BASE, axes)))
    second = json.dumps(sweep_to_json(sweep(BASE, axes)))
    assert first == second


# ---------------------------------------------------------------------------
# Claim suite
# ---------------------------------------------------------------------------


def test_all_claims_pass():
    results = verify_claims()
    assert tuple(r.claim_id for r in results) == CLAIM_IDS
    for r in results:
        assert r.passed, f"{r.claim_id}: expected {r.expected}, computed {r.computed}"
        assert r.statement and r.expected and r.computed


def test_injected_failure_fails_exactly_one_claim():
    results = verify_claims(inject_failure="C5")
    by_id = {r.claim_id: r for r in results}
    assert not by_id["C5"].passed
    assert by_id["C5"].computed == "INJECTED-FAULT"
    assert all(r.passed for r in results if r.claim_id != "C5")


def test_inject_unknown_claim_rejected():
    with pytest.raises(DomainError, match="unknown claim id"):
        verify_claims(inject_failure="C9")


# ---------------------------------------------------------------------------
# Names that moved out of analysis
# ---------------------------------------------------------------------------

MOVED = {
    "sweeps": ("SWEEP_ROW_LIMIT", "SweepAxis", "SweepGrid", "SweepRow", "SweepTable", "sweep"),
    "claims": ("CLAIM_IDS", "ClaimResult", "verify_claims"),
}


def test_moved_names_are_the_objects_in_their_new_homes():
    import goldbug
    from goldbug import analysis, claims, sweeps

    homes = {"sweeps": sweeps, "claims": claims}
    for home, names in MOVED.items():
        for name in names:
            moved = getattr(homes[home], name)
            assert getattr(analysis, name) is moved, name
            # Bound in the module's dict once looked up, as goldbench's
            # tracer reads it there.
            assert vars(analysis)[name] is moved, name
            if name in goldbug.__all__:
                assert getattr(goldbug, name) is moved, name
    assert {n for n in goldbug.__all__ if n in MOVED["sweeps"] + MOVED["claims"]} == {
        "ClaimResult", "SweepAxis", "verify_claims"
    }
    from goldbug.analysis import sweep as old_home

    assert old_home is sweeps.sweep
    with pytest.raises(AttributeError):
        analysis.no_such_name  # noqa: B018
    with pytest.raises(AttributeError):
        goldbug.no_such_name  # noqa: B018
