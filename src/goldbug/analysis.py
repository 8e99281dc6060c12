"""Overlap verdicts, non-overlap thresholds, sweeps, and the claim suite.

Verdicts and thresholds are computed in exact rational arithmetic (feet), so
tangency and threshold boundaries are decided without tolerances.  Tangency
counts as NOT overlapping: the non-overlap condition is the strict AB > rA+rB,
so overlap is the strict complement AB < rA+rB and equality lands on the
non-overlap side.  Floating point enters only for the lens area, which
quantifies how badly overlapping holes merge.
"""

from __future__ import annotations

import enum
import math
from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Any

from .scenario import (
    DEFAULT_EXTENSION,
    DEFAULT_SOCKET_SEPARATION,
    PARAMS,
    Convention,
    Scenario,
    center_distance,
    scenario_violation,
)
from .units import INCHES_PER_FOOT, DomainError, Length, format_exact_feet, format_feet_inches

SWEEP_ROW_LIMIT = 10**6

# The parameters a sweep axis can vary: every length but the separation d.
SWEEP_PARAMS = {key: field for key, field in PARAMS.items() if key != "d"}


@dataclass(frozen=True)
class OverlapReport:
    """Overlap verdict for one scenario; rationals are in feet."""

    ab_ft: Fraction
    radii_sum_ft: Fraction
    overlaps: bool
    margin_ft: Fraction
    lens_area_sqft: float
    scenario: Scenario


class ThresholdKind(enum.Enum):
    FINITE = "finite"
    ALWAYS_NONOVERLAP = "always-nonoverlap"
    NO_VALID_L = "no-valid-l"


@dataclass(frozen=True)
class Threshold:
    """Supremum of r+L (or of L) keeping the holes non-overlapping."""

    kind: ThresholdKind
    bound_ft: Fraction | None = None


def overlap_report(s: Scenario) -> OverlapReport:
    """Verdict for one scenario: centre distance versus radii sum."""
    ((_, reason, ab, radii, margin, den, overlaps, lens),) = _verdicts(
        [((), s.counts)], s.convention is Convention.FROM_TRUNK, INCHES_PER_FOOT * s.scale
    )
    if reason is not None:
        # Only lens_area can refuse a valid scenario.
        raise DomainError(reason)
    return OverlapReport(
        ab_ft=Fraction(ab, den),
        radii_sum_ft=Fraction(radii, den),
        overlaps=overlaps,
        margin_ft=Fraction(margin, den),
        lens_area_sqft=lens,
        scenario=s,
    )


def _verdicts(points: Iterable[tuple], from_trunk: bool, foot: int) -> Iterator[tuple]:
    """The integer overlap kernel behind overlap_report and sweep rows.

    Each point is (labels, (r, L, d, E, rA, rB)), the six lengths being ints
    counting 1/scale inch, and ``foot`` is 12*scale.  One tuple per point:

        (labels, reason, ab, radii, margin, den, overlaps, lens)

    A valid point has reason None, AB, the radii sum and the margin in feet
    as ab/den, radii/den and margin/den, and the lens area in square feet.
    An invalid point has the reason that Scenario would raise (or that
    lens_area raised), and None in every later slot.
    """
    for labels, (r, L, d, E, rA, rB) in points:
        reason = scenario_violation(r, L, d, E, rA, rB, from_trunk)
        if reason is not None:
            yield labels, reason, None, None, None, None, None, None
            continue
        drop = r + L
        ab = d * (r + E if from_trunk else drop + E)
        radii = (rA + rB) * drop
        margin = ab - radii
        den = drop * foot
        overlaps = margin < 0
        # margin >= 0 means zero intersection exactly: no float rounding is
        # allowed to say otherwise.
        lens = 0.0
        if overlaps:
            # Containment is decided on the ints: at exact internal tangency
            # the float test inside lens_area can miss it.  Distance 0 takes
            # lens_area's full-disc branch, input checks included.  Every
            # float is an int true division, correctly rounded.
            # A radius in feet that underflows to 0.0 leaves lens at 0.0: the
            # true area, below pi times that radius squared, is smaller than
            # the smallest float.
            radius_a, radius_b = rA / foot, rB / foot
            if radius_a and radius_b:
                distance = 0.0 if ab <= abs(rA - rB) * drop else ab / den
                try:
                    lens = lens_area(distance, radius_a, radius_b)
                except DomainError as exc:
                    yield labels, str(exc), None, None, None, None, None, None
                    continue
        yield labels, None, ab, radii, margin, den, overlaps, lens


def lens_area(distance: float, radius_a: float, radius_b: float) -> float:
    """Intersection area of two circles a given centre distance apart.

    Standard two-circle lens: zero when separated or tangent, the full
    smaller circle when contained, otherwise two circular segments.
    """
    for name, value in (
        ("distance", distance),
        ("radius_a", radius_a),
        ("radius_b", radius_b),
    ):
        if not math.isfinite(value):
            raise DomainError(f"lens_area {name} must be finite, got {value!r}")
    if distance < 0:
        raise DomainError("lens_area distance must be >= 0")
    if radius_a <= 0 or radius_b <= 0:
        raise DomainError("lens_area radii must be > 0")
    if max(distance, radius_a, radius_b) > 1e150:
        raise DomainError("lens_area inputs too large: the area would overflow")

    if distance >= radius_a + radius_b:
        return 0.0
    full = math.pi * min(radius_a, radius_b) ** 2
    if distance <= abs(radius_a - radius_b):
        return full

    # Work in units of the larger radius so squares neither overflow nor
    # underflow whatever the caller's scale.
    s = max(radius_a, radius_b)
    d, ra, rb = distance / s, radius_a / s, radius_b / s
    d2 = d * d
    if d2 == 0.0:
        # Separation below sqrt-underflow: indistinguishable from containment.
        return full
    a2 = ra * ra
    b2 = rb * rb
    # Clamp acos arguments: they can drift a few ulp past +-1 near tangency.
    cos_a = min(1.0, max(-1.0, (d2 + a2 - b2) / (2.0 * d * ra)))
    cos_b = min(1.0, max(-1.0, (d2 + b2 - a2) / (2.0 * d * rb)))
    kernel = (-d + ra + rb) * (d + ra - rb) * (d - ra + rb) * (d + ra + rb)
    area = (s * s) * (
        a2 * math.acos(cos_a)
        + b2 * math.acos(cos_b)
        - 0.5 * math.sqrt(max(0.0, kernel))
    )
    # Near internal tangency the segment sum can round past the full disc.
    return min(area, full)


def nonoverlap_threshold(
    radius_a: Length,
    radius_b: Length,
    separation: Length = DEFAULT_SOCKET_SEPARATION,
    extension: Length = DEFAULT_EXTENSION,
) -> Threshold:
    """Supremum of r+L keeping the holes apart (drop-point convention).

    AB = d + d*E/(r+L), so with S = rA+rB the holes never overlap when
    S <= d; otherwise non-overlap holds exactly up to r+L = d*E/(S-d).
    At the canonical d and E this is 250/(24*S-5) feet.
    """
    _check_threshold_inputs(radius_a, radius_b, separation, extension)
    radii_sum = radius_a.feet + radius_b.feet
    sep = separation.feet
    if radii_sum <= sep:
        return Threshold(ThresholdKind.ALWAYS_NONOVERLAP)
    bound = sep * extension.feet / (radii_sum - sep)
    return Threshold(ThresholdKind.FINITE, bound)


def nonoverlap_threshold_from_trunk(
    trunk_radius: Length,
    radius_a: Length,
    radius_b: Length,
    separation: Length = DEFAULT_SOCKET_SEPARATION,
    extension: Length = DEFAULT_EXTENSION,
) -> Threshold:
    """Supremum of r+L under the from-trunk convention, at fixed r.

    Here AB = d*(r+E)/(r+L) falls to zero as r+L grows, so the bound
    d*(r+E)/S is always finite (and degenerates to 0 when r+E = 0).
    """
    _check_threshold_inputs(radius_a, radius_b, separation, extension)
    if trunk_radius.inches < 0:
        raise DomainError("trunk radius (r) must be >= 0")
    radii_sum = radius_a.feet + radius_b.feet
    bound = separation.feet * (trunk_radius.feet + extension.feet) / radii_sum
    return Threshold(ThresholdKind.FINITE, bound)


def max_l_for_nonoverlap(
    trunk_radius: Length,
    radius_a: Length,
    radius_b: Length,
    separation: Length = DEFAULT_SOCKET_SEPARATION,
    extension: Length = DEFAULT_EXTENSION,
    convention: Convention = Convention.FROM_DROP_POINT,
) -> Threshold:
    """Bound on the socket offset L alone: the r+L bound minus r."""
    if convention is Convention.FROM_TRUNK:
        base = nonoverlap_threshold_from_trunk(
            trunk_radius, radius_a, radius_b, separation, extension
        )
    else:
        base = nonoverlap_threshold(radius_a, radius_b, separation, extension)
        if trunk_radius.inches < 0:
            raise DomainError("trunk radius (r) must be >= 0")
    if base.kind is ThresholdKind.ALWAYS_NONOVERLAP:
        return base
    assert base.bound_ft is not None
    l_bound = base.bound_ft - trunk_radius.feet
    if l_bound <= 0:
        return Threshold(ThresholdKind.NO_VALID_L)
    return Threshold(ThresholdKind.FINITE, l_bound)


def _check_threshold_inputs(
    radius_a: Length, radius_b: Length, separation: Length, extension: Length
) -> None:
    if radius_a.inches <= 0 or radius_b.inches <= 0:
        raise DomainError("hole radii (rA, rB) must be > 0")
    if separation.inches <= 0:
        raise DomainError("socket separation (d) must be > 0")
    if extension.inches < 0:
        raise DomainError("extension (E) must be >= 0")


# ---------------------------------------------------------------------------
# Parameter sweeps
# ---------------------------------------------------------------------------

# Longest inner sweep axis whose labels are kept for reuse (a few MB).
_KEPT_LABELS = 10_000

# Called as label(axis, value) to tag each grid value in SweepGrid.rows.
Label = Callable[["SweepAxis", Length], Any]


@dataclass(frozen=True)
class SweepAxis:
    param: str
    start: Length
    stop: Length
    step: Length

    def count(self) -> int:
        """How many of start, start+step, start+2*step, ... are <= stop."""
        return (self.stop.inches - self.start.inches) // self.step.inches + 1


@dataclass(frozen=True)
class SweepRow:
    values: tuple[tuple[str, Length], ...]
    report: OverlapReport | None
    invalid_reason: str | None = None


@dataclass(frozen=True)
class SweepTable:
    axes: tuple[SweepAxis, ...]
    rows: tuple[SweepRow, ...]


class SweepGrid:
    """A checked sweep whose rows are computed in integer arithmetic.

    Every base and axis length is an integer count of 1/scale inch, scale
    being the least common denominator of the six base lengths and of the
    axis starts and steps, so a grid point is six ints and its verdict is an
    int comparison.  The constructor raises DomainError for anything that
    rejects the whole sweep, the row count included, before it builds a
    single grid value.
    """

    def __init__(self, base: Scenario, axes: Sequence[SweepAxis]) -> None:
        if not 1 <= len(axes) <= 2:
            raise DomainError(f"sweep takes 1 or 2 axes, got {len(axes)}")
        seen = set()
        for axis in axes:
            if axis.param not in SWEEP_PARAMS:
                raise DomainError(
                    f'unknown sweep parameter "{axis.param}" '
                    f"(expected one of {', '.join(SWEEP_PARAMS)})"
                )
            if axis.param in seen:
                raise DomainError(f'duplicate sweep parameter "{axis.param}"')
            seen.add(axis.param)
            if axis.step.inches <= 0:
                raise DomainError(f"sweep step for {axis.param} must be > 0")
            if axis.start.inches > axis.stop.inches:
                raise DomainError(f"sweep start > stop for {axis.param}")
        total = math.prod(axis.count() for axis in axes)
        if total > SWEEP_ROW_LIMIT:
            raise DomainError(f"sweep would produce {total} rows (limit {SWEEP_ROW_LIMIT})")
        self.base = base
        self.axes = tuple(axes)
        self.scale = math.lcm(
            base.scale, *(x.denominator for axis in axes for x in (axis.start, axis.step))
        )
        self._fields = [n * (self.scale // base.scale) for n in base.counts]

    def _count(self, x: Length) -> int:
        return x.numerator * (self.scale // x.denominator)

    def _labelled(self, axis: SweepAxis, label: Label) -> Iterator[tuple[int, Any]]:
        start, step = self._count(axis.start), self._count(axis.step)
        for value in range(start, start + axis.count() * step, step):
            yield value, label(axis, Length(Fraction(value, self.scale)))

    def _points(self, label: Label) -> Iterator[tuple[tuple, tuple[int, ...]]]:
        """(labels, (r, L, d, E, rA, rB)) per grid point, in lexicographic
        axis order.  Each outer value is labelled when the loop reaches it.
        Inner labels are made once and reused when the inner axis is at most
        _KEPT_LABELS long, and remade per row beyond that, so memory stays
        bounded whatever the grid."""
        fields = self._fields.copy()
        outer = self.axes[0]
        s0 = list(PARAMS).index(outer.param)
        if len(self.axes) == 1:
            for fields[s0], l0 in self._labelled(outer, label):
                yield (l0,), tuple(fields)
            return
        inner = self.axes[1]
        s1 = list(PARAMS).index(inner.param)
        kept = list(self._labelled(inner, label)) if inner.count() <= _KEPT_LABELS else None
        for fields[s0], l0 in self._labelled(outer, label):
            for fields[s1], l1 in kept or self._labelled(inner, label):
                yield (l0, l1), tuple(fields)

    def rows(self, label: Label) -> Iterator[tuple]:
        """Evaluate the grid lazily, one _verdicts tuple per point, whose
        ``labels`` holds ``label(axis, value)`` for each axis value of the
        point (see _points for how often label runs)."""
        from_trunk = self.base.convention is Convention.FROM_TRUNK
        return _verdicts(self._points(label), from_trunk, INCHES_PER_FOOT * self.scale)


def sweep(base: Scenario, axes: list[SweepAxis]) -> SweepTable:
    """Evaluate overlap reports on an exact rational grid.

    Rows come out in lexicographic axis order; a grid point that violates
    scenario invariants yields an invalid row with the reason rather than
    aborting the sweep.
    """
    grid = SweepGrid(base, axes)
    rows = []
    for values, reason, ab, radii, margin, den, overlaps, lens in grid.rows(
        lambda axis, x: (axis.param, x)
    ):
        if reason is not None:
            rows.append(SweepRow(values, None, reason))
            continue
        report = OverlapReport(
            ab_ft=Fraction(ab, den),
            radii_sum_ft=Fraction(radii, den),
            overlaps=overlaps,
            margin_ft=Fraction(margin, den),
            lens_area_sqft=lens,
            scenario=replace(base, **{SWEEP_PARAMS[p]: x for p, x in values}),
        )
        rows.append(SweepRow(values, report))
    return SweepTable(grid.axes, tuple(rows))


# ---------------------------------------------------------------------------
# Claim suite
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClaimResult:
    claim_id: str
    statement: str
    expected: str
    computed: str
    passed: bool


CLAIM_IDS = ("C1", "C2", "C3", "C4", "C5", "C6", "C7")

_TWO_FEET = Length.from_feet(2)
_TWO_INCHES = Length.from_inches(2)


def verify_claims(inject_failure: str | None = None) -> list[ClaimResult]:
    """Run the fixed claim suite C1-C7 and report pass/fail per claim.

    Failures are data, not exceptions.  ``inject_failure`` forcibly fails
    the named claim so harnesses can prove failures propagate.
    """
    if inject_failure is not None and inject_failure not in CLAIM_IDS:
        raise DomainError(
            f'unknown claim id "{inject_failure}" (expected one of {", ".join(CLAIM_IDS)})'
        )
    results = [
        _claim_c1(),
        _claim_c2(),
        _claim_c3(),
        _claim_c4(),
        _claim_c5(),
        _claim_c6(),
        _claim_c7(),
    ]
    if inject_failure is not None:
        results = [
            replace(r, computed="INJECTED-FAULT", passed=False)
            if r.claim_id == inject_failure
            else r
            for r in results
        ]
    return results


def _claim_c1() -> ClaimResult:
    expected = Fraction(250, 91)
    got = nonoverlap_threshold(_TWO_FEET, _TWO_FEET)
    ok = got.kind is ThresholdKind.FINITE and got.bound_ft == expected
    return ClaimResult(
        "C1",
        "two 2 ft holes stay apart only while r+L < 250/91 ft",
        format_exact_feet(expected),
        format_exact_feet(got.bound_ft) if got.bound_ft is not None else got.kind.value,
        ok,
    )


def _claim_c2() -> ClaimResult:
    got = format_feet_inches(Length.from_feet(Fraction(250, 91)))
    return ClaimResult(
        "C2",
        "250/91 ft rounds to 2'9\" at whole-inch display",
        "2'9\"",
        got,
        got == "2'9\"",
    )


def _claim_c3() -> ClaimResult:
    expected = Fraction(1409, 546)
    got = max_l_for_nonoverlap(_TWO_INCHES, _TWO_FEET, _TWO_FEET)
    exact_ok = got.kind is ThresholdKind.FINITE and got.bound_ft == expected
    formatted = (
        format_feet_inches(Length.from_feet(got.bound_ft))
        if got.bound_ft is not None
        else got.kind.value
    )
    computed = (
        f"{format_exact_feet(got.bound_ft)} -> {formatted}"
        if got.bound_ft is not None
        else got.kind.value
    )
    return ClaimResult(
        "C3",
        "with a 2 in trunk the socket offset must stay below 1409/546 ft, i.e. 2'7\"",
        f"{format_exact_feet(expected)} -> 2'7\"",
        computed,
        exact_ok and formatted == "2'7\"",
    )


def _claim_c4() -> ClaimResult:
    # Deferred import: the oracle module is the independent verification
    # route and must not be a dependency of the closed forms themselves.
    from .oracle import center_distance_oracle, random_scenarios

    count = 10_000
    max_rel = 0.0
    for s in random_scenarios(count, seed=1843):
        closed = float(center_distance(s))
        coord = center_distance_oracle(s)
        rel = abs(closed - coord) / closed
        if rel > max_rel:
            max_rel = rel
    return ClaimResult(
        "C4",
        "closed-form centre distance matches the coordinate construction "
        f"to 1e-12 relative over {count} random scenarios",
        "max relative deviation < 1e-12",
        f"max relative deviation {max_rel:.3e}",
        max_rel < 1e-12,
    )


def _claim_c5() -> ClaimResult:
    radii = [Length.from_inches(Fraction(n)) for n in range(2, 14)]
    offsets = [Length.from_inches(Fraction(n)) for n in range(36, 121)]
    total = 0
    overlapping = 0
    for trunk_radius in radii:
        for socket_offset in offsets:
            total += 1
            s = Scenario(trunk_radius=trunk_radius, socket_offset=socket_offset)
            if overlap_report(s).overlaps:
                overlapping += 1
    return ClaimResult(
        "C5",
        "every plausible layout (r >= 2 in, L >= 3 ft, 2 ft holes) overlaps; "
        "grid r in [2 in, 13 in], L in [3 ft, 10 ft], 1 in steps",
        f"{total}/{total} overlap",
        f"{overlapping}/{total} overlap",
        overlapping == total and total == 12 * 85,
    )


def _claim_c6() -> ClaimResult:
    radii_b = [Length.from_feet(Fraction(q)) for q in ("2", "9/4", "5/2", "3")]
    bounds = [nonoverlap_threshold(_TWO_FEET, rb).bound_ft for rb in radii_b]
    ok = all(b is not None for b in bounds) and all(
        bounds[i] > bounds[i + 1] for i in range(len(bounds) - 1)
    )
    return ClaimResult(
        "C6",
        "growing the second hole past 2 ft only tightens the r+L bound",
        "strictly decreasing bounds for rB in {2, 2.25, 2.5, 3} ft",
        " > ".join(format_exact_feet(b) for b in bounds if b is not None),
        ok,
    )


def _claim_c7() -> ClaimResult:
    from_drop = max_l_for_nonoverlap(
        _TWO_INCHES, _TWO_FEET, _TWO_FEET, convention=Convention.FROM_DROP_POINT
    )
    from_trunk = max_l_for_nonoverlap(
        _TWO_INCHES, _TWO_FEET, _TWO_FEET, convention=Convention.FROM_TRUNK
    )
    ok = (
        from_drop.bound_ft == Fraction(1409, 546)
        and from_trunk.bound_ft == Fraction(1409, 576)
        and from_trunk.bound_ft < from_drop.bound_ft
    )
    computed = (
        f"{format_exact_feet(from_trunk.bound_ft)} < {format_exact_feet(from_drop.bound_ft)}"
        if from_trunk.bound_ft is not None and from_drop.bound_ft is not None
        else f"{from_trunk.kind.value} vs {from_drop.kind.value}"
    )
    return ClaimResult(
        "C7",
        "measuring the 50 ft from the trunk forces a smaller socket offset "
        "than measuring from the drop points",
        "1409/576 ft < 1409/546 ft",
        computed,
        ok,
    )
