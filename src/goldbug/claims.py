"""The claim suite: C1-C7, the paper's numbers re-derived and checked.

Only ``goldbug verify-paper`` runs it, so it lives apart from the closed
forms in :mod:`goldbug.analysis` and no other command imports it.  It
calls the closed forms through their modules (``analysis.overlap_report``,
``scenario.center_distance``), never through names of its own, so a wrapper
bound in those modules, such as goldbench's tracer, sees every call.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

from . import analysis, scenario
from .analysis import ThresholdKind
from .scenario import Convention, Scenario
from .units import DomainError, Length, format_exact_feet, format_feet_inches


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
    got = analysis.nonoverlap_threshold(_TWO_FEET, _TWO_FEET)
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
    got = analysis.max_l_for_nonoverlap(_TWO_INCHES, _TWO_FEET, _TWO_FEET)
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
        closed = float(scenario.center_distance(s))
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
            if analysis.overlap_report(s).overlaps:
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
    bounds = [analysis.nonoverlap_threshold(_TWO_FEET, rb).bound_ft for rb in radii_b]
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
    from_drop = analysis.max_l_for_nonoverlap(
        _TWO_INCHES, _TWO_FEET, _TWO_FEET, convention=Convention.FROM_DROP_POINT
    )
    from_trunk = analysis.max_l_for_nonoverlap(
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
