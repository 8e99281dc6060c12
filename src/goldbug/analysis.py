"""Overlap verdicts, non-overlap thresholds, and the lens area.

Verdicts and thresholds are computed in exact rational arithmetic (feet), so
tangency and threshold boundaries are decided without tolerances.  Tangency
counts as NOT overlapping: the non-overlap condition is the strict AB > rA+rB,
so overlap is the strict complement AB < rA+rB and equality lands on the
non-overlap side.  Floating point enters only for the lens area, which
quantifies how badly overlapping holes merge.

The sweeps live in :mod:`goldbug.sweeps` and the claim suite in
:mod:`goldbug.claims`, which only ``goldbug sweep`` and ``goldbug
verify-paper`` import.  Their public names are still served from here: the
first access to one (``analysis.sweep``, ``from goldbug.analysis import
verify_claims``) imports its module and binds the name in this module's
globals, where goldbench's tracer reads it.
"""

from __future__ import annotations

import enum
import math
import sys
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from fractions import Fraction

# center_distance is unused here but stays bound: goldbench's tracer wraps
# the name in this module too.
from .scenario import (  # noqa: F401
    DEFAULT_EXTENSION,
    DEFAULT_SOCKET_SEPARATION,
    PARAMS,
    Convention,
    Scenario,
    center_distance,
    scenario_violation,
)
from .units import INCHES_PER_FOOT, DomainError, Length

# The parameters a sweep axis can vary: every length but the separation d.
# Here rather than in sweeps because every command's --help lists them.
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


# Names that moved to goldbug.sweeps and goldbug.claims, by new home.
_MOVED = {
    **dict.fromkeys(
        ("SWEEP_ROW_LIMIT", "SweepAxis", "SweepGrid", "SweepRow", "SweepTable", "sweep"),
        "sweeps",
    ),
    **dict.fromkeys(("CLAIM_IDS", "ClaimResult", "verify_claims"), "claims"),
}


def __getattr__(name: str):
    home = _MOVED.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # The import statement's machinery, which -X importtime logs.
    __import__(f"{__package__}.{home}")
    value = globals()[name] = getattr(sys.modules[f"{__package__}.{home}"], name)
    return value
