"""Dig-layout parameters and exact plan-view geometry.

A scenario is one configuration of the treasure dig: a tree trunk of radius
``trunk_radius``, two skull eye sockets hanging ``socket_offset`` beyond the
trunk surface and ``socket_separation`` apart, and two holes dug where the
rays from the tree centre through the drop points reach ``extension`` further
out.  The centre distance between the holes follows from similar triangles,

    AB = separation * D / (trunk_radius + socket_offset)

where D is the ray length to a hole centre: trunk_radius + socket_offset +
extension when the extension is measured from the drop points (the default),
or trunk_radius + extension when measured from the trunk surface.  This
rational form is exact; the trigonometric coordinate construction lives in
:func:`layout` and must agree with it numerically.
"""

from __future__ import annotations

import enum
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple

from .units import INCHES_PER_FOOT, DomainError, Length, parse_length


class Convention(enum.Enum):
    """Where the extension distance is measured from."""

    FROM_DROP_POINT = "from-drop-point"
    FROM_TRUNK = "from-trunk"


# Canonical story constants: sockets 2.5" apart, holes dug 50' out, first
# hole 4' across.
DEFAULT_SOCKET_SEPARATION = parse_length("2.5in")
DEFAULT_EXTENSION = parse_length("50ft")
DEFAULT_HOLE_RADIUS = parse_length("2ft")

# The six lengths by short name (CLI flag, config key, JSON key) -> Scenario
# field, in the order scenario_violation takes them.
PARAMS = {
    "r": "trunk_radius",
    "L": "socket_offset",
    "d": "socket_separation",
    "E": "extension",
    "rA": "hole_radius_a",
    "rB": "hole_radius_b",
}
_PARAM_LENGTHS = operator.attrgetter(*PARAMS.values())


def scenario_violation(r, L, d, E, rA, rB, from_trunk: bool) -> str | None:
    """Why a dig layout is invalid, or None when it is valid.

    The six lengths may be in any one unit (Fractions of an inch, or ints
    counting a common fraction of an inch): only signs and comparisons
    matter.  This is the single rule set behind :class:`Scenario` and the
    sweep kernel, checked in this order.
    """
    if r < 0:
        return "trunk radius (r) must be >= 0"
    if L <= 0:
        return "socket offset (L) must be > 0"
    if d <= 0:
        return "socket separation (d) must be > 0"
    if E < 0:
        return "extension (E) must be >= 0"
    if rA <= 0:
        return "first hole radius (rA) must be > 0"
    if rB <= 0:
        return "second hole radius (rB) must be > 0"
    if d > 2 * (r + L):
        return (
            "socket separation (d) exceeds the drop-point diameter: "
            "d/2 must be <= r+L"
        )
    if from_trunk and not r + E > 0:
        return "from-trunk convention requires r+E > 0"
    return None


@dataclass(frozen=True)
class Scenario:
    """One dig layout; immutable and validated on construction.

    ``counts`` holds the six lengths, in PARAMS order, as ints counting
    1/``scale`` inch, ``scale`` being the least common denominator of their
    inch values.  Both are derived, set once on construction, and take no
    part in repr, equality or hashing.
    """

    trunk_radius: Length
    socket_offset: Length
    socket_separation: Length = DEFAULT_SOCKET_SEPARATION
    extension: Length = DEFAULT_EXTENSION
    hole_radius_a: Length = DEFAULT_HOLE_RADIUS
    hole_radius_b: Length = DEFAULT_HOLE_RADIUS
    convention: Convention = Convention.FROM_DROP_POINT
    scale: int = field(init=False, repr=False, compare=False)
    counts: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        ratios = [x.inches.as_integer_ratio() for x in _PARAM_LENGTHS(self)]
        scale = math.lcm(*[den for _, den in ratios])
        counts = tuple([num * (scale // den) for num, den in ratios])
        reason = scenario_violation(*counts, self.convention is Convention.FROM_TRUNK)
        if reason is not None:
            raise DomainError(reason)
        object.__setattr__(self, "scale", scale)
        object.__setattr__(self, "counts", counts)

    @property
    def drop_radius(self) -> Length:
        """Distance from the tree centre to each drop point (r+L)."""
        return self.trunk_radius + self.socket_offset

    @property
    def radii_sum(self) -> Length:
        return self.hole_radius_a + self.hole_radius_b


class Point(NamedTuple):
    x: float
    y: float


@dataclass(frozen=True)
class Layout:
    """Plan-view coordinates (feet) of the five figure points.

    The tree centre sits at the origin and the layout is mirror-symmetric
    about the x-axis: drop point a and dig centre A carry positive y, their
    counterparts b and B negative y.
    """

    tree_center: Point
    drop_a: Point
    drop_b: Point
    dig_a: Point
    dig_b: Point
    sin_half_angle: Fraction
    half_angle_rad: float


def half_angle_sin(s: Scenario) -> Fraction:
    """Exact sine of the half-angle between the two rays: (d/2)/(r+L)."""
    r, L, d, *_ = s.counts
    return Fraction(d, 2 * (r + L))


def dig_center_radius(s: Scenario) -> Length:
    """Ray length D from the tree centre to each hole centre."""
    if s.convention is Convention.FROM_TRUNK:
        return s.trunk_radius + s.extension
    return s.drop_radius + s.extension


def center_distance(s: Scenario) -> Fraction:
    """Exact hole-centre distance AB in feet, via similar triangles.

    AB = 2*D*sin(theta) collapses to d*D/(r+L) with no trigonometry, so the
    result is an exact rational and overlap verdicts need no tolerance.
    """
    r, L, d, E, _, _ = s.counts
    drop = r + L
    ray = (r if s.convention is Convention.FROM_TRUNK else drop) + E
    return Fraction(d * ray, INCHES_PER_FOOT * drop * s.scale)


def _dig_frame(s: Scenario) -> tuple[float, float, float]:
    """The floats every layout point is made of: (drop_x, half_sep, stretch).

    Drop points sit at (drop_x, +-half_sep) ft and dig centres at those
    coordinates times stretch = D/(r+L).  :func:`layout` and the oracles
    build their points from it; the cosine enters only drop_x, which only
    :func:`layout` reads.
    """
    # Every float below is an int true division, so it is the correctly
    # rounded value of its exact ratio (the same float as float(Fraction)).
    r, L, d, E, _, _ = s.counts
    drop = r + L
    ray = (r if s.convention is Convention.FROM_TRUNK else drop) + E
    foot = INCHES_PER_FOOT * s.scale
    drop2 = 4 * drop * drop
    # cos(theta) = sqrt(1 - sin^2) with sin(theta) = (d/2)/(r+L).
    cos_t = math.sqrt((drop2 - d * d) / drop2)
    return drop / foot * cos_t, d / (2 * foot), ray / drop


def layout(s: Scenario) -> Layout:
    """Coordinate construction of the dig site (the trig route).

    Drop points are placed at ((r+L)cos(theta), +-d/2) and dig centres by
    scaling them from the origin by D/(r+L).  Kept deliberately independent
    of :func:`center_distance` so the two can cross-check each other.
    """
    drop_x, half_sep, stretch = _dig_frame(s)
    sin_half_angle = half_angle_sin(s)
    drop_a = Point(drop_x, half_sep)
    drop_b = Point(drop_x, -half_sep)
    return Layout(
        tree_center=Point(0.0, 0.0),
        drop_a=drop_a,
        drop_b=drop_b,
        dig_a=Point(drop_a.x * stretch, drop_a.y * stretch),
        dig_b=Point(drop_b.x * stretch, drop_b.y * stretch),
        sin_half_angle=sin_half_angle,
        half_angle_rad=math.asin(sin_half_angle),
    )
