"""The benchmark's own geometry, written apart from the goldbug package.

Every input the benchmark generates is an exact rational number of inches,
so the checks can recompute each answer here: exact scenario validity, the
similar-triangles identity, a trigonometric centre distance and a lens area
integrated by Gauss-Legendre quadrature.  Nothing here imports goldbug or
numpy, so importing this module does not change what the program's own
start-up costs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

FT = 12  # inches per foot

DROP = "from-drop-point"
TRUNK = "from-trunk"

# The story's defaults, in inches.
DEFAULT_D = Fraction(5, 2)
DEFAULT_E = Fraction(600)
DEFAULT_R_HOLE = Fraction(24)


@dataclass(frozen=True)
class Site:
    """One dig layout in exact inches, as the benchmark generated it."""

    r: Fraction
    L: Fraction
    d: Fraction = DEFAULT_D
    E: Fraction = DEFAULT_E
    rA: Fraction = DEFAULT_R_HOLE
    rB: Fraction = DEFAULT_R_HOLE
    convention: str = DROP

    def invalid_reason(self) -> str | None:
        """The first scenario rule this layout breaks, or None."""
        if self.r < 0:
            return "r < 0"
        if self.L <= 0:
            return "L <= 0"
        if self.d <= 0:
            return "d <= 0"
        if self.E < 0:
            return "E < 0"
        if self.rA <= 0 or self.rB <= 0:
            return "hole radius <= 0"
        if self.d > 2 * (self.r + self.L):
            return "d > 2(r+L)"
        if self.convention == TRUNK and self.r + self.E <= 0:
            return "r+E <= 0"
        return None

    @property
    def ray(self) -> Fraction:
        """D, the distance from the tree centre to each hole centre."""
        if self.convention == TRUNK:
            return self.r + self.E
        return self.r + self.L + self.E

    @property
    def radii_sum(self) -> Fraction:
        return self.rA + self.rB

    def ab_exact(self) -> Fraction:
        """AB in inches from AB·(r+L) = d·D."""
        return self.d * self.ray / (self.r + self.L)

    def ab_trig_ft(self) -> float:
        """AB in feet as 2·D·sin θ, with θ from the right triangle at a drop point."""
        half = self.d / 2
        drop = self.r + self.L
        adjacent = math.sqrt(drop * drop - half * half)
        theta = math.atan2(float(half), adjacent)
        return 2.0 * float(self.ray / FT) * math.sin(theta)

    def lens_sqft(self) -> float:
        return lens_area(self.ab_exact() / FT, self.rA / FT, self.rB / FT)


def _gauss_legendre(n: int) -> list[tuple[float, float]]:
    """Nodes and weights on [-1, 1], by Newton's method on P_n."""
    out = []
    for i in range(1, n + 1):
        x = math.cos(math.pi * (i - 0.25) / (n + 0.5))
        for _ in range(100):
            p0, p1 = 1.0, x
            for k in range(2, n + 1):
                p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
            dp = n * (x * p1 - p0) / (x * x - 1.0)
            step = p1 / dp
            x -= step
            if abs(step) < 1e-16:
                break
        out.append((x, 2.0 / ((1.0 - x * x) * dp * dp)))
    return out


_NODES = _gauss_legendre(24)


def _segment(radius: Fraction, offset: Fraction) -> float:
    """Area of the part of a circle beyond a chord `offset` from its centre.

    The integrand 2·sqrt(R²−u²) du becomes 2·R²·sin²φ dφ under u = R·cos φ,
    which is smooth, so 24-point Gauss-Legendre meets double precision.  The
    angle comes from exact sin² and cos, so it stays accurate near tangency.
    """
    cos_top = offset / radius
    top = math.atan2(math.sqrt(1 - cos_top * cos_top), float(cos_top))
    half = top / 2.0
    total = 0.0
    for x, w in _NODES:
        s = math.sin(half * (x + 1.0))
        total += w * s * s
    return 2.0 * float(radius) ** 2 * half * total


def lens_area(distance: Fraction, ra: Fraction, rb: Fraction) -> float:
    """Intersection area of two circles given by exact lengths, as the sum
    of two circular segments."""
    if distance >= ra + rb:
        return 0.0
    if distance <= abs(ra - rb):
        return math.pi * float(min(ra, rb)) ** 2
    along_a = (distance * distance + ra * ra - rb * rb) / (2 * distance)
    return _segment(ra, along_a) + _segment(rb, distance - along_a)

