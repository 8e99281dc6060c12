"""Independent brute-force verifiers for the closed-form geometry.

Three routes that deliberately avoid the rational shortcuts: a trigonometric
coordinate distance, a seeded Monte Carlo lens-area estimator, and a
conservative grid rasterizer for the overlap verdict.

The Monte Carlo stream is numpy's PCG64 (``numpy.random.default_rng``) drawn
in fixed chunks of 1,000,000 samples, each chunk its radii then its angles;
these choices are part of the golden contract and must never change
silently.  The kernel reads each chunk through two cursors on that one
stream, one at the radii and one at the angles, in blocks of ``_BLOCK``
samples, so its memory is O(``_BLOCK``) whatever ``samples`` is, and the
estimate does not depend on the block size.  Its hit test is a float32 screen
that decides every sample clear of disc B's boundary, plus an exact float64
recheck of the few samples near it, so estimates equal those of the plain
float64 loop bit for bit.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .scenario import Convention, Scenario, layout
from .units import INCHES_PER_FOOT, DomainError, Length

MC_CHUNK = 1_000_000
# lens_area_mc reads each chunk in blocks of this many samples: 1.75 MB of
# buffers, within one core's L2.  It sets memory use only, never the estimate.
_BLOCK = 1 << 16
# lens_area_mc's float32 screen: its band half-width, in units of s^2, and the
# smallest squared length it trusts float64 to carry at full precision.
_SCREEN_TAU = 2.0**-12
_SCREEN_TINY = 1e-280


@dataclass(frozen=True)
class McEstimate:
    value: float
    std_error: float
    samples: int
    seed: int


def center_distance_oracle(s: Scenario) -> float:
    """Hole-centre distance via coordinates only (no rational shortcut)."""
    lay = layout(s)
    return math.hypot(lay.dig_a.x - lay.dig_b.x, lay.dig_a.y - lay.dig_b.y)


def lens_area_mc(
    distance: float,
    radius_a: float,
    radius_b: float,
    samples: int,
    seed: int,
) -> McEstimate:
    """Monte Carlo lens area: uniform points in disk A, hits land in B too.

    The estimate is hit_rate * area(A) with the matching binomial standard
    error; identical (seed, samples) reproduce the estimate bit for bit.
    """
    if samples < 1_000:
        raise DomainError(f"need at least 1000 samples, got {samples}")
    if radius_a <= 0 or radius_b <= 0:
        raise DomainError("radii must be > 0")
    if not all(math.isfinite(v) for v in (distance, radius_a, radius_b)):
        raise DomainError("inputs must be finite")
    # lens_area's cap: beyond it pi * radius^2 can overflow.
    if max(abs(distance), radius_a, radius_b) > 1e150:
        raise DomainError("inputs too large: the area would overflow")

    rb2 = radius_b * radius_b
    # Float32 screen.  Lengths are scaled by s = radius_a + |distance|, so a
    # sample's squared distance to B's centre is q = |P - B|^2 / s^2 <= 1,
    # and it is a hit when q <= rb^2 / s^2.  The screen's q' differs from the
    # exact q by less than about 6e-6 (~2^-17): float32 rounding of rho, of
    # theta (< 2^-22 absolute on [0, 2pi)) and of each product and sum, plus
    # numpy's <= 1.5 ulp float32 sin/cos.  Rounding the cut-offs to float32
    # adds at most 2^-18 while rb < 8s (rb^2 / s^2 < 64), and the float64
    # path below is within about 1e-15 of q.  So with tau = 2^-12 every
    # verdict the screen gives (q' < lo: hit, q' > hi: miss) is the one the
    # float64 expressions give, with more than 20x to spare.  The samples in
    # [lo, hi] are recomputed with those float64 expressions.  Scales whose
    # squares overflow or come near the subnormal range, and discs B more
    # than 8s wide, get tau = inf: every sample takes the exact path.
    s = radius_a + abs(distance)
    s2 = s * s
    if _SCREEN_TINY <= min(s2, rb2) and max(s2, rb2) < math.inf and radius_b < 8.0 * s:
        lo, hi = rb2 / s2 - _SCREEN_TAU, rb2 / s2 + _SCREEN_TAU
    else:
        lo, hi = -math.inf, math.inf
    lo32, hi32 = np.float32(lo), np.float32(hi)
    ra_s, d_s = np.float32(radius_a / s), np.float32(distance / s)

    # Draw order (a chunk's radii, then its angles) is fixed: it defines the
    # stream.  Two cursors read it block by block: u at a chunk's radii and
    # v, advanced past them, at its angles.  After the chunk u skips the
    # angles v read, so both sit at the next chunk's start.
    u_gen = np.random.default_rng(seed)
    v_gen = np.random.Generator(np.random.PCG64(seed))
    size = min(_BLOCK, samples)
    u_buf, v_buf = np.empty(size), np.empty(size)
    rho_buf, theta_buf, q_buf = (np.empty(size, np.float32) for _ in range(3))
    hits = 0
    done = 0
    while done < samples:
        n = min(MC_CHUNK, samples - done)
        v_gen.bit_generator.advance(n)
        for start in range(0, n, _BLOCK):
            m = min(_BLOCK, n - start)
            u = u_gen.random(m, out=u_buf[:m])
            v = v_gen.random(m, out=v_buf[:m])
            rho = rho_buf[:m]
            rho[...] = u
            np.sqrt(rho, out=rho)
            rho *= ra_s
            theta = np.multiply(v, 2.0 * math.pi, out=theta_buf[:m])
            q = np.cos(theta, out=q_buf[:m])
            q *= rho
            q -= d_s
            q *= q
            y2 = np.sin(theta, out=theta)
            y2 *= rho
            y2 *= y2
            q += y2
            hits += int(np.count_nonzero(q < lo32))
            band = np.flatnonzero((q >= lo32) & (q <= hi32))
            # Exact recheck: the same elementwise float64 expressions as over
            # the whole chunk, so each verdict is the one they would give there.
            radii = radius_a * np.sqrt(u[band])
            angles = (2.0 * math.pi) * v[band]
            dx = radii * np.cos(angles) - distance
            dy = radii * np.sin(angles)
            hits += int(np.count_nonzero(dx * dx + dy * dy <= rb2))
        u_gen.bit_generator.advance(n)
        done += n

    area_a = math.pi * radius_a * radius_a
    rate = hits / samples
    return McEstimate(
        value=rate * area_a,
        std_error=math.sqrt(rate * (1.0 - rate) / samples) * area_a,
        samples=samples,
        seed=seed,
    )


def overlap_oracle_grid(s: Scenario, cells_per_foot: int) -> bool:
    """Conservative raster check: True only if a cell centre lies strictly
    inside both dig circles.

    One-sided by design: overlaps thinner than a cell can be missed, but a
    True verdict always certifies a real intersection.  Cells cover the
    intersection of the two circles' bounding boxes (anywhere else a point
    cannot be inside both), anchored at that region's corner, in a frame
    centred between the holes so huge scenes keep full float precision.
    """
    if cells_per_foot < 16:
        raise DomainError(f"cells_per_foot must be >= 16, got {cells_per_foot}")
    lay = layout(s)
    mid_x = (lay.dig_a.x + lay.dig_b.x) / 2.0
    mid_y = (lay.dig_a.y + lay.dig_b.y) / 2.0
    ax, ay = lay.dig_a.x - mid_x, lay.dig_a.y - mid_y
    bx, by = lay.dig_b.x - mid_x, lay.dig_b.y - mid_y
    *_, rA, rB = s.counts
    foot = INCHES_PER_FOOT * s.scale
    ra, rb = rA / foot, rB / foot

    lo_x = max(ax - ra, bx - rb)
    hi_x = min(ax + ra, bx + rb)
    lo_y = max(ay - ra, by - rb)
    hi_y = min(ay + ra, by + rb)
    if lo_x >= hi_x or lo_y >= hi_y:
        return False

    step = 1.0 / cells_per_foot
    nx = max(1, math.ceil((hi_x - lo_x) / step))
    ny = max(1, math.ceil((hi_y - lo_y) / step))
    xs = lo_x + (np.arange(nx) + 0.5) * step
    ys = lo_y + (np.arange(ny) + 0.5) * step
    # A sparse grid: a row of x and a column of y, broadcast together.
    gx, gy = xs, ys[:, np.newaxis]

    in_a = (gx - ax) ** 2 + (gy - ay) ** 2 < ra * ra
    in_b = (gx - bx) ** 2 + (gy - by) ** 2 < rb * rb
    return bool(np.any(in_a & in_b))


def random_scenarios(count: int, seed: int) -> list[Scenario]:
    """Deterministic stream of valid scenarios with small exact rationals.

    Uses the stdlib Mersenne Twister (`random.Random`), which is stable
    across platforms and Python versions for `randint`/`choice`.
    """
    rng = random.Random(seed)
    conventions = (Convention.FROM_DROP_POINT, Convention.FROM_TRUNK)
    out: list[Scenario] = []
    while len(out) < count:
        # Arguments are drawn left to right: that order defines the stream.
        try:
            s = Scenario(
                trunk_radius=_random_length(rng, 0, 96),
                socket_offset=_random_length(rng, 1, 120),
                socket_separation=_random_length(rng, 1, 48),
                extension=Length(Fraction(rng.randint(0, 1200))),
                hole_radius_a=_random_length(rng, 1, 72),
                hole_radius_b=_random_length(rng, 1, 72),
                convention=conventions[rng.randint(0, 1)],
            )
        except DomainError:
            continue
        out.append(s)
    return out


def _random_length(rng: random.Random, lo: int, hi: int) -> Length:
    return Length(Fraction(rng.randint(lo, hi), rng.randint(1, 4)))
