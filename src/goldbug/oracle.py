"""Brute-force verifiers for the closed-form geometry.

Three routes beside the rational closed forms: a float coordinate distance,
a seeded Monte Carlo lens-area estimator, and a conservative grid rasterizer
for the overlap verdict.  The distance and the rasterizer place the dig
centres at (0, +-h), h = half_sep * stretch from ``scenario._dig_frame``, in
the mirror-symmetric frame centred between them.  So the distance is
``2 * (half_sep * stretch)``: the similar-triangles AB, d/2 * D/(r+L) twice,
in float arithmetic and with no trigonometry (the frame's cosine feeds only
:func:`~goldbug.scenario.layout`).  ROADMAP item 2 restores a trig route.

The Monte Carlo stream is numpy's PCG64 (``numpy.random.default_rng``) drawn
in fixed chunks of 1,000,000 samples, each chunk its radii then its angles;
these choices are part of the golden contract and must never change
silently.  The kernel reads each chunk through two cursors on that one
stream, one at the radii and one at the angles, in blocks of ``_BLOCK``
samples, so its memory is O(``_BLOCK``) whatever ``samples`` is, and the
estimate does not depend on the block size.  Its hit test is a float32
screen, the law of cosines with the centre-distance term folded into its
cut-offs (one cos per sample, no sin), that decides every sample clear of
disc B's boundary, plus an exact float64 recheck of the few samples near
it, so estimates equal those of the plain float64 loop bit for bit.

A call of 16 or more blocks is counted in spans of whole blocks, one span
per CPU the process may run on (``taskset`` limits them) and each at least
8 blocks long: the caller counts the first span and a thread each of the
others, every thread is joined before the call returns, and the integer
hits are summed.  Each span opens its own cursors on the stream, so the
estimate does not depend on the CPU count.
"""

from __future__ import annotations

import functools
import math
import operator
import os
import random
import threading
from dataclasses import dataclass
from fractions import Fraction

# layout stays bound here although the oracles build their points from
# _dig_frame: goldbench's tracer wraps the name in this module too.
from .scenario import Convention, Scenario, _dig_frame, layout  # noqa: F401
from .units import INCHES_PER_FOOT, DomainError, Length

# numpy, once a Monte Carlo or raster call has imported it (_load_numpy): the
# rest of the module, and so C4 of the claim suite, runs without it.
np = None

MC_CHUNK = 1_000_000
# lens_area_mc reads each chunk in blocks of this many samples: 1.75 MB of
# buffers, within one core's L2.  It sets memory use only, never the estimate.
_BLOCK = 1 << 16
# lens_area_mc's float32 screen: its band half-width, in units of s^2, and the
# smallest squared length it trusts float64 to carry at full precision.
_SCREEN_TAU = 2.0**-12
_SCREEN_TINY = 1e-280
# lens_area_mc counts a call in spans of at least this many blocks, one span
# per usable CPU: calls of fewer than twice as many run in one span, in the
# calling thread.  Shorter spans cost more CPU in threads than they save.
_SPAN_MIN_BLOCKS = 8
# overlap_oracle_grid refuses grids of more cells than this: each float64
# temporary would take 128 MiB.
GRID_MAX_CELLS = 1 << 24


@dataclass(frozen=True)
class McEstimate:
    value: float
    std_error: float
    samples: int
    seed: int


def center_distance_oracle(s: Scenario) -> float:
    """Hole-centre distance in float coordinates: 2 * (half_sep * stretch)."""
    _, half_sep, stretch = _dig_frame(s)
    return 2.0 * (half_sep * stretch)


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
    Calls of 16 or more ``_BLOCK``s (more than 983,040 samples) are counted
    in spans on the CPUs the process may use, which ``taskset`` limits; the
    estimate does not depend on how many there are.
    """
    try:
        samples, seed = operator.index(samples), operator.index(seed)
    except TypeError:
        raise DomainError(
            f"samples and seed must be integers, got {samples!r} and {seed!r}"
        ) from None
    if samples < 1_000:
        raise DomainError(f"need at least 1000 samples, got {samples}")
    if seed < 0:
        raise DomainError(f"seed must be >= 0, got {seed}")
    if radius_a <= 0 or radius_b <= 0:
        raise DomainError("radii must be > 0")
    if not all(math.isfinite(v) for v in (distance, radius_a, radius_b)):
        raise DomainError("inputs must be finite")
    # lens_area's cap: beyond it pi * radius^2 can overflow.
    if max(abs(distance), radius_a, radius_b) > 1e150:
        raise DomainError("inputs too large: the area would overflow")
    _load_numpy()

    rb2 = radius_b * radius_b
    # Float32 screen.  Lengths are scaled by s = radius_a + |distance|, so
    # with a = radius_a / s and t = distance / s (a + |t| = 1) a sample at
    # radius a*sqrt(u) and angle theta lies at squared distance
    #     q = a^2 u - 2 a t sqrt(u) cos(theta) + t^2
    # from B's centre, in units of s^2, and it is a hit when q <= rb^2 / s^2.
    # The screen computes q' = a^2 u - 2 a t sqrt(u) cos(theta) in float32
    # and folds t^2 into the float64 cut-offs before they are rounded to
    # float32.  Its first term is at most 1 and its second at most 1/2, so
    # float32 rounding of u, sqrt(u), theta (< 2^-22 absolute on [0, 2pi)),
    # the coefficients, each product and the sum, plus numpy's <= 1.5 ulp
    # float32 cos, move q' by less than 10 * 2^-24.  Rounding the cut-offs
    # (|rb^2 / s^2 - t^2| < 65 while rb < 8s) adds at most 65 * 2^-24, and
    # the float64 path below is within about 1e-15 of q.  So with
    # tau = 2^-12 every verdict the screen gives (q' < lo: hit, q' > hi:
    # miss) is the one the float64 expressions give, with more than 50x to
    # spare.  The samples in [lo, hi] are recomputed with those float64
    # expressions.  Scales whose squares overflow or come near the subnormal
    # range, and discs B more than 8s wide, get tau = inf: every sample
    # takes the exact path.
    s = radius_a + abs(distance)
    s2 = s * s
    a_s, t_s = radius_a / s, distance / s
    if _SCREEN_TINY <= min(s2, rb2) and max(s2, rb2) < math.inf and radius_b < 8.0 * s:
        cut = rb2 / s2 - t_s * t_s
        lo, hi = cut - _SCREEN_TAU, cut + _SCREEN_TAU
    else:
        lo, hi = -math.inf, math.inf
    lo32, hi32 = np.float32(lo), np.float32(hi)

    screen = (lo32, hi32, np.float32(a_s * a_s), np.float32(-2.0 * a_s * t_s))
    hits = _count_hits(seed, samples, screen, (radius_a, distance, rb2))

    area_a = math.pi * radius_a * radius_a
    rate = hits / samples
    return McEstimate(
        value=rate * area_a,
        std_error=math.sqrt(rate * (1.0 - rate) / samples) * area_a,
        samples=samples,
        seed=seed,
    )


def _load_numpy() -> None:
    """Bind the module's ``np`` to numpy, importing it on the first call.

    The numpy routes call it before they start any thread.
    """
    global np
    if np is None:
        import numpy

        np = numpy


def _count_hits(seed: int, samples: int, screen: tuple, exact: tuple) -> int:
    """lens_area_mc's hit count, counted in spans as the module describes."""
    # Every chunk is read in blocks of _BLOCK samples, its last one short.
    per_chunk = -(-MC_CHUNK // _BLOCK)
    full, rest = divmod(samples, MC_CHUNK)
    blocks = full * per_chunk + -(-rest // _BLOCK)
    spans = max(1, min(blocks // _SPAN_MIN_BLOCKS, _usable_cpus()))
    bounds = [i * blocks // spans for i in range(spans + 1)]
    counts: list = [None] * spans

    def count(i: int) -> None:
        try:
            counts[i] = _count_blocks(seed, samples, bounds[i], bounds[i + 1], screen, exact)
        except BaseException as exc:  # raised below, once every thread is joined
            counts[i] = exc

    threads = []
    try:
        for i in range(1, spans):
            threads.append(threading.Thread(target=count, args=(i,)))
            threads[-1].start()
        count(0)
    finally:
        for thread in threads:
            thread.join()
    for result in counts:
        if isinstance(result, BaseException):
            raise result
    return sum(counts)


def _usable_cpus() -> int:
    """How many CPUs this process may run on (``taskset`` limits them)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return os.cpu_count() or 1


def _count_blocks(
    seed: int, samples: int, first: int, stop: int, screen: tuple, exact: tuple
) -> int:
    """Hits among the samples of blocks ``first`` .. ``stop - 1`` of a
    lens_area_mc call, numbered through its chunks in stream order.

    Draw order (a chunk's radii, then its angles) is fixed: it defines the
    stream.  In each chunk it covers the span opens two cursors on that
    stream, u at its first radius there and v at its first angle, and reads
    both block by block.  Samples the float32 screen leaves in the band are
    kept, and rechecked once _BLOCK of them are waiting or the span ends.
    """
    lo32, hi32, a2, a_t = screen
    per_chunk = -(-MC_CHUNK // _BLOCK)
    size = min(_BLOCK, samples)
    u_buf, v_buf = np.empty(size), np.empty(size)
    root_buf, cos_buf, q_buf = (np.empty(size, np.float32) for _ in range(3))
    band_u: list = []
    band_v: list = []
    waiting = 0
    hits = 0
    block = first
    while block < stop:
        chunk, index = divmod(block, per_chunk)
        begin = chunk * MC_CHUNK
        n = min(MC_CHUNK, samples - begin)
        start, end = index * _BLOCK, min(n, (index + stop - block) * _BLOCK)
        # The chunk's radii start at stream position 2 * begin, its angles n on.
        u_gen = _cursor(seed, 2 * begin + start)
        v_gen = _cursor(seed, 2 * begin + n + start)
        for at in range(start, end, _BLOCK):
            m = min(_BLOCK, end - at)
            u = u_gen.random(m, out=u_buf[:m])
            v = v_gen.random(m, out=v_buf[:m])
            root = root_buf[:m]
            root[...] = u
            q = np.multiply(root, a2, out=q_buf[:m])
            np.sqrt(root, out=root)
            cos = np.multiply(v, 2.0 * math.pi, out=cos_buf[:m])
            np.cos(cos, out=cos)
            cos *= root
            cos *= a_t
            q += cos
            hits += int(np.count_nonzero(q < lo32))
            band = np.flatnonzero((q >= lo32) & (q <= hi32))
            band_u.append(u[band])
            band_v.append(v[band])
            waiting += band.size
            if waiting >= _BLOCK:
                hits += _recheck(band_u, band_v, *exact)
                waiting = 0
        block += -(-(end - start) // _BLOCK)
    return hits + _recheck(band_u, band_v, *exact)


def _cursor(seed: int, position: int) -> np.random.Generator:
    """A generator on the PCG64 stream of ``seed``, ``position`` draws in."""
    bits = np.random.PCG64(seed)
    bits.advance(position)
    return np.random.Generator(bits)


def _recheck(band_u: list, band_v: list, radius_a, distance, rb2) -> int:
    """Hits among the band samples, which it empties: the same elementwise
    float64 expressions as over a whole chunk, so each verdict is the one
    they would give there."""
    if not band_u:
        return 0
    u, v = np.concatenate(band_u), np.concatenate(band_v)
    band_u.clear()
    band_v.clear()
    radii = radius_a * np.sqrt(u)
    angles = (2.0 * math.pi) * v
    dx = radii * np.cos(angles) - distance
    dy = radii * np.sin(angles)
    return int(np.count_nonzero(dx * dx + dy * dy <= rb2))


def overlap_oracle_grid(s: Scenario, cells_per_foot: int) -> bool:
    """Conservative raster check: True only if a cell centre lies strictly
    inside both dig circles.

    One-sided by design: overlaps thinner than a cell can be missed, but a
    True verdict always certifies a real intersection.  Cells cover the
    intersection of the two circles' bounding boxes (anywhere else a point
    cannot be inside both), anchored at that region's corner, in the
    mirror-symmetric frame centred between the holes, so huge scenes keep
    full float precision.
    A grid of more than ``GRID_MAX_CELLS`` cells is refused with
    DomainError before any array is built.
    """
    try:
        cells_per_foot = operator.index(cells_per_foot)
    except TypeError:
        raise DomainError(f"cells_per_foot must be an integer, got {cells_per_foot!r}") from None
    if cells_per_foot < 16:
        raise DomainError(f"cells_per_foot must be >= 16, got {cells_per_foot}")
    _, half_sep, stretch = _dig_frame(s)
    # The dig centres in the frame centred between them: (0, h) and (0, -h).
    h = half_sep * stretch
    *_, rA, rB = s.counts
    foot = INCHES_PER_FOOT * s.scale
    ra, rb = rA / foot, rB / foot

    hi_x = min(ra, rb)
    lo_x = -hi_x
    lo_y = max(h - ra, -h - rb)
    hi_y = min(h + ra, rb - h)
    if lo_x >= hi_x or lo_y >= hi_y:
        return False

    try:
        step = 1.0 / cells_per_foot
        nx = max(1, math.ceil((hi_x - lo_x) / step))
        ny = max(1, math.ceil((hi_y - lo_y) / step))
    except OverflowError:  # 1 / cells_per_foot or a side's cell count
        raise DomainError("cells_per_foot is too fine: the grid is beyond float range") from None
    if nx * ny > GRID_MAX_CELLS:
        raise DomainError(
            f"the grid would need {nx} x {ny} cells, more than {GRID_MAX_CELLS}:"
            " lower cells_per_foot"
        )
    _load_numpy()
    xs = lo_x + (np.arange(nx) + 0.5) * step
    ys = lo_y + (np.arange(ny) + 0.5) * step
    # A sparse grid: a row of x^2 and a column of y, broadcast together.
    gx2, gy = xs**2, ys[:, np.newaxis]

    in_a = gx2 + (gy - h) ** 2 < ra * ra
    in_b = gx2 + (gy + h) ** 2 < rb * rb
    return bool(np.any(in_a & in_b))


def random_scenarios(count: int, seed: int) -> list[Scenario]:
    """Deterministic stream of valid scenarios with small exact rationals.

    Every number is a stdlib Mersenne Twister (`random.Random(seed)`)
    ``getrandbits`` draw with rejection (`_randint`): the draws CPython's
    `randint` makes, which are stable across platforms and Python versions.
    A test pins a digest of the stream.
    """
    bits = random.Random(seed).getrandbits
    conventions = (Convention.FROM_DROP_POINT, Convention.FROM_TRUNK)
    out: list[Scenario] = []
    while len(out) < count:
        # Arguments are drawn left to right: that order defines the stream.
        try:
            s = Scenario(
                trunk_radius=_length(_randint(bits, 0, 96), _randint(bits, 1, 4)),
                socket_offset=_length(_randint(bits, 1, 120), _randint(bits, 1, 4)),
                socket_separation=_length(_randint(bits, 1, 48), _randint(bits, 1, 4)),
                extension=_length(_randint(bits, 0, 1200), 1),
                hole_radius_a=_length(_randint(bits, 1, 72), _randint(bits, 1, 4)),
                hole_radius_b=_length(_randint(bits, 1, 72), _randint(bits, 1, 4)),
                convention=conventions[_randint(bits, 0, 1)],
            )
        except DomainError:
            continue
        out.append(s)
    return out


def _randint(getrandbits, lo: int, hi: int) -> int:
    """``random.Random.randint(lo, hi)`` on the generator ``getrandbits``
    belongs to, as CPython draws it: k-bit words, k the bit length of the
    range's size, redrawn until one falls inside the range."""
    n = hi - lo + 1
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return lo + r


# Lengths are immutable, so random_scenarios shares them between scenarios.
# Its draws allow at most 1,564 keys: 121 numerators 0..120 over 4
# denominators, plus the extension's 1,201 whole inches less the 121 already
# counted.
@functools.cache
def _length(num: int, den: int) -> Length:
    return Length(Fraction(num, den))
