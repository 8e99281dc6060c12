import hashlib
import math
import random
import sys
import threading
import time
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from goldbug import oracle
from goldbug.analysis import lens_area, overlap_report
from goldbug.oracle import (
    MC_CHUNK,
    McEstimate,
    center_distance_oracle,
    lens_area_mc,
    overlap_oracle_grid,
    random_scenarios,
)
from goldbug.scenario import Convention, Scenario, center_distance, layout
from goldbug.units import INCHES_PER_FOOT, MAX_DIGITS, DomainError, Length, parse_length

STORY = Scenario(trunk_radius=parse_length("2in"), socket_offset=parse_length("3ft"))


# ---------------------------------------------------------------------------
# Coordinate route
# ---------------------------------------------------------------------------


def test_coordinate_distance_matches_story():
    assert center_distance_oracle(STORY) == pytest.approx(
        float(Fraction(1595, 456)), rel=1e-14
    )


def test_coordinate_distance_matches_closed_form():
    for s in random_scenarios(500, seed=101):
        closed = float(center_distance(s))
        assert abs(closed - center_distance_oracle(s)) / closed < 1e-12


# The oracles as they were built on layout(s): the references that the
# dig-centre kernel must reproduce bit for bit.


def _layout_center_distance_oracle(s):
    lay = layout(s)
    return math.hypot(lay.dig_a.x - lay.dig_b.x, lay.dig_a.y - lay.dig_b.y)


def _layout_overlap_oracle_grid(s, cells_per_foot):
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


def _outcome(fn, *args):
    """What fn(*args) gives, a float spelt bit for bit, or the error it raises."""
    try:
        got = fn(*args)
    except (DomainError, OverflowError, ValueError) as exc:
        return type(exc), str(exc)
    return got.hex() if isinstance(got, float) else got


# The grid cap while comparing with the reference, which has none: a grid
# the oracle refuses is never built.
_COMPARED_CELLS = 1 << 16


def _assert_oracles_match_layout(s):
    """True when the grid was compared, False when the oracle refused it.

    The references subtract the dig centres' x and centre the grid on their
    midpoint.  Where those floats overflow, the references read NaN or raise
    while the oracles keep the mirror-symmetric frame, so the oracles are
    checked against the exact geometry instead.
    """
    try:
        lay = layout(s)
    except OverflowError:  # the oracles must raise it too: compared below
        lay = None
    x_finite = lay is None or math.isfinite(lay.dig_a.x)
    if x_finite:
        assert _outcome(center_distance_oracle, s) == _outcome(
            _layout_center_distance_oracle, s
        )
    else:
        _assert_distance_near_closed_form(s, lay.drop_a.y)
    with mock.patch.object(oracle, "GRID_MAX_CELLS", _COMPARED_CELLS):
        got = _outcome(overlap_oracle_grid, s, 16)
    if isinstance(got, tuple) and got[0] is DomainError and "cells" in got[1]:
        return False
    if lay is None or (
        math.isfinite(lay.dig_a.x + lay.dig_b.x) and math.isfinite(lay.dig_a.y)
    ):
        assert got == _outcome(_layout_overlap_oracle_grid, s, 16)
    elif got is True:
        assert overlap_report(s).overlaps
    return True


def _assert_distance_near_closed_form(s, half_sep):
    """The coordinate distance against float(AB) wherever that float is
    finite.  It is 2 * (half_sep * stretch): two rounded factors and a
    rounded product, so it is within a few roundings of AB unless half_sep
    underflows to a subnormal or to 0.0."""
    try:
        closed = float(center_distance(s))
    except OverflowError:
        return
    if half_sep >= sys.float_info.min:
        assert math.isclose(center_distance_oracle(s), closed, rel_tol=2**-50)


@st.composite
def wide_scenarios(draw):
    """Scenarios with lengths of up to MAX_DIGITS digits, in both
    conventions, with drop points diametrically opposite (d = 2(r+L)) or
    not, and with rays so long that the stretch D/(r+L) or the dig-centre
    coordinates overflow a float."""

    def wide(min_value=1):
        num, den = (draw(st.sampled_from((1, 3, 20, 150, MAX_DIGITS))) for _ in range(2))
        return Fraction(
            draw(st.integers(min_value, 10**num - 1)), draw(st.integers(1, 10**den - 1))
        )

    r = Fraction(0) if draw(st.booleans()) else wide()
    L = wide()
    d = 2 * (r + L) if draw(st.booleans()) else min(wide(), 2 * (r + L))
    if draw(st.booleans()):
        E = wide(min_value=0)
    else:
        E = (r + L) * 10 ** draw(st.sampled_from((150, 300, 307, 308, 320)))
    convention = draw(st.sampled_from(Convention))
    assume(convention is Convention.FROM_DROP_POINT or r + E > 0)
    return Scenario(
        Length(r), Length(L), Length(d), Length(E), Length(wide()), Length(wide()), convention
    )


def _overflowing(d):
    """r = 0, L = 100 in, separation d and a stretch of 10^308: the dig
    centre's y overflows when d = 200 in, its x when d is small."""
    inches = (0, 100, d, 100 * 10**308, 5, 7)
    return Scenario(*(Length(Fraction(n)) for n in inches))


@settings(deadline=None)
@given(wide_scenarios())
@example(_overflowing(200))
@example(_overflowing(1))
def test_oracles_match_layout_on_wide_lengths(s):
    _assert_oracles_match_layout(s)


def test_oracles_match_layout_on_seeded_scenarios():
    for seed in (1843, 7):
        for s in random_scenarios(3_000, seed=seed):
            assert _assert_oracles_match_layout(s)


def test_random_scenarios_are_deterministic():
    a = random_scenarios(50, seed=3)
    b = random_scenarios(50, seed=3)
    c = random_scenarios(50, seed=4)
    assert a == b
    assert a != c
    assert len(a) == 50
    assert any(s.convention is Convention.FROM_TRUNK for s in a)
    assert any(s.convention is Convention.FROM_DROP_POINT for s in a)


# sha256 of random_scenarios(10_000, seed=1843), one line per scenario:
# repr((counts, scale, convention value)).  Taken from the randint-based
# generator before its draws moved to getrandbits; any change to the stream
# changes it.
_STREAM_1843 = "47624731de66a3453400a48c17ebbf239e7fc65fec0797b96d03d8e668c0d2e1"


def test_random_scenarios_stream_is_pinned():
    digest = hashlib.sha256()
    for s in random_scenarios(10_000, seed=1843):
        digest.update(repr((s.counts, s.scale, s.convention.value)).encode() + b"\n")
    assert digest.hexdigest() == _STREAM_1843


# Every (lo, hi) random_scenarios draws from.  (1, 4) and (0, 1) draw 3- and
# 2-bit words and reject half of them.
@pytest.mark.parametrize("lo,hi", [(0, 96), (1, 4), (1, 120), (1, 48), (0, 1200), (1, 72), (0, 1)])
def test_randint_helper_draws_what_randint_draws(lo, hi):
    for seed in (0, 1843):
        ours, stdlib = random.Random(seed), random.Random(seed)
        values = [oracle._randint(ours.getrandbits, lo, hi) for _ in range(10_000)]
        assert values == [stdlib.randint(lo, hi) for _ in range(10_000)]
        assert ours.getstate() == stdlib.getstate()


# ---------------------------------------------------------------------------
# Monte Carlo lens area
# ---------------------------------------------------------------------------


def test_mc_frozen_golden():
    est = lens_area_mc(2.8125, 2.0, 2.0, samples=10**6, seed=7)
    assert est.value == pytest.approx(2.3273044041499333, rel=1e-12)
    assert est.std_error == pytest.approx(0.004881539089816114, rel=1e-12)
    assert est.samples == 10**6
    assert est.seed == 7


def test_mc_reruns_bit_identical():
    a = lens_area_mc(2.8125, 2.0, 2.0, samples=10**6, seed=7)
    b = lens_area_mc(2.8125, 2.0, 2.0, samples=10**6, seed=7)
    assert a == b
    c = lens_area_mc(2.8125, 2.0, 2.0, samples=10**6, seed=8)
    assert a.value != c.value


def test_mc_spans_chunk_boundary():
    samples = MC_CHUNK + 1234
    a = lens_area_mc(2.8125, 2.0, 2.0, samples=samples, seed=7)
    b = lens_area_mc(2.8125, 2.0, 2.0, samples=samples, seed=7)
    assert a == b
    assert a.samples == samples
    assert a.std_error > 0


def test_mc_tangent_circles_have_no_hits():
    # All sample radii are strictly inside A, so no point can reach B.
    est = lens_area_mc(4.0, 2.0, 2.0, samples=10**5, seed=1)
    assert est.value == 0.0
    assert est.std_error == 0.0


def test_mc_coincident_circles_hit_everywhere():
    est = lens_area_mc(0.0, 2.0, 2.0, samples=10**5, seed=1)
    assert est.value == math.pi * 4.0
    assert est.std_error == 0.0


@pytest.mark.parametrize(
    "d,ra,rb",
    [
        (2.8125, 2.0, 2.0),
        (1.0, 2.0, 1.5),
        (0.6, 0.5, 1.0),
    ],
)
def test_mc_agrees_with_closed_form(d, ra, rb):
    est = lens_area_mc(d, ra, rb, samples=300_000, seed=42)
    assert abs(est.value - lens_area(d, ra, rb)) <= 4 * est.std_error


def _reference_lens_area_mc(distance, radius_a, radius_b, samples, seed):
    """The plain float64 loop that the screened kernel must reproduce."""
    rng = np.random.default_rng(seed)
    rb2 = radius_b * radius_b
    hits = 0
    done = 0
    while done < samples:
        n = min(MC_CHUNK, samples - done)
        # Draw order (radii then angles) is fixed: it defines the stream.
        radii = radius_a * np.sqrt(rng.random(n))
        angles = (2.0 * math.pi) * rng.random(n)
        dx = radii * np.cos(angles) - distance
        dy = radii * np.sin(angles)
        hits += int(np.count_nonzero(dx * dx + dy * dy <= rb2))
        done += n

    area_a = math.pi * radius_a * radius_a
    rate = hits / samples
    return McEstimate(
        value=rate * area_a,
        std_error=math.sqrt(rate * (1.0 - rate) / samples) * area_a,
        samples=samples,
        seed=seed,
    )


def _assert_same_estimate(distance, radius_a, radius_b, samples, seed):
    # Past lens_area's 1e150 cap the area can overflow: refused, where the
    # plain loop returned inf or NaN.
    if max(abs(distance), radius_a, radius_b) > 1e150:
        with pytest.raises(DomainError, match="too large"):
            lens_area_mc(distance, radius_a, radius_b, samples, seed)
        return
    # Compared by repr: bit-exact for floats.
    got = lens_area_mc(distance, radius_a, radius_b, samples, seed)
    want = _reference_lens_area_mc(distance, radius_a, radius_b, samples, seed)
    assert repr(got) == repr(want)


@st.composite
def mc_geometries(draw):
    ra = draw(st.floats(0.05, 5.0))
    rb = draw(st.floats(0.05, 5.0))
    outer, inner = ra + rb, abs(ra - rb)
    distance = draw(
        st.sampled_from(
            (
                inner + (outer - inner) * draw(st.floats(0.0, 1.0)),
                outer * (1 + 1e-9),
                outer * (1 - 1e-9),
                inner * (1 + 1e-9),
                inner * (1 - 1e-9),
                0.0,
            )
        )
    )
    sign = draw(st.sampled_from((1.0, -1.0)))
    scale = draw(st.sampled_from((1.0, 1e-150, 1e150, 1e-300, 1e300)))
    return sign * distance * scale, ra * scale, rb * scale


@settings(deadline=None)
@given(
    geometry=mc_geometries(),
    samples=st.integers(1_000, 20_000),
    seed=st.integers(0, 2**63),
)
def test_mc_kernel_equals_float64_loop(geometry, samples, seed):
    _assert_same_estimate(*geometry, samples, seed)


@pytest.mark.parametrize(
    "distance,radius_a,radius_b,samples,seed",
    [
        (2.8125, 2.0, 2.0, 10**6, 7),
        (2.8125, 2.0, 2.0, MC_CHUNK + 1234, 7),
        (1.0, 2.0, 1.5, 2 * MC_CHUNK + 1, 3),
        (-0.5, 1.0, 9.0, 5_000, 11),
        # Block and chunk boundaries, including a chunk that is not a
        # whole number of blocks.
        (1.0, 2.0, 1.5, oracle._BLOCK - 1, 5),
        (1.0, 2.0, 1.5, oracle._BLOCK, 5),
        (1.0, 2.0, 1.5, oracle._BLOCK + 1, 5),
        (2.8125, 2.0, 2.0, MC_CHUNK - 1, 9),
        (0.6, 0.5, 1.0, MC_CHUNK + oracle._BLOCK + 1, 13),
        (2.8125, 2.0, 2.0, 2 * MC_CHUNK + 1, 17),
        # Distance 0: the cosine term vanishes.
        (0.0, 2.0, 1.5, 50_000, 19),
        (-1.25, 2.0, 1.5, 50_000, 29),
        # rb = 1e-3 * ra, disc B inside A: the band reaches q' = 0.
        (0.5, 2.0, 2e-3, 10**6, 31),
        # rb just under and just over 8s (s = 1.5): screened, then all exact.
        (0.5, 1.0, math.nextafter(12.0, 0.0), 20_000, 37),
        (0.5, 1.0, math.nextafter(12.0, math.inf), 20_000, 37),
    ],
)
def test_mc_kernel_equals_float64_loop_fixed(distance, radius_a, radius_b, samples, seed):
    _assert_same_estimate(distance, radius_a, radius_b, samples, seed)


def test_mc_estimate_does_not_depend_on_block_size(monkeypatch):
    # The block size decides memory only, never the estimate.
    args = (1.0, 2.0, 1.5, MC_CHUNK + 4_321, 23)
    want = lens_area_mc(*args)
    for block in (1_000, 4_096, 1 << 20):
        monkeypatch.setattr(oracle, "_BLOCK", block)
        assert lens_area_mc(*args) == want, block


def test_mc_memory_is_bounded_by_the_block(monkeypatch):
    # numpy reports its buffers to tracemalloc, from every thread.
    # Whole-chunk buffers for 2.3M samples peaked at about 28 MB; blocked
    # ones stay near 2 MB in each span.  2.3M samples make 37 blocks, so
    # one span per CPU.
    for cpus in (1, 4):
        monkeypatch.setattr(oracle, "_usable_cpus", lambda: cpus)
        lens_area_mc(1.3, 1.5, 1.2, 2_300_000, 11)
        tracemalloc.start()
        try:
            lens_area_mc(1.3, 1.5, 1.2, 2_300_000, 11)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < cpus * 4 * 2**20, (cpus, peak)


# Blocks of this size make every span case below quick.
_SPAN_BLOCK = 1_024


@pytest.mark.parametrize(
    "distance,radius_a,radius_b,samples,seed",
    [
        (1.0, 2.0, 1.5, 1_000, 41),
        (1.0, 2.0, 1.5, 15 * _SPAN_BLOCK, 43),
        (1.0, 2.0, 1.5, 16 * _SPAN_BLOCK - 1, 43),
        (1.0, 2.0, 1.5, 16 * _SPAN_BLOCK + 1, 43),
        (2.8125, 2.0, 2.0, MC_CHUNK - 1, 47),
        (2.8125, 2.0, 2.0, MC_CHUNK + 1, 47),
        (0.6, 0.5, 1.0, 2 * MC_CHUNK + 1, 53),
        (-1.25, 2.0, 1.5, MC_CHUNK + 1, 59),
        # rb >= 8s: tau = inf, every sample is rechecked.
        (0.5, 1.0, 12.5, 16 * _SPAN_BLOCK + 1, 61),
    ],
)
def test_mc_spans_equal_float64_loop(monkeypatch, distance, radius_a, radius_b, samples, seed):
    want = repr(_reference_lens_area_mc(distance, radius_a, radius_b, samples, seed))
    monkeypatch.setattr(oracle, "_BLOCK", _SPAN_BLOCK)
    spans = []
    count_blocks = oracle._count_blocks

    def spy(seed, samples, first, stop, *rest):
        spans.append((first, stop))
        return count_blocks(seed, samples, first, stop, *rest)

    monkeypatch.setattr(oracle, "_count_blocks", spy)
    per_chunk = -(-MC_CHUNK // _SPAN_BLOCK)
    blocks = samples // MC_CHUNK * per_chunk + -(-(samples % MC_CHUNK) // _SPAN_BLOCK)
    for cpus in (1, 2, 3, 5):
        monkeypatch.setattr(oracle, "_usable_cpus", lambda: cpus)
        threads = threading.active_count()
        spans.clear()
        got = lens_area_mc(distance, radius_a, radius_b, samples, seed)
        assert threading.active_count() == threads, cpus
        assert repr(got) == want, cpus
        # Contiguous spans of at least 8 blocks each, one per CPU at most,
        # that cover every block once; fewer than 16 blocks make one span.
        spans.sort()
        assert spans[0][0] == 0 and spans[-1][1] == blocks
        assert all(a[1] == b[0] for a, b in zip(spans, spans[1:]))
        assert len(spans) == max(1, min(cpus, blocks // 8))
        assert all(stop - first >= 8 for first, stop in spans) or len(spans) == 1


# 2 chunks of 16 blocks on 3 CPUs make spans from blocks 0, 10 and 21; the
# caller counts the first one itself.
@pytest.mark.parametrize("failing_first", [0, 21], ids=["caller's span", "thread's span"])
def test_mc_span_error_is_raised_after_every_join(monkeypatch, failing_first):
    monkeypatch.setattr(oracle, "_usable_cpus", lambda: 3)
    count_blocks = oracle._count_blocks
    finished = []

    def count(seed, samples, first, stop, *rest):
        if first == failing_first:
            raise RuntimeError("span failed")
        time.sleep(0.2)
        hits = count_blocks(seed, samples, first, stop, *rest)
        finished.append(first)
        return hits

    monkeypatch.setattr(oracle, "_count_blocks", count)
    threads = threading.active_count()
    with pytest.raises(RuntimeError, match="span failed"):
        lens_area_mc(1.0, 2.0, 1.5, 2 * MC_CHUNK, 7)
    assert len(finished) == 2
    assert threading.active_count() == threads


class _CosRecorder:
    """Stands in for numpy in `oracle`, noting the size of each float64 cos."""

    def __init__(self):
        self.float64_sizes = []

    def __getattr__(self, name):
        return getattr(np, name)

    def cos(self, x, *args, **kwargs):
        if x.dtype == np.float64:
            self.float64_sizes.append(x.size)
        return np.cos(x, *args, **kwargs)


@pytest.mark.parametrize(
    "distance,radius_a,radius_b,every_sample",
    [
        (2.8125, 2.0, 2.0, False),  # partial overlap: the band is a sliver
        (0.0, 1.0, 8.0, True),  # rb >= 8s: no screen, all exact
    ],
)
def test_mc_float64_recheck_runs(monkeypatch, distance, radius_a, radius_b, every_sample):
    recorder = _CosRecorder()
    monkeypatch.setattr(oracle, "np", recorder)
    est = lens_area_mc(distance, radius_a, radius_b, 100_000, seed=7)
    monkeypatch.undo()
    # Blocks split the recheck into several calls: count the samples.
    total = sum(recorder.float64_sizes)
    assert total == 100_000 if every_sample else 0 < total < 1_000
    assert repr(est) == repr(_reference_lens_area_mc(distance, radius_a, radius_b, 100_000, 7))


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(distance=1.0, radius_a=2.0, radius_b=2.0, samples=999, seed=0),
        dict(distance=1.0, radius_a=0.0, radius_b=2.0, samples=10**4, seed=0),
        dict(distance=math.inf, radius_a=2.0, radius_b=2.0, samples=10**4, seed=0),
        # pi * radius_a^2 overflows: the estimate was inf with a NaN error.
        dict(distance=0.0, radius_a=1e154, radius_b=1e154, samples=10**4, seed=0),
        # radius_b^2 overflows: every sample hit two disjoint discs.
        dict(distance=3e200, radius_a=1.0, radius_b=1e200, samples=1_000, seed=0),
        dict(distance=-2e150, radius_a=1.0, radius_b=1.0, samples=10**4, seed=0),
        # samples and seed must be ints, and seed >= 0.
        dict(distance=1.0, radius_a=2.0, radius_b=2.0, samples=1e6, seed=0),
        dict(distance=1.0, radius_a=2.0, radius_b=2.0, samples=1000.5, seed=0),
        dict(distance=1.0, radius_a=2.0, radius_b=2.0, samples=10**4, seed=-1),
        dict(distance=1.0, radius_a=2.0, radius_b=2.0, samples=10**4, seed=1.5),
    ],
)
def test_mc_rejects_bad_inputs(kwargs):
    with pytest.raises(DomainError):
        lens_area_mc(**kwargs)


# ---------------------------------------------------------------------------
# Grid overlap oracle
# ---------------------------------------------------------------------------


def test_grid_verdicts():
    clear = Scenario(trunk_radius=parse_length("0in"), socket_offset=parse_length("2ft"))
    tangent = Scenario(
        trunk_radius=parse_length("0in"),
        socket_offset=Length.from_feet(Fraction(250, 91)),
    )
    assert overlap_oracle_grid(STORY, 32)
    assert not overlap_oracle_grid(clear, 32)
    assert not overlap_oracle_grid(tangent, 32)


def test_grid_survives_huge_coordinates():
    # Dig centres land around x = 10^6 ft; the midpoint-centred frame keeps
    # cell coordinates small so the verdict stays exact.
    s = Scenario(
        trunk_radius=parse_length("0in"),
        socket_offset=parse_length("1ft"),
        socket_separation=Length.from_feet(Fraction(1, 10**6)),
        extension=Length.from_feet(10**6),
    )
    rep = overlap_report(s)
    assert rep.overlaps and float(rep.margin_ft) == pytest.approx(-3.0, abs=1e-5)
    assert overlap_oracle_grid(s, 32)


def test_grid_requires_minimum_resolution():
    # 16.5 was rastered, NaN raised ValueError and 10^400 OverflowError.
    for cells_per_foot in (8, 16.5, float("nan"), 10**400):
        with pytest.raises(DomainError, match="cells_per_foot"):
            overlap_oracle_grid(STORY, cells_per_foot)
    assert overlap_oracle_grid(STORY, 16)


def test_grid_refuses_oversized_grids_before_allocating():
    # 10^12 cells per foot over the story's overlap asks for about 10^24
    # cells: refused before numpy allocates anything.
    tracemalloc.start()
    try:
        with pytest.raises(DomainError, match="cells"):
            overlap_oracle_grid(STORY, 10**12)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**10, peak
    # The same region at a resolution within the cap is still rastered.
    with mock.patch.object(oracle, "GRID_MAX_CELLS", 1 << 12):
        with pytest.raises(DomainError, match="cells"):
            overlap_oracle_grid(STORY, 64)
        assert overlap_oracle_grid(STORY, 16)


def test_grid_agrees_outside_the_resolution_band():
    """Verdicts must match whenever the margin dwarfs the cell size."""
    cells_per_foot = 32
    band = Fraction(4, cells_per_foot)
    checked = 0
    for s in random_scenarios(80, seed=11):
        margin = overlap_report(s).margin_ft
        if abs(margin) <= band:
            continue
        checked += 1
        assert overlap_oracle_grid(s, cells_per_foot) == (margin < 0)
    assert checked > 40


def test_grid_is_one_sided():
    # A True from the raster is a certificate; it may never contradict a
    # rational non-overlap verdict, however thin the margin.
    for s in random_scenarios(80, seed=13):
        if overlap_oracle_grid(s, 16):
            assert overlap_report(s).overlaps
