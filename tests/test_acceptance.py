"""Acceptance checks: the fixed claims C1-C7 plus the two process criteria.

Each test prints one PASS/FAIL line so a plain run reads as a checklist.
C1-C7 recompute the claim anchors directly (independently of the packaged
claim suite); P1 stress-tests the Monte Carlo estimator against the closed
form; P2 proves byte determinism in-process and across interpreter runs
with different hash seeds.
"""

import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

from goldbug.analysis import (
    ThresholdKind,
    lens_area,
    max_l_for_nonoverlap,
    nonoverlap_threshold,
    overlap_report,
)
from goldbug.claims import verify_claims
from goldbug.jsonio import claims_to_json
from goldbug.oracle import center_distance_oracle, lens_area_mc, random_scenarios
from goldbug.render import render_svg
from goldbug.scenario import Convention, Scenario, center_distance
from goldbug.units import Length, format_feet_inches, parse_length

GOLDEN = Path(__file__).resolve().parent / "golden" / "plan_r2in_L3ft.svg"
SRC = Path(__file__).resolve().parent.parent / "src"
TWO_FT = parse_length("2ft")
TWO_IN = parse_length("2in")


def _check(cid, ok, detail):
    print(f"{cid} {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"{cid}: {detail}"


def test_c1_nonoverlap_bound_is_exactly_250_91():
    t = nonoverlap_threshold(TWO_FT, TWO_FT)
    nonoverlap_threshold(TWO_FT, TWO_FT)  # warm
    best = min(
        _timed(lambda: nonoverlap_threshold(TWO_FT, TWO_FT)) for _ in range(5)
    )
    ok = (
        t.kind is ThresholdKind.FINITE
        and t.bound_ft == Fraction(250, 91)
        and best < 1e-3
    )
    _check("C1", ok, f"r+L bound {t.bound_ft} ft, {best * 1e6:.0f} us per call")


def test_c2_bound_displays_as_2ft9in():
    shown = format_feet_inches(Length.from_feet(Fraction(250, 91)))
    _check("C2", shown == "2'9\"", f"250/91 ft renders as {shown}")


def test_c3_socket_offset_bound_with_2in_trunk():
    t = max_l_for_nonoverlap(TWO_IN, TWO_FT, TWO_FT)
    shown = format_feet_inches(Length.from_feet(t.bound_ft))
    ok = t.bound_ft == Fraction(1409, 546) and shown == "2'7\""
    _check("C3", ok, f"L bound {t.bound_ft} ft -> {shown}")


def test_c4_closed_form_matches_coordinate_oracle():
    start = time.perf_counter()
    worst = 0.0
    scenarios = random_scenarios(10_000, seed=1843)
    for s in scenarios:
        closed = float(center_distance(s))
        worst = max(worst, abs(closed - center_distance_oracle(s)) / closed)
    elapsed = time.perf_counter() - start
    ok = worst < 1e-12 and elapsed < 1.0
    _check(
        "C4",
        ok,
        f"{len(scenarios)} scenarios, worst rel dev {worst:.3e}, {elapsed:.2f}s",
    )


def test_c5_every_plausible_layout_overlaps():
    overlapping = 0
    total = 0
    for r_in in range(2, 14):
        for l_in in range(36, 121):
            total += 1
            s = Scenario(
                trunk_radius=Length.from_inches(r_in),
                socket_offset=Length.from_inches(l_in),
            )
            if overlap_report(s).overlaps:
                overlapping += 1
    ok = total == 1020 and overlapping == total
    _check("C5", ok, f"{overlapping}/{total} grid layouts overlap")


def test_c6_bigger_second_hole_tightens_the_bound():
    bounds = [
        nonoverlap_threshold(TWO_FT, Length.from_feet(q)).bound_ft
        for q in (Fraction(2), Fraction(9, 4), Fraction(5, 2), Fraction(3))
    ]
    expected = [Fraction(250, 91), Fraction(250, 97), Fraction(250, 103), Fraction(50, 23)]
    ok = bounds == expected and all(a > b for a, b in zip(bounds, bounds[1:]))
    _check("C6", ok, "bounds " + " > ".join(str(b) for b in bounds))


def test_c7_from_trunk_is_strictly_tighter():
    drop = max_l_for_nonoverlap(TWO_IN, TWO_FT, TWO_FT, convention=Convention.FROM_DROP_POINT)
    trunk = max_l_for_nonoverlap(TWO_IN, TWO_FT, TWO_FT, convention=Convention.FROM_TRUNK)
    ok = (
        drop.bound_ft == Fraction(1409, 546)
        and trunk.bound_ft == Fraction(1409, 576)
        and trunk.bound_ft < drop.bound_ft
    )
    _check("C7", ok, f"from-trunk {trunk.bound_ft} < from-drop {drop.bound_ft}")


def test_p1_monte_carlo_tracks_the_closed_form():
    rng = random.Random(20260815)
    start = time.perf_counter()
    max_z = 0.0
    for i in range(100):
        ra = rng.uniform(0.5, 3.0)
        rb = rng.uniform(0.5, 3.0)
        lo, hi = abs(ra - rb), ra + rb
        d = rng.uniform(lo + 0.15 * (hi - lo), hi - 0.15 * (hi - lo))
        est = lens_area_mc(d, ra, rb, samples=10**6, seed=i)
        max_z = max(max_z, abs(est.value - lens_area(d, ra, rb)) / est.std_error)
    elapsed = time.perf_counter() - start
    ok = max_z <= 4.0 and elapsed < 60.0
    _check(
        "P1",
        ok,
        f"100 configs x 1e6 samples, max |dev| {max_z:.2f} std errors, {elapsed:.1f}s",
    )


def _timed(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def _run_cli(args, hash_seed):
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed), PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-m", "goldbug.cli", *args],
        capture_output=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    return proc.stdout


def test_p2_outputs_are_byte_deterministic(tmp_path):
    story = Scenario(trunk_radius=TWO_IN, socket_offset=parse_length("3ft"))
    in_process = (
        render_svg(story) == render_svg(story)
        and json.dumps(claims_to_json(verify_claims()))
        == json.dumps(claims_to_json(verify_claims()))
    )

    verify_a = _run_cli(["verify-paper", "--json"], hash_seed=0)
    verify_b = _run_cli(["verify-paper", "--json"], hash_seed=4242)

    sweep_args = ["sweep", "--r", "0in", "--L", "1ft",
                  "--axis", "L=2.5ft:3ft:0.25ft", "--json"]
    sweep_a = _run_cli(sweep_args, hash_seed=0)
    sweep_b = _run_cli(sweep_args, hash_seed=4242)

    out_a, out_b = tmp_path / "a.svg", tmp_path / "b.svg"
    _run_cli(["render", "--r", "2in", "--L", "3ft", "--out", str(out_a)], hash_seed=0)
    _run_cli(["render", "--r", "2in", "--L", "3ft", "--out", str(out_b)], hash_seed=4242)
    svg_a, svg_b = out_a.read_bytes(), out_b.read_bytes()

    ok = (
        in_process
        and verify_a == verify_b
        and sweep_a == sweep_b
        and svg_a == svg_b
        and svg_a == GOLDEN.read_bytes()
    )
    _check(
        "P2",
        ok,
        "verify/sweep/render byte-identical across hash seeds "
        f"({len(verify_a)}+{len(sweep_a)}+{len(svg_a)} bytes)",
    )
