"""Tests of the benchmark itself: each checker accepts the program's real
answer and rejects a planted wrong one, and a short run of every workload
ends with no unexpected failure.

    python3 -m pytest -q goldbench/test_goldbench.py
"""

from __future__ import annotations

import copy
import json
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
from geometry import Site, lens_area  # noqa: E402

F = Fraction


@pytest.fixture(scope="module")
def gb():
    return run.import_goldbug()


@pytest.fixture()
def tmp(tmp_path):
    return tmp_path


def _answer(gb, call):
    code, out, err = run.run_in_process(gb, call)
    return code, out, err


def _passes(call, code, out, err, seen=None):
    return checks.check_cli(call, code, out, err, {} if seen is None else seen).failed == 0


def _calls(tmp, kind, fmt=None, seeds=range(3)):
    out = []
    for seed in seeds:
        files = tmp / f"seed{seed}"  # config file names repeat from seed to seed
        files.mkdir()
        for call in inputs.oneshot_round(seed, 0, files):
            if call.kind == kind and (fmt is None or call.fmt == fmt) and not call.known_fault:
                out.append(call)
    return out


# ---------------------------------------------------------------------------
# The benchmark's own geometry
# ---------------------------------------------------------------------------


def test_own_lens_area_matches_closed_cases():
    # Equal unit circles at distance 1: 2π/3 − √3/2.
    assert lens_area(F(1), F(1), F(1)) == pytest.approx(2 * 3.141592653589793 / 3 - 3**0.5 / 2, rel=1e-14)
    assert lens_area(F(2), F(1), F(1)) == 0.0
    assert lens_area(F(1, 2), F(1), F(3)) == pytest.approx(3.141592653589793, rel=1e-15)


def test_story_site_distance():
    story = Site(r=F(2), L=F(36))
    assert story.ab_exact() / 12 == F(1595, 456)
    assert story.ab_trig_ft() == pytest.approx(1595 / 456, rel=1e-14)


def test_every_length_spelling_parses_back(gb):
    rng = inputs._rng("spelling", 0, 0)
    for _ in range(300):
        value = F(rng.randint(0, 5000), rng.choice((1, 2, 3, 4, 7, 12, 16)))
        assert gb.units.parse_length(inputs.fmt_length(value, rng)).inches == value


# ---------------------------------------------------------------------------
# Planted wrong answers
# ---------------------------------------------------------------------------


def test_report_json_rejects_ab_one_unit_off(gb, tmp):
    for call in _calls(tmp, "report", "json"):
        code, out, err = _answer(gb, call)
        assert _passes(call, code, out, err)
        obj = json.loads(out)
        obj["ab"]["num"] += 1
        assert not _passes(call, code, json.dumps(obj).encode(), err)


def test_report_json_rejects_wrong_lens_and_flag(gb, tmp):
    call = _calls(tmp, "report", "json")[0]
    code, out, err = _answer(gb, call)
    obj = json.loads(out)
    for mutate in (
        lambda o: o.__setitem__("overlaps", not o["overlaps"]),
        lambda o: o.__setitem__("lens_area_sqft", o["lens_area_sqft"] * (1 + 1e-8) + 1e-9),
        lambda o: o["margin"].__setitem__("num", o["margin"]["num"] - 1),
        lambda o: o["scenario"]["L"].__setitem__("num", o["scenario"]["L"]["num"] + 1),
    ):
        bad = copy.deepcopy(obj)
        mutate(bad)
        assert not _passes(call, code, json.dumps(bad).encode(), err)


def test_report_text_rejects_changed_distance(gb, tmp):
    for call in _calls(tmp, "report", "text"):
        code, out, err = _answer(gb, call)
        assert _passes(call, code, out, err)
        lines = out.decode().splitlines()
        head, _, tail = lines[0].partition("(")
        value = float(tail.split()[0])
        lines[0] = f"{head}({value + 2e-6:.6f} ft)"
        assert not _passes(call, code, ("\n".join(lines) + "\n").encode(), err)


def test_threshold_rejects_bound_one_unit_off(gb, tmp):
    calls = _calls(tmp, "threshold", "json")
    kinds = set()
    for call in calls:
        code, out, err = _answer(gb, call)
        assert _passes(call, code, out, err)
        obj = json.loads(out)
        kinds.add(obj["r_plus_l"]["kind"])
        if obj["r_plus_l"]["bound"] is not None:
            obj["r_plus_l"]["bound"]["num"] += 1
            assert not _passes(call, code, json.dumps(obj).encode(), err)
    assert "finite" in kinds


def test_threshold_text_rejects_wrong_kind(gb, tmp):
    for call in _calls(tmp, "threshold", "text"):
        code, out, err = _answer(gb, call)
        assert _passes(call, code, out, err)
        lines = out.decode().splitlines()
        if "never overlap" in lines[0]:
            lines[0] = "r+L < 1 ft (≈ 1.0000 ft, 1'0\")"
        else:
            lines[0] = "r+L: holes never overlap (radii sum <= drop separation)"
        assert not _passes(call, code, ("\n".join(lines) + "\n").encode(), err)


def test_render_rejects_extra_circle_and_wrong_radius(gb, tmp):
    for call in _calls(tmp, "render"):
        code, out, err = _answer(gb, call)
        path = Path(call.expect["out"])
        svg = path.read_text()
        assert _passes(call, code, out, err)  # the check removes the file
        extra = svg.replace("</svg>", '<circle cx="1" cy="1" r="1"/>\n</svg>')
        path.write_text(extra)
        err_extra = f"wrote {path} ({len(extra.encode())} bytes)\n".encode()
        assert not _passes(call, code, out, err_extra)
        start = svg.index('class="hole"')
        r_at = svg.index(' r="', start) + 4
        wrong = svg[:r_at] + "9" + svg[r_at:]
        path.write_text(wrong)
        assert not _passes(call, code, out, f"wrote {path} ({len(wrong.encode())} bytes)\n".encode())


def test_invalid_inputs_need_exit_2_and_one_line(gb, tmp):
    calls = _calls(tmp, "invalid", seeds=range(12))
    assert calls
    for call in calls:
        code, out, err = _answer(gb, call)
        assert _passes(call, code, out, err), (call.argv, code, err)
        assert not _passes(call, 1, out, err)
        assert not _passes(call, code, out, err + b"goldbug: again\n")
        assert not _passes(call, code, b"x\n", err)


def test_known_faults_fail_today(gb, tmp):
    faults = [c for c in inputs.oneshot_round(0, 0, tmp) if c.known_fault]
    assert len(faults) == 2
    for call in faults:
        code, out, err = _answer(gb, call)
        assert code == 1 and not _passes(call, code, out, err)


def _sweep_call(tmp, fmt):
    """42 rows over r and L that hold invalid, overlapping and clear rows."""
    axes = [("r", F(0), F(1, 4), F(1, 4)), ("L", F(1, 8), F(1, 8) + 20 * F(3), F(3))]
    site = Site(r=F(0), L=F(36))
    rng, files = inputs._rng("test", 0, 0), inputs._Files(tmp, "t")
    return inputs._sweep_call(rng, site, axes, fmt, "flags", files)


def test_sweep_json_rejects_dropped_and_reordered_rows(gb, tmp):
    call = _sweep_call(tmp, "json")
    code, out, err = _answer(gb, call)
    assert _passes(call, code, out, err)
    obj = json.loads(out)
    for mutate in (
        lambda rows: rows.pop(3),
        lambda rows: rows.insert(5, rows.pop(6)),
        lambda rows: rows[2]["report"]["ab"].__setitem__("num", rows[2]["report"]["ab"]["num"] + 1),
        lambda rows: rows[4]["report"].__setitem__("overlaps", not rows[4]["report"]["overlaps"]),
    ):
        bad = copy.deepcopy(obj)
        mutate(bad["rows"])
        assert not _passes(call, code, json.dumps(bad).encode(), err)


def test_sweep_text_rejects_dropped_row_and_wrong_verdict(gb, tmp):
    call = _sweep_call(tmp, "text")
    code, out, err = _answer(gb, call)
    assert _passes(call, code, out, err)
    lines = out.decode().splitlines()
    dropped = lines[:4] + lines[5:]
    assert not _passes(call, code, ("\n".join(dropped) + "\n").encode(), err)
    flipped = [
        line.replace("overlap", "clear") if "overlap" in line else line.replace("clear", "overlap")
        for line in lines
    ]
    assert not _passes(call, code, ("\n".join(flipped) + "\n").encode(), err)


def test_sweep_rejects_rows_that_should_be_invalid(gb, tmp):
    call = _sweep_call(tmp, "text")
    code, out, err = _answer(gb, call)
    lines = out.decode().splitlines()
    row = next(i for i, line in enumerate(lines) if "invalid:" in line)
    cells = lines[row].split()
    lines[row] = "  ".join(cells[:2] + ["1.000000", "-1.000000", "overlap"])
    failed = checks.check_cli(call, code, ("\n".join(lines) + "\n").encode(), err, {}).failed
    assert failed == 1


def test_claims_reject_wrong_values_and_disagreement(gb, tmp):
    text_call, json_call = inputs.claim_round(0, 0, tmp)
    code, text_out, err = _answer(gb, text_call)
    _, json_out, _ = _answer(gb, json_call)
    seen = {}
    assert _passes(text_call, code, text_out, err, seen)
    assert _passes(json_call, code, json_out, err, seen)

    claims = json.loads(json_out)
    claims[0]["computed"] = "250/92 ft"
    assert checks.check_cli(json_call, code, json.dumps(claims).encode(), err, {}).failed == 1
    claims = json.loads(json_out)
    claims[3]["computed"] = "max relative deviation 2.000e-12"
    assert checks.check_cli(json_call, code, json.dumps(claims).encode(), err, {}).failed == 1
    claims = json.loads(json_out)
    claims[5]["quote"] += "!"
    assert checks.check_cli(json_call, code, json.dumps(claims).encode(), err, dict(seen)).failed == 1
    six = text_out.decode().replace("7/7 claims passed", "6/7 claims passed").encode()
    assert checks.check_cli(text_call, code, six, err, {}).failed == 7


def test_oracle_rejects_planted_errors(gb):
    request = replace(inputs.oracle_round(3, 0)[0], count=60, mc_samples=100_000)
    rows, estimate = run.oracle_request(gb, request)
    assert checks.check_oracle(request, rows, estimate).failed == 0
    assert any(r[3] for r in rows) and not all(r[3] for r in rows)

    s, closed, coord, overlaps, grid = rows[0]
    bumped = rows[:]
    bumped[0] = (s, closed, coord * (1 + 4e-12), overlaps, grid)
    assert checks.check_oracle(request, bumped, estimate).failed == 1
    clear = next(i for i, r in enumerate(rows) if not r[3])
    lying = rows[:]
    lying[clear] = rows[clear][:4] + (True,)
    assert checks.check_oracle(request, lying, estimate).failed == 1
    assert checks.check_oracle(request, rows[:-1], estimate).failed == request.count
    far = replace(estimate, value=estimate.value + 5 * estimate.std_error)
    assert checks.check_oracle(request, rows, far).failed == 1
    twin = (estimate.value, estimate.std_error * (1 + 1e-15))
    assert checks.check_oracle(request, rows, estimate, repeat_of=twin).failed == 1


# ---------------------------------------------------------------------------
# Short runs of every workload
# ---------------------------------------------------------------------------


def _bench(*args):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        cwd=HERE.parent, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_fast_quarter_weights_each_kind_by_its_share():
    assert run.fast_quarter([5.0, 1.0, 3.0, 2.0, 9.0, 4.0, 7.0, 8.0]) == 1.5
    assert run.fast_quarter([4.0, 2.0]) == 2.0
    samples = [run.Sample(w, w / 2, ops=ops, stratum=k) for k, ops, w in (
        ("a", 1, 1.0), ("a", 1, 3.0), ("a", 1, 2.0), ("a", 1, 5.0),
        ("b", 4, 8.0), ("b", 4, 9.0), ("b", 4, 40.0), ("b", 4, 10.0),
    )]
    wall, cpu, call = run.fast_quarter_per_kind(samples)
    # Kind a: 1 s per op and per call, 4 of 20 ops.  Kind b: 2 s per op,
    # 8 s per call, 16 of 20 ops.  Each kind holds half the calls.
    assert wall == pytest.approx(0.2 * 1 + 0.8 * 2)
    assert cpu == pytest.approx(wall / 2)
    assert call == pytest.approx(0.5 * 1 + 0.5 * 8)


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_smoke_run(workload):
    result = _bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "0")
    assert result["correct"], result
    assert set(result["metrics"]) == set(run.E2E_UNITS)
    assert all(m["value"] > 0 for m in result["metrics"].values())
    if workload == "cli_oneshot":
        # The two config-file faults, once per round of 30 calls.
        assert result["failed"] * 15 == result["attempted"]
    else:
        assert result["failed"] == 0


def test_smoke_traced_run():
    result = _bench("--workload", "oracle_batch", "--seed", "3", "--seconds", "1", "--trace", "1")
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == set(run.LAYER_UNITS)
    assert result["metrics"]["oracle.lens_area_mc_calls"]["value"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    bench = tmp_path / "goldbench"
    bench.mkdir()
    for f in HERE.glob("*.py"):
        (bench / f.name).write_bytes(f.read_bytes())
    proc = subprocess.run(
        [sys.executable, "goldbench/run.py", "--workload", "cli_oneshot", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""


def test_benchmark_json_names_what_the_runs_report():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.LAYER_UNITS
