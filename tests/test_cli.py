import hashlib
import json
import os
import random
import resource
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from goldbug import claims, jsonio, sweeps
from goldbug.cli import CONFIG_ENV_VAR, _canvas, build_parser, main
from goldbug.render import CanvasSpec, render_svg
from goldbug.scenario import (
    DEFAULT_EXTENSION,
    DEFAULT_HOLE_RADIUS,
    DEFAULT_SOCKET_SEPARATION,
    Scenario,
)
from goldbug.units import MAX_DIGITS, format_exact_feet, parse_length

STORY_ARGS = ["--r", "2in", "--L", "3ft"]
SRC = Path(__file__).resolve().parent.parent / "src"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------


def test_report_text(capsys):
    code, out, err = run(capsys, "report", *STORY_ARGS)
    assert code == 0
    assert "AB         = 1595/456 ft  (3.497807 ft)" in out
    assert "radii sum  = 4 ft  (4.000000 ft)" in out
    assert "overlaps   = yes" in out
    assert "margin     = -229/456 ft  (-0.502193 ft)" in out
    assert "lens area  = 0.658275 sq ft" in out


def test_report_json_round_trips(capsys):
    code, out, _ = run(capsys, "report", *STORY_ARGS, "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["ab"] == {
        "num": 1595,
        "den": 38,
        "unit": "in",
        "decimal": "41.973684210526315",
    }
    assert payload["overlaps"] is True
    assert payload["scenario"]["convention"] == "from-drop-point"

    report = jsonio.report_from_json(payload)
    assert report.ab_ft == Fraction(1595, 456)
    assert report.margin_ft == Fraction(-229, 456)
    assert report.scenario == Scenario(
        trunk_radius=parse_length("2in"), socket_offset=parse_length("3ft")
    )


def test_report_clear_scenario(capsys):
    code, out, _ = run(capsys, "report", "--r", "0in", "--L", "2ft")
    assert code == 0
    assert "overlaps   = no" in out
    assert "lens area  = 0.000000 sq ft" in out


def test_report_with_every_flag(capsys):
    code, out, _ = run(
        capsys,
        "report", "--r", "2in", "--L", "3ft", "--d", "5in", "--E", "25ft",
        "--rA", "1ft", "--rB", "3ft", "--convention", "from-trunk", "--json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["scenario"]["d"]["num"] == 5
    assert payload["scenario"]["convention"] == "from-trunk"
    assert jsonio.report_from_json(payload).radii_sum_ft == 4


def test_report_requires_r_and_l(capsys):
    code, _, err = run(capsys, "report", "--r", "2in")
    assert code == 2
    assert "--L is required" in err


def test_report_rejects_bad_length(capsys):
    code, _, err = run(capsys, "report", "--r", "bogus", "--L", "3ft")
    assert code == 2
    assert "--r" in err


def test_report_rejects_invalid_scenario(capsys):
    code, _, err = run(capsys, "report", "--r", "2in", "--L", "3ft", "--d", "90in")
    assert code == 2
    assert "invalid scenario" in err


# A hole radius whose value in feet underflows a float: disc A lies inside B.
TINY_RA = "1/1" + "0" * 330 + "in"


def test_report_with_an_underflowing_radius_has_a_zero_lens(capsys):
    code, out, err = run(
        capsys, "report", *STORY_ARGS, "--rA", TINY_RA, "--rB", "4ft", "--json"
    )
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert payload["overlaps"] is True
    assert payload["lens_area_sqft"] == 0.0


# Radii of 10^160 in: the exact verdict is known, but lens_area refuses the
# float area, which would overflow.
HUGE_RADIUS = "1" + "0" * 160 + "in"
HUGE_HOLES = ["--r", "0in", "--L", "2in", "--rA", HUGE_RADIUS, "--rB", HUGE_RADIUS]
LENS_TOO_LARGE = "lens_area inputs too large: the area would overflow"


def test_report_whose_lens_area_is_refused_is_a_usage_error(capsys):
    code, out, err = run(capsys, "report", *HUGE_HOLES)
    assert (code, out) == (2, "")
    assert _one_usage_line(err) == f"goldbug: {LENS_TOO_LARGE}"


def test_depth_is_rejected_with_a_pointer(capsys):
    code, _, err = run(capsys, "report", *STORY_ARGS, "--depth", "7ft")
    assert code == 2
    assert "hole depth is not modeled" in err
    assert "README" in err
    code, _, err = run(capsys, "threshold", "--rA", "2ft", "--rB", "2ft", "--depth", "1ft")
    assert code == 2
    assert "hole depth is not modeled" in err


# ---------------------------------------------------------------------------
# threshold
# ---------------------------------------------------------------------------


def test_threshold_text(capsys):
    code, out, _ = run(capsys, "threshold", "--rA", "2ft", "--rB", "2ft")
    assert code == 0
    assert "r+L < 250/91 ft" in out
    assert "2'9\"" in out
    assert not any(line.startswith("L ") for line in out.splitlines())


def test_threshold_with_trunk_radius(capsys):
    code, out, _ = run(capsys, "threshold", "--rA", "2ft", "--rB", "2ft", "--r", "2in")
    assert code == 0
    assert "r+L < 250/91 ft" in out
    assert "L < 1409/546 ft" in out
    assert "2'7\"" in out


def test_threshold_from_trunk(capsys):
    code, out, _ = run(
        capsys,
        "threshold", "--rA", "2ft", "--rB", "2ft", "--r", "2in",
        "--convention", "from-trunk",
    )
    assert code == 0
    assert "r+L < 1505/576 ft" in out
    assert "L < 1409/576 ft" in out


def test_threshold_from_trunk_requires_r(capsys):
    code, _, err = run(
        capsys, "threshold", "--rA", "2ft", "--rB", "2ft", "--convention", "from-trunk"
    )
    assert code == 2
    assert "--r is required" in err


def test_threshold_always_clear(capsys):
    code, out, _ = run(capsys, "threshold", "--rA", "1in", "--rB", "1in")
    assert code == 0
    assert "holes never overlap" in out


def test_threshold_no_valid_l(capsys):
    code, out, _ = run(capsys, "threshold", "--rA", "2ft", "--rB", "2ft", "--r", "3ft")
    assert code == 0
    assert "no valid L" in out


def test_threshold_json(capsys):
    code, out, _ = run(
        capsys, "threshold", "--rA", "2ft", "--rB", "2ft", "--r", "2in", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["convention"] == "from-drop-point"
    assert jsonio.threshold_from_json(payload["r_plus_l"]).bound_ft == Fraction(250, 91)
    assert jsonio.threshold_from_json(payload["l_only"]).bound_ft == Fraction(1409, 546)
    assert payload["r_plus_l"]["bound_display"] == "2'9\""


def test_threshold_json_without_r(capsys):
    code, out, _ = run(capsys, "threshold", "--rA", "2ft", "--rB", "2ft", "--json")
    assert code == 0
    assert json.loads(out)["l_only"] is None


def test_threshold_requires_radii(capsys):
    code, _, err = run(capsys, "threshold", "--rA", "2ft")
    assert code == 2
    assert "--rB is required" in err


def test_threshold_rejects_a_bad_l_flag(capsys):
    # L plays no part in the bound, but every length given is checked.
    code, out, err = run(capsys, "threshold", "--rA", "2ft", "--rB", "2ft", "--L", "bogus")
    assert code == 2
    assert out == ""
    assert err.splitlines() == ['goldbug: --L: unknown unit "bogus" in "bogus"']


def test_threshold_rejects_a_bad_l_in_config(capsys, tmp_path):
    cfg = tmp_path / "gb.cfg"
    cfg.write_text("rA = 2ft\nrB = 2ft\nL = bogus\n")
    code, out, err = run(capsys, "threshold", "--config", str(cfg))
    assert code == 2
    assert out == ""
    assert err.splitlines() == ['goldbug: --L: unknown unit "bogus" in "bogus"']


# ---------------------------------------------------------------------------
# verify-paper
# ---------------------------------------------------------------------------


def test_verify_paper_passes(capsys):
    code, out, _ = run(capsys, "verify-paper")
    assert code == 0
    assert "7/7 claims passed" in out
    for cid in claims.CLAIM_IDS:
        assert f"{cid} PASS" in out


def test_verify_paper_json(capsys):
    code, out, _ = run(capsys, "verify-paper", "--json")
    assert code == 0
    items = json.loads(out)
    assert [item["id"] for item in items] == list(claims.CLAIM_IDS)
    assert all(item["pass"] for item in items)
    assert all(
        set(item) == {"id", "quote", "expected", "computed", "pass"} for item in items
    )


def test_verify_paper_injected_failure(capsys):
    code, out, _ = run(capsys, "verify-paper", "--inject-failure", "C2")
    assert code == 1
    assert "C2 FAIL" in out
    assert "6/7 claims passed" in out


def test_verify_paper_injected_failure_json(capsys):
    code, out, _ = run(capsys, "verify-paper", "--inject-failure", "C2", "--json")
    assert code == 1
    items = {item["id"]: item for item in json.loads(out)}
    assert items["C2"]["pass"] is False
    assert items["C2"]["computed"] == "INJECTED-FAULT"


def test_verify_paper_unknown_claim(capsys):
    code, _, err = run(capsys, "verify-paper", "--inject-failure", "C9")
    assert code == 2
    assert "unknown claim id" in err


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def test_sweep_text(capsys):
    code, out, _ = run(
        capsys, "sweep", "--r", "0in", "--L", "1ft", "--axis", "L=2.5ft:3ft:0.25ft"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split() == ["L", "AB", "(ft)", "margin", "(ft)", "verdict"]
    assert lines[1].split() == ["30in", "4.375000", "0.375000", "clear"]
    assert lines[2].split() == ["33in", "3.996212", "-0.003788", "overlap"]
    assert lines[3].split() == ["36in", "3.680556", "-0.319444", "overlap"]


def test_sweep_json_round_trips(capsys):
    code, out, _ = run(
        capsys,
        "sweep", "--r", "0in", "--L", "1ft", "--json",
        "--axis", "r=0in:1in:1in", "--axis", "L=2.5ft:3ft:0.25ft",
    )
    assert code == 0
    doc = json.loads(out)
    base = Scenario(trunk_radius=parse_length("0in"), socket_offset=parse_length("1ft"))
    axes = [
        sweeps.SweepAxis("r", parse_length("0in"), parse_length("1in"), parse_length("1in")),
        sweeps.SweepAxis("L", parse_length("2.5ft"), parse_length("3ft"), parse_length("0.25ft")),
    ]
    table = sweeps.sweep(base, axes)
    limits = ("start", "stop", "step")
    assert [
        sweeps.SweepAxis(a["param"], *(jsonio.length_from_json(a[k]) for k in limits))
        for a in doc["axes"]
    ] == axes
    assert len(doc["rows"]) == len(table.rows) == 6
    for row, expected in zip(doc["rows"], table.rows):
        values = tuple((p, jsonio.length_from_json(v)) for p, v in row["values"].items())
        assert values == expected.values
        assert jsonio.report_from_json(row["report"]) == expected.report
        assert row["invalid_reason"] is None and expected.invalid_reason is None


def test_sweep_marks_invalid_rows(capsys):
    code, out, _ = run(
        capsys, "sweep", "--r", "0in", "--L", "1ft", "--axis", "L=0.5in:1.5in:0.5in"
    )
    assert code == 0
    assert out.count("invalid:") == 2
    assert "separation" in out


def test_sweep_row_with_an_underflowing_radius_is_valid(capsys):
    code, out, _ = run(
        capsys, "sweep", *STORY_ARGS, "--rA", TINY_RA, "--json", "--axis", "rB=4ft:4ft:1in"
    )
    assert code == 0
    (row,) = json.loads(out)["rows"]
    assert row["report"]["overlaps"] is True
    assert row["report"]["lens_area_sqft"] == 0.0


def test_sweep_rows_whose_lens_area_is_refused_are_invalid(capsys):
    argv = ["sweep", *HUGE_HOLES, "--axis", "L=2in:3in:1in"]
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    verdicts = [line.split(None, 3)[3] for line in out.splitlines()[1:]]
    assert verdicts == [f"invalid: {LENS_TOO_LARGE}"] * 2
    code, out, err = run(capsys, *argv, "--json")
    assert (code, err) == (0, "")
    rows = json.loads(out)["rows"]
    assert [(row["report"], row["invalid_reason"]) for row in rows] == [
        (None, LENS_TOO_LARGE)
    ] * 2


def test_length_from_json_refuses_a_unit_other_than_inches():
    assert jsonio.length_from_json({"num": 3, "den": 2}) == parse_length("3/2in")
    with pytest.raises(ValueError, match="unsupported length unit 'ft'"):
        jsonio.length_from_json({"num": 3, "den": 2, "unit": "ft"})


def test_sweep_requires_axis(capsys):
    code, _, err = run(capsys, "sweep", *STORY_ARGS)
    assert code == 2
    assert "--axis is required" in err


@pytest.mark.parametrize(
    "spec",
    ["L", "L=1in:2in", "L=1in:2in:1in:4in", "=1in:2in:1in"],
)
def test_sweep_rejects_malformed_axis(capsys, spec):
    code, _, err = run(capsys, "sweep", *STORY_ARGS, "--axis", spec)
    assert code == 2
    assert "--axis" in err or "unknown sweep parameter" in err


def test_sweep_rejects_unknown_param(capsys):
    code, _, err = run(capsys, "sweep", *STORY_ARGS, "--axis", "bogus=1in:2in:1in")
    assert code == 2
    assert 'unknown sweep parameter "bogus"' in err


def _run_child(code, *argv, memory_mb=None):
    """Run a goldbug snippet in a fresh interpreter, optionally with its
    address space capped."""

    def cap():
        if memory_mb is not None:
            limit = memory_mb * 2**20
            resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    return subprocess.run(
        [sys.executable, "-c", code, *argv],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        timeout=60,
        preexec_fn=cap,
    )


def test_sweep_row_limit_is_checked_before_any_grid_value():
    # 999,999,001 rows: refused from the exact count, with no value built.
    proc = _run_child(
        "import sys; from goldbug.cli import main; sys.exit(main(sys.argv[1:]))",
        "sweep", *STORY_ARGS, "--axis", "L=1in:1000000in:1/1000in",
        memory_mb=512,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("goldbug: sweep would produce 999999001 rows")


def test_sweep_rejects_three_axes(capsys):
    code, _, err = run(
        capsys,
        "sweep", *STORY_ARGS,
        "--axis", "L=1in:2in:1in", "--axis", "r=1in:2in:1in", "--axis", "E=1in:2in:1in",
    )
    assert code == 2
    assert "1 or 2 axes" in err


# ---------------------------------------------------------------------------
# render
# ---------------------------------------------------------------------------


def test_render_writes_the_default_svg(capsys, tmp_path):
    out_path = tmp_path / "plan.svg"
    code, out, err = run(capsys, "render", *STORY_ARGS, "--out", str(out_path))
    assert code == 0
    assert out == ""
    assert f"wrote {out_path}" in err
    story = Scenario(trunk_radius=parse_length("2in"), socket_offset=parse_length("3ft"))
    assert out_path.read_bytes() == render_svg(story).encode("utf-8")


def test_render_forwards_canvas_options(capsys, tmp_path):
    out_path = tmp_path / "bare.svg"
    code, _, _ = run(
        capsys,
        "render", *STORY_ARGS, "--out", str(out_path),
        "--no-labels", "--width", "1160", "--height", "220",
    )
    assert code == 0
    text = out_path.read_text()
    assert "<text" not in text
    assert 'width="1160"' in text


def test_render_reports_canvas_misfit(capsys, tmp_path):
    code, _, err = run(
        capsys,
        "render", *STORY_ARGS, "--out", str(tmp_path / "x.svg"),
        "--width", "80", "--height", "40",
    )
    assert code == 2
    assert "enlarge the canvas" in err


def test_holes_touching_from_outside_get_no_lens(capsys, tmp_path):
    # AB = rA + rB = 1203/146 ft exactly; the chord ends print as one point.
    scene = [
        "--r", "20in", "--L", "53in", "--d", "9in", "--E", "729in",
        "--rA", "1in", "--rB", "7145/73in",
    ]
    code, out, _ = run(capsys, "report", *scene)
    assert code == 0
    assert "overlaps   = no" in out
    assert "margin     = 0 ft  (0.000000 ft)" in out
    out_path = tmp_path / "touch.svg"
    code, _, _ = run(
        capsys, "render", *scene, "--out", str(out_path),
        "--width", "6000", "--height", "2000", "--feet-per-px", "0.1",
    )
    assert code == 0
    svg = out_path.read_text()
    assert 'class="hole"' in svg
    assert 'class="lens"' not in svg


def test_render_reports_unwritable_path(capsys):
    code, _, err = run(
        capsys, "render", *STORY_ARGS, "--out", "/nonexistent-dir/plan.svg"
    )
    assert code == 2
    assert "cannot write" in err


def test_render_flag_defaults_are_the_canvas_defaults():
    # The parser keeps no canvas defaults of its own: a flag not given takes
    # CanvasSpec's default, a flag given overrides it.
    render = ["render", *STORY_ARGS, "--out", "x.svg"]
    assert _canvas(build_parser().parse_args(render)) == CanvasSpec()
    flags = [
        "--width", "900", "--height", "300", "--margin", "5", "--feet-per-px", "0.5",
        "--no-labels", "--exaggerate-angle", "3",
    ]
    assert _canvas(build_parser().parse_args(render + flags)) == CanvasSpec(
        width_px=900,
        height_px=300,
        margin_px=5,
        feet_per_px=0.5,
        show_labels=False,
        angle_exaggeration=3.0,
    )


# ---------------------------------------------------------------------------
# library errors: each one line on stderr, exit 2, nothing on stdout
# ---------------------------------------------------------------------------

RADII = ["--rA", "2ft", "--rB", "2ft"]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["threshold", "--rA", "0ft", "--rB", "2ft"], "hole radii (rA, rB) must be > 0"),
        (["threshold", *RADII, "--d", "0in"], "socket separation (d) must be > 0"),
        (["threshold", *RADII, "--E=-1in"], "extension (E) must be >= 0"),
        (["threshold", *RADII, "--r=-1in"], "trunk radius (r) must be >= 0"),
        (
            ["threshold", *RADII, "--r=-1in", "--convention", "from-trunk"],
            "trunk radius (r) must be >= 0",
        ),
        (["sweep", *STORY_ARGS, "--axis", "L=1ft:2ft:0in"], "sweep step for L must be > 0"),
        (["sweep", *STORY_ARGS, "--axis", "L=2ft:1ft:1in"], "sweep start > stop for L"),
        (
            ["sweep", *STORY_ARGS, "--axis", "L=1in:2in:1in", "--axis", "L=1in:2in:1in"],
            'duplicate sweep parameter "L"',
        ),
        (
            ["render", *STORY_ARGS, "--exaggerate-angle", "100"],
            "angle exaggeration 100 pushes the display half-angle past 90 degrees "
            "(max usable factor 47.74)",
        ),
        (
            ["render", *STORY_ARGS, "--exaggerate-angle", "0.5"],
            "angle exaggeration factor must be >= 1",
        ),
        (["render", *STORY_ARGS, "--margin=-1"], "canvas margin must be >= 0"),
        (["render", *STORY_ARGS, "--width", "0"], "canvas width/height must be positive"),
        (
            ["render", *STORY_ARGS, "--feet-per-px", "nan"],
            "feet_per_px must be a positive finite number",
        ),
    ],
)
def test_library_errors_exit_2_with_their_message(capsys, tmp_path, argv, message):
    out_path = tmp_path / "x.svg"
    if argv[0] == "render":
        argv = [*argv, "--out", str(out_path)]
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", f"goldbug: {message}\n")
    assert not out_path.exists()


# ---------------------------------------------------------------------------
# config file and precedence
# ---------------------------------------------------------------------------


def test_config_file_supplies_scenario(capsys, tmp_path):
    cfg = tmp_path / "gb.cfg"
    cfg.write_text("# story defaults\nr = 2in\nL = 3ft\nformat = json\n")
    code, out, _ = run(capsys, "report", "--config", str(cfg))
    assert code == 0
    assert json.loads(out)["ab"]["num"] == 1595


def test_config_env_var(capsys, tmp_path, monkeypatch):
    cfg = tmp_path / "gb.cfg"
    cfg.write_text("r = 2in\nL = 3ft\n")
    monkeypatch.setenv(CONFIG_ENV_VAR, str(cfg))
    code, out, _ = run(capsys, "report")
    assert code == 0
    assert "1595/456" in out


def test_flag_beats_config(capsys, tmp_path):
    cfg = tmp_path / "gb.cfg"
    cfg.write_text("r = 2in\nL = 3ft\n")
    code, out, _ = run(capsys, "report", "--config", str(cfg), "--L", "2ft", "--r", "0in")
    assert code == 0
    assert "AB         = 65/12 ft" in out


def test_format_flag_beats_config(capsys, tmp_path):
    cfg = tmp_path / "gb.cfg"
    cfg.write_text("r = 2in\nL = 3ft\nformat = json\n")
    code, out, _ = run(capsys, "report", "--config", str(cfg), "--format", "text")
    assert code == 0
    assert out.startswith("AB ")


def test_config_flag_beats_env_var(capsys, tmp_path, monkeypatch):
    good = tmp_path / "good.cfg"
    good.write_text("r = 0in\nL = 2ft\n")
    bad = tmp_path / "bad.cfg"
    bad.write_text("r = 2in\nL = 3ft\n")
    monkeypatch.setenv(CONFIG_ENV_VAR, str(bad))
    code, out, _ = run(capsys, "report", "--config", str(good))
    assert code == 0
    assert "65/12" in out


def test_config_unknown_key(capsys, tmp_path):
    cfg = tmp_path / "gb.cfg"
    cfg.write_text("radius = 2in\n")
    code, _, err = run(capsys, "report", "--config", str(cfg))
    assert code == 2
    assert "unknown key" in err


def test_config_malformed_line(capsys, tmp_path):
    cfg = tmp_path / "gb.cfg"
    cfg.write_text("r = 2in\njust some words\n")
    code, _, err = run(capsys, "report", "--config", str(cfg))
    assert code == 2
    assert "expected 'key = value'" in err


def test_config_bad_convention_is_a_usage_error(capsys, tmp_path):
    cfg = tmp_path / "gb.cfg"
    cfg.write_text("rA = 2ft\nrB = 2ft\nconvention = bogus\n")
    code, out, err = run(capsys, "threshold", "--config", str(cfg))
    assert code == 2
    assert out == ""
    assert err.splitlines() == [
        "goldbug: --convention: unknown value 'bogus' "
        "(expected from-drop-point or from-trunk)"
    ]


def test_config_not_utf8_is_a_usage_error(capsys, tmp_path):
    cfg = tmp_path / "gb.cfg"
    cfg.write_bytes(b"r = 2in\n\xff\xfeL = 3ft\n")
    code, out, err = run(capsys, "report", "--config", str(cfg))
    assert code == 2
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(f"goldbug: cannot read config file {cfg}: ")


@pytest.mark.parametrize(
    "command",
    [
        ["report"],
        ["threshold", "--rA", "2ft", "--rB", "2ft"],
        ["sweep", "--axis", "L=2ft:3ft:1ft"],
        ["verify-paper"],
    ],
)
def test_config_bad_format_is_a_usage_error(capsys, tmp_path, command):
    cfg = tmp_path / "gb.cfg"
    cfg.write_text("r = 2in\nL = 3ft\nformat = jsno\n")
    code, out, err = run(capsys, *command, "--config", str(cfg))
    assert code == 2
    assert out == ""
    assert err.splitlines() == [
        "goldbug: --format: unknown value 'jsno' (expected text or json)"
    ]


def test_config_missing_file(capsys, tmp_path):
    code, _, err = run(capsys, "report", "--config", str(tmp_path / "absent.cfg"))
    assert code == 2
    assert "cannot read config file" in err


# ---------------------------------------------------------------------------
# top level
# ---------------------------------------------------------------------------


def test_no_arguments_is_a_usage_error(capsys):
    assert main([]) == 2


def test_unknown_subcommand(capsys):
    assert main(["excavate"]) == 2


def test_help_exits_cleanly(capsys):
    assert main(["--help"]) == 0
    out = capsys.readouterr().out
    assert "report" in out and "threshold" in out and "render" in out


# sha256 of each --help page at 80 columns.  They guard the help text, the
# sweep parameter list and the flag defaults included, as imports move.
HELP_DIGESTS = {
    (): "bb3ec438e373b76640ae2d257db62c5a4698de28831c286a660759877c46d215",
    ("report",): "d62aa3f80100fc43ffda98e50d51ef0321927fcf71422cdb601961c714f33f5e",
    ("threshold",): "ee39a8e7af4e38b35c4f8b00367defa431dd26135565d63f1107cf2c54820425",
    ("verify-paper",): "8d453daaf46612752fdcc1ac249004c0878da441724125faadd063fbc33d02a9",
    ("sweep",): "7c96d62d5a425e1ea60f9f474ddb5f581d0774f701900d5f41780e6b4d081ace",
    ("render",): "8eaab3cb027be2456fc515c30b96dce5c78094ef087f807dea52f8798fc618ff",
}


@pytest.mark.parametrize("command", list(HELP_DIGESTS))
def test_help_pages_are_pinned(capsys, monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "80")
    code, out, err = run(capsys, *command, "--help")
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == HELP_DIGESTS[command], out


def test_help_defaults_come_from_the_scenario_module(capsys):
    assert main(["sweep", "--help"]) == 0
    out = " ".join(capsys.readouterr().out.split())
    for what, default in (
        ("drop-point separation", DEFAULT_SOCKET_SEPARATION),
        ("extension distance", DEFAULT_EXTENSION),
        ("first hole radius", DEFAULT_HOLE_RADIUS),
        ("second hole radius", DEFAULT_HOLE_RADIUS),
    ):
        assert f"{what} (default {format_exact_feet(default.feet)})" in out
    assert "(params: r, L, E, rA, rB; max 2)" in out


def test_bad_convention_value(capsys):
    code, _, err = run(capsys, "report", *STORY_ARGS, "--convention", "sideways")
    assert code == 2


# ---------------------------------------------------------------------------
# out-of-range inputs
# ---------------------------------------------------------------------------

# 10^400 ft: past the 10^300 in limit, and past float range in feet.
HUGE_FT = "1" + "0" * 400 + "ft"


def _one_usage_line(err):
    lines = err.splitlines()
    assert len(lines) == 1, err
    assert lines[0].startswith("goldbug: ")
    return lines[0]


def test_report_rejects_an_out_of_range_length(capsys):
    code, out, err = run(capsys, "report", *STORY_ARGS, "--E", HUGE_FT)
    assert code == 2
    assert out == ""
    assert _one_usage_line(err).startswith("goldbug: --E: length out of range")


def test_sweep_rejects_an_out_of_range_length_before_any_output(capsys):
    code, out, err = run(
        capsys, "sweep", *STORY_ARGS, "--E", HUGE_FT, "--axis", "L=2ft:3ft:1in"
    )
    assert code == 2
    assert out == ""
    assert _one_usage_line(err).startswith("goldbug: --E: length out of range")


def test_render_scale_past_float_range_is_a_usage_error(capsys, tmp_path):
    out_path = tmp_path / "x.svg"
    code, out, err = run(
        capsys, "render", *STORY_ARGS, "--out", str(out_path), "--feet-per-px", "1e-320"
    )
    assert code == 2
    assert out == ""
    assert _one_usage_line(err).startswith("goldbug: result out of float range")
    assert not out_path.exists()


def test_render_pixels_past_float_range_are_a_usage_error(capsys, tmp_path):
    # 1e300 px per foot fits the story in a 10^305 px canvas, but the lens's
    # squared pixel distance overflows, which used to write nan into the SVG.
    out_path = tmp_path / "x.svg"
    huge = "1" + "0" * 305
    code, out, err = run(
        capsys, "render", *STORY_ARGS, "--out", str(out_path),
        "--width", huge, "--height", huge, "--feet-per-px", "1e-300",
    )
    assert code == 2
    assert out == ""
    assert _one_usage_line(err).startswith("goldbug: pixel coordinate nan out of float range")
    assert not out_path.exists()


def test_threshold_bound_past_float_range_is_a_usage_error(capsys):
    # rA + rB exceeds d = 5/2 in by 10^-400 in, so d*E/(S-d) ~ 1.5e403 in.
    tiny = 10**400
    radius_a = f"{5 * tiny + 4}/{4 * tiny}in"
    for fmt in ([], ["--json"]):
        code, out, err = run(capsys, "threshold", "--rA", radius_a, "--rB", "5/4in", *fmt)
        assert code == 2
        assert out == ""
        assert _one_usage_line(err).startswith("goldbug: result out of float range")


def test_an_error_message_is_one_line_whatever_the_input(capsys):
    code, _, err = run(capsys, "report", "--r", "x\ny in", "--L", "3ft")
    assert code == 2
    assert _one_usage_line(err) == 'goldbug: --r: malformed quantity "x y" in "x y in"'


def test_commands_without_the_oracle_leave_numpy_unloaded(tmp_path):
    code = (
        "import sys\n"
        "from goldbug.cli import main\n"
        "assert main(sys.argv[1:]) == 0\n"
        "loaded = 'numpy' in sys.modules\n"
        "import goldbug\n"
        "assert goldbug.lens_area_mc.__module__ == 'goldbug.oracle'\n"
        "goldbug.lens_area_mc(1.0, 1.0, 1.0, 1000, 0)\n"
        "print(loaded, 'numpy' in sys.modules)\n"
    )
    for argv in (
        ["report", *STORY_ARGS],
        ["threshold", "--rA", "2ft", "--rB", "2ft", "--r", "2in"],
        ["sweep", *STORY_ARGS, "--axis", "L=2ft:4ft:1in", "--json"],
        ["render", *STORY_ARGS, "--out", str(tmp_path / "plan.svg")],
        ["verify-paper"],
    ):
        proc = _run_child(code, *argv)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split()[-2:] == ["False", "True"], argv


def test_each_command_loads_only_the_modules_it_runs(tmp_path):
    code = (
        "import sys\n"
        "from goldbug.cli import main\n"
        "assert main(sys.argv[1:]) == 0\n"
        "print(*sorted(m for m in sys.modules if m.startswith(('goldbug', 'numpy'))))\n"
    )
    optional = {
        "goldbug.claims", "goldbug.jsonio", "goldbug.oracle", "goldbug.render", "goldbug.sweeps",
        "numpy",
    }
    for argv, loaded in (
        (["report", *STORY_ARGS], set()),
        (["threshold", "--rA", "2ft", "--rB", "2ft", "--r", "2in"], set()),
        (["report", *STORY_ARGS, "--json"], {"goldbug.jsonio"}),
        (["render", *STORY_ARGS, "--out", str(tmp_path / "plan.svg")], {"goldbug.render"}),
        (["sweep", *STORY_ARGS, "--axis", "L=2ft:4ft:1in"], {"goldbug.sweeps"}),
        (["sweep", *STORY_ARGS, "--axis", "L=2ft:4ft:1in", "--json"],
         {"goldbug.sweeps", "goldbug.jsonio"}),
        (["verify-paper"], {"goldbug.claims", "goldbug.oracle"}),
        (["verify-paper", "--json"], {"goldbug.claims", "goldbug.oracle", "goldbug.jsonio"}),
    ):
        proc = _run_child(code, *argv)
        assert proc.returncode == 0, proc.stderr
        assert set(proc.stdout.split()) & optional == loaded, argv
    proc = _run_child(
        "import sys, goldbug.analysis\n"
        "print(*sorted(m for m in sys.modules if m.startswith('goldbug')))\n"
    )
    assert proc.stdout.split() == ["goldbug", "goldbug.analysis", "goldbug.scenario", "goldbug.units"]


def test_a_length_with_too_many_digits_is_a_usage_error(capsys, tmp_path):
    # Past Python's 4,300-digit int/str limit, which used to raise inside
    # parse_length.
    r = "1/" + "7" * 5000 + "in"
    code, out, err = run(capsys, "report", "--r", r, "--L", "3ft")
    assert code == 2
    assert out == ""
    assert _one_usage_line(err) == f"goldbug: --r: number with more than {MAX_DIGITS} digits"
    config = tmp_path / "site.conf"
    config.write_text(f"r = {r}\nL = 3ft\n")
    code, out, err = run(capsys, "report", "--config", str(config))
    assert code == 2
    assert out == ""
    assert _one_usage_line(err) == f"goldbug: --r: number with more than {MAX_DIGITS} digits"


def _digits_long(rng, whole):
    """A length a little above ``whole`` whose numerator and denominator
    both have MAX_DIGITS digits."""
    den = rng.randrange(10 ** (MAX_DIGITS - 1), 10**MAX_DIGITS // (whole + 1))
    return f"{whole * den + rng.randrange(den)}/{den}"


def test_lengths_at_the_digit_cap_print_in_every_command(capsys, tmp_path):
    # Every length, axis start and step has a different MAX_DIGITS-digit
    # denominator, so printed exact values are as long as they get (about
    # 8 * MAX_DIGITS digits in the sweep's margins).
    rng = random.Random(450)
    flags = []
    for key, whole, unit in (
        ("r", 2, "in"),
        ("L", 3, "ft"),
        ("d", 2, "in"),
        ("E", 8, "ft"),
        ("rA", 2, "ft"),
        ("rB", 2, "ft"),
    ):
        flags += [f"--{key}", _digits_long(rng, whole) + unit]
    axes = [
        "--axis", f"L={_digits_long(rng, 2)}ft:{_digits_long(rng, 4)}ft:{_digits_long(rng, 1)}ft",
        "--axis", f"E={_digits_long(rng, 6)}ft:{_digits_long(rng, 8)}ft:{_digits_long(rng, 1)}ft",
    ]
    svg = tmp_path / "plan.svg"
    for argv in (
        ["report", *flags, "--json"],
        ["threshold", *flags, "--json"],
        ["sweep", *flags, *axes, "--json"],
        ["render", *flags, "--out", str(svg)],
    ):
        code, out, err = run(capsys, *argv)
        assert code == 0, (argv[0], err)
        assert out or svg.exists()


@pytest.mark.parametrize(
    "argv",
    [["report", "--r", "2in", "--L", "3ft"], ["report", "--r", "2in"]],
)
def test_python_m_goldbug_is_the_cli(capsys, argv):
    proc = subprocess.run(
        [sys.executable, "-m", "goldbug", *argv],
        capture_output=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        timeout=60,
    )
    code, out, err = run(capsys, *argv)
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, out.encode(), err.encode())


@pytest.mark.parametrize("fmt", [[], ["--json"]])
def test_closed_stdout_exits_141_quietly(fmt):
    # `goldbug sweep ... | head -1`: 10,000 rows, far more than a pipe holds.
    proc = subprocess.Popen(
        [sys.executable, "-m", "goldbug", "sweep", *STORY_ARGS,
         "--axis", "L=1in:834.25in:1/12in", *fmt],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
    )
    try:
        assert proc.stdout.readline()
        proc.stdout.close()
        assert proc.wait(timeout=60) == 141
        assert proc.stderr.read() == b""
    finally:
        proc.kill()
        proc.wait()
        proc.stderr.close()


def test_no_stdout_at_all_is_not_an_error():
    # Started with fd 1 closed, Python sets sys.stdout to None and print()
    # writes nothing: the command still succeeds.
    proc = subprocess.run(
        [sys.executable, "-m", "goldbug", "report", *STORY_ARGS],
        stderr=subprocess.PIPE,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        timeout=60,
        preexec_fn=lambda: os.close(1),
    )
    assert (proc.returncode, proc.stderr) == (0, b"")
