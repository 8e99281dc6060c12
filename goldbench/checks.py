"""Checks of every output against the benchmark's own computation.

Each checker takes one call and what the program produced (exit code,
stdout, stderr) and returns a Tally: the ops the call stands for and how
many of them failed.  Nothing is compared with a stored copy of earlier
output; each expected value comes from geometry.py or from a property the
answer must have.
"""

from __future__ import annotations

import itertools
import json
import math
import re
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from geometry import DROP, FT, TRUNK, Site, lens_area
from inputs import CliCall

F = Fraction
_FT_VALUE = r"(-?\d+(?:/\d+)?) ft"


@dataclass
class Tally:
    """Ops attempted and failed by one check, with the first few reasons."""

    attempted: int = 0
    failed: int = 0
    reasons: list[str] = field(default_factory=list)

    def fail(self, count: int, reason: str) -> None:
        self.failed += count
        if len(self.reasons) < 5:
            self.reasons.append(reason)


class Bad(Exception):
    """A check failed; the message says which."""


def _need(ok: bool, message: str) -> None:
    if not ok:
        raise Bad(message)


def check_cli(call: CliCall, code: int, out: bytes, err: bytes, seen: dict) -> Tally:
    """`seen` keeps the latest parsed claim suite of each format for the
    text-against-JSON comparison; one dict serves one run."""
    tally = Tally(attempted=call.ops)
    try:
        if call.kind == "invalid":
            _check_invalid(code, out, err)
            return tally
        _need(code == 0, f"exit {code}: {err[-300:].decode('utf-8', 'replace')}")
        text = out.decode("utf-8")
        if call.kind == "render":
            _check_render(call, text, err.decode("utf-8"))
            return tally
        _need(err == b"", f"unexpected stderr {err[:200]!r}")
        if call.kind == "report":
            _check_report(call.expect["site"], call.fmt, text)
        elif call.kind == "threshold":
            _check_threshold(call, text)
        elif call.kind == "sweep":
            bad = _check_sweep(call, text)
            if bad:
                tally.fail(min(bad[0], call.ops), bad[1])
        elif call.kind == "verify":
            bad = check_claims(call.fmt, text, seen)
            if bad:
                tally.fail(len(bad), "; ".join(bad))
        else:
            raise Bad(f"unknown call kind {call.kind}")
    except (Bad, ValueError, KeyError, TypeError, IndexError, ET.ParseError) as exc:
        tally.fail(call.ops - tally.failed, f"{call.kind} {call.argv[:4]}: {exc}")
    return tally


def _check_invalid(code: int, out: bytes, err: bytes) -> None:
    lines = err.decode("utf-8", "replace").splitlines()
    _need(code == 2, f"invalid input exited {code}")
    _need(out == b"", "invalid input wrote to stdout")
    _need(
        len(lines) == 1 and lines[0].startswith("goldbug: "),
        f"expected one 'goldbug:' line on stderr, got {len(lines)} lines",
    )


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------


def _lens_ok(site: Site, lens: float, overlaps: bool, rel: float, absolute: float) -> None:
    cap = math.pi * float(min(site.rA, site.rB) / FT) ** 2
    if not overlaps:
        _need(lens == 0.0, f"clear holes with lens {lens}")
        return
    own = site.lens_sqft()
    _need(0.0 <= lens <= cap + absolute, f"lens {lens} outside [0, {cap}]")
    _need(abs(lens - own) <= rel * own + absolute, f"lens {lens} vs own {own}")


def _check_report(site: Site, fmt: str, text: str) -> None:
    ab_true = site.ab_exact()
    overlaps = ab_true < site.radii_sum
    if fmt == "json":
        obj = json.loads(text)
        ab = _inches(obj["ab"])
        _need(ab * (site.r + site.L) == site.d * site.ray, f"AB {ab} in breaks AB(r+L) = dD")
        _need(_inches(obj["radii_sum"]) == site.radii_sum, "radii sum")
        _need(obj["overlaps"] is (ab < site.radii_sum), "overlaps flag")
        _need(_inches(obj["margin"]) == ab - site.radii_sum, "margin")
        trig = site.ab_trig_ft()
        _need(abs(float(obj["ab_feet_decimal"]) - trig) <= 1e-12 * trig, "AB decimal")
        _lens_ok(site, obj["lens_area_sqft"], overlaps, 1e-9, 0.0)
        _check_scenario_echo(obj["scenario"], site)
        return
    lines = text.splitlines()
    _need(len(lines) == 5, f"expected 5 report lines, got {len(lines)}")
    ab_ft, ab_dec = _match(rf"AB {{9}}= {_FT_VALUE}  \((\S+) ft\)", lines[0])
    ab = F(ab_ft) * FT
    _need(ab * (site.r + site.L) == site.d * site.ray, f"AB {ab} in breaks AB(r+L) = dD")
    _need(abs(float(ab_dec) - site.ab_trig_ft()) <= 1e-6, f"AB {ab_dec} vs 2D sin(theta)")
    radii, _ = _match(rf"radii sum  = {_FT_VALUE}  \((\S+) ft\)", lines[1])
    _need(F(radii) * FT == site.radii_sum, "radii sum")
    (shown,) = _match(r"overlaps   = (yes|no)", lines[2])
    _need((shown == "yes") is overlaps, "overlaps flag")
    margin, _ = _match(rf"margin     = {_FT_VALUE}  \((\S+) ft\)", lines[3])
    _need(F(margin) * FT == ab_true - site.radii_sum, "margin")
    (lens,) = _match(r"lens area  = (\S+) sq ft", lines[4])
    _lens_ok(site, float(lens), overlaps, 0.0, 5.000001e-7)


def _check_scenario_echo(obj: dict, site: Site) -> None:
    for key in ("r", "L", "d", "E", "rA", "rB"):
        _need(_inches(obj[key]) == getattr(site, key), f"scenario echo {key}")
    _need(obj["convention"] == site.convention, "scenario echo convention")


def _inches(obj: dict) -> Fraction:
    _need(obj["unit"] == "in", f"unit {obj['unit']!r}")
    num, den = obj["num"], obj["den"]
    _need(isinstance(num, int) and isinstance(den, int) and den > 0, "num/den")
    return F(num, den)


def _match(pattern: str, line: str) -> tuple[str, ...]:
    m = re.fullmatch(pattern, line)
    _need(m is not None, f"line {line!r} does not match {pattern!r}")
    return m.groups()


# ---------------------------------------------------------------------------
# threshold
# ---------------------------------------------------------------------------


def _feet_inches(inches: Fraction) -> str:
    feet, rest = divmod(math.floor(inches + F(1, 2)), FT)
    return f"{feet}'{rest}\""


def _check_threshold(call: CliCall, text: str) -> None:
    site: Site = call.expect["site"]
    with_r = call.expect["with_r"]
    S, d, E, r = site.radii_sum, site.d, site.E, site.r

    def margin_at(bound: Fraction) -> Fraction:
        ray = bound + E if site.convention == DROP else r + E
        return d * ray / bound - S

    if call.fmt == "json":
        obj = json.loads(text)
        _need(obj["convention"] == site.convention, "convention")
        main = _threshold_json(obj["r_plus_l"])
        l_only = None if obj["l_only"] is None else _threshold_json(obj["l_only"])
    else:
        lines = text.splitlines()
        _need(len(lines) == (2 if with_r else 1), f"{len(lines)} threshold lines")
        main = _threshold_text("r+L", lines[0])
        l_only = _threshold_text("L", lines[1]) if with_r else None

    always = site.convention == DROP and S <= d
    _need((main[0] == "always-nonoverlap") is always, f"kind {main[0]}")
    if not always:
        _need(main[0] == "finite" and main[1] > 0, f"r+L bound {main}")
        _need(margin_at(main[1]) == 0, f"margin at bound {main[1]} in is not 0")
    if not with_r:
        _need(l_only is None, "L bound without --r")
        return
    _need(l_only is not None, "missing L bound")
    if always:
        _need(l_only[0] == "always-nonoverlap", f"L kind {l_only[0]}")
    elif main[1] - r <= 0:
        _need(l_only[0] == "no-valid-l", f"L kind {l_only[0]}")
    else:
        _need(l_only[0] == "finite" and l_only[1] == main[1] - r, f"L bound {l_only}")


def _threshold_json(obj: dict) -> tuple[str, Fraction | None]:
    kind = obj["kind"]
    if obj["bound"] is None:
        return kind, None
    bound = _inches(obj["bound"])
    _need(obj["bound_display"] == _feet_inches(bound), "bound display")
    _need(float(obj["bound_feet_decimal"]) == float(bound / FT), "bound decimal")
    return kind, bound


def _threshold_text(label: str, line: str) -> tuple[str, Fraction | None]:
    if line == f"{label}: holes never overlap (radii sum <= drop separation)":
        return "always-nonoverlap", None
    if line == f"{label}: no valid L (the trunk radius alone exceeds the bound)":
        return "no-valid-l", None
    value, approx, display = _match(
        rf"{re.escape(label)} < {_FT_VALUE} \(≈ (\S+) ft, (\d+'\d+\")\)", line
    )
    bound = F(value) * FT
    _need(abs(float(approx) - float(bound / FT)) <= 5.0001e-5, f"≈ {approx}")
    _need(display == _feet_inches(bound), f"display {display}")
    return "finite", bound


# ---------------------------------------------------------------------------
# render
# ---------------------------------------------------------------------------


def _check_render(call: CliCall, out: str, err: str) -> None:
    site: Site = call.expect["site"]
    path = Path(call.expect["out"])
    data = path.read_bytes()
    path.unlink()
    _need(out == "", "render wrote to stdout")
    _need(err == f"wrote {path} ({len(data)} bytes)\n", f"stderr {err!r}")
    root = ET.fromstring(data)
    circles = [el for el in root.iter() if el.tag.rsplit("}", 1)[-1] == "circle"]
    _need(len(circles) == 3, f"{len(circles)} circle elements")
    fpp = call.expect["fpp"]
    for el, radius in zip(circles, (site.r, site.rA, site.rB)):
        want = radius / FT / fpp
        got = F(el.get("r"))
        _need(abs(got - want) <= F(1, 20000) + F(1, 10**9), f"radius {got} px vs {float(want):.6f}")


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def _axis_values(axes) -> list[list[Fraction]]:
    return [
        [start + k * step for k in range((stop - start) // step + 1)]
        for _, start, stop, step in axes
    ]


def _length_str(v: Fraction) -> str:
    return f"{v.numerator}in" if v.denominator == 1 else f"{v.numerator}/{v.denominator}in"


_FIELDS = ("r", "L", "d", "E", "rA", "rB")


def _check_sweep(call: CliCall, text: str) -> tuple[int, str] | None:
    """Returns (failed rows, first reason), or None when every row is right.

    Every length of the sweep is an integer count of 1/Q inch, Q the least
    common denominator, so each row is checked in integer arithmetic."""
    site: Site = call.expect["site"]
    axes = call.expect["axes"]
    params = [a[0] for a in axes]
    values = _axis_values(axes)
    Q = math.lcm(*(v.denominator for v in [getattr(site, k) for k in _FIELDS] + [a[1] for a in axes] + [a[3] for a in axes]))
    base = {k: int(getattr(site, k) * Q) for k in _FIELDS}
    ints = [[int(v * Q) for v in vs] for vs in values]
    labels = [[_length_str(v) for v in vs] for vs in values]
    trunk = site.convention == TRUNK
    if call.fmt == "json":
        obj = json.loads(text)
        _need([a["param"] for a in obj["axes"]] == params, "axes echo")
        rows = obj["rows"]
    else:
        rows = text.splitlines()
        _need(rows[0].split()[: len(params)] == params, "header")
        rows = rows[1:]
    grid = list(itertools.product(*(range(len(vs)) for vs in values)))
    _need(len(rows) == len(grid), f"{len(rows)} rows, expected {len(grid)}")

    failed, first = 0, None
    falling: dict[tuple, float | Fraction] = {}
    l_axis = params.index("L") if "L" in params and not trunk else None
    for point, row in zip(grid, rows):
        x = dict(base)
        for axis, k in enumerate(point):
            x[params[axis]] = ints[axis][k]
        try:
            args = (row, params, point, ints, labels, x, trunk, Q)
            ab = _sweep_row_json(*args) if call.fmt == "json" else _sweep_row_text(*args)
            if l_axis is not None and ab is not None:
                others = point[:l_axis] + point[l_axis + 1 :]
                last = falling.get(others)
                _need(last is None or ab < last, "AB does not fall as L grows")
                falling[others] = ab
        except (Bad, ValueError, KeyError, TypeError, IndexError) as exc:
            failed += 1
            if first is None:
                where = {p: labels[a][k] for a, (p, k) in enumerate(zip(params, point))}
                first = f"sweep row {where}: {exc}"
    return (failed, first) if failed else None


def _invalid(x: dict, trunk: bool) -> bool:
    """The scenario rules, on integer lengths."""
    return (
        x["r"] < 0 or x["L"] <= 0 or x["d"] <= 0 or x["E"] < 0 or x["rA"] <= 0
        or x["rB"] <= 0 or x["d"] > 2 * (x["r"] + x["L"])
        or (trunk and x["r"] + x["E"] <= 0)
    )


def _sweep_row_json(row, params, point, ints, labels, x, trunk, Q):
    got = row["values"]
    _need(list(got) == params, "row params")
    for axis, (param, k) in enumerate(zip(params, point)):
        v = got[param]
        _need(v["unit"] == "in" and v["num"] * Q == ints[axis][k] * v["den"], f"{param} value")
    if _invalid(x, trunk):
        _need(row["report"] is None and row["invalid_reason"], "expected an invalid row")
        return None
    _need(row["invalid_reason"] is None, f"unexpected invalid: {row['invalid_reason']}")
    rep = row["report"]
    rl, S = x["r"] + x["L"], x["rA"] + x["rB"]
    ray = x["r"] + x["E"] if trunk else rl + x["E"]
    ab = rep["ab"]
    num, den = ab["num"], ab["den"]
    _need(ab["unit"] == "in" and den > 0, "AB unit")
    _need(num * rl * Q == x["d"] * ray * den, "AB breaks AB(r+L) = dD")
    _need(rep["overlaps"] is (num * Q < S * den), "overlaps flag")
    margin = rep["margin"]
    _need(margin["num"] * Q * den == (num * Q - S * den) * margin["den"], "margin")
    lens = rep["lens_area_sqft"]
    cap = math.pi * (min(x["rA"], x["rB"]) / (Q * FT)) ** 2
    if rep["overlaps"]:
        _need(0.0 <= lens <= cap, f"lens {lens} outside [0, {cap}]")
    else:
        _need(lens == 0.0, f"clear holes with lens {lens}")
    echo = rep["scenario"]
    for key in _FIELDS:
        e = echo[key]
        _need(e["num"] * Q == x[key] * e["den"], f"scenario echo {key}")
    _need(echo["convention"] == (TRUNK if trunk else DROP), "scenario echo convention")
    return F(num, den)


def _sweep_row_text(line, params, point, ints, labels, x, trunk, Q):
    cells = line.split()
    n = len(params)
    _need(cells[:n] == [labels[a][k] for a, k in enumerate(point)], "grid values")
    if _invalid(x, trunk):
        _need(cells[n : n + 3] == ["-", "-", "invalid:"] and len(cells) > n + 3, "expected an invalid row")
        return None
    _need(len(cells) == n + 3, f"row {line!r}")
    rl, S = x["r"] + x["L"], x["rA"] + x["rB"]
    dD = x["d"] * (x["r"] + x["E"] if trunk else rl + x["E"])
    scale = rl * Q * FT
    ab, margin = float(cells[n]), float(cells[n + 1])
    _need(abs(ab - dD / scale) <= 1e-6, f"AB {ab}")
    _need(abs(margin - (dD - S * rl) / scale) <= 1e-6, f"margin {margin}")
    _need(cells[n + 2] == ("overlap" if dD < S * rl else "clear"), f"verdict {cells[n + 2]}")
    return ab


# ---------------------------------------------------------------------------
# verify-paper
# ---------------------------------------------------------------------------


def _feet_str(value: Fraction) -> str:
    return f"{value.numerator} ft" if value.denominator == 1 else f"{value.numerator}/{value.denominator} ft"


def claim_values() -> dict[str, str]:
    """The computed column of each claim, recomputed from the story's numbers."""
    d, E, two_ft, two_in = F(5, 24), F(50), F(2), F(1, 6)

    def bound(ra: Fraction, rb: Fraction) -> Fraction:  # d·E/(S−d), in feet
        return d * E / (ra + rb - d)

    c1 = bound(two_ft, two_ft)
    c3 = c1 - two_in
    c7 = d * (two_in + E) / (2 * two_ft) - two_in
    overlapping = sum(
        1
        for r in range(2, 14)
        for L in range(36, 121)
        if Site(r=F(r), L=F(L)).ab_exact() < 48
    )
    c6 = [bound(two_ft, rb) for rb in (F(2), F(9, 4), F(5, 2), F(3))]
    return {
        "C1": _feet_str(c1),
        "C2": _feet_inches(c1 * FT),
        "C3": f"{_feet_str(c3)} -> {_feet_inches(c3 * FT)}",
        "C5": f"{overlapping}/1020 overlap",
        "C6": " > ".join(_feet_str(b) for b in c6),
        "C7": f"{_feet_str(c7)} < {_feet_str(c3)}",
    }


_CLAIMS = claim_values()
_C4 = re.compile(r"max relative deviation (\S+)")


def _parse_claims(fmt: str, text: str) -> list[tuple]:
    if fmt == "json":
        return [(c["id"], c["pass"], c["quote"], c["expected"], c["computed"]) for c in json.loads(text)]
    lines = text.splitlines()
    _need(len(lines) == 22 and lines[-1] == "7/7 claims passed", "summary is not 7/7")
    out = []
    for i in range(0, 21, 3):
        cid, verdict, statement = _match(r"(C\d) (PASS|FAIL)  (.*)", lines[i])
        (expected,) = _match(r" {9}expected: (.*)", lines[i + 1])
        (computed,) = _match(r" {9}computed: (.*)", lines[i + 2])
        out.append((cid, verdict == "PASS", statement, expected, computed))
    return out


def check_claims(fmt: str, text: str, seen: dict) -> list[str]:
    """Reasons for each failed claim; all seven fail if the output is unreadable.

    Text and JSON outputs must agree: each is compared with the latest
    output of the other format."""
    try:
        claims = _parse_claims(fmt, text)
        _need([c[0] for c in claims] == [f"C{i}" for i in range(1, 8)], "claim ids")
    except (Bad, ValueError, KeyError, TypeError) as exc:
        return [f"verify-paper {fmt}: {exc}"] * 7
    seen[fmt] = claims
    other = seen.get("text" if fmt == "json" else "json")
    bad = []
    for i, (cid, passed, _, _, computed) in enumerate(claims):
        reason = None
        if not passed:
            reason = "marked FAIL"
        elif cid == "C4":
            m = _C4.fullmatch(computed)
            if m is None or not float(m.group(1)) < 1e-12:
                reason = f"deviation {computed!r}"
        elif computed != _CLAIMS[cid]:
            reason = f"computed {computed!r}, expected {_CLAIMS[cid]!r}"
        if reason is None and other is not None and other[i] != claims[i]:
            reason = "text and JSON disagree"
        if reason:
            bad.append(f"{cid}: {reason}")
    return bad


# ---------------------------------------------------------------------------
# oracle_batch
# ---------------------------------------------------------------------------


def site_of(scenario) -> Site:
    """The benchmark's view of a goldbug Scenario, from its exact fields."""
    return Site(
        r=scenario.trunk_radius.inches,
        L=scenario.socket_offset.inches,
        d=scenario.socket_separation.inches,
        E=scenario.extension.inches,
        rA=scenario.hole_radius_a.inches,
        rB=scenario.hole_radius_b.inches,
        convention=scenario.convention.value,
    )


def check_oracle(request, rows, estimate, repeat_of=None) -> Tally:
    """rows: (scenario, center_distance, oracle distance, overlaps, grid) per
    scenario; estimate: the request's McEstimate."""
    tally = Tally(attempted=request.ops)
    if len(rows) != request.count:
        tally.fail(request.ops, f"{len(rows)} scenarios, asked for {request.count}")
        return tally
    for scenario, closed, coord, overlaps, grid in rows:
        try:
            site = site_of(scenario)
            _need(site.invalid_reason() is None, f"invalid scenario drawn: {site}")
            exact = site.ab_exact() / FT
            _need(closed == exact, f"center_distance {closed} vs {exact}")
            value = float(exact)
            _need(abs(coord - value) <= 1e-12 * value, f"oracle {coord} vs {value}")
            trig = site.ab_trig_ft()
            _need(abs(float(closed) - trig) <= 1e-12 * trig, f"closed {closed} vs trig {trig}")
            _need(overlaps is (exact * FT < site.radii_sum), "overlap_report verdict")
            _need(not grid or overlaps, "grid found overlap where there is none")
        except Bad as exc:
            tally.fail(1, str(exc))
    truth = lens_area(request.mc_distance, request.mc_ra, request.mc_rb)
    if not abs(estimate.value - truth) <= 4 * estimate.std_error:
        tally.fail(1, f"MC {estimate.value} +- {estimate.std_error} vs {truth}")
    if repeat_of is not None and (estimate.value, estimate.std_error) != repeat_of:
        tally.fail(1, "MC estimate did not repeat bit for bit")
    return tally
