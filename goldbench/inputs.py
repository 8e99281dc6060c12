"""Seeded inputs for the four workloads.

Round `i` of a workload is a pure function of (workload, seed, i): every
round has the same make-up of calls and only the values change with the
seed, so the share of failed ops is the same in every run.  All lengths are
exact rationals in inches (see geometry.Site), written out in the varied
syntaxes that `parse_length` accepts.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field, replace
from fractions import Fraction
from pathlib import Path

from geometry import DEFAULT_D, DEFAULT_E, DEFAULT_R_HOLE, DROP, FT, TRUNK, Site

F = Fraction


@dataclass
class CliCall:
    """One `goldbug` invocation and what the checker needs to judge it."""

    kind: str  # report, threshold, render, sweep, invalid, verify
    argv: list[str]
    fmt: str = "text"
    env_config: str | None = None  # path exported as $GOLDBUG_CONFIG
    ops: int = 1
    expect: dict = field(default_factory=dict)
    known_fault: bool = False  # fails today because of a named program fault
    group: str | None = None  # call kind for per-kind figures, if not kind/fmt

    @property
    def stratum(self) -> str:
        return self.group or f"{self.kind}/{self.fmt}"


@dataclass
class OracleRequest:
    """One in-process library request of the oracle_batch workload."""

    count: int
    scenario_seed: int
    cells_per_foot: int
    mc_distance: Fraction  # feet
    mc_ra: Fraction
    mc_rb: Fraction
    mc_samples: int
    mc_seed: int

    @property
    def ops(self) -> int:
        return self.count

    @property
    def stratum(self) -> str:
        return f"mc{self.mc_samples}"


def _rng(workload: str, seed: int, index: int) -> random.Random:
    # String seeds hash with SHA-512, independent of PYTHONHASHSEED.
    return random.Random(f"goldbench:{workload}:{seed}:{index}")


# ---------------------------------------------------------------------------
# Length syntax
# ---------------------------------------------------------------------------


def _decimal(q: Fraction) -> str | None:
    """Exact decimal with at most 6 places, or None if there is none."""
    scaled = q * 10**6
    if q < 0 or scaled.denominator != 1:
        return None
    n = scaled.numerator
    return f"{n // 10**6}.{n % 10**6:06d}".rstrip("0").rstrip(".")


def fmt_length(v: Fraction, rng: random.Random) -> str:
    """One of the spellings of v inches that parse back to exactly v."""
    forms = [f"{v.numerator}/{v.denominator}in"]
    if v.denominator == 1:
        forms.append(f"{v.numerator}in")
    for value, unit in ((v, "in"), (v / FT, "ft")):
        dec = _decimal(value)
        if dec is not None:
            forms.append(f"{dec}{unit}")
    if v >= 0:
        feet = v // FT
        inches = _decimal(v - FT * feet)
        if inches is not None:
            forms.append(f"{feet}'{inches}\"")
    return rng.choice(forms)


# ---------------------------------------------------------------------------
# Scenario inputs
# ---------------------------------------------------------------------------


def _hole(rng: random.Random) -> Fraction:
    return F(rng.randint(12, 36), rng.choice((1, 2)))


def plausible_site(rng: random.Random, convention: str) -> Site:
    """A valid layout near the story's, kept away from tangency.

    Sites within 1% of external or internal tangency are redrawn: there the
    program's float lens area loses the relative accuracy the report check
    asks for (see "Left out of the workloads" in README.md).
    """
    while True:
        site = Site(
            r=F(rng.randint(0, 24), rng.choice((1, 2, 4))),
            L=F(rng.randint(6, 144), rng.choice((1, 2, 4, 12))),
            d=DEFAULT_D if rng.random() < 0.6 else F(rng.randint(3, 14), 4),
            E=DEFAULT_E if rng.random() < 0.6 else F(rng.randint(20, 60)) * FT,
            rA=DEFAULT_R_HOLE if rng.random() < 0.5 else _hole(rng),
            rB=DEFAULT_R_HOLE if rng.random() < 0.5 else _hole(rng),
            convention=convention,
        )
        if site.invalid_reason() is not None:
            continue
        ab, gap = site.ab_exact(), site.radii_sum / 100
        if abs(ab - site.radii_sum) > gap and abs(ab - abs(site.rA - site.rB)) > gap:
            return site


_SCENARIO_KEYS = ("r", "L", "d", "E", "rA", "rB")
_DEFAULTS = {"d": DEFAULT_D, "E": DEFAULT_E, "rA": DEFAULT_R_HOLE, "rB": DEFAULT_R_HOLE}


def _scenario_inputs(
    site: Site, rng: random.Random, keys=_SCENARIO_KEYS, required=("r", "L")
) -> dict[str, str]:
    """Spelled-out inputs; defaults are sometimes left out, sometimes given."""
    out = {}
    for key in keys:
        value = getattr(site, key)
        if key not in required and value == _DEFAULTS.get(key) and rng.random() < 0.7:
            continue
        out[key] = fmt_length(value, rng)
    if site.convention == TRUNK or rng.random() < 0.3:
        out["convention"] = site.convention
    return out


class _Files:
    """Config files of one round, written under the run's scratch directory."""

    def __init__(self, tmp: Path, tag: str) -> None:
        self.tmp, self.tag, self.count = tmp, tag, 0

    def write(self, content: str | bytes) -> str:
        self.count += 1
        path = self.tmp / f"{self.tag}-{self.count}.conf"
        data = content.encode("utf-8") if isinstance(content, str) else content
        path.write_bytes(data)
        return str(path)


def _apply_inputs(
    command: str,
    inputs: dict[str, str],
    fmt: str,
    mode: str,
    rng: random.Random,
    files: _Files,
) -> CliCall:
    """Deliver scenario inputs by flags, by --config or by $GOLDBUG_CONFIG.

    In the config modes one value is sometimes also given as a flag, with a
    decoy in the file, so that flag-over-config precedence is exercised.
    """
    argv = [command]
    call = CliCall(kind=command, argv=argv, fmt=fmt)
    if mode == "flags":
        for key, value in inputs.items():
            argv += [f"--{key}", value]
        if fmt == "json":
            argv.append(rng.choice(("--json", "--format=json")))
        return call
    lines = ["# goldbench generated"]
    flagged = rng.choice(list(inputs)) if inputs and rng.random() < 0.5 else None
    for key, value in inputs.items():
        if key == flagged:
            argv += [f"--{key}", value]
            if key != "convention":
                lines.append(f"{key} = 999/7in")
        else:
            lines.append(f"{key} = {value}")
    if fmt == "json":
        lines.append("format = json")
    path = files.write("\n".join(lines) + "\n")
    if mode == "config":
        argv += ["--config", path]
    else:
        call.env_config = path
    return call


# ---------------------------------------------------------------------------
# cli_oneshot
# ---------------------------------------------------------------------------

# Fixed make-up of one round: 27 valid calls and 3 invalid ones, of which
# two are the known config-file faults.
_ONESHOT_SLOTS = (
    [("report", "text")] * 5
    + [("report", "json")] * 5
    + [("threshold", v) for v in ("drop", "drop_r", "trunk_r", "always", "no_l")]
    + [("threshold", v) for v in ("drop", "drop_r", "trunk_r")]
    + [("render", None)] * 4
    + [("sweep", "text")] * 3
    + [("sweep", "json")] * 2
    + [("invalid", None), ("fault", "bad_convention"), ("fault", "not_utf8")]
)
_MODES = ("flags", "config", "env")


def oneshot_round(seed: int, index: int, tmp: Path) -> list[CliCall]:
    rng = _rng("cli_oneshot", seed, index)
    files = _Files(tmp, f"o{index}")
    calls = []
    for slot, (kind, variant) in enumerate(_ONESHOT_SLOTS):
        mode = _MODES[(slot + index) % 3]
        if kind == "report":
            calls.append(report_call(rng, variant, mode, files))
        elif kind == "threshold":
            fmt = "json" if (slot + index) % 2 else "text"
            calls.append(threshold_call(rng, variant, fmt, mode, files))
        elif kind == "render":
            calls.append(render_call(rng, mode, files, slot))
        elif kind == "sweep":
            calls.append(small_sweep_call(rng, variant, mode, files))
        elif kind == "invalid":
            calls.append(invalid_call(rng, files))
        else:
            calls.append(fault_call(variant, files))
    rng.shuffle(calls)
    return calls


def report_call(rng, fmt, mode, files) -> CliCall:
    site = plausible_site(rng, rng.choice((DROP, TRUNK)))
    call = _apply_inputs("report", _scenario_inputs(site, rng), fmt, mode, rng, files)
    call.expect["site"] = site
    return call


def threshold_call(rng, variant, fmt, mode, files) -> CliCall:
    rA, rB = _hole(rng), _hole(rng)
    d = DEFAULT_D if rng.random() < 0.6 else F(rng.randint(3, 14), 4)
    E = DEFAULT_E if rng.random() < 0.6 else F(rng.randint(20, 60)) * FT
    r = F(rng.randint(0, 24), rng.choice((1, 2, 4)))
    convention = TRUNK if variant == "trunk_r" else DROP
    if variant == "always":
        rA, rB = F(rng.randint(2, 5), 4), F(rng.randint(2, 5), 4)
        d = rA + rB + F(rng.randint(0, 4), 4)
    elif variant == "no_l":
        r = F(rng.randint(5, 9)) * FT  # beyond every finite bound below
        rA = rB = F(rng.randint(24, 36))
        d, E = DEFAULT_D, DEFAULT_E
    site = Site(r=r, L=F(1), d=d, E=E, rA=rA, rB=rB, convention=convention)
    keys = ("rA", "rB", "d", "E") + (("r",) if variant != "drop" and variant != "always" else ())
    inputs = _scenario_inputs(site, rng, keys, required=("rA", "rB", "r"))
    call = _apply_inputs("threshold", inputs, fmt, mode, rng, files)
    call.expect.update(site=site, with_r="r" in keys)
    return call


def render_call(rng, mode, files, slot) -> CliCall:
    site = plausible_site(rng, rng.choice((DROP, TRUNK)))
    inputs = _scenario_inputs(site, rng)
    call = _apply_inputs("render", inputs, "text", mode, rng, files)
    fpp_text = rng.choice(("0.05", "0.04", "0.0625", "0.08"))
    factor = rng.choice((1, 1, 2, 3))
    if math.asin(float(site.d / 2 / (site.r + site.L))) * factor > 1.4:
        factor = 1
    width, height = _canvas_for(site, float(fpp_text), factor, margin=24)
    out = str(files.tmp / f"{files.tag}-plan{slot}.svg")
    call.argv += ["--out", out, "--feet-per-px", fpp_text]
    call.argv += ["--width", str(width), "--height", str(height)]
    if factor != 1:
        call.argv += ["--exaggerate-angle", str(factor)]
    if rng.random() < 0.3:
        call.argv.append("--no-labels")
    call.expect.update(site=site, out=out, fpp=F(fpp_text))
    return call


def _canvas_for(site: Site, fpp: float, factor: int, margin: int) -> tuple[int, int]:
    """A canvas the scene fits with room to spare, from the benchmark's own
    bounding box of trunk, drop points and holes."""
    theta = math.asin(float(site.d / 2 / (site.r + site.L))) * factor
    cos_t, sin_t = math.cos(theta), math.sin(theta)
    r, drop = float(site.r / FT), float((site.r + site.L) / FT)
    ray, big = float(site.ray / FT), float(max(site.rA, site.rB) / FT)
    span_x = max(r, drop * cos_t, ray * cos_t + big) - min(-r, ray * cos_t - big)
    span_y = 2 * max(r, drop * sin_t, ray * sin_t + big)
    return (
        math.ceil(span_x / fpp) + 2 * margin + 16,
        math.ceil(span_y / fpp) + 2 * margin + 16,
    )


def small_sweep_call(rng, fmt, mode, files) -> CliCall:
    """A sweep of at most 20 rows over one or two axes.  Equal holes keep
    every row clear of internal tangency."""
    site = plausible_site(rng, rng.choice((DROP, TRUNK)))
    site = replace(site, rB=site.rA)
    if rng.random() < 0.5:
        axes = [_axis(rng, "L", F(rng.randint(12, 60)), F(rng.randint(1, 12), 4), rng.randint(5, 20))]
    else:
        axes = [
            _axis(rng, "r", F(rng.randint(0, 8)), F(1, 2), rng.randint(2, 4)),
            _axis(rng, "L", F(rng.randint(12, 60)), F(rng.randint(1, 7), 3), 5),
        ]
    call = _sweep_call(rng, site, axes, fmt, mode, files)
    call.ops = 1  # an op of cli_oneshot is a call
    return call


# ---------------------------------------------------------------------------
# sweep_study
# ---------------------------------------------------------------------------

# Rows per call.  Text rows cost about a third of JSON rows, so the text
# grids are larger; both keep process start-up under a fifth of a call,
# and a round stays short enough for several rounds in one run.
SWEEP_TEXT_ROWS = 15_000
SWEEP_JSON_ROWS = 5_000


def sweep_round(seed: int, index: int, tmp: Path) -> list[CliCall]:
    """Four sweeps: text and JSON, both conventions, 1 and 2 axes, with
    step denominators of 4, 12 and 7 and two grids that cross d > 2(r+L)."""
    rng = _rng("sweep_study", seed, index)
    files = _Files(tmp, f"s{index}")
    r = F(rng.randint(0, 12), rng.choice((1, 2, 4)))
    rB = F(rng.randint(20, 28))
    n_a = 30
    s1 = Site(r=r, L=F(36), rB=rB)
    a1 = [
        # |rA - rB| stays below every AB on this grid: no internal tangency.
        _axis(rng, "rA", rB - F(rng.randint(0, 24), 12), F(1, 12), n_a),
        _axis(rng, "L", F(rng.randint(12, 48)), F(rng.randint(1, 3), 4), SWEEP_TEXT_ROWS // n_a),
    ]
    s2 = Site(r=r, L=F(36), convention=TRUNK, E=F(rng.randint(30, 60)) * FT)
    a2 = [_axis(rng, "L", F(rng.randint(1, 24), 12), F(1, 12), SWEEP_JSON_ROWS)]
    d3 = F(rng.randint(8, 14), 4)
    s3 = Site(r=F(0), L=F(36), d=d3, convention=TRUNK)
    a3 = [
        _axis(rng, "r", F(0), F(1, 4), 20),
        _axis(rng, "L", F(rng.randint(1, 3), 8), F(3, 7), SWEEP_TEXT_ROWS // 20),
    ]
    s4 = Site(r=F(rng.randint(0, 2), 4), L=F(36))
    a4 = [
        _axis(rng, "E", F(rng.randint(1, 10)) * FT, F(rng.randint(1, 3), 2) * FT, 10),
        _axis(rng, "L", F(rng.randint(1, 4), 4), F(rng.randint(1, 5), 12), SWEEP_JSON_ROWS // 10),
    ]
    calls = [
        _sweep_call(rng, s1, a1, "text", _MODES[index % 3], files),
        _sweep_call(rng, s2, a2, "json", _MODES[(index + 1) % 3], files),
        _sweep_call(rng, s3, a3, "text", _MODES[(index + 2) % 3], files),
        _sweep_call(rng, s4, a4, "json", _MODES[index % 3], files),
    ]
    for n, call in enumerate(calls, start=1):
        call.group = f"sweep{n}/{call.fmt}"
    rng.shuffle(calls)
    return calls


def _axis(rng, param: str, start: Fraction, step: Fraction, count: int) -> tuple:
    """(param, start, stop, step) with exactly `count` grid values; the stop
    is sometimes off the grid, inside the last step."""
    stop = start + (count - 1) * step + step * F(rng.randint(0, 3), 4)
    return (param, start, stop, step)


def _sweep_call(rng, site: Site, axes, fmt, mode, files) -> CliCall:
    swept = {a[0] for a in axes}
    keys = tuple(k for k in _SCENARIO_KEYS if k not in swept or k in ("r", "L"))
    call = _apply_inputs("sweep", _scenario_inputs(site, rng, keys), fmt, mode, rng, files)
    for param, start, stop, step in axes:
        spec = ":".join(fmt_length(v, rng) for v in (start, stop, step))
        call.argv += ["--axis", f"{param}={spec}"]
    grid = 1
    for _, start, stop, step in axes:
        grid *= (stop - start) // step + 1
    call.ops = grid
    call.expect.update(site=site, axes=axes)
    return call


# ---------------------------------------------------------------------------
# Invalid inputs
# ---------------------------------------------------------------------------


def invalid_call(rng, files: _Files) -> CliCall:
    """An input the program must reject with exit 2 and one stderr line."""
    r, L = fmt_length(F(rng.randint(1, 12)), rng), fmt_length(F(rng.randint(24, 96)), rng)
    cases = [
        ["report", "--r", f"{rng.randint(1, 9)}cubits", "--L", L],
        ["report", "--r", r, "--L", L, "--d", f"{rng.randint(20, 40)}ft"],
        ["report", "--r", r],
        ["report", "--r", f"1.{rng.randint(1000000, 9999999)}in", "--L", L],
        ["threshold", "--rA", "2ft"],
        ["report", "--r", r, "--L", L, "--depth", f"{rng.randint(4, 9)}ft"],
        ["sweep", "--r", r, "--L", L, "--axis", "L=2ft:3ft:0in"],
        ["sweep", "--r", r, "--L", L, "--axis", "L=3ft:2ft:1in"],
        ["render", "--r", r, "--L", L, "--out", str(files.tmp / "never.svg"), "--width", "40"],
        ["report", "--config", files.write(f"r = {r}\nL = {L}\ncolour = red\n")],
        ["report", "--config", str(files.tmp / "missing.conf")],
        ["verify-paper", "--inject-failure", "C9"],
    ]
    return CliCall(kind="invalid", argv=rng.choice(cases))


def fault_call(variant: str, files: _Files) -> CliCall:
    """The two config-file faults: fixed inputs that fail on every run."""
    if variant == "bad_convention":
        path = files.write("rA = 2ft\nrB = 2ft\nconvention = bogus\n")
        return CliCall(kind="invalid", argv=["threshold", "--config", path], known_fault=True)
    path = files.write(b"r = 2in\nL = 3ft\n# \xff\xfe is not UTF-8\n")
    return CliCall(kind="invalid", argv=["report", "--config", path], known_fault=True)


# ---------------------------------------------------------------------------
# claim_suite and oracle_batch
# ---------------------------------------------------------------------------


def claim_round(seed: int, index: int, tmp: Path) -> list[CliCall]:
    """The calls of a claim_suite round.  That workload is not run (see
    README.md); the verify-paper checker is still tested on these calls."""
    return [
        CliCall(kind="verify", argv=["verify-paper"], fmt="text", ops=7),
        CliCall(kind="verify", argv=["verify-paper", "--json"], fmt="json", ops=7),
    ]


ORACLE_COUNT = 300
# Samples of the five requests in a round: the median request is always the
# third, and two estimates span more than one 10^6-sample chunk.
MC_SAMPLES = (200_000, 500_000, 900_000, 1_400_000, 2_300_000)


def oracle_round(seed: int, index: int) -> list[OracleRequest]:
    """Five requests.  The Monte Carlo configurations depend on the seed
    only, so each one recurs in every round and must repeat bit for bit;
    the scenario batches are new in every round."""
    rng = _rng("oracle_batch", seed, index)
    mc = random.Random(f"goldbench:oracle_batch-mc:{seed}")
    out = []
    for samples in MC_SAMPLES:
        ra, rb = F(mc.randint(12, 48), 12), F(mc.randint(12, 48), 12)
        lo, hi = abs(ra - rb), ra + rb
        # Partial overlap, clear of both tangencies.
        distance = lo + (hi - lo) * F(mc.randint(15, 85), 100)
        out.append(
            OracleRequest(
                count=ORACLE_COUNT,
                scenario_seed=rng.randrange(2**31),
                cells_per_foot=16,
                mc_distance=distance,
                mc_ra=ra,
                mc_rb=rb,
                mc_samples=samples,
                mc_seed=mc.randrange(2**31),
            )
        )
    return out
