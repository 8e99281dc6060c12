"""The streamed sweep against a per-point reference.

The reference evaluates every grid point the direct way, through
Scenario and overlap_report, and encodes the table with the dict encoder
and json.dumps.  The sweep kernel, the streamed CLI output and the library
`sweep()` must reproduce it byte for byte and row for row.
"""

import contextlib
import io
import json
import math
from fractions import Fraction

from hypothesis import assume, given
from hypothesis import strategies as st

from goldbug import sweeps
from goldbug.analysis import SWEEP_PARAMS, overlap_report
from goldbug.cli import main
from goldbug.jsonio import sweep_to_json
from goldbug.scenario import Convention, Scenario
from goldbug.sweeps import SweepAxis, SweepRow, SweepTable, sweep
from goldbug.units import DomainError, Length

FIELDS = {"r": "trunk_radius", "L": "socket_offset", "d": "socket_separation",
          "E": "extension", "rA": "hole_radius_a", "rB": "hole_radius_b"}


def _inches(num, den):
    return Length.from_inches(Fraction(num, den))


def reference_table(base, axes):
    points = [[]]
    for axis in axes:
        values, k = [], 0
        while axis.start.inches + k * axis.step.inches <= axis.stop.inches:
            values.append(axis.start + axis.step * k)
            k += 1
        points = [p + [(axis.param, v)] for p in points for v in values]
    rows = []
    for point in points:
        fields = {field: getattr(base, field) for field in FIELDS.values()}
        fields.update({SWEEP_PARAMS[p]: v for p, v in point})
        try:
            report = overlap_report(Scenario(**fields, convention=base.convention))
            rows.append(SweepRow(tuple(point), report))
        except DomainError as exc:
            rows.append(SweepRow(tuple(point), None, str(exc)))
    return SweepTable(tuple(axes), tuple(rows))


def reference_text(table):
    lines = ["".join(f"{a.param:<12}" for a in table.axes)
             + f"{'AB (ft)':<16}{'margin (ft)':<16}verdict"]
    for row in table.rows:
        cells = "".join(f"{str(v):<12}" for _, v in row.values)
        if row.report is None:
            lines.append(f"{cells}{'-':<16}{'-':<16}invalid: {row.invalid_reason}")
        else:
            lines.append(
                f"{cells}{float(row.report.ab_ft):<16.6f}"
                f"{float(row.report.margin_ft):<16.6f}"
                f"{'overlap' if row.report.overlaps else 'clear'}"
            )
    return "\n".join(lines) + "\n"


def cli_stdout(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    return out.getvalue()


def argv_for(base, axes):
    argv = ["sweep", "--convention", base.convention.value]
    for key, field in FIELDS.items():
        argv += [f"--{key}", str(getattr(base, field))]
    for axis in axes:
        argv += ["--axis", f"{axis.param}={axis.start}:{axis.stop}:{axis.step}"]
    return argv


# Steps of k/4, k/7 and k/12 inch, among others, and values at or below
# zero so grids reach r+E = 0 (from-trunk), d > 2(r+L) and bad radii.
dens = st.sampled_from([1, 2, 4, 7, 12])


def zero_or(numerators):
    return st.just(0) | numerators


@st.composite
def grids(draw):
    try:
        base = Scenario(
            trunk_radius=_inches(draw(zero_or(st.integers(0, 48))), draw(dens)),
            socket_offset=_inches(draw(st.integers(2, 480)), draw(dens)),
            socket_separation=_inches(draw(st.integers(1, 12)), draw(st.sampled_from([1, 2, 4]))),
            extension=_inches(draw(st.sampled_from([0, 1, 36, 600])), draw(dens)),
            hole_radius_a=_inches(draw(st.integers(1, 30)), draw(dens)),
            hole_radius_b=_inches(draw(st.integers(1, 30)), draw(dens)),
            convention=draw(st.sampled_from(list(Convention))),
        )
    except DomainError:
        assume(False)
    params = draw(
        st.lists(st.sampled_from(sorted(SWEEP_PARAMS)), min_size=1, max_size=2, unique=True)
    )
    axes = []
    for param in params:
        start = Fraction(draw(zero_or(st.integers(-2, 60))), draw(dens))
        step = Fraction(draw(st.integers(1, 30)), draw(dens))
        count = draw(st.integers(1, 7))
        stop = start + (count - 1) * step + step * Fraction(draw(st.integers(0, 3)), 4)
        axes.append(SweepAxis(param, *(Length.from_inches(v) for v in (start, stop, step))))
    return base, axes


@given(grids())
def test_streamed_sweep_matches_the_per_point_reference(grid):
    base, axes = grid
    table = reference_table(base, axes)

    assert sweep(base, axes) == table
    argv = argv_for(base, axes)
    assert cli_stdout(argv) == reference_text(table)
    assert cli_stdout(argv + ["--json"]) == json.dumps(sweep_to_json(table), indent=2) + "\n"


def test_long_inner_axes_are_labelled_per_row(monkeypatch):
    monkeypatch.setattr(sweeps, "_KEPT_LABELS", 2)
    base = Scenario(trunk_radius=_inches(0, 1), socket_offset=_inches(36, 1))
    axes = [
        SweepAxis("r", _inches(0, 1), _inches(2, 1), _inches(1, 1)),
        SweepAxis("L", _inches(1, 4), _inches(3, 1), _inches(1, 4)),
    ]
    table = reference_table(base, axes)
    assert sweep(base, axes) == table
    argv = argv_for(base, axes)
    assert cli_stdout(argv) == reference_text(table)
    assert cli_stdout(argv + ["--json"]) == json.dumps(sweep_to_json(table), indent=2) + "\n"


def test_sweeps_through_exact_internal_tangency():
    # L = 62.5 in puts AB at exactly rA - rB = 26.5 in: the hole B lies in A.
    base = Scenario(
        trunk_radius=_inches(0, 1),
        socket_offset=_inches(36, 1),
        hole_radius_a=_inches(35, 1),
        hole_radius_b=_inches(17, 2),
    )
    axes = [SweepAxis("L", _inches(60, 1), _inches(65, 1), _inches(1, 2))]
    table = reference_table(base, axes)
    tangent = table.rows[5]
    assert tangent.values == (("L", _inches(125, 2)),)
    assert tangent.report.lens_area_sqft == math.pi * float(Fraction(17, 24)) ** 2
    assert sweep(base, axes) == table
    argv = argv_for(base, axes) + ["--json"]
    assert cli_stdout(argv) == json.dumps(sweep_to_json(table), indent=2) + "\n"
