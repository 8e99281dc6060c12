"""Lossless JSON encoding of reports, thresholds, and sweep tables.

Exact rationals travel as ``{"num": int, "den": int, "unit": "in"}`` plus a
convenience ``decimal`` string; the num/den pair is authoritative and every
``*_from_json`` reconstructs a value equal to the original (a sweep row
decodes with :func:`length_from_json` and :func:`report_from_json`).  Key
order is fixed by construction, so serialized output is byte-deterministic.
A sweep can also be streamed row by row (:func:`iter_sweep_json`), in
exactly the bytes of ``json.dumps(sweep_to_json(table), indent=2)``.
"""

from __future__ import annotations

import json
import math
from collections.abc import Iterator
from fractions import Fraction
from typing import TYPE_CHECKING, Any

from .analysis import OverlapReport, Threshold, ThresholdKind
from .scenario import PARAMS, Convention, Scenario
from .units import Length, format_feet_inches

if TYPE_CHECKING:  # annotations only: encoding them needs neither module
    from .claims import ClaimResult
    from .sweeps import SweepAxis, SweepGrid, SweepTable


def length_to_json(x: Length) -> dict[str, Any]:
    return {
        "num": x.numerator,
        "den": x.denominator,
        "unit": "in",
        "decimal": str(float(x.inches)),
    }


def length_from_json(obj: dict[str, Any]) -> Length:
    if obj.get("unit", "in") != "in":
        raise ValueError(f'unsupported length unit {obj.get("unit")!r}')
    return Length.from_inches(Fraction(int(obj["num"]), int(obj["den"])))


def feet_to_json(value: Fraction) -> dict[str, Any]:
    return length_to_json(Length.from_feet(value))


def feet_from_json(obj: dict[str, Any]) -> Fraction:
    return length_from_json(obj).feet


def scenario_to_json(s: Scenario) -> dict[str, Any]:
    out: dict[str, Any] = {
        key: length_to_json(getattr(s, field)) for key, field in PARAMS.items()
    }
    out["convention"] = s.convention.value
    return out


def scenario_from_json(obj: dict[str, Any]) -> Scenario:
    return Scenario(
        **{field: length_from_json(obj[key]) for key, field in PARAMS.items()},
        convention=Convention(obj["convention"]),
    )


def report_to_json(report: OverlapReport) -> dict[str, Any]:
    return {
        "ab": feet_to_json(report.ab_ft),
        "ab_feet_decimal": str(float(report.ab_ft)),
        "radii_sum": feet_to_json(report.radii_sum_ft),
        "overlaps": report.overlaps,
        "margin": feet_to_json(report.margin_ft),
        "margin_feet_decimal": str(float(report.margin_ft)),
        "lens_area_sqft": report.lens_area_sqft,
        "scenario": scenario_to_json(report.scenario),
    }


def report_from_json(obj: dict[str, Any]) -> OverlapReport:
    return OverlapReport(
        ab_ft=feet_from_json(obj["ab"]),
        radii_sum_ft=feet_from_json(obj["radii_sum"]),
        overlaps=bool(obj["overlaps"]),
        margin_ft=feet_from_json(obj["margin"]),
        lens_area_sqft=float(obj["lens_area_sqft"]),
        scenario=scenario_from_json(obj["scenario"]),
    )


def threshold_to_json(t: Threshold) -> dict[str, Any]:
    out: dict[str, Any] = {"kind": t.kind.value}
    if t.bound_ft is None:
        out["bound"] = None
        out["bound_feet_decimal"] = None
        out["bound_display"] = None
    else:
        out["bound"] = feet_to_json(t.bound_ft)
        out["bound_feet_decimal"] = str(float(t.bound_ft))
        out["bound_display"] = (
            format_feet_inches(Length.from_feet(t.bound_ft))
            if t.bound_ft >= 0
            else None
        )
    return out


def threshold_from_json(obj: dict[str, Any]) -> Threshold:
    bound = obj.get("bound")
    return Threshold(
        kind=ThresholdKind(obj["kind"]),
        bound_ft=None if bound is None else feet_from_json(bound),
    )


def _axis_to_json(axis: SweepAxis) -> dict[str, Any]:
    return {
        "param": axis.param,
        "start": length_to_json(axis.start),
        "stop": length_to_json(axis.stop),
        "step": length_to_json(axis.step),
    }


def sweep_to_json(table: SweepTable) -> dict[str, Any]:
    return {
        "axes": [_axis_to_json(axis) for axis in table.axes],
        "rows": [
            {
                "values": {param: length_to_json(v) for param, v in row.values},
                "report": None if row.report is None else report_to_json(row.report),
                "invalid_reason": row.invalid_reason,
            }
            for row in table.rows
        ],
    }


def claims_to_json(results: list[ClaimResult]) -> list[dict[str, Any]]:
    return [
        {
            "id": r.claim_id,
            "quote": r.statement,
            "expected": r.expected,
            "computed": r.computed,
            "pass": r.passed,
        }
        for r in results
    ]


# ---------------------------------------------------------------------------
# Streamed sweep document
# ---------------------------------------------------------------------------


def _indented(obj: Any, level: int) -> str:
    """json.dumps(obj, indent=2) as it appears nested `level` spaces deep."""
    return json.dumps(obj, indent=2).replace("\n", "\n" + " " * level)


def _length_text(num: int, den: int, level: int) -> str:
    """_indented(length_to_json(num/den in), level) for a reduced num/den."""
    pad = " " * level
    return (
        f'{{\n{pad}  "num": {num},\n{pad}  "den": {den},\n{pad}  "unit": "in",\n'
        f'{pad}  "decimal": "{num / den}"\n{pad}}}'
    )


def _reduced_text(num: int, den: int, level: int) -> str:
    g = math.gcd(num, den)
    return _length_text(num // g, den // g, level)


def iter_sweep_json(grid: SweepGrid) -> Iterator[str]:
    """Stream json.dumps(sweep_to_json(sweep(...)), indent=2) for a grid.

    The pieces join to exactly that text, row by row, without building the
    table.  Everything constant over the sweep (the axes, the unswept part
    of the scenario echo) is encoded once through the dict encoders above;
    an axis value once per value; the rest with integer gcds per row.
    """
    swept = {axis.param for axis in grid.axes}
    yield '{\n  "axes": ' + _indented([_axis_to_json(a) for a in grid.axes], 2)
    yield ',\n  "rows": [\n'

    # The scenario echo: constant text around the swept keys' slots.
    echo: list[str | int] = []
    for key, value in scenario_to_json(grid.base).items():
        if key in swept:
            echo.append(next(i for i, a in enumerate(grid.axes) if a.param == key))
        else:
            echo.append(f'          "{key}": {_indented(value, 10)}')
    if swept & {"rA", "rB"}:
        radii_text = None
    else:
        radii_text = _indented(feet_to_json(grid.base.radii_sum.feet), 8)

    def label(axis: SweepAxis, x: Length) -> tuple[str, str]:
        return (
            f'        "{axis.param}": {_length_text(x.numerator, x.denominator, 8)}',
            f'          "{axis.param}": {_length_text(x.numerator, x.denominator, 10)}',
        )

    sep = "    {\n"
    for labels, reason, ab, radii, margin, den, overlaps, lens in grid.rows(label):
        values = ",\n".join(v for v, _ in labels)
        if reason is not None:
            yield (
                f'{sep}      "values": {{\n{values}\n      }},\n'
                f'      "report": null,\n'
                f'      "invalid_reason": {json.dumps(reason)}\n    }}'
            )
        else:
            inches = den // 12
            scenario = ",\n".join(
                [part if isinstance(part, str) else labels[part][1] for part in echo]
            )
            yield (
                f'{sep}      "values": {{\n{values}\n      }},\n'
                f'      "report": {{\n'
                f'        "ab": {_reduced_text(ab, inches, 8)},\n'
                f'        "ab_feet_decimal": "{ab / den}",\n'
                f'        "radii_sum": {radii_text or _reduced_text(radii, inches, 8)},\n'
                f'        "overlaps": {"true" if overlaps else "false"},\n'
                f'        "margin": {_reduced_text(margin, inches, 8)},\n'
                f'        "margin_feet_decimal": "{margin / den}",\n'
                f'        "lens_area_sqft": {lens!r},\n'
                f'        "scenario": {{\n{scenario}\n        }}\n'
                f'      }},\n      "invalid_reason": null\n    }}'
            )
        sep = ",\n    {\n"
    yield "\n  ]\n}"
