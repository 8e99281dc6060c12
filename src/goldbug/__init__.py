"""Exact plan-view geometry of the treasure dig in Poe's The Gold-Bug."""

import importlib

from .analysis import (
    ClaimResult,
    OverlapReport,
    SweepAxis,
    Threshold,
    ThresholdKind,
    lens_area,
    max_l_for_nonoverlap,
    nonoverlap_threshold,
    nonoverlap_threshold_from_trunk,
    overlap_report,
    verify_claims,
)
from .render import CanvasFitError, CanvasSpec, render_svg
from .scenario import (
    Convention,
    Layout,
    Point,
    Scenario,
    center_distance,
    dig_center_radius,
    half_angle_sin,
    layout,
)
from .units import (
    DomainError,
    Length,
    ParseError,
    format_exact_inches,
    format_feet_inches,
    parse_length,
)

__version__ = "0.1.0"

# The oracle is the independent verification route, which no closed form
# needs: its names load on first use (PEP 562), and numpy only with its
# Monte Carlo and raster calls.
_ORACLE_NAMES = ("McEstimate", "center_distance_oracle", "lens_area_mc", "overlap_oracle_grid")


def __getattr__(name: str):
    if name == "oracle" or name in _ORACLE_NAMES:
        oracle = importlib.import_module(".oracle", __name__)
        return oracle if name == "oracle" else getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "CanvasFitError",
    "CanvasSpec",
    "ClaimResult",
    "Convention",
    "DomainError",
    "Layout",
    "Length",
    "McEstimate",
    "OverlapReport",
    "ParseError",
    "Point",
    "Scenario",
    "SweepAxis",
    "Threshold",
    "ThresholdKind",
    "center_distance",
    "center_distance_oracle",
    "dig_center_radius",
    "format_exact_inches",
    "format_feet_inches",
    "half_angle_sin",
    "layout",
    "lens_area",
    "lens_area_mc",
    "max_l_for_nonoverlap",
    "nonoverlap_threshold",
    "nonoverlap_threshold_from_trunk",
    "overlap_oracle_grid",
    "overlap_report",
    "parse_length",
    "render_svg",
    "verify_claims",
]
