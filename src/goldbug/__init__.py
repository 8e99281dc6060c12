"""Exact plan-view geometry of the treasure dig in Poe's The Gold-Bug.

Importing the package imports none of its modules: every public name below
loads its module on first use (PEP 562), so a command pays only for the code
it runs.  numpy loads only with the oracle's Monte Carlo and raster calls.
"""

import sys

__version__ = "0.1.0"

# The public names, by the module that defines them.
_PUBLIC = {
    "analysis": (
        "OverlapReport", "Threshold", "ThresholdKind", "lens_area", "max_l_for_nonoverlap",
        "nonoverlap_threshold", "nonoverlap_threshold_from_trunk", "overlap_report",
    ),
    "claims": ("ClaimResult", "verify_claims"),
    "oracle": ("McEstimate", "center_distance_oracle", "lens_area_mc", "overlap_oracle_grid"),
    "render": ("CanvasFitError", "CanvasSpec", "render_svg"),
    "scenario": (
        "Convention", "Layout", "Point", "Scenario", "center_distance", "dig_center_radius",
        "half_angle_sin", "layout",
    ),
    "sweeps": ("SweepAxis",),
    "units": (
        "DomainError", "Length", "ParseError", "format_exact_inches", "format_feet_inches",
        "parse_length",
    ),
}
_HOME = {name: module for module, names in _PUBLIC.items() for name in names}
_MODULES = (*_PUBLIC, "cli", "jsonio")

__all__ = sorted(_HOME)


def _submodule(name: str):
    # The import statement's machinery, which -X importtime logs;
    # importlib.import_module's is not logged.
    __import__(f"{__name__}.{name}")
    return sys.modules[f"{__name__}.{name}"]


def __getattr__(name: str):
    if name in _HOME:
        value = getattr(_submodule(_HOME[name]), name)
    elif name in _MODULES:
        value = _submodule(name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOME, *_MODULES})
