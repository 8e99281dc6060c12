"""Command-line interface: reports, thresholds, sweeps, claim suite, SVG.

Exit codes: 0 success, 1 claim-suite failure, 2 usage or validation error,
141 (128 + SIGPIPE) when stdout's reader closes it early (``| head -1``).
JSON goes to stdout, diagnostics to stderr.  Scenario flags override config
file values (``--config`` or $GOLDBUG_CONFIG, flat ``key = value`` lines),
which override the built-in story defaults.

``main`` reads the config file once and folds it under the flags: each
config value fills its flag's attribute where the flag was not given, so a
command reads one namespace, a straight line from typed inputs to one
library call to an encoder.  ``main`` is also the one place an error
becomes an exit code and its one ``goldbug:`` line.

Each process imports only what its command runs: the JSON encoders
(``jsonio``) on the JSON branches, the sweeps (``sweeps``) in ``sweep``, the
claim suite (``claims``) in ``verify-paper`` and the renderer (``render``) in
``render``.  Without a bytecode cache every module imported is compiled from
source, so this is most of what a short command costs beyond the
interpreter.  goldbench's tracer wraps ``json.dumps`` and ``render_svg``
through this module's names, so ``json`` is imported on every path and
``render_svg`` is a module-level function that imports the renderer.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections.abc import Iterator
from pathlib import Path
from typing import TYPE_CHECKING

from . import analysis
from .scenario import (
    DEFAULT_EXTENSION,
    DEFAULT_HOLE_RADIUS,
    DEFAULT_SOCKET_SEPARATION,
    PARAMS,
    Convention,
    Scenario,
)
from .units import (
    DomainError,
    Length,
    ParseError,
    format_exact_feet,
    format_feet_inches,
    parse_length,
)

if TYPE_CHECKING:
    from .render import CanvasSpec
    from .sweeps import SweepGrid

EXIT_OK = 0
EXIT_CLAIMS_FAILED = 1
EXIT_USAGE = 2
EXIT_CLOSED_STDOUT = 141  # 128 + SIGPIPE, as a shell reports a killed writer

CONFIG_ENV_VAR = "GOLDBUG_CONFIG"
CONFIG_KEYS = (*PARAMS, "convention", "format")

# Largest accepted length magnitude, in inches.  Every float derived from
# lengths this size stays finite: AB <= 2(r+L+E).
MAX_LENGTH_INCHES = 10**300


class CliError(Exception):
    """A usage error found by the CLI itself; its message is the whole report."""


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="goldbug",
        description=(
            "Plan-view geometry of the two treasure holes in Poe's "
            "The Gold-Bug: exact overlap verdicts, non-overlap thresholds, "
            "parameter sweeps, and SVG diagrams."
        ),
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--config",
        default=None,
        help=f"config file path (flat key = value; default ${CONFIG_ENV_VAR})",
    )
    common.add_argument(
        "--format",
        choices=("text", "json"),
        default=None,
        help="output format (default text)",
    )
    common.add_argument(
        "--json",
        action="store_true",
        help="shorthand for --format json",
    )

    scenario_flags = argparse.ArgumentParser(add_help=False)
    scenario_flags.add_argument("--r", help="trunk radius, e.g. 2in (length)")
    scenario_flags.add_argument("--L", help="socket offset from trunk surface (length)")
    for key, what, default in (
        ("d", "drop-point separation", DEFAULT_SOCKET_SEPARATION),
        ("E", "extension distance", DEFAULT_EXTENSION),
        ("rA", "first hole radius", DEFAULT_HOLE_RADIUS),
        ("rB", "second hole radius", DEFAULT_HOLE_RADIUS),
    ):
        scenario_flags.add_argument(
            f"--{key}", help=f"{what} (default {format_exact_feet(default.feet)})"
        )
    scenario_flags.add_argument(
        "--convention",
        choices=tuple(c.value for c in Convention),
        default=None,
        help="where the extension is measured from (default from-drop-point)",
    )
    scenario_flags.add_argument(
        "--depth",
        metavar="LENGTH",
        default=None,
        help="not supported: hole depth is out of scope (see README)",
    )

    sub = parser.add_subparsers(dest="command", required=True)

    p_report = sub.add_parser(
        "report",
        parents=[common, scenario_flags],
        help="overlap verdict for one scenario",
    )
    p_report.set_defaults(handler=_cmd_report)

    p_threshold = sub.add_parser(
        "threshold",
        parents=[common, scenario_flags],
        help="non-overlap bound on r+L (and on L when --r is given)",
    )
    p_threshold.set_defaults(handler=_cmd_threshold)

    p_verify = sub.add_parser(
        "verify-paper",
        parents=[common],
        help="run the built-in claim suite C1-C7",
    )
    p_verify.add_argument(
        "--inject-failure",
        metavar="CLAIM_ID",
        default=None,
        help=argparse.SUPPRESS,
    )
    p_verify.set_defaults(handler=_cmd_verify)

    p_sweep = sub.add_parser(
        "sweep",
        parents=[common, scenario_flags],
        help="evaluate reports over a 1- or 2-axis parameter grid",
    )
    p_sweep.add_argument(
        "--axis",
        action="append",
        metavar="PARAM=START:STOP:STEP",
        help=(
            "sweep axis, e.g. L=2ft:3ft:1in "
            f"(params: {', '.join(analysis.SWEEP_PARAMS)}; max 2)"
        ),
    )
    p_sweep.set_defaults(handler=_cmd_sweep)

    p_render = sub.add_parser(
        "render",
        parents=[common, scenario_flags],
        help="write an SVG diagram of the dig site",
    )
    p_render.add_argument("--out", required=True, help="output SVG path")
    # The canvas flags default to None: CanvasSpec holds the defaults (_canvas).
    p_render.add_argument("--width", type=int, help="canvas width px")
    p_render.add_argument("--height", type=int, help="canvas height px")
    p_render.add_argument("--margin", type=int, help="canvas margin px")
    p_render.add_argument("--feet-per-px", type=float, help="scale (feet per pixel)")
    p_render.add_argument(
        "--no-labels", action="store_true", help="omit point labels"
    )
    p_render.add_argument(
        "--exaggerate-angle",
        type=float,
        metavar="FACTOR",
        help="display-only half-angle multiplier (distances stay true)",
    )
    p_render.set_defaults(handler=_cmd_render)

    return parser


# ---------------------------------------------------------------------------
# Config and scenario assembly
# ---------------------------------------------------------------------------


def _load_config(args: argparse.Namespace) -> dict[str, str]:
    path = args.config or os.environ.get(CONFIG_ENV_VAR)
    if not path:
        return {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise CliError(f"cannot read config file {path}: {exc}") from exc
    config: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise CliError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in CONFIG_KEYS:
            raise CliError(
                f"{path}:{lineno}: unknown key {key!r} "
                f"(expected one of {', '.join(CONFIG_KEYS)})"
            )
        config[key] = value
    return config


def _parse_length_flag(key: str, raw: str) -> Length:
    try:
        length = parse_length(raw)
    except ParseError as exc:
        raise CliError(f"--{key}: {exc}") from exc
    if abs(length.inches) > MAX_LENGTH_INCHES:
        raise CliError(f"--{key}: length out of range (magnitude at most 10^300 in)")
    return length


def _lengths(args: argparse.Namespace, required: tuple[str, ...]) -> dict[str, Length]:
    """Every scenario length given by flag or config file, parsed, by short
    name; the keys in ``required`` must be among them."""
    if args.depth is not None:
        raise CliError(
            "--depth: hole depth is not modeled; this tool analyzes plan-view "
            "overlap only (see README, scope)"
        )
    lengths: dict[str, Length] = {}
    for key in PARAMS:
        raw = getattr(args, key)
        if raw is not None:
            lengths[key] = _parse_length_flag(key, raw)
    for key in required:
        if key not in lengths:
            raise CliError(f"--{key} is required (flag or config file)")
    return lengths


def _convention(args: argparse.Namespace) -> Convention | None:
    """The --convention flag or config value, checked; None when unset."""
    raw = args.convention
    if raw is None:
        return None
    try:
        return Convention(raw)
    except ValueError as exc:
        raise CliError(
            f"--convention: unknown value {raw!r} "
            f"(expected {' or '.join(c.value for c in Convention)})"
        ) from exc


def _build_scenario(args: argparse.Namespace) -> Scenario:
    lengths = _lengths(args, required=("r", "L"))
    fields: dict[str, object] = {PARAMS[key]: x for key, x in lengths.items()}
    convention = _convention(args)
    if convention is not None:
        fields["convention"] = convention
    try:
        return Scenario(**fields)  # type: ignore[arg-type]
    except DomainError as exc:
        raise CliError(f"invalid scenario: {exc}") from exc


def _output_format(args: argparse.Namespace) -> str:
    """--json, else the --format flag or config value, checked; text when unset."""
    if args.json:
        return "json"
    raw = args.format
    if raw is None:
        return "text"
    if raw not in ("text", "json"):
        raise CliError(f"--format: unknown value {raw!r} (expected text or json)")
    return raw


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _cmd_report(args: argparse.Namespace) -> int:
    fmt = _output_format(args)
    report = analysis.overlap_report(_build_scenario(args))
    if fmt == "json":
        from . import jsonio

        print(json.dumps(jsonio.report_to_json(report), indent=2))
        return EXIT_OK
    ab, radii, margin = report.ab_ft, report.radii_sum_ft, report.margin_ft
    print(f"AB         = {format_exact_feet(ab)}  ({float(ab):.6f} ft)")
    print(f"radii sum  = {format_exact_feet(radii)}  ({float(radii):.6f} ft)")
    print(f"overlaps   = {'yes' if report.overlaps else 'no'}")
    print(f"margin     = {format_exact_feet(margin)}  ({float(margin):.6f} ft)")
    print(f"lens area  = {report.lens_area_sqft:.6f} sq ft")
    return EXIT_OK


def _threshold_line(label: str, t: analysis.Threshold) -> str:
    if t.kind is analysis.ThresholdKind.ALWAYS_NONOVERLAP:
        return f"{label}: holes never overlap (radii sum <= drop separation)"
    if t.kind is analysis.ThresholdKind.NO_VALID_L:
        return f"{label}: no valid L (the trunk radius alone exceeds the bound)"
    assert t.bound_ft is not None
    display = format_feet_inches(Length.from_feet(t.bound_ft))
    return (
        f"{label} < {format_exact_feet(t.bound_ft)} "
        f"(≈ {float(t.bound_ft):.4f} ft, {display})"
    )


def _cmd_threshold(args: argparse.Namespace) -> int:
    fmt = _output_format(args)
    lengths = _lengths(args, required=("rA", "rB"))
    convention = _convention(args) or Convention.FROM_DROP_POINT
    trunk = lengths.get("r")
    holes = (
        lengths["rA"],
        lengths["rB"],
        lengths.get("d", DEFAULT_SOCKET_SEPARATION),
        lengths.get("E", DEFAULT_EXTENSION),
    )
    if convention is Convention.FROM_TRUNK:
        if trunk is None:
            raise CliError("--r is required with --convention from-trunk")
        bound = analysis.nonoverlap_threshold_from_trunk(trunk, *holes)
    else:
        bound = analysis.nonoverlap_threshold(*holes)
    l_bound = (
        analysis.max_l_for_nonoverlap(trunk, *holes, convention)
        if trunk is not None
        else None
    )
    if fmt == "json":
        from . import jsonio

        payload = {
            "convention": convention.value,
            "r_plus_l": jsonio.threshold_to_json(bound),
            "l_only": None if l_bound is None else jsonio.threshold_to_json(l_bound),
        }
        print(json.dumps(payload, indent=2))
        return EXIT_OK
    print(_threshold_line("r+L", bound))
    if l_bound is not None:
        print(_threshold_line("L", l_bound))
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    from . import claims

    fmt = _output_format(args)
    results = claims.verify_claims(inject_failure=args.inject_failure)
    passed = sum(r.passed for r in results)
    if fmt == "json":
        from . import jsonio

        print(json.dumps(jsonio.claims_to_json(results), indent=2))
    else:
        for r in results:
            print(f"{r.claim_id} {'PASS' if r.passed else 'FAIL'}  {r.statement}")
            print(f"         expected: {r.expected}")
            print(f"         computed: {r.computed}")
        print(f"{passed}/{len(results)} claims passed")
    return EXIT_OK if passed == len(results) else EXIT_CLAIMS_FAILED


def _parse_axis(spec: str) -> tuple[str, Length, Length, Length]:
    """PARAM=START:STOP:STEP as (param, start, stop, step)."""
    param, equals, rest = spec.partition("=")
    parts = rest.split(":")
    if not equals or len(parts) != 3:
        raise CliError(f"--axis: expected PARAM=START:STOP:STEP, got {spec!r}")
    start, stop, step = (_parse_length_flag("axis", p.strip()) for p in parts)
    return param.strip(), start, stop, step


def _sweep_text(grid: SweepGrid) -> Iterator[str]:
    header = "".join(f"{axis.param:<12}" for axis in grid.axes)
    yield f"{header}{'AB (ft)':<16}{'margin (ft)':<16}verdict\n"
    for cells, reason, ab, _, margin, den, overlaps, _ in grid.rows(
        lambda axis, x: f"{str(x):<12}"
    ):
        if reason is not None:
            yield f"{''.join(cells)}{'-':<16}{'-':<16}invalid: {reason}\n"
        else:
            yield (
                f"{''.join(cells)}{ab / den:<16.6f}{margin / den:<16.6f}"
                f"{'overlap' if overlaps else 'clear'}\n"
            )


def _cmd_sweep(args: argparse.Namespace) -> int:
    from . import sweeps

    fmt = _output_format(args)
    if not args.axis:
        raise CliError("--axis is required (1 or 2 axes)")
    axes = [sweeps.SweepAxis(*_parse_axis(spec)) for spec in args.axis]
    grid = sweeps.SweepGrid(_build_scenario(args), axes)
    # Every check that can reject the sweep has run: rows stream from here.
    if fmt == "json":
        from . import jsonio

        sys.stdout.writelines(jsonio.iter_sweep_json(grid))
        sys.stdout.write("\n")
    else:
        sys.stdout.writelines(_sweep_text(grid))
    return EXIT_OK


def _canvas(args: argparse.Namespace) -> CanvasSpec:
    """The canvas the flags ask for; CanvasSpec supplies every flag not given."""
    from .render import CanvasSpec

    given = {
        "width_px": args.width,
        "height_px": args.height,
        "margin_px": args.margin,
        "feet_per_px": args.feet_per_px,
        "angle_exaggeration": args.exaggerate_angle,
    }
    return CanvasSpec(
        show_labels=not args.no_labels, **{k: v for k, v in given.items() if v is not None}
    )


def render_svg(s: Scenario, canvas: CanvasSpec) -> str:
    """:func:`goldbug.render.render_svg`, imported on the first call, so that
    only ``render`` loads the renderer.  The name is bound here because
    goldbench's tracer rebinds it here."""
    from . import render

    return render.render_svg(s, canvas)


def _cmd_render(args: argparse.Namespace) -> int:
    scenario = _build_scenario(args)
    svg = render_svg(scenario, _canvas(args)).encode("utf-8")
    out = Path(args.out)
    try:
        out.write_bytes(svg)
    except OSError as exc:
        raise CliError(f"cannot write {out}: {exc}") from exc
    print(f"wrote {out} ({len(svg)} bytes)", file=sys.stderr)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        for key, value in _load_config(args).items():
            if getattr(args, key, None) is None:
                setattr(args, key, value)
        return args.handler(args)
    except (CliError, ParseError, DomainError) as exc:
        message = str(exc)
    except OverflowError as exc:
        message = f"result out of float range: {exc}"
    # One stderr line per error, whatever line breaks the input carried.
    print(f"goldbug: {' '.join(message.splitlines())}", file=sys.stderr)
    return EXIT_USAGE


def entry() -> None:
    try:
        code = main()
        if sys.stdout is not None:  # None when the process started without fd 1
            sys.stdout.flush()
    except BrokenPipeError:
        # Nobody reads stdout any more.  Point it at devnull so that the
        # interpreter's final flush of what is still buffered cannot raise.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        code = EXIT_CLOSED_STDOUT
    sys.exit(code)


if __name__ == "__main__":
    entry()
