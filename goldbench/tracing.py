"""Spans around goldbug's public functions, recorded from outside the program.

`Tracer.install` replaces each timed function with a wrapper at every name
its callers look up (`cli.parse_length` as well as `units.parse_length`),
and `uninstall` puts the originals back.  A span is (name, start_ns, end_ns,
parent index, extra, phase); all spans stay in memory until the run ends.
Self time is a span's duration minus the durations of its direct children,
which never overlap because the program is single-threaded.
"""

from __future__ import annotations

import contextlib
import gzip
import importlib
import json
import statistics
import time
from pathlib import Path


def _rows_of(payload) -> int:
    """Rows in a document that cli passes to json.dumps: a sweep's rows, or
    one for any other document."""
    if isinstance(payload, dict) and isinstance(payload.get("rows"), list):
        return len(payload["rows"])
    return 1


# (span name, module, attribute, other modules that bind the same name,
#  extra recorded from (args, result))
TARGETS = (
    ("cli.build_parser", "goldbug.cli", "build_parser", (), None),
    ("cli.main", "goldbug.cli", "main", (), None),
    ("units.parse_length", "goldbug.units", "parse_length", ("goldbug.cli",), None),
    ("scenario.construct", "goldbug.scenario", "Scenario.__post_init__", (), None),
    ("scenario.center_distance", "goldbug.scenario", "center_distance", ("goldbug.analysis",), None),
    ("scenario.layout", "goldbug.scenario", "layout", ("goldbug.oracle",), None),
    ("analysis.overlap_report", "goldbug.analysis", "overlap_report", (), None),
    ("analysis.sweep", "goldbug.analysis", "sweep", (), lambda a, r: len(r.rows)),
    ("analysis.verify_claims", "goldbug.analysis", "verify_claims", (), None),
    ("analysis.lens_area", "goldbug.analysis", "lens_area", (), None),
    ("analysis.nonoverlap_threshold", "goldbug.analysis", "nonoverlap_threshold", (), None),
    ("oracle.random_scenarios", "goldbug.oracle", "random_scenarios", (), lambda a, r: len(r)),
    ("oracle.center_distance_oracle", "goldbug.oracle", "center_distance_oracle", (), None),
    ("oracle.lens_area_mc", "goldbug.oracle", "lens_area_mc", (), lambda a, r: r.samples),
    ("oracle.overlap_oracle_grid", "goldbug.oracle", "overlap_oracle_grid", (), None),
    ("jsonio.report_to_json", "goldbug.jsonio", "report_to_json", (), None),
    ("jsonio.sweep_to_json", "goldbug.jsonio", "sweep_to_json", (), lambda a, r: len(r["rows"])),
    # The json.dumps that cli calls: cli's `json` is swapped for a proxy.
    ("jsonio.dumps", "goldbug.cli", "json.dumps", (), lambda a, r: (_rows_of(a[0]), len(r))),
    ("render.render_svg", "goldbug.render", "render_svg", ("goldbug.cli",), lambda a, r: len(r.encode("utf-8"))),
)
FUNCTIONS = tuple(t[0] for t in TARGETS)

# Every per-layer metric and its unit, in report order.
LAYER_UNITS = {
    "init.import_ms": "ms",
    "init.numpy_loaded": "count",
    "cli.build_parser_ms": "ms",
    "cli.main_self_ms": "ms",
    "units.parse_length_us": "us",
    "scenario.construct_us": "us",
    "scenario.center_distance_us": "us",
    "scenario.layout_us": "us",
    "analysis.overlap_report_us": "us",
    "analysis.sweep_us_per_row": "us",
    "analysis.verify_claims_ms": "ms",
    "analysis.lens_area_us": "us",
    "analysis.nonoverlap_threshold_us": "us",
    "oracle.random_scenarios_us_per_scenario": "us",
    "oracle.random_scenarios_accept_ratio": "ratio",
    "oracle.center_distance_oracle_us": "us",
    "oracle.lens_area_mc_ns_per_sample": "ns",
    "oracle.overlap_oracle_grid_us": "us",
    "jsonio.report_to_json_us": "us",
    "jsonio.sweep_to_json_us_per_row": "us",
    "jsonio.dumps_us_per_row": "us",
    "jsonio.bytes_per_row": "bytes",
    "render.render_svg_us": "us",
    "render.svg_bytes": "bytes",
    "trace.overhead_pct": "%",
    **{f"{f}_calls": "calls/op" for f in FUNCTIONS},
}


class _JsonProxy:
    """Stands in for the json module inside goldbug.cli."""

    def __init__(self, module, dumps) -> None:
        self._module, self.dumps = module, dumps

    def __getattr__(self, name):
        return getattr(self._module, name)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple | None] = []
        self.stack: list[int] = []
        self.phase = "workload"
        self._saved: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, name, fn, extra):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        def wrapper(*args, **kwargs):
            # The slot is reserved on entry and filled with an immutable
            # tuple on exit, so the garbage collector soon stops scanning it.
            index, start = len(spans), clock()
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans[index] = (name, start, clock(), parent, None, self.phase)
                raise
            finally:
                stack.pop()
            end = clock()
            got = True if extra is None else extra(args, result)
            spans[index] = (name, start, end, parent, got, self.phase)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    @contextlib.contextmanager
    def root(self, name: str):
        """A root span around one workload call; its index identifies the
        call that every span below it belongs to."""
        index, start = len(self.spans), time.perf_counter_ns()
        self.spans.append(None)
        self.stack.append(index)
        try:
            yield
        finally:
            self.stack.pop()
            self.spans[index] = (f"call.{name}", start, time.perf_counter_ns(), -1, True, self.phase)

    def install(self) -> None:
        for name, module, attr, also, extra in TARGETS:
            owner = importlib.import_module(module)
            if attr == "json.dumps":
                original = owner.json
                proxy = _JsonProxy(original, self._wrap(name, original.dumps, extra))
                self._set(owner, "json", proxy)
                continue
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
            wrapped = self._wrap(name, getattr(owner, attr), extra)
            self._set(owner, attr, wrapped)
            for other in also:
                self._set(importlib.import_module(other), attr, wrapped)

    def _set(self, owner, attr, value) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("index\tparent\tname\tstart_ns\tend_ns\tphase\textra\n")
            for i, (name, start, end, parent, extra, phase) in enumerate(self.spans):
                out.write(f"{i}\t{parent}\t{name}\t{start}\t{end}\t{phase}\t{json.dumps(extra)}\n")

    # -- per-layer figures -------------------------------------------------

    def layer_metrics(self, ops: int) -> tuple[dict[str, float], dict[str, int]]:
        """Per-layer metrics, and for each function how many of its workload
        calls returned.

        Timings use calls that returned.  A function none of whose workload
        calls returned is measured on the probe spans instead (phase
        "probe"); its `_calls` metric counts workload calls only."""
        child_ns = [0] * len(self.spans)
        constructs_under = {}
        by_phase = {"workload": {}, "probe": {}}
        for i, (name, start, end, parent, extra, phase) in enumerate(self.spans):
            if parent >= 0:
                child_ns[parent] += end - start
                if name == "scenario.construct":
                    constructs_under[parent] = constructs_under.get(parent, 0) + 1
            by_phase[phase].setdefault(name, []).append(i)
        workload = by_phase["workload"]
        calls = {f: len(workload.get(f, ())) for f in FUNCTIONS}
        returned = {f: sum(self.spans[i][4] is not None for i in workload.get(f, ())) for f in FUNCTIONS}

        def spans_of(name, done=True):
            """Spans of one function, from the workload if any returned there,
            else from the probes; with done=True only calls that returned."""
            idx = workload.get(name) if returned[name] else by_phase["probe"].get(name)
            return [(self.spans[i], i) for i in idx or () if not done or self.spans[i][4] is not None]

        def median_of(name, scale, value=lambda s, i: s[2] - s[1], done=True):
            got = spans_of(name, done)
            return statistics.median(value(s, i) for s, i in got) / scale if got else 0.0

        def per_unit(name, scale, unit):
            got = spans_of(name)
            units = sum(unit(s) for s, _ in got)
            return sum(s[2] - s[1] for s, _ in got) / scale / units if units else 0.0

        scen = spans_of("oracle.random_scenarios")
        accepted = sum(s[4] for s, _ in scen)
        attempted = sum(constructs_under.get(i, 0) for _, i in scen)
        dumps = spans_of("jsonio.dumps")
        dump_rows = sum(s[4][0] for s, _ in dumps)
        svgs = spans_of("render.render_svg")
        metrics = {
            "cli.build_parser_ms": median_of("cli.build_parser", 1e6),
            "cli.main_self_ms": median_of("cli.main", 1e6, lambda s, i: s[2] - s[1] - child_ns[i]),
            "units.parse_length_us": median_of("units.parse_length", 1e3),
            # Constructions that raise count too: rejected draws are work.
            "scenario.construct_us": median_of("scenario.construct", 1e3, done=False),
            "scenario.center_distance_us": median_of("scenario.center_distance", 1e3),
            "scenario.layout_us": median_of("scenario.layout", 1e3),
            "analysis.overlap_report_us": median_of("analysis.overlap_report", 1e3),
            "analysis.sweep_us_per_row": per_unit("analysis.sweep", 1e3, lambda s: s[4]),
            "analysis.verify_claims_ms": median_of("analysis.verify_claims", 1e6),
            "analysis.lens_area_us": median_of("analysis.lens_area", 1e3),
            "analysis.nonoverlap_threshold_us": median_of("analysis.nonoverlap_threshold", 1e3),
            "oracle.random_scenarios_us_per_scenario": per_unit("oracle.random_scenarios", 1e3, lambda s: s[4]),
            "oracle.random_scenarios_accept_ratio": accepted / attempted if attempted else 0.0,
            "oracle.center_distance_oracle_us": median_of("oracle.center_distance_oracle", 1e3),
            "oracle.lens_area_mc_ns_per_sample": per_unit("oracle.lens_area_mc", 1.0, lambda s: s[4]),
            "oracle.overlap_oracle_grid_us": median_of("oracle.overlap_oracle_grid", 1e3),
            "jsonio.report_to_json_us": median_of("jsonio.report_to_json", 1e3),
            "jsonio.sweep_to_json_us_per_row": per_unit("jsonio.sweep_to_json", 1e3, lambda s: s[4]),
            "jsonio.dumps_us_per_row": per_unit("jsonio.dumps", 1e3, lambda s: s[4][0]),
            "jsonio.bytes_per_row": sum(s[4][1] for s, _ in dumps) / dump_rows if dump_rows else 0.0,
            "render.render_svg_us": median_of("render.render_svg", 1e3),
            "render.svg_bytes": statistics.median(s[4] for s, _ in svgs) if svgs else 0.0,
        }
        for f in FUNCTIONS:
            metrics[f"{f}_calls"] = calls[f] / ops if ops else 0.0
        return metrics, returned
