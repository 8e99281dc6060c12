#!/usr/bin/env python3
"""goldbench: end-to-end and per-layer benchmark of the goldbug package.

    python3 goldbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root.  The program is not installed: children
run `python -m goldbug.cli` with `src` on PYTHONPATH, and the in-process
workload imports goldbug from `src`.  Each run plays whole rounds of one
workload's calls in a closed loop with one client, checks every output
against the benchmark's own computation, and prints as its last stdout line
one JSON object with `correct`, `attempted`, `failed` and `metrics`: the
end-to-end metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
A readable summary goes to stderr, and the full result (and, when traced,
every span) is written under `.goldbench/`.  See README.md in this
directory for the workloads and the metrics.
"""

import time

_T0 = time.perf_counter()  # set-up time counts from here

import argparse  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import traceback  # noqa: E402
from contextlib import nullcontext, redirect_stderr, redirect_stdout  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402
from checks import Tally  # noqa: E402
from geometry import Site  # noqa: E402
from inputs import CliCall, OracleRequest  # noqa: E402
from tracing import LAYER_UNITS, Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
STATE = ROOT / ".goldbench"
CHILD_TIMEOUT_S = 60

E2E_UNITS = {
    "setup_s": "s",
    "ops_per_s": "ops/s",
    "call_ms_best25": "ms",
    "cpu_ms_per_op": "ms",
    "peak_rss_mb": "MB",
}


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

STORY = Site(r=Fraction(2), L=Fraction(36))


@dataclass(frozen=True)
class Workload:
    name: str
    make_round: object  # (seed, index, tmp) -> list of calls
    warmup: object  # (seed, tmp) -> the untimed first call
    in_process: bool = False


def _warm_report(seed: int, tmp: Path) -> CliCall:
    return CliCall("report", ["report", "--r", "2in", "--L", "3ft"], expect={"site": STORY})


def _warm_sweep(seed: int, tmp: Path) -> CliCall:
    axes = [("L", Fraction(24), Fraction(48), Fraction(1))]
    argv = ["sweep", "--r", "2in", "--L", "3ft", "--axis", "L=2ft:4ft:1in"]
    return CliCall("sweep", argv, ops=25, expect={"site": STORY, "axes": axes})


def _warm_oracle(seed: int, tmp: Path) -> OracleRequest:
    return inputs.oracle_round(seed, 0)[0]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("cli_oneshot", inputs.oneshot_round, _warm_report),
        Workload("sweep_study", inputs.sweep_round, _warm_sweep),
        Workload(
            "oracle_batch",
            lambda seed, index, tmp: inputs.oracle_round(seed, index),
            _warm_oracle,
            in_process=True,
        ),
    )
}


# ---------------------------------------------------------------------------
# Running calls
# ---------------------------------------------------------------------------


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != "GOLDBUG_CONFIG"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


@dataclass
class Sample:
    wall_s: float
    cpu_s: float
    rss_kb: int = 0
    ops: int = 0
    stratum: str = ""


class Children:
    """Runs one `goldbug` process at a time and reaps it with os.wait4, whose
    rusage gives the child's CPU time and peak RSS."""

    def __init__(self, tmp: Path) -> None:
        self.env = child_env()
        self.out_path, self.err_path = tmp / "stdout", tmp / "stderr"

    def run(self, call: CliCall) -> tuple[int, bytes, bytes, Sample]:
        env = self.env
        if call.env_config is not None:
            env = dict(env, GOLDBUG_CONFIG=call.env_config)
        with open(self.out_path, "wb") as out, open(self.err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, "-m", "goldbug.cli", *call.argv],
                stdin=subprocess.DEVNULL,
                stdout=out,
                stderr=err,
                env=env,
                cwd=ROOT,
            )
            killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        sample = Sample(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss)
        return proc.returncode, self.out_path.read_bytes(), self.err_path.read_bytes(), sample


def import_goldbug():
    """The goldbug modules, imported from src in this process."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import goldbug.analysis
    import goldbug.cli
    import goldbug.oracle
    import goldbug.scenario

    return goldbug


def run_in_process(gb, call: CliCall) -> tuple[int, bytes, bytes]:
    """`goldbug.cli.main(argv)` with stdout and stderr captured; an exception
    that escapes main counts as exit 1 with its traceback on stderr."""
    out, err = io.StringIO(), io.StringIO()
    if call.env_config is not None:
        os.environ["GOLDBUG_CONFIG"] = call.env_config
    try:
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = gb.cli.main(list(call.argv))
            except Exception:
                traceback.print_exc()
                code = 1
    finally:
        os.environ.pop("GOLDBUG_CONFIG", None)
    return code, out.getvalue().encode("utf-8"), err.getvalue().encode("utf-8")


def oracle_request(gb, req: OracleRequest):
    """One oracle_batch request: draw a batch, cross-check each scenario
    through the closed form, the coordinate oracle, the report and the
    raster, and run one Monte Carlo lens estimate."""
    rows = []
    for s in gb.oracle.random_scenarios(req.count, req.scenario_seed):
        rows.append(
            (
                s,
                gb.scenario.center_distance(s),
                gb.oracle.center_distance_oracle(s),
                gb.analysis.overlap_report(s).overlaps,
                gb.oracle.overlap_oracle_grid(s, req.cells_per_foot),
            )
        )
    estimate = gb.oracle.lens_area_mc(
        float(req.mc_distance), float(req.mc_ra), float(req.mc_rb), req.mc_samples, req.mc_seed
    )
    return rows, estimate


def _cpu_self() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


@dataclass
class Run:
    """Everything one run measured and checked."""

    samples: list = field(default_factory=list)
    ops: int = 0
    failed: int = 0
    unexpected: int = 0
    reasons: list = field(default_factory=list)
    seen_claims: dict = field(default_factory=dict)
    mc_first: dict = field(default_factory=dict)

    def record(self, tally: Tally, known_fault: bool = False) -> None:
        self.ops += tally.attempted
        self.failed += tally.failed
        if tally.failed and not known_fault:
            self.unexpected += tally.failed
        for reason in tally.reasons:
            if len(self.reasons) < 12:
                self.reasons.append(("known fault: " if known_fault else "") + reason)


def play(wl: Workload, calls, run: Run, execute) -> float:
    """Plays one round; returns the summed wall time of its calls.
    `execute(call)` returns (code, out, err, Sample) or, in process,
    (rows, estimate, Sample)."""
    total = 0.0
    for slot, call in enumerate(calls):
        if wl.in_process:
            rows, estimate, sample = execute(call)
            first = run.mc_first.setdefault(slot, (estimate.value, estimate.std_error))
            run.record(checks.check_oracle(call, rows, estimate, first))
        else:
            code, out, err, sample = execute(call)
            run.record(checks.check_cli(call, code, out, err, run.seen_claims), call.known_fault)
        sample.ops, sample.stratum = call.ops, call.stratum
        run.samples.append(sample)
        total += sample.wall_s
    return total


def in_process_executor(gb, wl: Workload, tracer=None):
    def execute(call):
        start_cpu, start = _cpu_self(), time.perf_counter()
        with tracer.root(wl.name) if tracer else nullcontext():
            if wl.in_process:
                result = oracle_request(gb, call)
            else:
                result = run_in_process(gb, call)
        sample = Sample(time.perf_counter() - start, _cpu_self() - start_cpu)
        return (*result, sample)

    return execute


def _keep_going(start: float, seconds: float, round_times: list[float]) -> bool:
    """Start another round only if one more, of average length, ends in time."""
    elapsed = time.perf_counter() - start
    return elapsed + statistics.fmean(round_times) <= seconds


# ---------------------------------------------------------------------------
# Untraced run: end-to-end metrics
# ---------------------------------------------------------------------------


def measure(wl: Workload, seed: int, seconds: float, tmp: Path) -> tuple[dict, Run, dict]:
    # Set-up excludes the benchmark's own work: making inputs and checking
    # the warm-up call.
    own_start = time.perf_counter()
    first_round = wl.make_round(seed, 0, tmp)
    warm = wl.warmup(seed, tmp)
    own_s = time.perf_counter() - own_start

    run = Run()
    if wl.in_process:
        gb = import_goldbug()
        execute = in_process_executor(gb, wl)
        rows, estimate, _ = execute(warm)
        ready = time.perf_counter()
        warm_tally = checks.check_oracle(warm, rows, estimate)
    else:
        execute = Children(tmp).run
        code, out, err, _ = execute(warm)
        ready = time.perf_counter()
        warm_tally = checks.check_cli(warm, code, out, err, run.seen_claims)
    setup_s = ready - _T0 - own_s
    warm_ok = warm_tally.failed == 0
    if not warm_ok:
        run.reasons.append("warm-up: " + "; ".join(warm_tally.reasons))
    if wl.in_process:
        run.mc_first[0] = (estimate.value, estimate.std_error)

    start, round_times, index = time.perf_counter(), [], 0
    calls = first_round
    while True:
        round_start = time.perf_counter()
        play(wl, calls, run, execute)
        round_times.append(time.perf_counter() - round_start)
        index += 1
        if not _keep_going(start, seconds, round_times):
            break
        calls = wl.make_round(seed, index, tmp)

    walls = [s.wall_s for s in run.samples]
    if wl.in_process:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    else:
        peak_kb = max(s.rss_kb for s in run.samples)
    wall_per_op, cpu_per_op, wall_per_call = fast_quarter_per_kind(run.samples)
    metrics = {
        "setup_s": setup_s,
        "ops_per_s": 1.0 / wall_per_op,
        "call_ms_best25": wall_per_call * 1e3,
        "cpu_ms_per_op": cpu_per_op * 1e3,
        "peak_rss_mb": peak_kb / 1024,
    }
    detail = {
        "calls": len(walls),
        "rounds": index,
        "call_ms_p50": statistics.median(walls) * 1e3,
        "call_ms_p95": _p95(walls),
        "ops_per_s_of_sums": run.ops / sum(walls),
        "warmup_ok": warm_ok,
        "run_s": time.perf_counter() - start,
        "samples": [[s.stratum, s.ops, round(s.wall_s * 1e3, 3), round(s.cpu_s * 1e3, 3)] for s in run.samples],
    }
    return metrics, run, detail


def fast_quarter(values) -> float:
    """Mean of the smallest quarter of `values` (at least one of them)."""
    values = sorted(values)
    return statistics.fmean(values[: max(1, round(len(values) / 4))])


def fast_quarter_per_kind(samples: list[Sample]) -> tuple[float, float, float]:
    """Wall and CPU seconds per op, and wall seconds per call.

    Each call kind's figure is the mean of its fastest quarter of calls,
    weighted by the kind's share of the ops (per op) or of the calls (per
    call).  Every round has the same make-up, so the weights repeat from
    run to run.  On a shared machine, load from elsewhere only ever adds
    time, and it slows wall and CPU time alike for seconds to minutes at
    a time; a kind's fastest calls are the ones least touched by it, so
    they repeat from run to run better than its median does."""
    kinds: dict[str, list[Sample]] = {}
    for s in samples:
        kinds.setdefault(s.stratum, []).append(s)
    total_ops = sum(s.ops for s in samples)
    wall = cpu = call = 0.0
    for group in kinds.values():
        share = sum(s.ops for s in group) / total_ops
        wall += share * fast_quarter(s.wall_s / s.ops for s in group)
        cpu += share * fast_quarter(s.cpu_s / s.ops for s in group)
        call += len(group) / len(samples) * fast_quarter(s.wall_s for s in group)
    return wall, cpu, call


def _p95(walls: list[float]) -> float | None:
    """p95 in ms, reported only with at least 40 calls."""
    if len(walls) < 40:
        return None
    return statistics.quantiles(walls, n=20, method="inclusive")[-1] * 1e3


# ---------------------------------------------------------------------------
# Traced run: per-layer metrics
# ---------------------------------------------------------------------------

INIT_PROBES = (
    ["report", "--r", "2in", "--L", "3ft"],
    ["threshold", "--rA", "2ft", "--rB", "2ft", "--r", "2in"],
    ["sweep", "--r", "2in", "--L", "3ft", "--axis", "L=2ft:4ft:1in"],
    ["render", "--r", "2in", "--L", "3ft", "--out", "{tmp}/init.svg"],
)


def measure_init(tmp: Path, repeats: int = 5) -> dict[str, float]:
    """The `init` layer, which only fresh interpreters show: the wall time of
    `import goldbug.cli` over a bare interpreter, and how many of four
    commands leave numpy loaded."""
    env = child_env()

    def wall(code: str) -> float:
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, check=True, timeout=CHILD_TIMEOUT_S)
        return time.perf_counter() - start

    bare, full = [], []
    for _ in range(repeats):
        bare.append(wall("pass"))
        full.append(wall("import goldbug.cli"))
    loaded = 0
    for argv in INIT_PROBES:
        argv = [a.format(tmp=tmp) for a in argv]
        code = (
            "import sys\nfrom goldbug.cli import main\n"
            f"main({argv!r})\nprint('numpy' in sys.modules, file=sys.stderr)"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, cwd=ROOT, capture_output=True,
            text=True, check=True, timeout=CHILD_TIMEOUT_S,
        )
        loaded += proc.stderr.strip().splitlines()[-1] == "True"
    return {
        "init.import_ms": (statistics.median(full) - statistics.median(bare)) * 1e3,
        "init.numpy_loaded": float(loaded),
    }


def _probes(gb, tmp: Path):
    """One fixed call per group of functions, run traced after the replay
    for functions the workload never reached."""
    story = ["--r", "2in", "--L", "3ft"]
    cli = lambda *argv: lambda: run_in_process(gb, CliCall("probe", list(argv)))  # noqa: E731
    oracle_req = OracleRequest(50, 1843, 16, Fraction(7, 2), Fraction(2), Fraction(2), 200_000, 7)
    return (
        (
            ("cli.build_parser", "cli.main", "units.parse_length", "scenario.construct",
             "scenario.center_distance", "analysis.overlap_report", "analysis.lens_area",
             "jsonio.report_to_json", "jsonio.dumps"),
            cli("report", *story, "--json"),
        ),
        (("analysis.nonoverlap_threshold",), cli("threshold", "--rA", "2ft", "--rB", "2ft", "--r", "2in")),
        (("analysis.sweep", "jsonio.sweep_to_json"), cli("sweep", *story, "--axis", "L=2ft:4ft:1in", "--json")),
        (("render.render_svg",), cli("render", *story, "--out", str(tmp / "probe.svg"))),
        (
            ("oracle.random_scenarios", "oracle.center_distance_oracle", "scenario.layout",
             "oracle.overlap_oracle_grid", "oracle.lens_area_mc"),
            lambda: oracle_request(gb, oracle_req),
        ),
        (("analysis.verify_claims",), lambda: gb.analysis.verify_claims()),
    )


def measure_traced(wl: Workload, seed: int, seconds: float, tmp: Path, trace_path: Path):
    start = time.perf_counter()
    metrics = measure_init(tmp)
    gb = import_goldbug()
    tracer = Tracer()
    plain, traced = Run(), Run()
    plain_exec = in_process_executor(gb, wl)
    traced_exec = in_process_executor(gb, wl, tracer)
    plain_exec(wl.warmup(seed, tmp))

    plain_s = traced_s = 0.0
    index, round_times = 0, []
    while True:
        round_start = time.perf_counter()
        calls = wl.make_round(seed, index, tmp)
        plain_s += play(wl, calls, plain, plain_exec)
        tracer.install()
        try:
            traced_s += play(wl, calls, traced, traced_exec)
        finally:
            tracer.uninstall()
        round_times.append(time.perf_counter() - round_start)
        index += 1
        if not _keep_going(start, seconds, round_times):
            break

    _, reached = tracer.layer_metrics(traced.ops)
    tracer.phase = "probe"
    tracer.install()
    try:
        with redirect_stdout(io.StringIO()):
            for covered, probe in _probes(gb, tmp):
                if any(reached[f] == 0 for f in covered):
                    probe()
    finally:
        tracer.uninstall()
    layers, _ = tracer.layer_metrics(traced.ops)
    metrics.update(layers)
    metrics["trace.overhead_pct"] = (traced_s / plain_s - 1.0) * 100.0
    tracer.write(trace_path)

    run = Run(
        ops=plain.ops + traced.ops,
        failed=plain.failed + traced.failed,
        unexpected=plain.unexpected + traced.unexpected,
        reasons=(plain.reasons + traced.reasons)[:12],
    )
    detail = {
        "rounds": index,
        "untraced_call_s": plain_s,
        "traced_call_s": traced_s,
        "spans": len(tracer.spans),
        "unreached": sorted(f for f, n in reached.items() if n == 0),
        "run_s": time.perf_counter() - start,
    }
    return metrics, run, detail


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    if not (SRC / "goldbug" / "cli.py").is_file():
        print(f"goldbench: no goldbug sources under {SRC}", file=sys.stderr)
        return 2

    wl = WORKLOADS[args.workload]
    tag = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    tmp = STATE / f"tmp-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            trace_path = STATE / "traces" / f"{wl.name}-seed{args.seed}.tsv.gz"
            metrics, run, detail = measure_traced(wl, args.seed, args.seconds, tmp, trace_path)
            units = LAYER_UNITS
        else:
            metrics, run, detail = measure(wl, args.seed, args.seconds, tmp)
            units = E2E_UNITS
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    correct = run.unexpected == 0 and detail.get("warmup_ok", True)
    result = {
        "correct": correct,
        "attempted": run.ops,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    _report(tag, result, run, detail)
    results = STATE / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{tag}.json").write_text(
        json.dumps({"result": result, "detail": detail, "reasons": run.reasons}, indent=1) + "\n"
    )
    print(json.dumps(result))
    return 0


def _report(tag: str, result: dict, run: Run, detail: dict) -> None:
    err = sys.stderr
    print(
        f"goldbench {tag}: correct={result['correct']} attempted={result['attempted']} "
        f"failed={result['failed']} (unexpected {run.unexpected})",
        file=err,
    )
    for name, m in result["metrics"].items():
        print(f"  {name:<44} {m['value']:>14.6g} {m['unit']}", file=err)
    for key, value in detail.items():
        if not isinstance(value, list):
            print(f"  [{key}] {value}", file=err)
    for reason in run.reasons:
        print(f"  failure: {reason}", file=err)


if __name__ == "__main__":
    sys.exit(main())
