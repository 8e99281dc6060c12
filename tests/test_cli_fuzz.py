"""Generated command lines and config files, run through cli.main in-process.

Whatever the input, goldbug must end with exit 0 or exit 2 (exit 1 is kept
for a failed claim, and verify-paper only gets unknown claim ids here, so the
claim suite never runs), raise nothing, and report a usage error either as
one ``goldbug:`` line or as argparse's usage block.
"""

import contextlib
import io
import os
import tempfile
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from goldbug.analysis import SWEEP_PARAMS
from goldbug.cli import CONFIG_ENV_VAR, CONFIG_KEYS, main
from goldbug.scenario import PARAMS

def _one_in(n):
    """True about once in n draws."""
    return st.sampled_from([False] * (n - 1) + [True])


# 300- to 400-digit integers, past float range on their own.
HUGE = st.integers(10**299, 10**400 - 1)
DIGITS = st.one_of(st.integers(0, 120), HUGE)
DENOMINATORS = st.one_of(st.sampled_from([1, 2, 3, 4, 12]), HUGE)
UNITS = st.sampled_from(["in", "ft", " in", "ft ", "", "m", "feet", "IN"])
SIGNS = st.sampled_from(["", "", "-", "+", "- ", "--"])
PLAUSIBLE = st.sampled_from(["2in", "3ft", "2.5in", "50ft", "2ft", "0in", "1/3ft", "2'9\""])
CONVENTIONS = st.sampled_from(["from-trunk", "from-drop-point", "bogus"])


@st.composite
def malformed_or_exotic_length(draw):
    sign, unit = draw(SIGNS), draw(UNITS)
    kind = draw(st.sampled_from(["integer", "fraction", "decimal", "feet-inches", "text"]))
    if kind == "integer":
        body = f"{draw(DIGITS)}{unit}"
    elif kind == "fraction":
        body = f"{draw(DIGITS)}/{draw(st.one_of(st.just(0), DENOMINATORS))}{unit}"
    elif kind == "decimal":
        # Up to 9 decimals: 7 or more are too many.
        decimals = draw(st.text("0123456789", min_size=1, max_size=9))
        body = f"{draw(DIGITS)}.{decimals}{unit}"
    elif kind == "feet-inches":
        body = f"{draw(DIGITS)}'{draw(st.integers(0, 30))}\""
    else:
        body = draw(st.text("0123456789./-+ 'ftinx\"\n", max_size=12))
    return sign + body


def _exact_inches(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}in"


EXACT = st.builds(Fraction, st.integers(1, 1200), DENOMINATORS).map(_exact_inches)
EXTREME = st.builds(Fraction, HUGE, DENOMINATORS).map(_exact_inches)


@st.composite
def lengths(draw):
    """Mostly valid lengths of modest size, so that whole commands often
    succeed too."""
    if draw(_one_in(6)):
        return draw(malformed_or_exotic_length())
    return draw(st.one_of(PLAUSIBLE, EXACT))


LENGTHS = lengths()


@st.composite
def axis_spec(draw):
    """A sweep axis of at most 7 values (so at most 49 rows), or a
    malformed spec."""
    bad_param = draw(_one_in(8))
    param = draw(st.sampled_from(["d", "bogus", ""] if bad_param else list(SWEEP_PARAMS)))
    start = Fraction(draw(st.integers(-120, 1200)), draw(DENOMINATORS))
    step_size = st.integers(-1, 0) if draw(_one_in(10)) else st.integers(1, 120)
    step = Fraction(draw(step_size), draw(DENOMINATORS))
    last = draw(st.integers(-1, 6))
    stop = start + last * step + step * Fraction(draw(st.integers(0, 3)), 4)
    parts = [_exact_inches(x) for x in (start, stop, step)]
    shape = draw(st.sampled_from(["ok"] * 12 + ["bad-part", "two-parts", "four-parts", "no-eq"]))
    if shape == "bad-part":
        bad = st.sampled_from(["bogus", "", "1.1234567in", "1/0in", "5"])
        parts[draw(st.integers(0, 2))] = draw(bad)
    elif shape == "two-parts":
        parts = parts[:2]
    elif shape == "four-parts":
        parts.append(parts[-1])
    return f"{param}{'' if shape == 'no-eq' else '='}{':'.join(parts)}"


CONFIG_LINES = st.one_of(
    st.tuples(
        st.sampled_from([*CONFIG_KEYS, "radius", "depth"]),
        st.one_of(LENGTHS, CONVENTIONS, st.sampled_from(["json", "text", "xml"])),
    ).map(lambda kv: f"{kv[0]} = {kv[1]}".replace("\n", " ")),
    st.sampled_from(["# comment", "", "just words", "=", "r =", "convention ="]),
)
CONFIG_FILES = st.one_of(
    st.lists(CONFIG_LINES, max_size=8).map(lambda lines: "\n".join(lines).encode()),
    st.just(b"r = 2in\n\xff\xfeL = 3ft\n"),
)


COMMANDS = ("report", "threshold", "sweep", "render", "verify-paper")


@st.composite
def invocations(draw, command):
    """(argv, config file bytes or None, how the config is named).  "{tmp}"
    in argv stands for a fresh temporary directory.  Values are passed as
    --flag=value, so that argparse takes a leading "-" as part of a length."""
    argv = [command]
    if command == "verify-paper":
        argv += ["--inject-failure", draw(st.sampled_from(["C0", "C8", "c1", "", "bogus"]))]
    else:
        for key in PARAMS:
            if not draw(_one_in(8 if key in ("r", "L", "rA", "rB") else 2)):
                argv.append(f"--{key}={draw(LENGTHS)}")
        if draw(_one_in(4)):
            # One length of extreme size among modest ones (the last flag wins).
            argv.append(f"--{draw(st.sampled_from(list(PARAMS)))}={draw(EXTREME)}")
        if draw(_one_in(4)):
            argv.append(f"--convention={draw(CONVENTIONS)}")
        if draw(_one_in(20)):
            argv.append(f"--depth={draw(LENGTHS)}")
    if command == "sweep":
        count = draw(st.sampled_from([1] * 5 + [2] * 5 + [0, 3]))
        for spec in draw(st.lists(axis_spec(), min_size=count, max_size=count)):
            argv.append(f"--axis={spec}")
    if command == "render":
        out = "{tmp}/absent/plan.svg" if draw(_one_in(10)) else "{tmp}/plan.svg"
        argv.append(f"--out={out}")
        canvas = ["1200", "260", "2400", "24", "0", "-5", "40", "20000", str(10**400), "x"]
        scales = ["0.05", "0.5", "5", "1e-320", "0", "-1", "nan", "inf", "1e300", "x"]
        factors = ["1", "20", "100", "0.5", "nan", "1e308"]
        for flag, values in (
            ("width", canvas),
            ("height", canvas),
            ("margin", canvas),
            ("feet-per-px", scales),
            ("exaggerate-angle", factors),
        ):
            if draw(_one_in(3)):
                argv.append(f"--{flag}={draw(st.sampled_from(values))}")
        if draw(st.booleans()):
            argv.append("--no-labels")
    if draw(st.booleans()):
        argv.append("--json")
    if draw(_one_in(4)):
        argv.append(f"--format={draw(st.sampled_from(['text', 'json', 'xml']))}")
    if draw(_one_in(20)):
        argv.append("--out=x" if command == "sweep" else "--axis=x")  # another command's flag
    config = draw(CONFIG_FILES) if draw(_one_in(3)) else None
    named_by = draw(st.sampled_from(["flag", "env"]))
    return argv, config, named_by


@pytest.mark.parametrize("command", COMMANDS)
@settings(deadline=None)
@given(data=st.data())
def test_cli_exits_0_or_2_with_one_error_line(command, data):
    argv, config, named_by = data.draw(invocations(command))
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, mock.patch.dict(os.environ):
        os.environ.pop(CONFIG_ENV_VAR, None)
        argv = [arg.replace("{tmp}", tmp) for arg in argv]
        if config is not None:
            path = Path(tmp, "gb.cfg")
            path.write_bytes(config)
            if named_by == "flag":
                argv += ["--config", str(path)]
            else:
                os.environ[CONFIG_ENV_VAR] = str(path)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)

    assert code in (0, 2), (argv, err.getvalue())
    if code == 2:
        assert out.getvalue() == "", argv
        lines = err.getvalue().splitlines()
        one_line = len(lines) == 1 and lines[0].startswith("goldbug: ")
        usage = lines[0].startswith("usage: goldbug") and ": error: " in lines[-1]
        assert one_line or usage, (argv, err.getvalue())
