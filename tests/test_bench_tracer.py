"""The benchmark's tracer wraps goldbug functions by name: every name it
looks up must stay bound where it looks, or a traced benchmark run fails."""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "goldbench" / "tracing.py"


def test_benchmark_tracer_finds_every_name_it_wraps():
    # tracing.py imports only the standard library, so it loads by path.
    spec = importlib.util.spec_from_file_location("goldbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    try:
        tracer.install()
        bound = list(tracer._saved)
    finally:
        tracer.uninstall()
    # One binding per target, plus one per other module that binds the name.
    assert len(bound) == sum(1 + len(target[3]) for target in tracing.TARGETS)
    for owner, attr, original in bound:
        assert owner.__dict__[attr] is original
