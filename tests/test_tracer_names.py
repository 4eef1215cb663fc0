"""The benchmark tracer wraps program functions by name; a renamed or deleted
function would make every traced benchmark run fail after its timed loop."""

import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def traced_names(tracing):
    for table in (tracing.SPANNED, tracing.COUNTED):
        for short, names in table.items():
            for attr in names:
                yield short, attr


def resolve(short, attr):
    obj = sys.modules[f"torsionpoly.{short}"]
    for part in attr.split("."):
        obj = getattr(obj, part)
    return obj


def test_tracer_installs_and_uninstalls():
    tracing = load_tracing()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        names = list(traced_names(tracing))
        wrapped = {(s, a): resolve(s, a) for s, a in names}
        assert all(hasattr(fn, "__wrapped__") for fn in wrapped.values())
    finally:
        tracer.uninstall()
    for short, attr in names:
        assert not hasattr(resolve(short, attr), "__wrapped__"), (short, attr)
