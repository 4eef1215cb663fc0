"""The benchmark tracer wraps program functions by name; a renamed or deleted
function would make every traced benchmark run fail after its timed loop.
It also reads the shapes of the boundary matrices, which must keep their
`rows` and `cols`."""

import importlib.util
import sys
from pathlib import Path

import mpmath as mp

from torsionpoly import pipelines as pl
from torsionpoly.records import ingest_knot

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


def test_tracer_reads_the_chain_matrix_shapes():
    tracing = load_tracing()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for knot in ("4_1", "5_2"):
            with mp.workdps(32):
                pl.torsion_at(ingest_knot(knot), "2.05")
    finally:
        tracer.uninstall()
    assert tracer.sizes()["chain_matrix_shapes"] \
        == [{"d1": "3x6", "d2": "6x3"}]
