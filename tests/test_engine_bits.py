"""The numeric engine's raw bits at a grid of sample points, pinned by digest.

Every `torsion_at` output is reduced to its type and raw mpmath value, and
every failing point to its error message; the sha256 of the lot was recorded
before the tuple kernel learned to skip exact-zero products, so a change to
the engine that moves any rounding anywhere on the grid fails here.
"""

import hashlib

import mpmath as mp
import pytest

from torsionpoly import pipelines as pl
from torsionpoly.records import ingest_knot

TRACES = tuple(f"{1.8 + 0.05 * i:.3f}" for i in range(9))   # 1.800 .. 2.200
DIGITS = (32, 50)

DIGESTS = {
    "4_1": "659b403a3bf625a279e450a3cf4bf49ec50a455f04bb10ed53fd3b226c6c6037",
    "5_2": "feaaeb22faa4fb3900a56a1bd2b3c08a8402cec4757a45bdb938906b7040205a",
}


def raw(x):
    """Type name and raw value of an mpmath number."""
    return type(x).__name__, getattr(x, "_mpc_", None) or x._mpf_


def grid_lines(knot):
    record = ingest_knot(knot)
    for digits in DIGITS:
        for trace in TRACES:
            try:
                with mp.workdps(digits):
                    point = pl.torsion_at(record, trace)
            except ValueError as exc:
                yield f"{digits} {trace} error {type(exc).__name__}: {exc}"
                continue
            for key in sorted(point):
                yield f"{digits} {trace} {key} {raw(point[key])!r}"


@pytest.mark.parametrize("knot", sorted(DIGESTS))
def test_torsion_at_bits_are_pinned(knot):
    prec = mp.mp.prec
    text = "\n".join(grid_lines(knot)).encode()
    assert mp.mp.prec == prec
    assert hashlib.sha256(text).hexdigest() == DIGESTS[knot]
