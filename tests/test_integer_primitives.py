"""mplinalg's rebinding of mpmath's exact integer primitives to builtins.

mpmath's pure-Python originals stay the oracle: every builtin returns their
integer for every n >= 0, and the numeric engine gives the same raw bits with
the originals bound back as with the builtins.
"""

import math
import random
import sys
import types

import mpmath as mp
import pytest
from mpmath.libmp import libintmath

from torsionpoly import mplinalg as la
from torsionpoly import pipelines as pl
from torsionpoly.records import ingest_knot

ORIGINALS = {name: getattr(libintmath, original)
             for name, (original, _) in la.BUILTIN_PRIMITIVES.items()}
BUILTINS = {name: builtin for name, (_, builtin) in la.BUILTIN_PRIMITIVES.items()}


def mpmath_modules():
    return [m for name, m in list(sys.modules.items())
            if name == "mpmath" or name.startswith("mpmath.")]


def samples():
    """n >= 0: the edges 0, 2^k - 1, 2^k, 2^k + 1 and the perfect squares
    r^2 and r^2 +- 1, then random n of up to 4000 bits."""
    rng = random.Random(3517)
    yield 0
    for k in range(4001):
        yield from (2 ** k - 1, 2 ** k, 2 ** k + 1)
    roots = list(range(1, 300)) + [rng.getrandbits(rng.randint(1, 2000)) + 1
                                    for _ in range(600)]
    for r in roots:
        yield from (r * r - 1, r * r, r * r + 1)
    for _ in range(3000):
        yield rng.getrandbits(rng.randint(1, 4000))


def test_each_builtin_returns_the_originals_integer():
    for n in samples():
        assert n.bit_length() == libintmath.python_bitcount(n)
        for name, original in ORIGINALS.items():
            assert BUILTINS[name](n) == original(n), (name, n)
    root = math.isqrt(2 ** 4000 + 1)
    assert la._sqrtrem(2 ** 4000 + 1) == (root, 1) \
        == libintmath.sqrtrem_python(2 ** 4000 + 1)


def test_every_mpmath_binding_of_an_original_is_rebound():
    bound = 0
    for module in mpmath_modules():
        for name, original in ORIGINALS.items():
            assert getattr(module, name, None) is not original
            bound += getattr(module, name, None) is BUILTINS[name]
    assert bound >= 10
    assert mp.libmp.libmpf.bitcount is int.bit_length
    assert mp.libmp.libmpf.sqrtrem is la._sqrtrem
    # the originals stay reachable under their own names
    assert libintmath.python_bitcount is ORIGINALS["bitcount"]


def test_isqrt_fast_is_left_alone():
    """isqrt_fast may return less than the floor root, so an exact
    replacement is another function, which could change bits."""
    assert all(getattr(m, "isqrt_fast", libintmath.isqrt_fast_python)
               is libintmath.isqrt_fast_python for m in mpmath_modules())
    assert "isqrt_fast" not in la.BUILTIN_PRIMITIVES


def test_a_binding_that_is_not_the_original_is_left_alone(monkeypatch):
    """What gmpy2, or an mpmath already on builtins, binds stays bound; only
    the pure-Python originals of mpmath's modules are rebound."""
    other = lambda n: n
    probe = types.ModuleType("mpmath.probe")
    probe.bitcount, probe.isqrt, probe.sqrtrem = other, libintmath.isqrt_python, "x"
    outside = types.ModuleType("mpmathx")
    outside.isqrt = libintmath.isqrt_python
    monkeypatch.setitem(sys.modules, "mpmath.probe", probe)
    monkeypatch.setitem(sys.modules, "mpmathx", outside)
    la.use_builtin_primitives()
    assert (probe.bitcount, probe.isqrt, probe.sqrtrem) == (other, math.isqrt, "x")
    assert outside.isqrt is libintmath.isqrt_python
    assert not hasattr(probe, "isqrt_small")


def raw(x):
    return type(x).__name__, getattr(x, "_mpc_", None) or x._mpf_


def engine_bits(record, traces, digits):
    out = []
    for trace in traces:
        with mp.workdps(digits):
            point = pl.torsion_at(record, trace)
        out.append({key: raw(value) for key, value in point.items()})
    return out


@pytest.mark.parametrize("knot", ["4_1", "5_2"])
@pytest.mark.parametrize("digits", [15, 32, 64, 100])
def test_torsion_at_bits_are_the_originals(monkeypatch, knot, digits):
    """The same raw bits with the pure-Python originals bound back, each
    checked to be given no negative n, as with the builtins."""
    record, traces = ingest_knot(knot), ("1.9", "2.05", "2.2+0.1j")
    with_builtins = engine_bits(record, traces, digits)
    calls = dict.fromkeys(ORIGINALS, 0)

    def checked(name):
        def primitive(n):
            assert n >= 0, (name, n)
            calls[name] += 1
            return ORIGINALS[name](n)
        return primitive

    for module in mpmath_modules():
        for name, builtin in BUILTINS.items():
            if getattr(module, name, None) is builtin:
                monkeypatch.setattr(module, name, checked(name))
    assert engine_bits(record, traces, digits) == with_builtins
    assert calls["bitcount"] > 1000 and calls["sqrtrem"] > 0
