"""mplinalg's libmp helpers against the mpmath expressions they replace.

`fdot`, `mul`, `sub_mul` and `add_mul` make the libmp calls that mpmath's
`fdot` and operators make, so each must return what its expression returns:
the same type, the same raw `_mpf_`/`_mpc_` value, and `mp.mp.zero` itself
exactly where the expression's `or mp.mp.zero` gives it.  The operands cover
every mpf/mpc mix, the three zeros (`mp.mp.zero`, a fresh mpf zero and
`mpc(0)`), NaN and the infinities, exponent gaps past `mpf_add`'s 100-bit
perturbation branch and past `mpf_sum`'s 2 * prec cutoff, and the operands
that go through mpmath itself: an int and `mp.pi`.
"""

import itertools
import random

import mpmath as mp
import pytest
from mpmath import ctx_mp_python
from mpmath.libmp import libmpc

from torsionpoly import mplinalg as la

DIGITS = (15, 32, 64, 100)
ZERO = mp.mp.zero


def key(x):
    """Type, raw value and zero identity: equal only if bit-identical."""
    raw = getattr(x, "_mpc_", None) or getattr(x, "_mpf_", x)
    return type(x).__name__, raw, x is ZERO


def outcome(f, *args):
    """The key of f(*args), or the type of what it raised."""
    try:
        return key(f(*args))
    except Exception as exc:        # the expression's own error must match
        return type(exc)


def operands(rng):
    """Operands at the working precision, each rounded from 20 more digits."""
    prec = mp.mp.prec
    with mp.workdps(mp.mp.dps + 20):
        x = [mp.mpf(rng.uniform(-2, 2)) / 3 for _ in range(6)]
    # gaps: 2^120 past mpf_add's 100 bits, 2^(3 prec) past mpf_sum's 2 prec
    big, huge = mp.ldexp(x[2], 120), mp.ldexp(x[3], 3 * prec)
    tiny = mp.ldexp(x[4], -3 * prec)
    return [
        +x[0], +x[1], big, huge, tiny,
        mp.mpc(x[0], x[5]), mp.mpc(x[1], -x[2]), mp.mpc(big, x[4]),
        mp.mpc(x[3], huge), mp.mpc(tiny, x[0]), mp.mpc(x[5], 0),
        mp.mpc(0, x[1]),
        ZERO, mp.mpf(0), mp.mpc(0),
        mp.nan, mp.inf, -mp.inf, mp.mpc(mp.inf, x[0]), mp.mpc(x[1], mp.nan),
        3, mp.pi,
    ]


def ref_fdot(A, B):
    return mp.fdot(A, B) or ZERO


def ref_mul(a, b):
    if isinstance(a, mp.mpc) and isinstance(b, mp.mpc):
        return mp.fdot(((a, b),))
    return a * b


def ref_sub_mul(x, f, y):
    return x - f * y or ZERO


def ref_add_mul(x, n, y):
    return x + (n * y or ZERO) or ZERO


@pytest.mark.parametrize("digits", DIGITS)
def test_fdot_matches_mp_fdot(digits):
    rng = random.Random(digits)
    with mp.workdps(digits):
        ops = operands(rng)
        for a, b in itertools.product(ops, repeat=2):
            assert outcome(la.fdot, [a], [b]) == outcome(ref_fdot, [a], [b])
        for n in (2, 3, 5):
            for _ in range(600):
                A = [rng.choice(ops) for _ in range(n)]
                B = [rng.choice(ops) for _ in range(n)]
                assert outcome(la.fdot, A, B) == outcome(ref_fdot, A, B)
                assert outcome(la.fdot, tuple(A), B) == outcome(ref_fdot, A, B)


@pytest.mark.parametrize("digits", DIGITS)
def test_mul_matches_the_product_it_replaces(digits):
    rng = random.Random(100 + digits)
    with mp.workdps(digits):
        ops = operands(rng)
        for a, b in itertools.product(ops, repeat=2):
            assert outcome(la.mul, a, b) == outcome(ref_mul, a, b)


@pytest.mark.parametrize("digits", DIGITS)
def test_sub_mul_matches_the_row_operation(digits):
    rng = random.Random(200 + digits)
    with mp.workdps(digits):
        ops = operands(rng)
        for x, f, y in itertools.product(ops, repeat=3):
            assert outcome(la.sub_mul, x, f, y) == outcome(ref_sub_mul, x, f, y)


@pytest.mark.parametrize("digits", DIGITS)
def test_add_mul_matches_the_fox_term_sum(digits):
    rng = random.Random(300 + digits)
    with mp.workdps(digits):
        ops = operands(rng)
        for x, y in itertools.product(ops, repeat=2):
            for n in (1, -1, 2, -3, 0, 1 << 70, True, mp.pi):
                assert outcome(la.add_mul, x, n, y) \
                    == outcome(ref_add_mul, x, n, y)


def test_zero_results_keep_the_expressions_identity():
    # a zero sum is mp.mp.zero, a zero single product a fresh zero of its type
    one, i = mp.mpf(1), mp.mpc(0, 1)
    assert la.fdot([one, i], [one, i]) is ZERO      # 1 * 1 + i * i
    assert la.fdot([i], [mp.mpc(0)]) is ZERO
    p = la.mul(i, mp.mpc(0))
    assert type(p) is mp.mpc and p is not ZERO and p == 0
    assert la.mul(one, mp.mpf(0)) is not ZERO
    assert la.sub_mul(one, one, one) is ZERO
    # x + (n * mpc(0) or 0) adds the mpf zero, so an mpf x stays an mpf
    assert key(la.add_mul(one, 2, mp.mpc(0))) == key(one + ZERO)
    # NaN and inf are not zero
    assert key(la.fdot([mp.inf], [ZERO])) == key(mp.fdot([mp.inf], [ZERO]))
    assert la.sub_mul(mp.nan, one, one) is not ZERO


def libmp_bindings():
    """The names of the mpf_* and mpc_* functions mplinalg binds."""
    return sorted(name for name in vars(la)
                  if name.startswith(("mpf_", "mpc_")))


def test_helpers_bind_the_functions_mpmath_calls():
    """Each libmp function is the very object that mpmath's fdot and
    operators (`ctx_mp_python`) and its complex arithmetic (`libmpc`) call,
    so a backend that swaps one swaps it for both paths."""
    names = libmp_bindings()
    assert {"mpf_mul", "mpf_sum", "mpc_mul", "mpc_sub", "mpc_add_mpf",
            "mpf_mul_int", "mpc_mul_int"} <= set(names)
    for name in names:
        assert getattr(la, name) is getattr(ctx_mp_python, name), name
        if hasattr(libmpc, name):
            assert getattr(la, name) is getattr(libmpc, name), name
    assert la._PR is mp.mp._prec_rounding
    assert la._make_mpf.__self__ is mp.mp and la._make_mpc.__self__ is mp.mp


def test_helpers_read_the_working_precision_at_each_call():
    x = mp.mpf(1) / 3
    with mp.workdps(50):
        y = mp.mpf(1) / 7
        assert key(la.sub_mul(x, y, y)) == key(x - y * y)
    with mp.workprec(20):
        assert key(la.sub_mul(x, y, y)) == key(x - y * y)
        assert key(la.fdot([x, y], [y, x])) == key(mp.fdot([x, y], [y, x]))
