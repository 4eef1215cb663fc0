"""gcd_poly, squarefree_primitive, exact_div and minimal_polynomial against
sympy on seeded random inputs.  sympy is a test-only oracle: without it the
module is skipped.  The resultant row is in test_resultant_oracle.py."""

import random
from fractions import Fraction

import pytest

from test_resultant_oracle import RECORD_INPUTS, from_sympy, random_poly, to_sympy
from torsionpoly.numfield import NumberField, minimal_polynomial
from torsionpoly.polys import (
    MultiPoly, PolyError, divides, exact_div, from_dense, from_text, gcd_poly,
    normalize_sign, resultant, squarefree_primitive, to_text,
)

sympy = pytest.importorskip("sympy")

VARS = ("x", "y")
SYMS = {v: sympy.Symbol(v) for v in VARS}

# univariate, rational coefficients: the polynomials every root pass takes,
# from a monic defining polynomial with Fraction coefficients
MONIC = from_text("x^3 - 1/2*x^2 + 5/3", ["x"])
LINEAR = from_text("2/3*x - 5/4", ["x"])
QUADRATIC = from_text("x^2 + 7/5", ["x"])


def random_factor(rng, degrees, terms):
    """A random polynomial over (x, y) of positive degree in x."""
    return random_poly(rng, VARS, degrees, terms) + MultiPoly.var(VARS, "x")


def assert_same_up_to_scalar(got, want_expr):
    want = from_sympy(want_expr, VARS, SYMS)
    assert to_text(normalize_sign(got)) == to_text(normalize_sign(want))


def test_gcd_poly_against_sympy():
    rng = random.Random(71)
    for k in range(16):
        p, q = random_factor(rng, (2, 1), 3), random_factor(rng, (1, 2), 3)
        if k % 4:
            g = random_factor(rng, (1, 2), 2)
            p, q = p * g, q * g * (k % 2 + 1)
        assert_same_up_to_scalar(
            gcd_poly(p, q), sympy.gcd(to_sympy(p, SYMS), to_sympy(q, SYMS)))
    # one side free of x, a constant, zero, a content in y shared by both
    f = random_factor(rng, (2, 1), 3)
    c = from_text("2*y^2 - 6*y + 4", VARS)
    pairs = [(f * c, c * from_text("y + 5", VARS)),
             (f, MultiPoly.constant(VARS, Fraction(3, 2))),
             (f * c, MultiPoly.zero(VARS)),
             (f * c * from_text("x*y + 1", VARS), c * from_text("3*x*y - y + 3", VARS))]
    # univariate: a repeated factor against its derivative, a shared factor,
    # coprime pairs and a constant
    pairs += [(MONIC * LINEAR ** 2, (MONIC * LINEAR ** 2).derivative("x")),
              (MONIC * LINEAR, QUADRATIC * LINEAR * Fraction(-3, 2)),
              (MONIC, MONIC.derivative("x")),
              (MONIC, QUADRATIC),
              (MONIC, MultiPoly.constant(("x",), Fraction(5, 7)))]
    for p, q in pairs:
        for a, b in ((p, q), (q, p)):
            assert_same_up_to_scalar(
                gcd_poly(a, b), sympy.gcd(to_sympy(a, SYMS), to_sympy(b, SYMS)))


def test_squarefree_primitive_against_sympy():
    """squarefree_primitive drops the x-free content, so the oracle is the
    sympy squarefree part of the primitive part in x."""
    rng = random.Random(73)
    for k in range(16):
        a, b = random_factor(rng, (1, 1), 2), random_factor(rng, (1, 2), 2)
        p = a * b ** (k % 3 + 1)
        if k % 2:
            p = p * (random_poly(rng, VARS, (0, 2), 2) + MultiPoly.var(VARS, "y")) ** 2
        _, prim = sympy.Poly(to_sympy(p, SYMS), SYMS["x"]).primitive()
        assert_same_up_to_scalar(squarefree_primitive(p, "x"),
                                 sympy.sqf_part(prim.as_expr()))
    # the eliminants the 4_1 and 5_2 records pass to squarefree_primitive
    for label, main in (("4_1 trace relation, el (6x6)", "y"),
                        ("5_2 eliminate T (5x5)", "tau"),
                        ("4_1 transport tau0 (4x4)", "tau")):
        p = resultant(*RECORD_INPUTS[label]).drop_vars()
        syms = {v: sympy.Symbol(v) for v in p.vars}
        _, prim = sympy.Poly(to_sympy(p, syms), syms[main]).primitive()
        want = from_sympy(sympy.sqf_part(prim.as_expr()), p.vars, syms)
        assert to_text(squarefree_primitive(p, main)) == to_text(normalize_sign(want))
    # univariate with rational coefficients: repeated factors and a constant
    for p in (MONIC, MONIC ** 2 * LINEAR, MONIC * LINEAR ** 3 * QUADRATIC ** 2 * Fraction(7, 9),
              MultiPoly.constant(("x",), Fraction(3, 4))):
        _, prim = sympy.Poly(to_sympy(p, SYMS), SYMS["x"]).primitive()
        got = squarefree_primitive(p, "x")
        assert got.vars == ("x",)
        assert_same_up_to_scalar(got, prim.sqf_part().as_expr())


def test_exact_div_against_sympy():
    """exact_div and divides against sympy's division over QQ by a single
    divisor, whose remainder is zero exactly when the divisor divides:
    integer and rational pairs, divisible and not, and divisors that are
    constant or free of x."""
    rng = random.Random(79)
    pairs = []
    for k in range(24):
        a, b = random_factor(rng, (2, 1), 3), random_factor(rng, (1, 2), 3)
        if k % 2 == 0:
            a, b = normalize_sign(a), normalize_sign(b)
        p = a * b if k % 4 < 2 else a * b + normalize_sign(random_factor(rng, (1, 1), 2))
        pairs.append((p, b))
    f = normalize_sign(random_factor(rng, (2, 2), 4))
    for q in (MultiPoly.constant(VARS, 3), MultiPoly.constant(VARS, Fraction(-2, 3)),
              from_text("2*y^2 - 6*y + 4", VARS), from_text("y + 5", VARS)):
        pairs += [(f * q, q), (f, q)]
    gens = [SYMS[v] for v in VARS]
    outcomes = set()
    for p, q in pairs:
        sp, sq = (sympy.Poly(to_sympy(g, SYMS), *gens, domain="QQ") for g in (p, q))
        quo, rem = sp.div(sq)
        outcomes.add(rem.is_zero)
        assert divides(q, p) == rem.is_zero
        if rem.is_zero:
            assert exact_div(p, q) == from_sympy(quo.as_expr(), VARS, SYMS)
        else:
            with pytest.raises(PolyError, match="not divisible"):
                exact_div(p, q)
    assert outcomes == {True, False}


@pytest.mark.parametrize("coeffs", [[1, 0, -1, 1], [3, 0, 1]],
                         ids=["x^3-x^2+1", "x^2+3"])
def test_minimal_polynomial_against_sympy(coeffs):
    K = NumberField.create(from_dense("x", coeffs))
    x, tau = SYMS["x"], sympy.Symbol("tau")
    root = sympy.CRootOf(sum(c * x ** i for i, c in enumerate(coeffs)), 0)
    rng = random.Random(79)
    for k in range(12):
        coords = [Fraction(rng.randint(-9, 9), rng.choice((1, 1, 2, 3)))
                  for _ in range(K.degree)]
        if k == 0:
            coords[1:] = [0] * (K.degree - 1)
        expr = sum(sympy.Rational(c.numerator, c.denominator) * root ** i
                   for i, c in enumerate(coords))
        want = sympy.Poly(sympy.minimal_polynomial(expr, tau), tau).all_coeffs()
        assert minimal_polynomial(K.element(coords)) == normalize_sign(from_dense(
            "tau", [Fraction(int(c.p), int(c.q)) for c in reversed(want)]))
