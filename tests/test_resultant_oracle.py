"""The evaluation-interpolation resultant against two independent oracles:
Bareiss elimination over the Sylvester matrix with polynomial entries (the
method `polys.resultant` used before) and sympy's subresultant resultant."""

import random
from collections import Counter
from fractions import Fraction

import pytest

from torsionpoly import polys
from torsionpoly.polys import MultiPoly, exact_div, from_text, resultant, to_text


def reference_resultant(p, q, name):
    """Fraction-free Bareiss with MultiPoly entries: every step is a
    polynomial product and an exact polynomial division."""
    M = [list(r) for r in polys.sylvester_matrix(p, q, name)]
    n = len(M)
    rest = M[0][0].vars
    prev, sign = MultiPoly.constant(rest, 1), 1
    for k in range(n - 1):
        if M[k][k].is_zero():
            swap = next((i for i in range(k + 1, n) if not M[i][k].is_zero()), None)
            if swap is None:
                return MultiPoly.zero(rest)
            M[k], M[swap] = M[swap], M[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                M[i][j] = exact_div(M[i][j] * M[k][k] - M[i][k] * M[k][j], prev)
        prev = M[k][k]
    return M[n - 1][n - 1] if sign > 0 else -M[n - 1][n - 1]


def to_sympy(f, syms):
    """f as a sympy expression, variable v read as syms[v]."""
    sympy = pytest.importorskip("sympy")
    return sympy.Add(*(sympy.Rational(c.numerator, c.denominator)
                       * sympy.Mul(*(syms[v] ** e for v, e in zip(f.vars, m)))
                       for m, c in f.terms.items()))


def from_sympy(expr, variables, syms):
    """A sympy polynomial expression read back as a MultiPoly over variables."""
    sympy = pytest.importorskip("sympy")
    terms = sympy.Poly(expr, *(syms[v] for v in variables)).terms()
    return MultiPoly(variables, {m: Fraction(int(c.p), int(c.q)) for m, c in terms})


def sympy_resultant(p, q, name):
    """Res_name(p, q) by sympy, read back over the variables `resultant`
    returns (those of align(p, q) without name, in that order)."""
    sympy = pytest.importorskip("sympy")
    p, q = polys.align(p, q)
    syms = {v: sympy.Symbol(v) for v in p.vars}
    res = sympy.expand(sympy.resultant(to_sympy(p, syms), to_sympy(q, syms), syms[name]))
    return from_sympy(res, tuple(v for v in p.vars if v != name), syms)


def assert_same(got, want):
    assert got.vars == want.vars
    assert to_text(got) == to_text(want)


# (p, q, eliminated variable): the resultants the 4_1 and 5_2 records derive
E4 = ("em", "el", "x", "y")
RECORD_INPUTS = {
    "4_1 trace relation, em (10x10)": (
        from_text("1*em^8*el - 1*em^6*el - 1*em^4*el^2 - 2*em^4*el - 1*em^4"
                  " - 1*em^2*el + 1*el", E4),
        from_text("1*em^2 - 1*em*x + 1", E4), "em"),
    "4_1 trace relation, el (6x6)": (
        from_text("1*el^2*x^8 - 10*el^2*x^6 - 2*el^3*x^4 + 29*el^2*x^4"
                  " + 10*el^3*x^2 - 2*el*x^4 + 1*el^4 - 20*el^2*x^2 - 4*el^3"
                  " + 10*el*x^2 + 6*el^2 - 4*el + 1", ("el", "x", "y")),
        from_text("1*el^2 - 1*el*y + 1", E4), "el"),
    "4_1 eliminate T (3x3)": (
        from_text("1*u^2 - 4*y - 17", ("tau", "u", "y")),
        from_text("1*tau - 1*u", ("tau", "u", "y")), "u"),
    "4_1 transport tau0 (4x4)": (
        from_text("-4*x^4 + 1*tau0^2 + 20*x^2 - 25", ("tau", "tau0", "x")),
        from_text("4*tau^2*x^4 - 1/4*tau0^2*x^4 - 20*tau^2*x^2 + 3/2*tau0^2*x^2"
                  " + 25*tau^2 - 5/4*tau0^2", ("tau", "tau0", "x")), "tau0"),
    "5_2 eliminate T (5x5)": (
        from_text("-1*u*y^4 + 2*u^2*y^2 - 1*u^3 + 7*u*y^2 - 9*u^2 + 2*y^2"
                  " - 14*u - 9", ("tau", "u", "y")),
        from_text("-5*u*y^4 + 5*u^2*y^2 + 37*u*y^2 - 7*u^2 + 1*tau - 36*u",
                  ("tau", "u", "y")), "u"),
}


def random_poly(rng, variables, degrees, max_terms):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        mono = tuple(rng.randint(0, d) for d in degrees)
        terms[mono] = Fraction(rng.randint(-9, 9), rng.choice((1, 1, 2, 3, 4, 6)))
    return MultiPoly(variables, terms)


def random_pairs(seed, count):
    """Pairs over (x, a, b, c), eliminating x: Fraction coefficients, c
    carried with degree 0, and every third pair sharing a factor in x."""
    rng = random.Random(seed)
    variables = ("x", "a", "b", "c")
    pairs = []
    while len(pairs) < count:
        p = random_poly(rng, variables, (3, 2, 1, 0), 5)
        q = random_poly(rng, variables, (2, 1, 2, 0), 4)
        if len(pairs) % 3 == 2:
            g = random_poly(rng, variables, (1, 1, 1, 0), 2) + MultiPoly.var(variables, "x")
            p, q = p * g, q * g
        if p.degree_in("x") and q.degree_in("x"):
            pairs.append((p, q))
    return pairs


ORACLES = pytest.mark.parametrize("oracle", [reference_resultant, sympy_resultant],
                                  ids=["polynomial-bareiss", "sympy"])


@ORACLES
@pytest.mark.parametrize("label", sorted(RECORD_INPUTS))
def test_record_inputs(label, oracle):
    p, q, name = RECORD_INPUTS[label]
    assert_same(resultant(p, q, name), oracle(p, q, name))


@ORACLES
def test_random_pairs(oracle):
    zeros = 0
    for p, q in random_pairs(seed=61, count=24):
        got = resultant(p, q, "x")
        assert got.vars == ("a", "b", "c")
        assert_same(got, oracle(p, q, "x"))
        zeros += got.is_zero()
    assert zeros >= 8


@ORACLES
def test_univariate_and_mixed_variable_orders(oracle):
    rng = random.Random(67)
    for _ in range(12):
        p = random_poly(rng, ("x",), (4,), 5)
        q = random_poly(rng, ("y", "x"), (1, 3), 4)
        if p.degree_in("x") and q.degree_in("x"):
            got = resultant(p, q, "x")
            assert got.vars == ("y",)
            assert_same(got, oracle(p, q, "x"))
            assert_same(resultant(q, p, "x"), oracle(q, p, "x"))


def test_resultant_makes_no_polynomial_products_or_divisions(monkeypatch):
    calls = Counter()
    div, mul = polys.exact_div, MultiPoly.__mul__

    def counted_div(p, q):
        calls["exact_div"] += 1
        return div(p, q)

    def counted_mul(self, other):
        calls["MultiPoly.__mul__"] += 1
        return mul(self, other)
    monkeypatch.setattr(polys, "exact_div", counted_div)
    monkeypatch.setattr(MultiPoly, "__mul__", counted_mul)
    monkeypatch.setattr(MultiPoly, "__rmul__", counted_mul)
    p, q, name = RECORD_INPUTS["4_1 trace relation, em (10x10)"]
    assert not resultant(p, q, name).is_zero()
    assert calls == {}
