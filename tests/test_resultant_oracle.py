"""The subresultant-PRS resultant against two independent oracles: Bareiss
elimination over the Sylvester matrix with polynomial entries, and sympy's
resultant."""

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
                       for m, c in f.as_dict().items()))


def from_sympy(expr, variables, syms):
    """A sympy polynomial expression read back as a MultiPoly over variables."""
    sympy = pytest.importorskip("sympy")
    terms = sympy.Poly(expr, *(syms[v] for v in variables)).terms()
    return MultiPoly(variables, {m: Fraction(int(c.p), int(c.q)) for m, c in terms})


def sympy_resultant(p, q, name):
    """Res_name(p, q) by sympy, read back over the variables `resultant`
    returns (those of align(p, q) without name, in that order).

    sympy 1.14 swaps its arguments when the first has the lower degree but
    not the sign: `resultant(x - 3, x^3 - x + 2, x)` gives -26 where the
    Sylvester determinant is 26.  So sympy gets the higher degree first and
    the sign (-1)^(deg p * deg q) of a swap is applied here."""
    sympy = pytest.importorskip("sympy")
    p, q = polys.align(p, q)
    syms = {v: sympy.Symbol(v) for v in p.vars}
    dp, dq = p.degree_in(name), q.degree_in(name)
    f, g = (p, q) if dp >= dq else (q, p)
    res = sympy.resultant(to_sympy(f, syms), to_sympy(g, syms), syms[name])
    if dp < dq and dp * dq % 2:
        res = -res
    return from_sympy(sympy.expand(res), tuple(v for v in p.vars if v != name), syms)


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


def test_resultant_takes_no_determinants_and_few_pseudo_remainders(monkeypatch):
    calls = Counter()

    def counted(fn):
        def wrapper(*args):
            calls[fn.__name__] += 1
            return fn(*args)
        return wrapper
    for name in ("sylvester_matrix", "bareiss_det", "pseudo_rem"):
        monkeypatch.setattr(polys, name, counted(getattr(polys, name)))
    p, q, name = RECORD_INPUTS["4_1 trace relation, em (10x10)"]
    assert not resultant(p, q, name).is_zero()
    assert calls["sylvester_matrix"] == calls["bareiss_det"] == 0
    assert 1 <= calls["pseudo_rem"] <= min(p.degree_in(name), q.degree_in(name)) + 1


# -- the subresultant sequence's hard cases -----------------------------------

XY = ("x", "y")


def remainder_degrees(monkeypatch):
    """Record (deg a, deg b) in x of every pseudo-remainder step."""
    steps, prem = [], polys.pseudo_rem

    def recorded(a, b, name):
        steps.append((a.degree_in(name), b.degree_in(name)))
        return prem(a, b, name)
    monkeypatch.setattr(polys, "pseudo_rem", recorded)
    return steps


@ORACLES
def test_non_normal_sequence(oracle, monkeypatch):
    # Knuth's pair with a parameter: the degrees run 8, 6, 4, 2, 1, 0, so
    # delta = 2 recurs after the first step, with h no longer 1
    p = from_text("1*x^8 + 1*x^6 - 3*x^4 - 3*x^3 + 8*x^2 + 2*x - 5*y", XY)
    q = from_text("3*x^6 + 5*x^4 - 4*x^2 - 9*x + 21 + 1*y*x^2", XY)
    steps = remainder_degrees(monkeypatch)
    got = resultant(p, q, "x")
    assert any(da - db > 1 for da, db in steps[1:]), steps
    assert not got.is_zero()
    assert_same(got, oracle(p, q, "x"))
    # a remainder two degrees short of its divisor: x^4 + 2xy + 1 over
    # x^3 - y leaves 3xy + 1
    p, q = from_text("1*x^4 + 2*x*y + 1", XY), from_text("1*x^3 - 1*y", XY)
    steps.clear()
    got = resultant(p, q, "x")
    assert (3, 1) in steps, steps
    assert_same(got, oracle(p, q, "x"))
    # a sequence that ends two degrees short: x^4 + 1 over y*x^2 - 1 leaves
    # y^3 + y, free of x, and the resultant is (y^2 + 1)^2
    p, q = from_text("1*x^4 + 1", XY), from_text("1*x^2*y - 1", XY)
    got = resultant(p, q, "x")
    assert to_text(got) == "1*y^4 + 2*y^2 + 1"
    assert_same(got, oracle(p, q, "x"))
    assert_same(resultant(q, p, "x"), oracle(q, p, "x"))


@ORACLES
def test_common_factor_gives_zero(oracle):
    g = from_text("1*x^2*y - 1*x + 2*y^2", XY)
    p = g * from_text("1*x^3 - 1*y", XY)
    q = g * from_text("2*x*y + 3", XY)
    got = resultant(p, q, "x")
    assert got.is_zero() and got.vars == ("y",)
    assert_same(got, oracle(p, q, "x"))
    assert_same(resultant(q, p, "x"), oracle(q, p, "x"))


@ORACLES
def test_leading_coefficient_vanishing_at_integer_points(oracle):
    # lc_x(p) = y^2 - y and lc_x(q) = (y - 2)(y - 3) vanish at y = 0..3
    p = from_text("1*x^2*y^2 - 1*x^2*y + 1*x + 1*y", XY)
    q = from_text("1*x^3*y^2 - 5*x^3*y + 6*x^3 - 1*x*y + 1", XY)
    got = resultant(p, q, "x")
    assert not got.is_zero()
    assert_same(got, oracle(p, q, "x"))
    assert_same(resultant(q, p, "x"), oracle(q, p, "x"))


@ORACLES
def test_rational_coefficients(oracle):
    p = from_text("1/2*x^3 - 2/3*x*y + 5/7", XY)
    q = from_text("3/4*x^2*y - 1/6*x + 1/5*y^2", XY)
    got = resultant(p, q, "x")
    assert any(type(c) is Fraction for c in got.terms.values())
    assert_same(got, oracle(p, q, "x"))
    assert_same(resultant(q, p, "x"), oracle(q, p, "x"))


@ORACLES
def test_q_free_of_a_variable_of_p(oracle):
    p = from_text("1*x^3*b - 2*x*a + 1*b^2", ("x", "a", "b"))
    for q in (from_text("1*x^2 - 1*a", ("x", "a")),
              from_text("1*x^2 - 1*a", ("x", "a", "b"))):
        got = resultant(p, q, "x")
        assert got.vars == ("a", "b")
        assert_same(got, oracle(p, q, "x"))
        assert_same(resultant(q, p, "x"), oracle(q, p, "x"))


@ORACLES
def test_sign_rule_for_odd_degrees(oracle):
    for pt, qt in (("1*x^3 - 1*x*y + 2", "1*x*y - 3"),
                   ("1*x^3 - 1*x*y + 2", "1*x^5 + 1*x^2 - 1*y"),
                   ("2*x^5 + 1*y", "1*x^3*y - 1*x + 1")):
        p, q = from_text(pt, XY), from_text(qt, XY)
        pq, qp = resultant(p, q, "x"), resultant(q, p, "x")
        assert not pq.is_zero() and qp == -pq
        assert_same(pq, oracle(p, q, "x"))
        assert_same(qp, oracle(q, p, "x"))
