"""gcd_poly, gcd_cofactors, squarefree_primitive, exact_div,
minimal_polynomial and factor_rational against sympy on seeded random
inputs and the record polynomials, and the heuristic
GCD against the primitive polynomial remainder sequence, an oracle kept
here, and against its own budget.  sympy is a test-only oracle: without it
the module is skipped.  The resultant row is in test_resultant_oracle.py."""

import contextlib
import io
import json
import random
import tracemalloc
from fractions import Fraction

import pytest

from test_resultant_oracle import RECORD_INPUTS, from_sympy, random_poly, to_sympy
from torsionpoly import cli, pipelines, polys
from torsionpoly.numfield import (
    NumberField, factor_rational, minimal_polynomial, roots_numeric,
)
from torsionpoly.records import ingest_knot
from torsionpoly.polys import (
    MultiPoly, PolyError, divides, exact_div, from_dense, from_text, gcd_cofactors,
    gcd_poly, normalize_sign, pseudo_rem, resultant, squarefree_primitive, to_text,
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


# -- factor_rational against sympy's factor_list --------------------------------

X = ("x",)


def assert_factored_as_sympy(p):
    """factor_rational on one root pass of the squarefree univariate p
    gives sympy's irreducible factors, each owning as many roots as its
    degree, and the factors own every root once."""
    roots = roots_numeric(p, 64)
    found = factor_rational(p, roots, 64)
    _, want = sympy.factor_list(to_sympy(p, SYMS), SYMS["x"])
    assert sorted(to_text(g) for g, _ in found) == sorted(
        to_text(normalize_sign(from_sympy(f, X, SYMS))) for f, _ in want), to_text(p)
    assert all(len(owned) == g.degree_in("x") for g, owned in found)
    owned = [r for _, rs in found for r in rs]
    assert len(owned) == len(roots) and all(any(r is s for s in owned) for r in roots)


def product_of_distinct(rng, draw, degree):
    """The product of distinct polynomials from draw(rng, degree left),
    of total degree `degree`."""
    factors = set()
    while sum(f.degree_in("x") for f in factors) < degree:
        factors.add(normalize_sign(draw(rng, degree - sum(f.degree_in("x")
                                                          for f in factors))))
    p = MultiPoly.constant(X, 1)
    for f in factors:
        p = p * f
    return p


def irreducible(rng, most):
    """A random irreducible of degree at most min(4, most), by sympy."""
    while True:
        d = rng.randint(1, min(4, most))
        f = from_dense("x", [rng.randint(-9, 9) for _ in range(d)] + [rng.randint(1, 5)])
        if sympy.Poly(to_sympy(f, SYMS), SYMS["x"]).is_irreducible:
            return f


def definite_quadratic(rng, most):
    """A random a x^2 + b x + c with b^2 < 4ac: two non-real roots."""
    while True:
        a, b, c = rng.randint(1, 6), rng.randint(-9, 9), rng.randint(1, 9)
        if b * b < 4 * a * c:
            return from_dense("x", [c, b, a])


def test_factor_rational_against_sympy_on_products_of_irreducibles():
    rng = random.Random(83)
    for degree in [2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 12, 12, 12]:
        assert_factored_as_sympy(product_of_distinct(rng, irreducible, degree))


def test_factor_rational_against_sympy_without_real_roots():
    rng = random.Random(89)
    for degree in [2, 4, 4, 6, 6, 8, 8, 10, 12]:
        assert_factored_as_sympy(product_of_distinct(rng, definite_quadratic, degree))
    # Sophie Germain's x^4 + 4, the cyclotomic x^8 + 1, and x^4 + x^2 + 1,
    # x^6 + 1 and x^8 + x^4 + 1, products of cyclotomic polynomials
    for text in ("x^4 + 4", "x^8 + 1", "x^4 + x^2 + 1", "x^6 + 1", "x^8 + x^4 + 1"):
        assert_factored_as_sympy(from_text(text, X))


def test_factor_rational_against_sympy_on_the_record_polynomials():
    # the specialized polynomial at rho0 of each record and curve, each
    # trace field, and the rho0 polynomials of the two-bridge knots b(9,5)
    # and b(11,3)
    inputs = [from_text("x^4 + 25*x^3 + 295*x^2 + 1542*x + 4369", X),
              from_text("x^5 + 17*x^4 + 191*x^3 + 5477*x^2 + 74634*x + 289651", X)]
    for knot in ("4_1", "5_2"):
        record = ingest_knot(knot)
        inputs.append(normalize_sign(record.trace_field_poly))
        for curve in record.rho0:
            spec = pipelines.rho0_for_curve(record, curve)[1]
            inputs.append(squarefree_primitive(spec, "tau").rename("tau", "x"))
    assert len(inputs) == 7
    for p in inputs:
        assert_factored_as_sympy(p)


@pytest.mark.parametrize("d", range(2, 25))
def test_factor_rational_against_sympy_on_selmer_trinomials(d):
    assert_factored_as_sympy(from_text(f"x^{d} - x - 1", X))


# -- the heuristic GCD, its budget and the remainder-sequence oracle -----------

def prs_gcd(p, q):
    """gcd(p, q) by the primitive polynomial remainder sequence, normalized
    as gcd_poly's: an oracle that shares no step with the heuristic GCD.  In
    the first variable that occurs, the gcd of the two contents (by this
    oracle again) times the remainder-sequence gcd of the primitive parts."""
    p, q = polys.align(p, q)
    if p.is_zero() or q.is_zero():
        return normalize_sign(p + q)
    if p.is_constant() or q.is_constant():
        return MultiPoly.constant(p.vars, 1)
    name = next(v for v in p.vars if p.degree_in(v) > 0 or q.degree_in(v) > 0)
    (cp, a), (cq, b) = content_primitive(p, name), content_primitive(q, name)
    return normalize_sign(prs_gcd(cp, cq) * primitive_prs(a, b, name))


def content_primitive(p, name):
    """(content, primitive part) of a nonzero p with respect to name, both
    normalized; the content is the oracle gcd of the coefficients, smallest
    first."""
    coeffs = sorted(p.coeffs_wrt(name).values(), key=lambda c: len(c.terms))
    cont = coeffs[0]
    for c in coeffs[1:]:
        if cont.is_constant():
            break
        cont = prs_gcd(cont, c)
    cont = normalize_sign(cont).with_vars(p.vars)
    return cont, normalize_sign(exact_div(p, cont))


def primitive_prs(a, b, name):
    """gcd of two primitive polynomials in name by the primitive remainder
    sequence; a remainder free of name ends it with gcd 1."""
    if a.degree_in(name) < b.degree_in(name):
        a, b = b, a
    while not b.is_zero():
        if b.degree_in(name) == 0:
            return MultiPoly.constant(a.vars, 1)
        r = pseudo_rem(a, b, name)
        a, b = b, r if r.is_zero() else content_primitive(r, name)[1]
    return a


BUDGET = "gcd beyond its budget"


def gcd_pairs():
    """Seeded pairs in 1, 2 and 3 variables with a shared factor in most,
    Fraction coefficients, shared integer contents, a constant or zero
    side, and the record eliminants against their derivatives."""
    rng = random.Random(89)
    pairs = []
    for variables, degrees in ((("x",), (4,)), (("x", "y"), (2, 2)),
                               (("x", "y", "z"), (1, 2, 1))):
        for k in range(8):
            p, q = (random_poly(rng, variables, degrees, 4) for _ in range(2))
            if k % 4:
                g = random_poly(rng, variables, degrees, 3)
                p, q = p * g, q * g ** (k % 2 + 1)
            if k % 3 == 0:   # integer polynomials with contents 6 and 10
                p, q = normalize_sign(p) * 6, normalize_sign(q) * -10
            pairs.append((p, q))
    f = random_poly(rng, ("x", "y"), (2, 2), 4) + MultiPoly.var(("x", "y"), "x")
    pairs += [(f, MultiPoly.constant(("x", "y"), Fraction(-3, 4))),
              (f, MultiPoly.zero(("x", "y"))), (MultiPoly.zero(("x",)), f)]
    for label, main in (("4_1 trace relation, el (6x6)", "y"),
                        ("5_2 eliminate T (5x5)", "tau"),
                        ("4_1 transport tau0 (4x4)", "tau")):
        p = resultant(*RECORD_INPUTS[label]).drop_vars()
        pairs.append((p, p.derivative(main)))
    return pairs


def sympy_gcd(p, q):
    p, q = polys.align(p, q)
    syms = {v: sympy.Symbol(v) for v in p.vars}
    want = sympy.gcd(to_sympy(p, syms), to_sympy(q, syms))
    return normalize_sign(from_sympy(want, p.vars, syms))


def test_heuristic_gcd_against_sympy_and_the_prs():
    """The heuristic GCD and the squarefree parts it gives agree with the
    remainder-sequence oracle, and the gcd with sympy's."""
    for p, q in gcd_pairs():
        got = gcd_poly(p, q)
        assert to_text(got) == to_text(sympy_gcd(p, q))
        assert got == prs_gcd(p, q)
        for var in p.vars if not p.is_zero() else ():
            want = MultiPoly.constant(p.vars, 1) if p.degree_in(var) == 0 \
                else normalize_sign(exact_div(p, prs_gcd(p, p.derivative(var))))
            assert squarefree_primitive(p, var) == want


@pytest.mark.parametrize("tries", [polys._HEU_TRIES, 0], ids=["heuristic", "no-point"])
def test_gcd_cofactors_against_sympy(monkeypatch, tries):
    """The cofactors multiply back to each input exactly, the gcd is
    gcd_poly's, and all three agree with sympy's cofactors up to scale, on
    the seeded pairs and on zero, constant and Fraction-coefficient sides.
    With no evaluation point, a pair of two nonconstant sides raises the
    budget error, and a zero or constant side still answers."""
    monkeypatch.setattr(polys, "_HEU_TRIES", tries)
    zero, three = MultiPoly.zero(("x",)), MultiPoly.constant(("x",), 3)
    pairs = gcd_pairs() + [(zero, zero), (zero, three), (three, MONIC),
                           (MONIC * LINEAR, QUADRATIC * LINEAR * Fraction(-3, 2)),
                           (MONIC * LINEAR ** 2, (MONIC * LINEAR ** 2).derivative("x"))]
    raised = 0
    for p, q in pairs:
        if tries == 0 and not (p.is_constant() or q.is_constant()):
            with pytest.raises(PolyError, match=f"{BUDGET} of 0 evaluation points"):
                gcd_cofactors(p, q)
            raised += 1
            continue
        g, cp, cq = gcd_cofactors(p, q)
        assert (g * cp, g * cq) == (p, q)
        assert g == gcd_poly(p, q)
        if p.is_zero() and q.is_zero():     # sympy raises on gcd(0, 0)
            assert (g, cp, cq) == (p, p, p)
            continue
        p, q = polys.align(p, q)
        syms = {v: sympy.Symbol(v) for v in p.vars}
        want = sympy.cofactors(to_sympy(p, syms), to_sympy(q, syms))
        for got, w in zip((g, cp, cq), want):
            assert normalize_sign(got) == normalize_sign(from_sympy(w, p.vars, syms))
    assert bool(raised) == (tries == 0)


def test_first_evaluation_point_can_fail(monkeypatch):
    """Found by a seeded search.  At xi = 2*2 + 2 = 6 the images are 156
    and 208, whose gcd 52 is twice g(6) = 26; its digits give
    2*x^2 - 3*x - 2, which divides neither input, so that point is refused.
    At the next point, xi = 16, the gcd 452 is again 2*g(16), and its
    digits 2*x^2 - 4*x + 4 have g as primitive part.  With one point only,
    the gcd gives up."""
    p, q = from_text("x^3 - 2*x^2 + 2*x"), from_text("x^3 - 2*x + 4")
    g = from_text("x^2 - 2*x + 2")
    assert gcd_poly(p, q) == g == prs_gcd(p, q)
    monkeypatch.setattr(polys, "_HEU_TRIES", 1)
    with pytest.raises(PolyError, match=f"{BUDGET} of 1 evaluation points"):
        gcd_poly(p, q)


def test_a_sparse_high_degree_input_gives_up_within_the_bit_budget():
    """x^(2^30) - 1 at xi = 4 would be an integer of 2^31 bits.  The bit
    budget refuses both calls before any dense image is built."""
    p = from_text(f"x^{2 ** 30} - 1")
    tracemalloc.start()
    try:
        for call in (lambda: gcd_poly(p, p.derivative("x")),
                     lambda: squarefree_primitive(p, "x")):
            with pytest.raises(PolyError, match=f"{BUDGET} .* {polys._HEU_BITS}-bit"):
                call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


SYMBOLIC_COMMANDS = [
    ("eliminate", "--knot", "4_1"), ("eliminate", "--knot", "5_2"),
    ("trace-relation", "--knot", "4_1"), ("change-curve", "--knot", "4_1"),
    ("transport", "--knot", "4_1"),
    ("rho0", "--knot", "4_1", "--curve", "lambda"),
    ("rho0", "--knot", "5_2", "--curve", "lambda"),
    ("rho0", "--knot", "4_1", "--curve", "mu"),
    ("membership", "--knot", "4_1"), ("membership", "--knot", "5_2"),
]


def run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def test_symbolic_commands_stay_within_the_gcd_budget():
    """Every gcd and squarefree part the ten symbolic commands take on fresh
    records is answered by the heuristic GCD within its budget."""
    for argv in SYMBOLIC_COMMANDS:
        code, out, err = run_main(["--no-cache", *argv])
        assert (code, err) == (0, "") and out


def test_a_gcd_beyond_its_budget_is_a_command_error(monkeypatch):
    monkeypatch.setattr(polys, "_HEU_TRIES", 0)
    code, out, err = run_main(["--no-cache", "trace-relation", "--knot", "4_1"])
    assert (code, out) == (2, "")
    assert err == (f"error: trace-relation: {BUDGET} of 0 evaluation points "
                   f"and {polys._HEU_BITS}-bit integer images\n")


def test_a_gcd_beyond_its_budget_is_an_error_row_of_a_sweep(monkeypatch):
    monkeypatch.setattr(polys, "_HEU_TRIES", 0)
    code, out, err = run_main(["--no-cache", "--format", "json", "sweep", "--knot",
                               "4_1", "--from", "2.05", "--to", "2.25", "--steps", "3"])
    assert (code, err) == (0, "")
    rows = json.loads(out)["results"]
    assert rows == {f"{trace}/error": f"{BUDGET} of 0 evaluation points and "
                                      f"{polys._HEU_BITS}-bit integer images"
                    for trace in ("2.05", "2.15", "2.25")}
