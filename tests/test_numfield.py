import io
import itertools
import random
import re
import time
from contextlib import redirect_stdout
from fractions import Fraction

import mpmath as mp
import pytest

from test_report_goldens import CASES
from torsionpoly import cli, numfield, pipelines as pl, torsion_sym
from torsionpoly.numfield import (
    NotInField, NumberField, NumFieldError, algebraic_root,
    express_in_field, factor_rational, minimal_polynomial, roots_numeric,
)
from torsionpoly.polys import (
    MultiPoly, dense_coeffs, divides, exact_div, from_dense, from_text, gcd_poly,
    normalize_sign, resultant, squarefree_primitive, to_text,
)
from torsionpoly.records import ingest_knot


def field_52():
    # x^3 - x^2 + 1, embedding near 0.8774 - 0.7448i
    return NumberField.create(from_text("x^3 - x^2 + 1"),
                              embedding_hint=mp.mpc("0.8774", "-0.7448"))


def field_41():
    return NumberField.create(from_text("x^2 + 3"),
                              embedding_hint=mp.mpc(0, "1.7"))


def root_of(poly: MultiPoly, near, digits: int = numfield.DEFAULT_DIGITS):
    """The root of the squarefree univariate poly nearest to `near`, made
    exact by algebraic_root from one root pass: its minimal polynomial is
    the factor of poly that owns it."""
    sf = normalize_sign(poly)
    roots = roots_numeric(sf, digits)
    near = mp.mpc(near)
    return algebraic_root(sf, roots, min(roots, key=lambda r: abs(r - near)), digits)


# -- roots_numeric ---------------------------------------------------------------

def test_roots_x2_plus_3():
    roots = roots_numeric(from_text("x^2 + 3"), 40)
    with mp.workdps(50):
        vals = sorted([mp.im(r) for r in roots])
        assert abs(vals[0] + mp.sqrt(3)) < 1e-35
        assert abs(vals[1] - mp.sqrt(3)) < 1e-35
        assert all(abs(mp.re(r)) < 1e-35 for r in roots)


def test_roots_cubic_trace_field():
    roots = roots_numeric(from_text("x^3 - x^2 + 1"), 40)
    target = mp.mpc("0.8774", "-0.7448")
    best = min(roots, key=lambda r: abs(r - target))
    assert abs(mp.re(best) - mp.mpf("0.87743883")) < 1e-6
    assert abs(mp.im(best) + mp.mpf("0.74486176")) < 1e-6


@pytest.mark.parametrize("text", ["x^3 - 3*x^2 + 3*x - 1", "-2/3*x^3 - 1/2*x^2"])
def test_roots_refuse_a_non_squarefree_polynomial(text):
    # (x - 1)^3 and x^2 (4x + 3): a root pass takes squarefree input only;
    # roots with multiplicity come from the squarefree parts
    with pytest.raises(NumFieldError, match="polynomial is not squarefree"):
        roots_numeric(from_text(text), 20)


def test_roots_zero_poly_rejected():
    with pytest.raises(NumFieldError):
        roots_numeric(MultiPoly.zero(("x",)), 20)


def test_roots_product_reexpands():
    p = from_text("t^3 + 5*t^2 + 2*t - 7")
    digits = 40
    roots = roots_numeric(p, digits)
    with mp.workdps(60):
        coeffs = [mp.mpc(1)]          # expand prod (t - r_i), ascending degrees
        for r in roots:
            new = [mp.mpc(0)] * (len(coeffs) + 1)
            for i, c in enumerate(coeffs):
                new[i] += c * (-r)
                new[i + 1] += c
            coeffs = new
        expected = [mp.mpf(c.numerator) / mp.mpf(c.denominator) for c in dense_coeffs(p)]
        for a, b in zip(coeffs, expected):
            assert abs(a - b) < mp.mpf(10) ** (-digits // 2)


# -- number fields and elements ----------------------------------------------------

def test_field_rejects_rational_root():
    with pytest.raises(NumFieldError, match="rational root"):
        NumberField.create(from_text("x^3 + x - 2"))


@pytest.mark.parametrize("poly, ambient", [
    ("7*x^3 - 12345*x^2 + 7*x - 12345", 3),
    ("7*x^3 - 100000000000000000003*x^2 + 7*x - 100000000000000000003", 15),
])
def test_field_rejects_rational_root_at_any_ambient_precision(poly, ambient):
    # (7x - c)(x^2 + 1): the root c/7 is read exactly off the digits it was
    # found at, not off an ambient rounding of it
    with mp.workdps(ambient), pytest.raises(NumFieldError, match="rational root"):
        NumberField.create(from_text(poly))


@pytest.mark.parametrize("ambient", [3, 15, 64])
def test_factor_rational_reads_each_factor_off_its_own_roots(ambient):
    # (2x - 1)(3x + 1)(6x - 7): the lead 36 times each root is read exactly
    # off the digits the roots were found at, not off an ambient rounding;
    # each factor comes back with the very root it was read from
    p = from_text("36*x^3 - 48*x^2 + x + 7")
    roots = roots_numeric(p, 64)
    with mp.workdps(ambient):
        found = factor_rational(p, roots, 64)
    assert [g for g, _ in found] == [from_text(t) for t in ("3*x + 1", "2*x - 1",
                                                            "6*x - 7")]
    assert all(len(owned) == 1 and owned[0] is root
               for (_, owned), root in zip(found, roots))


@pytest.mark.parametrize("text, factors", [
    ("x^4 + 4", ["x^2 + 2*x + 2", "x^2 - 2*x + 2"]),
    ("x^5 - x^4 + x^3 + 1", ["x^2 + 1", "x^3 - x^2 + 1"]),
    ("x^5 - x - 1", ["x^5 - x - 1"]),
    # (x^2 - 8)(x^2 + x - 4)(x^2 - 2): -2 sqrt(2) and sqrt(2) multiply to the
    # integer -4, and their product x^2 + sqrt(2) x - 4 rounds to a factor
    ("x^6 + x^5 - 14*x^4 - 10*x^3 + 56*x^2 + 16*x - 64",
     ["x^2 - 8", "x^2 + x - 4", "x^2 - 2"]),
], ids=["two-quadratics", "quadratic-cubic", "irreducible", "rounds-to-a-factor"])
def test_factor_rational_splits_without_rational_roots(text, factors):
    # each factor owns the roots it vanishes at, in the pass's order
    p = from_text(text)
    roots = roots_numeric(p, 64)
    found = factor_rational(p, roots, 64)
    assert [g for g, _ in found] == [from_text(t) for t in factors]
    for g, owned in found:
        assert [r for r in roots if any(r is s for s in owned)] == list(owned)
        assert len(owned) == g.degree_in("x")
        with mp.workdps(84):
            assert all(abs(g.eval({"x": r})) < mp.mpf(10) ** -60 for r in owned)


@pytest.mark.parametrize("near, minpoly", [(2, "tau - 2"), (1.41, "tau^2 - 2"),
                                            (-1.41, "tau^2 - 2")])
def test_algebraic_root_is_a_root_of_its_exact_factor(near, minpoly):
    sf = from_text("tau^3 - 2*tau^2 - 2*tau + 4")    # (tau - 2)(tau^2 - 2)
    roots = roots_numeric(sf, 40)
    root = min(roots, key=lambda r: abs(r - near))
    value = algebraic_root(sf, roots, root, 40)
    assert value.minpoly == from_text(minpoly)
    assert abs(value.approx - root) < mp.mpf(10) ** -40


def test_rational_root_is_exact_where_its_pass_is_not():
    # (375 tau - b)(7 tau - c): at 16 digits the pass finds b/375 one unit
    # of its last place off; the value is the exact rational all the same
    sf = from_text("2625*tau^2 - 28015713290777770172274244*tau"
                   " + 116065097918936476427948243")
    roots = roots_numeric(sf, 16)
    q = Fraction(4002244755825395738894767, 375)
    with mp.workdps(numfield.root_dps(16)):
        exact = mp.mpc(mp.mpf(q.numerator) / q.denominator)
    root = min(roots, key=lambda r: abs(r - exact))
    assert root != exact
    value = algebraic_root(sf, roots, root, 16)
    assert value.minpoly == from_text(f"375*tau - {q.numerator}")
    assert value.roots == (exact,) and value.approx == exact


@pytest.mark.parametrize("near, minpoly", [(-1.73, "tau^2 - 3"), (-1.41, "tau^2 - 2"),
                                            (1.41, "tau^2 - 2"), (1.73, "tau^2 - 3")])
def test_algebraic_root_takes_the_factor_that_owns_it(near, minpoly):
    # (tau^2 - 2)(tau^2 - 3) has no rational root: the selected root's
    # minimal polynomial is the quadratic factor it is a root of, which
    # carries the pass's two roots of that factor
    sf = from_text("tau^4 - 5*tau^2 + 6")
    roots = roots_numeric(sf, 40)
    root = min(roots, key=lambda r: abs(r - near))
    value = algebraic_root(sf, roots, root, 40)
    assert value.minpoly == from_text(minpoly)
    assert value.approx is root
    assert len(value.roots) == 2 and any(r is root for r in value.roots)
    with mp.workdps(60):
        assert all(abs(value.minpoly.eval({"tau": r})) < mp.mpf(10) ** -38
                   for r in value.roots)


@pytest.mark.parametrize("poly, factor", [
    ("x^4 + 4", "1*x^2 + 2*x + 2"),
    ("x^6 + 2*x^4 + 2*x^3 + 4*x^2 + 2*x + 1", "1*x^2 + 1*x + 1"),
])
def test_field_rejects_a_reducible_polynomial_without_rational_roots(poly, factor):
    # (x^2 - 2x + 2)(x^2 + 2x + 2), and (x^2 + x + 1)(x^4 - x^3 + 2x^2 + x + 1):
    # neither has a rational root, and neither is a field
    with pytest.raises(NumFieldError, match=rf"^defining polynomial .* is reducible: "
                                            rf"{re.escape(factor)} divides it$"):
        NumberField.create(from_text(poly))


def test_factorization_is_decided_or_refused_within_its_budget(monkeypatch):
    # x^d - x - 1 is irreducible (Selmer, Math. Scand. 4, 1956); its
    # conjugation classes of roots are counted before any subset is tried,
    # so each search finishes or is refused, naming its bound, within a
    # second beyond the root pass
    passes = []
    real_roots = numfield.roots_numeric

    def timed(*args):
        start = time.perf_counter()
        out = real_roots(*args)
        passes.append(time.perf_counter() - start)
        return out
    monkeypatch.setattr(numfield, "roots_numeric", timed)
    begin = time.perf_counter()
    for d in (16, 24, 32, 64):
        passes.clear()
        start = time.perf_counter()
        try:
            assert NumberField.create(from_text(f"x^{d} - x - 1")).degree == d
        except NumFieldError as err:
            assert d > 24 and str(err).endswith(
                f"root subsets exceed the factorization bound {numfield.MAX_SUBSETS}")
        assert len(passes) == 1
        assert time.perf_counter() - start - passes[0] < 1, d
    assert time.perf_counter() - begin < 10


def test_field_rejects_non_squarefree():
    with pytest.raises(NumFieldError, match="squarefree"):
        NumberField.create(from_text("x^2 + 2*x + 1"))


def test_field_element_arithmetic_matches_embedding():
    K = field_52()
    rng = random.Random(5)
    for _ in range(10):
        a = K.element([Fraction(rng.randint(-4, 4)) for _ in range(3)])
        b = K.element([Fraction(rng.randint(-4, 4)) for _ in range(3)])
        with mp.workdps(60):
            lhs = (a * b + a - b).embed(50)
            rhs = a.embed(50) * b.embed(50) + a.embed(50) - b.embed(50)
            assert abs(lhs - rhs) < 1e-40


@pytest.mark.parametrize("field", [field_41, field_52,
                                   lambda: NumberField.create(from_text("x^5 - x - 1"))],
                         ids=["4_1", "5_2", "degree-5"])
def test_field_product_is_the_remainder_of_the_polynomial_product(field):
    """A*B - C is a multiple of f, and C has degree below f's, for seeded
    elements with Fraction coordinates, zero included."""
    K = field()
    f, d = K.defining_poly, K.degree
    rng = random.Random(d)
    for k in range(12):
        a, b = (K.element([Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 7)))
                           for _ in range(d)]) for _ in range(2))
        if k == 0:
            a = K.from_rational(0)
        c = a * b
        A, B, C = (from_dense("x", e.coords) for e in (a, b, c))
        assert len(c.coords) == d and C.degree_in("x") < d
        assert divides(f, A * B - C)


def test_minimal_polynomial_reference_element():
    K = field_52()
    e = K.element([13, 13, 19])     # 19x^2 + 13x + 13
    mpoly = minimal_polynomial(e)
    assert mpoly == from_text("tau^3 - 71*tau^2 + 2802*tau - 28075")
    # sum-of-roots cross-check: trace of e equals 71
    trace = sum(e.embed(40, embedding=r) for r in K.all_embeddings(40))
    assert abs(trace - 71) < 1e-30


def test_minimal_polynomial_constant():
    K = field_52()
    assert minimal_polynomial(K.from_rational(3)) == from_text("tau - 3")


def test_minimal_polynomial_generator():
    K = field_41()
    assert minimal_polynomial(K.generator()) == from_text("tau^2 + 3")
    # the output variable may share the field variable's name
    assert minimal_polynomial(K.generator(), var="x") == from_text("x^2 + 3")


def test_minimal_polynomial_embedding_residual_random():
    K = field_52()
    rng = random.Random(9)
    for _ in range(10):
        e = K.element([Fraction(rng.randint(-9, 9), rng.randint(1, 3)) for _ in range(3)])
        mpoly = minimal_polynomial(e)
        assert abs(mpoly.eval({"tau": e.embed(60)})) < 1e-9
        assert mpoly.leading_coefficient() > 0
        assert gcd_poly(mpoly, mpoly.derivative("tau")).is_constant()


# -- express_in_field ----------------------------------------------------------------

def test_express_reference_value():
    K = field_52()
    cubic = from_text("tau^3 - 71*tau^2 + 2802*tau - 28075")
    target = root_of(cubic, mp.mpc("28.4932", "34.5189"), 48)
    out = express_in_field(target, K)
    assert not isinstance(out, NotInField)
    elem, note = out
    assert elem.coords == (Fraction(13), Fraction(13), Fraction(19))
    assert "embedding" in note


def test_isolated_approx_is_its_certified_root_bit_for_bit():
    # at ambient 15 the 48-digit roots have more bits than the ambient
    # precision; approx keeps the certified root as found, not a rounding
    cubic = from_text("tau^3 - 71*tau^2 + 2802*tau - 28075")
    with mp.workdps(15):
        target = root_of(cubic, mp.mpc("28.5", "34.5"), 48)
    nearest = min(target.roots, key=lambda r: abs(r - mp.mpc("28.5", "34.5")))
    assert target.approx._mpc_ == nearest._mpc_
    assert target.approx.real._mpf_[3] > 53


def test_express_rational():
    # 1/3 is not a binary fraction: a float quotient of the integer
    # coefficients would not reconstruct it
    K = field_41()
    for minpoly, approx, value in (("tau - 3", 3, Fraction(3)),
                                   ("3*tau - 1", mp.mpf(1) / 3, Fraction(1, 3))):
        target = root_of(from_text(minpoly), approx, 30)
        elem, note = express_in_field(target, K)
        assert elem.coords == (value, Fraction(0))
        assert note == "rational value"


def test_express_sqrt2_not_in_quadratic_field():
    # N_1 = x^4 + 2x^2 + 25 is irreducible: sqrt(2) is quadratic over Q(sqrt(-3))
    K = field_41()
    target = root_of(from_text("tau^2 - 2"), mp.mpc("1.41421356"), 40)
    out = express_in_field(target, K)
    assert out == NotInField("[K(tau):K] = 2 by a norm factor of degree 4", 64)


def test_express_reports_a_degree_4_extension():
    # x^4 + x + 1 has Galois group S4, so its field has no quadratic
    # subfield and 2^(1/4) has degree 4 over it; degree divisibility
    # cannot tell, the norm's irreducible N_1 of degree 16 does
    K = NumberField.create(from_text("x^4 + x + 1"))
    target = root_of(from_text("tau^4 - 2"), mp.mpc("1.19"))
    out = express_in_field(target, K)
    assert out == NotInField("[K(tau):K] = 4 by a norm factor of degree 16", 64)


def norm_at(f: MultiPoly, g: MultiPoly, s: int) -> MultiPoly:
    """Res_y(f(y), g(x - s*y)), primitive, for univariate f and g."""
    xy = ("x", "y")
    shifted = from_dense("x", dense_coeffs(g)).substitute(
        "x", MultiPoly.var(xy, "x") - s * MultiPoly.var(xy, "y"))
    return normalize_sign(resultant(from_dense("y", dense_coeffs(f)).with_vars(xy),
                                    shifted, "y"))


def test_express_moves_to_s_2_where_n_1_is_not_squarefree(monkeypatch):
    # tau = 1 + x in Q(sqrt(-3)): tau_j + alpha_k is 1 both at (1 + x) + (-x)
    # and at (1 - x) + x, so N_1 has a double root, and the norm is N_2; the
    # declared embedding x ~ -1.73i sends 1 + x to the lower root of g
    K = NumberField.create(from_text("x^2 + 3"), embedding_hint=mp.mpc(0, "-1.7"))
    e = K.element([1, 1])
    g = minimal_polynomial(e)
    target = root_of(g, e.embed(64))
    n_1 = norm_at(K.defining_poly, g, 1)
    assert not gcd_poly(n_1, n_1.derivative("x")).is_constant()
    factored = []
    real = numfield.factor_rational
    monkeypatch.setattr(numfield, "factor_rational",
                        lambda p, *rest: factored.append(p) or real(p, *rest))
    assert express_in_field(target, K) == (e, "matched at the declared field embedding")
    assert [p.rename("_x", "x") for p in factored] == [norm_at(K.defining_poly, g, 2)]


def test_express_roundtrip_random_elements():
    # in the non-monic fields x is not integral, so the proven coordinate
    # denominator carries a power of the lead; there an answer may also be
    # a Galois conjugate of the element, which has the same minimal
    # polynomial (x^3 - x^2 + 1 is not Galois: only the element itself)
    rng = random.Random(21)
    cases = [(field_52(), 50, [1, 1, 2, 3], False)] + [
        (NumberField.create(from_text(poly)), 10, range(1, 13), True)
        for poly in ("3*x^3 - x + 1", "2*x^4 - 3*x + 5", "5*x^2 - 2*x + 7")]
    for K, count, denominators, conjugates in cases:
        for _ in range(count):
            coords = [Fraction(rng.randint(-20, 20), rng.choice(denominators))
                      for _ in range(K.degree)]
            if all(c == 0 for c in coords[1:]):
                coords[1] = Fraction(1)
            e = K.element(coords)
            g = minimal_polynomial(e)
            out = express_in_field(root_of(g, e.embed(64), 48), K)
            assert not isinstance(out, NotInField), coords
            got, _ = out
            assert got.coords == e.coords \
                or conjugates and minimal_polynomial(got) == g, coords


def test_multipoly_eval_at_field_elements():
    # polynomial evaluation supports field-element values exactly
    from torsionpoly.polys import from_text
    K = field_52()
    x = K.generator()
    p = from_text("x^3 - x^2 + 1", ["x"])
    assert p.eval({"x": x}) == K.from_rational(0)
    q = from_text("19*x^2 + 13*x + 13", ["x"])
    assert q.eval({"x": x}) == K.element([13, 13, 19])


def test_roots_deterministic_ordering():
    p = from_text("x^4 - 5*x^2 + 4")          # roots -2, -1, 1, 2
    roots = roots_numeric(p, 30)
    vals = [float(mp.re(r)) for r in roots]
    assert vals == sorted(vals)
    again = roots_numeric(p, 30)
    assert all(abs(a - b) == 0 for a, b in zip(roots, again))


def count_root_passes(monkeypatch):
    """The digits of every roots_numeric call made through numfield."""
    calls = []
    real_roots = numfield.roots_numeric

    def counted(*args, **kwargs):
        calls.append(args[1:])
        return real_roots(*args, **kwargs)
    monkeypatch.setattr(numfield, "roots_numeric", counted)
    return calls


def test_non_declared_match_reuses_the_field_roots(monkeypatch):
    # the real root of x^3 - x^2 + 1 is x at the real embedding only; the
    # note names that embedding from the roots the field carries, and the
    # one pass left is for the target, which was certified at 48 digits
    K = field_52()
    real = min(roots_numeric(K.defining_poly, 48), key=lambda r: abs(mp.im(r)))
    target = root_of(from_text("tau^3 - tau^2 + 1"), real, 48)
    calls = count_root_passes(monkeypatch)
    elem, note = express_in_field(target, K)
    assert elem == K.generator()
    assert note == "matched at the non-declared embedding x ~ (-0.75487767 + 0.0j)"
    assert calls == [(64,)]


def test_express_ladders_up_from_low_precision():
    # the norm is factored at the digits its coefficient bound asks for, so
    # a tiny requested precision never corrupts the answer
    K = field_52()
    cubic = from_text("tau^3 - 71*tau^2 + 2802*tau - 28075")
    target = root_of(cubic, mp.mpc("28.4932", "34.5189"), 48)
    out = express_in_field(target, K, digits=8)
    assert not isinstance(out, NotInField)
    elem, _ = out
    assert elem.coords == (Fraction(13), Fraction(13), Fraction(19))


def test_escalated_express_finds_the_roots_again(monkeypatch):
    # both the field and the target carry roots good to 8 digits; coordinates
    # over 10^6 and 10^7 give the target minimal polynomial a 40-digit lead
    # and N_1 coefficients near 10^120, so Mignotte's bound on its factors
    # asks for 250 digits, and the field and the target each take one fresh
    # root pass there, before the one factorization
    K = NumberField.create(from_text("x^3 - x^2 + 1"),
                           embedding_hint=mp.mpc("0.8774", "-0.7448"), digits=8)
    e = K.element([1, Fraction(1, 1000003), Fraction(1, 10000019)])
    target = root_of(minimal_polynomial(e), e.embed(64), 8)
    calls = count_root_passes(monkeypatch)
    elem, _ = express_in_field(target, K, digits=8)
    assert elem == e
    assert calls == [(250,), (250,)]


@pytest.mark.parametrize("ambient", [15, 16, 17])
def test_isolation_certificate_reads_the_roots_digits(ambient):
    # the minimal polynomial of 1 + x/1234567 has 19-digit coefficients, so
    # at 15 to 17 ambient digits its value at a root is rounding noise of
    # the size of the certificate's bound; the certificate is evaluated at
    # the digits the roots were found at
    K = field_52()
    e = K.element([1, Fraction(1, 1234567), 0])
    with mp.workdps(ambient):
        target = root_of(minimal_polynomial(e), e.embed(64), 8)
    assert abs(target.approx - e.embed(30)) < target.err


def carried_roots():
    """(name, polynomial, digits, carried roots) for both bundled trace
    fields and for the rho0 values whose minimal polynomial is the
    specialized polynomial itself."""
    for knot in ("4_1", "5_2"):
        record = ingest_knot(knot)
        K = NumberField.create(record.trace_field_poly,
                               embedding_hint=record.trace_field_embedding)
        yield f"field-{knot}", K.defining_poly, K.digits, K.roots
    for knot, curve in (("4_1", "mu"), ("5_2", "lambda")):
        value, spec, _ = pl.rho0_for_curve(ingest_knot(knot), curve)
        tau = value.value
        assert tau.minpoly == squarefree_primitive(spec, "tau")
        yield f"rho0-{knot}-{curve}", tau.minpoly, tau.digits, tau.roots


@pytest.mark.parametrize("ambient", [64, 94])
def test_carried_roots_are_a_fresh_pass_bit_for_bit(ambient):
    # express_in_field works at ambient prec + 30 digits but reads roots
    # found at the creator's ambient precision; roots_numeric rounds inside
    # its own working precision, so the ambient one cannot change a bit
    for name, poly, digits, roots in carried_roots():
        with mp.workdps(ambient):
            fresh = roots_numeric(poly, digits)
        assert [r._mpc_ for r in roots] == [r._mpc_ for r in fresh], name


def test_field_requires_degree_two():
    with pytest.raises(NumFieldError, match="degree"):
        NumberField.create(from_text("x + 5"))


# -- claim (a): the torsion at rho0 is at most quadratic over the trace field ------

def square_minpoly(g: MultiPoly) -> MultiPoly:
    """Minimal polynomial of tau^2 for a root tau of the irreducible
    univariate g: the squarefree part of Res_t(g(t), s - t^2)."""
    ts = ("t", "s")
    lhs = from_dense("t", dense_coeffs(g)).with_vars(ts)
    rhs = MultiPoly.var(ts, "s") - MultiPoly.var(ts, "t") ** 2
    return squarefree_primitive(resultant(lhs, rhs, "t"), "s")


@pytest.mark.parametrize("knot,curve,coords", [
    ("4_1", "lambda", (9, 0)),
    ("4_1", "mu", (Fraction(-3, 4), 0)),
    ("5_2", "lambda", (-686, -23, 1518)),
], ids=["4_1-lambda", "4_1-mu", "5_2-lambda"])
def test_claim_a_tau_squared_in_trace_field(knot, curve, coords):
    record = ingest_knot(knot)
    tau = pl.rho0_for_curve(record, curve)[0].value
    sq = square_minpoly(tau.minpoly)
    K = NumberField.create(record.trace_field_poly,
                           embedding_hint=record.trace_field_embedding)
    out = express_in_field(root_of(sq, tau.approx ** 2), K)
    assert isinstance(out, tuple), out
    elem, _ = out
    assert elem == K.element(coords)
    assert minimal_polynomial(elem, var="s") == sq


# -- machine-float seeds for every root pass ---------------------------------------

def as_bits(roots):
    return [(type(r).__name__, r._mpc_ if isinstance(r, mp.mpc) else r._mpf_)
            for r in roots]


def golden_root_inputs(monkeypatch):
    """(polynomial, digits, ambient dps) of every roots_numeric call the
    golden commands make."""
    seen = []
    real_roots = numfield.roots_numeric

    def recorded(p, digits=numfield.DEFAULT_DIGITS):
        seen.append((p, digits, mp.mp.dps))
        return real_roots(p, digits)
    with monkeypatch.context() as patch:
        patch.setattr(numfield, "roots_numeric", recorded)
        patch.setattr(torsion_sym, "roots_numeric", recorded)
        for args in CASES.values():
            with redirect_stdout(io.StringIO()):
                assert cli.main(["--no-cache", *args]) == 0
    return seen


def test_golden_root_passes_are_the_cold_start_bit_for_bit(monkeypatch):
    inputs = golden_root_inputs(monkeypatch)
    assert len({(str(p), d) for p, d, _ in inputs}) == 5
    for p, digits, ambient in inputs:
        with mp.workdps(ambient):
            seeded = roots_numeric(p, digits)
            with monkeypatch.context() as patch:
                patch.setattr(numfield, "_float_seed", lambda coeffs: None)
                cold = roots_numeric(p, digits)
        assert as_bits(seeded) == as_bits(cold), (str(p), digits)


def random_integer_coeffs(rng):
    deg = rng.randint(1, 6)
    return [rng.choice([-1, 1]) * rng.randint(1, 9)] + \
        [rng.randint(-9, 9) for _ in range(deg)]


def sorted_bits_or_failure(find):
    try:
        return sorted(as_bits(find()))
    except mp.libmp.NoConvergence:
        return "NoConvergence"


@pytest.mark.parametrize("digits", [20, 40, 64, 128])
def test_seeded_polyroots_is_the_cold_start_bit_for_bit(digits):
    # mp.polyroots sorts by (|Im|, Re) at its extended precision, so the
    # list order of a conjugate pair follows rounding noise below the
    # working precision; the roots themselves agree bit for bit, and
    # roots_numeric sorts them again after rounding.  A multiple root
    # fails both ways.
    rng = random.Random(17)
    dps = numfield.root_dps(digits)
    with mp.workdps(dps):
        for _ in range(200):
            coeffs = [mp.mpf(c) for c in random_integer_coeffs(rng)]
            seeded = sorted_bits_or_failure(
                lambda: numfield._polyroots(coeffs, 300, 3 * dps))
            cold = sorted_bits_or_failure(
                lambda: mp.polyroots(coeffs, maxsteps=300, extraprec=3 * dps))
            assert seeded == cold, coeffs


def test_seeded_complex_polyroots_is_the_cold_start_bit_for_bit():
    # the diagnostic scalar passes complex coefficients; without conjugate
    # pairs the order agrees too
    rng = random.Random(23)
    with mp.workdps(40):
        for _ in range(100):
            coeffs = [mp.mpc(rng.uniform(-5, 5), rng.uniform(-5, 5))
                      for _ in range(rng.randint(2, 7))]
            seeded = numfield._polyroots(coeffs, 200, 80)
            cold = mp.polyroots(coeffs, maxsteps=200, extraprec=80)
            assert as_bits(seeded) == as_bits(cold), coeffs


def test_roots_at_is_the_specialized_root_pass_bit_for_bit():
    """roots_at evaluates each coefficient in the root variable at the point,
    a missing degree as a complex zero, and runs the seeded pass at 200
    steps and 80 extra bits."""
    p = from_text("2*tau^3*y - tau*y^2 + 1/3*y + 5", ["tau", "y"])
    point = {"y": mp.mpc("1.25", "-0.5")}
    by_tau = p.coeffs_wrt("tau")
    with mp.workdps(40):
        at = {d: mp.mpmathify(c.eval(point)) for d, c in by_tau.items()}
        want = numfield._polyroots([at[3], mp.mpc(0), at[1], at[0]], 200, 80)
        assert as_bits(numfield.roots_at(p, "tau", point)) == as_bits(want)


def expanded(roots):
    """Coefficients of prod (x - r), highest degree first."""
    coeffs = [mp.mpf(1)]
    for r in roots:
        coeffs = [a - r * b for a, b in zip(coeffs + [0], [0] + coeffs)]
    return coeffs


@pytest.mark.parametrize("coeffs", [
    lambda: [mp.mpf(1), mp.mpf(10) ** 400, mp.mpf(1)],
    lambda: [mp.mpf(10) ** -400, mp.mpf(0), -mp.mpf(10) ** -400],
    lambda: expanded([mp.mpf(1), 1 + mp.mpf(10) ** -30]),
    lambda: [mp.mpf(1), mp.mpf(0), -mp.mpf(10) ** 60],
    lambda: [mp.mpf(1), mp.mpf(0), mp.mpf(0), mp.mpf(0), -mp.mpf(10) ** 80],
], ids=["inf-coefficient", "zero-float-lead", "pair-below-float-resolution",
        "unsettled-in-budget", "overflowing-iterate"])
def test_no_seed_takes_the_cold_start(coeffs, monkeypatch):
    calls = []
    real_roots = mp.polyroots

    def spied(*args, **kwargs):
        calls.append(kwargs["roots_init"])
        return real_roots(*args, **kwargs)
    with mp.workdps(40):
        coeffs = coeffs()
        monkeypatch.setattr(mp, "polyroots", spied)
        got = numfield._polyroots(coeffs, 300, 120)
        monkeypatch.undo()
        cold = mp.polyroots(coeffs, maxsteps=300, extraprec=120)
    assert calls == [None]
    assert as_bits(got) == as_bits(cold)


@pytest.mark.parametrize("text,seeded", [
    ("x^3 - x^2 + 1", 12),
    ("tau^3 - 71*tau^2 + 2802*tau - 28075", 12),
    ("tau^2 - 9", 2),
])
def test_seeded_pass_polishes_instead_of_searching(text, seeded, monkeypatch):
    # mp.polyval calls per roots_numeric at 64 digits: a cold start makes
    # 24, 36 and 20 of them; a float seed leaves a few polishing sweeps
    calls = []
    real_polyval = mp.mp.polyval

    def counted(*args, **kwargs):
        calls.append(1)
        return real_polyval(*args, **kwargs)
    monkeypatch.setattr(mp.mp, "polyval", counted)
    roots_numeric(from_text(text), 64)
    assert len(calls) == seeded


def record_fields_and_values():
    """(field, rho0 value) for each record whose rho0 value is not rational
    over its trace field."""
    for knot, curve in (("4_1", "mu"), ("5_2", "lambda")):
        record = ingest_knot(knot)
        K = NumberField.create(record.trace_field_poly,
                               embedding_hint=record.trace_field_embedding)
        yield K, pl.rho0_for_curve(record, curve)[0].value


QUARTIC_9_5 = "tau^4 + 25*tau^3 + 295*tau^2 + 1542*tau + 4369"
QUINTIC_11_3 = "tau^5 + 17*tau^4 + 191*tau^3 + 5477*tau^2 + 74634*tau + 289651"


def two_bridge_fields_and_values():
    """(field, rho0 value tau_lambda) for the two-bridge knots b(9,5) and
    b(11,3): the trace field of b(p,q) is Q(u) for u a root of Riley's
    polynomial, the (1,1) entry of the image of w = a^e1 b^e2 ... b^e(p-1),
    e_i = (-1)^floor(iq/p), for a -> [[1, 1], [0, 1]] and
    b -> [[1, 0], [-u, 1]] (Riley, Proc. London Math. Soc. 24, 1972)."""
    for field, hint, value, near in (
            ("x^4 + x^3 + 3*x^2 + 2*x + 1", ("-0.105", "1.552"), QUARTIC_9_5,
             mp.mpc("-3.567", "4.425")),
            ("x^5 - 5*x^4 + 8*x^3 - 3*x^2 - x - 1", ("1.965", "0.622"), QUINTIC_11_3,
             mp.mpc("-6.627"))):
        yield (NumberField.create(from_text(field), embedding_hint=mp.mpc(*hint)),
               root_of(from_text(value), near))


def norm_cases():
    """(field, target) for each membership question the norm oracle rows
    factor: the records' rho0 values that are not rational, sqrt(2) over
    Q(sqrt(-3)), 1 + x in Q(sqrt(-3)) at s = 2, and the two-bridge rho0
    values over their trace fields."""
    yield from record_fields_and_values()
    yield field_41(), root_of(from_text("tau^2 - 2"), mp.mpc("1.41421356"))
    K = NumberField.create(from_text("x^2 + 3"), embedding_hint=mp.mpc(0, "-1.7"))
    yield K, root_of(from_text("tau^2 - 2*tau + 4"), mp.mpc(1, "-1.7"))
    yield from two_bridge_fields_and_values()


def norm_passes(monkeypatch):
    """(polynomial, roots, digits) of the one factor_rational call that
    express_in_field makes on each of the norm cases."""
    cases, seen = list(norm_cases()), []
    real = numfield.factor_rational
    with monkeypatch.context() as patch:
        patch.setattr(numfield, "factor_rational",
                      lambda *args: seen.append(args) or real(*args))
        for K, tau in cases:
            express_in_field(tau, K)
    assert len(seen) == len(cases)
    return seen


def test_two_bridge_rho0_values_lie_in_their_trace_fields():
    # the norms, of degree 16 and 25, each have a factor of degree n
    (K9, tau9), (K11, tau11) = two_bridge_fields_and_values()
    for K, tau, coords in ((K9, tau9, (-5, 14, 1, 7)), (K11, tau11, (-13, -7, 9, 5, -4))):
        elem, _ = express_in_field(tau, K)
        assert elem == K.element(coords)
        assert minimal_polynomial(elem) == tau.minpoly


def classes_by_mp_distances(roots):
    """The conjugation classes as factor_rational first formed them: each
    root with the root nearest its conjugate, by mpmath distances."""
    return sorted({tuple(sorted({i, min(range(len(roots)), key=lambda j: abs(
        roots[j] - c))})) for i, c in enumerate(map(mp.conj, roots))})


def factor_rational_by_mp_distances(p, roots, digits):
    """factor_rational as it was before its classes were read off machine
    floats and its class constants limited to the classes a subset can hold."""
    rest = normalize_sign(p)
    lead, tol = rest.leading_coefficient(), mp.mpf(10) ** (-digits // 2)
    with mp.workdps(numfield.root_dps(digits)):
        classes = classes_by_mp_distances(roots)
        const = {c: mp.re(mp.fprod(-roots[i] for i in c)) for c in classes}
        subsets = [(sorted(sum(s, ())), s) for k in range(1, len(roots) // 2 + 1)
                   for s in itertools.combinations(classes, k)]
        factors, taken = [], set()
        for owned, s in sorted(subsets, key=lambda o_s: (len(o_s[0]), o_s[0])):
            if 2 * len(owned) > len(roots) - len(taken):
                break
            if taken.intersection(owned) or numfield._integer(
                    lead * mp.fprod(const[c] for c in s), tol) is None:
                continue
            coeffs = [mp.mpc(lead)]
            for i in owned:
                coeffs = [a - roots[i] * b for a, b in zip(coeffs + [0], [0] + coeffs)]
            ints = [numfield._integer(mp.re(c), tol) for c in reversed(coeffs)]
            g = None if None in ints else normalize_sign(from_dense(p.vars[0], ints))
            if g is None or not divides(g, rest):
                continue
            factors.append((g, tuple(roots[i] for i in owned)))
            rest, taken = exact_div(rest, g), taken.union(owned)
    return factors + [(rest, tuple(r for i, r in enumerate(roots) if i not in taken))]


def factor_oracle_polynomials():
    """The polynomials of the factor_rational oracle rows, drawn without
    sympy: seeded squarefree products of random polynomials and of definite
    quadratics, the cyclotomic products, the record polynomials with both
    two-bridge rho0 polynomials, and x^d - x - 1 for 2 <= d <= 24."""
    rng = random.Random(83)

    def product(draw, degree):
        p = MultiPoly.constant(("x",), 1)
        while p.degree_in("x") < degree:
            p = p * draw(degree - p.degree_in("x"))
        return p

    def any_factor(most):
        d = rng.randint(1, min(4, most))
        return from_dense("x", [rng.randint(-9, 9) for _ in range(d)] + [rng.randint(1, 5)])

    def definite_quadratic(most):
        while True:
            a, b, c = rng.randint(1, 6), rng.randint(-9, 9), rng.randint(1, 9)
            if b * b < 4 * a * c:
                return from_dense("x", [c, b, a])
    drawn = [product(any_factor, d) for d in [2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 12, 12]] \
        + [product(definite_quadratic, d) for d in [2, 4, 4, 6, 6, 8, 8, 10, 12]]
    yield from (p for p in drawn if gcd_poly(p, p.derivative("x")).is_constant())
    for text in ("x^4 + 4", "x^8 + 1", "x^4 + x^2 + 1", "x^6 + 1", "x^8 + x^4 + 1"):
        yield from_text(text, ["x"])
    for knot in ("4_1", "5_2"):
        record = ingest_knot(knot)
        yield normalize_sign(record.trace_field_poly)
        for curve in record.rho0:
            yield squarefree_primitive(pl.rho0_for_curve(record, curve)[1], "tau")
    yield from (from_text(t) for t in (QUARTIC_9_5, QUINTIC_11_3))
    yield from (from_text(f"x^{d} - x - 1") for d in range(2, 25))


# roots 1 +- 10^-15, and +-i next to +-i (1 + 10^-15): closer than the
# rounding of machine floats, so their classes take mpmath's distances
CLUSTERS = ["1000000000000000000000000000000*x^2 - 2000000000000000000000000000000*x"
            " + 999999999999999999999999999999",
            "1000000000000000000000000000000*x^4 + 2000000000000002000000000000001*x^2"
            " + 1000000000000002000000000000001"]


def test_float_classes_decide_within_the_rounding_at_full_precision():
    # the conjugate of the first root is 6.2e-11 from the second and
    # 6.4e-11 from the third, both under the float spacing 1.2e-10 near 1e6,
    # and the floats put the third nearer; the fourth is the third's conjugate
    with mp.workdps(30):
        roots = [mp.mpc("1e6", im) for im in ("1000000.000000000055", "-1000000.000000000117",
                                                "-999999.999999999991", "999999.999999999991")]
        assert abs(complex(roots[2]) - complex(roots[0]).conjugate()) \
            < abs(complex(roots[1]) - complex(roots[0]).conjugate())
        assert numfield._conjugation_classes(roots) == classes_by_mp_distances(roots) \
            == [(0, 1), (2, 3)]


def test_float_classes_keep_the_classes_factors_and_roots(monkeypatch):
    polys = [*factor_oracle_polynomials(), *map(from_text, CLUSTERS)]
    passes = [(p, roots_numeric(p, 64), 64) for p in polys]
    for p, roots, digits in passes + norm_passes(monkeypatch):
        with mp.workdps(numfield.root_dps(digits)):
            assert numfield._conjugation_classes(roots) == classes_by_mp_distances(roots)
        got = factor_rational(p, roots, digits)
        want = factor_rational_by_mp_distances(p, roots, digits)
        assert [g for g, _ in got] == [g for g, _ in want], to_text(p)
        assert all(len(a) == len(b) and all(r is s for r, s in zip(a, b))
                   for (_, a), (_, b) in zip(got, want)), to_text(p)


@pytest.mark.parametrize("f, hint, coords, note", [
    # max|root|^(n-1) = 1e8: a rank tolerance relative to V's largest entry
    # would drop the column of ones
    ("x^2 - 10000000000000001", "1e8", (0, -1),
     "matched at the non-declared embedding x ~ (-1.0e+8 + 0.0j)"),
    # roots 1 +- sqrt(2)*1e-10, closer than 1e-8 relative
    ("100000000000000000000*x^2 - 200000000000000000000*x + 99999999999999999998",
     "1.0000000001", (2, -1), "matched at the non-declared embedding x ~ (1.0 + 0.0j)"),
])
def test_embedding_solve_needs_no_rank_tolerance(f, hint, coords, note):
    # tau is a root of f itself, so tau lies in K = Q[x]/(f)
    K = NumberField.create(from_text(f), embedding_hint=mp.mpc(hint))
    tau = root_of(from_text(f.replace("x", "tau")), mp.mpc(hint))
    assert express_in_field(tau, K) == (K.element(coords), note)


def test_field_creation_makes_one_squarefree_test(monkeypatch):
    tests = []
    real = numfield.gcd_poly
    monkeypatch.setattr(numfield, "gcd_poly",
                        lambda *a: tests.append(a) or real(*a))
    monkeypatch.setattr(numfield, "squarefree_primitive", None)
    field_52()
    assert len(tests) == 1
