import random
from fractions import Fraction

import mpmath as mp
import pytest

from torsionpoly.polys import (
    DEGREE_LIMIT, HINT_TOL, MultiPoly, PolyError, dense_coeffs, exact_div,
    divides, from_dense, from_text, gcd_poly, nearly_vanishes, normalize_sign,
    quadratic_norm, resultant, squarefree_primitive, to_text,
)


def P(text, variables=None):
    return from_text(text, variables)


def random_poly(rng, variables, max_deg=2, max_terms=4):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        mono = tuple(rng.randint(0, max_deg) for _ in variables)
        terms[mono] = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
    return MultiPoly(variables, terms)


# -- arithmetic ---------------------------------------------------------------

def test_difference_of_squares():
    x = MultiPoly.var(["x"], "x")
    assert (x + 1) * (x - 1) == P("x^2 - 1")


def test_square_expansion_matches_repeated_multiplication():
    # (2x^2-5)^2 via pow against the long way around
    p = P("2*x^2 - 5")
    by_pow = p ** 2
    by_mul = p * p
    assert by_pow == by_mul == P("4*x^4 - 20*x^2 + 25")
    # same polynomial as 17 + 4y with y = x^4 - 5x^2 + 2
    y = P("x^4 - 5*x^2 + 2")
    assert 17 + 4 * y == by_pow


def test_additive_identity():
    rng = random.Random(0)
    p = random_poly(rng, ("x", "y"))
    assert p + MultiPoly.zero(("x", "y")) == p


def test_negative_exponent_rejected():
    p = P("x + 1")
    with pytest.raises(PolyError, match="negative exponent unsupported"):
        p ** -1


def test_ring_laws_random():
    rng = random.Random(7)
    for _ in range(100):
        a = random_poly(rng, ("x", "y"))
        b = random_poly(rng, ("x", "y"))
        c = random_poly(rng, ("x", "y"))
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a


def test_variable_union_merge():
    p = P("x + 1", ["x"])
    q = P("y - 2", ["y"])
    s = p + q
    assert s.vars == ("x", "y")
    assert s == P("x + y - 1", ["x", "y"])


# -- evaluation ---------------------------------------------------------------

def test_eval_reference_values():
    # tau^2 = 17 + 4y at y = -2 gives 9; branch value at x = 2 gives -2
    assert P("17 + 4*y").eval({"y": Fraction(-2)}) == 9
    assert P("x^4 - 5*x^2 + 2").eval({"x": Fraction(2)}) == -2


def test_eval_constant_term_at_zero():
    rng = random.Random(3)
    p = random_poly(rng, ("x", "y"))
    zero = {"x": Fraction(0), "y": Fraction(0)}
    assert p.eval(zero) == p.as_dict().get((0, 0), Fraction(0))


def test_eval_unassigned_variable_named():
    with pytest.raises(PolyError, match="y"):
        P("x + y").eval({"x": Fraction(1)})


def test_eval_complex():
    p = P("x^2 + 1")
    v = p.eval({"x": mp.mpc(0, 1)})
    assert abs(v) < 1e-30


# -- exact hint checks ----------------------------------------------------------

@pytest.mark.parametrize("text, point, expected", [
    ("x^2 - 2*x*y + y^2", {"x": 0.1, "y": 0.1}, True),
    # |p| = 1 is the bound 1e-6 * 10^6 itself
    ("1000000*x - 1", {"x": 0.0}, True),
    ("1000000*x - 1", {"x": 2.0 ** -80}, True),
    # 10^6 * 2^-80 past the bound: below a double's resolution of 1
    ("1000000*x - 1", {"x": -2.0 ** -80}, False),
    ("x^2 + 1", {"x": 1j}, True),
    ("x^2 + 1", {"x": 1.0000001j}, True),
    ("x^2 + 1", {"x": 1.00001j}, False),
    ("x*y - 1/2", {"x": 0.5 + 0.5j, "y": 0.5 - 0.5j}, True),
    ("x*y - 1/2", {"x": 0.5 + 0.5j, "y": 0.5 + 0.5j}, False),
], ids=["exact-zero", "on-the-bound", "just-inside", "just-outside",
        "imaginary-zero", "imaginary-inside", "imaginary-outside",
        "gaussian-zero", "gaussian-outside"])
def test_nearly_vanishes(text, point, expected):
    assert nearly_vanishes(P(text, tuple(point)), point) is expected


def test_nearly_vanishes_matches_rational_evaluation():
    # at real points the same decision over Fractions, for Fraction
    # coefficients, with the constant term moved to put p near the bound
    rng = random.Random(17)
    for _ in range(200):
        p = random_poly(rng, ("x", "y"), max_deg=3)
        point = {v: rng.uniform(-2, 2) for v in ("x", "y")}
        exact = {v: Fraction(x) for v, x in point.items()}
        scale = max([1] + [abs(c) for c in p.as_dict().values()])
        shift = p.eval(exact) + HINT_TOL * scale * Fraction(rng.randint(-20, 20), 10)
        q = p - shift
        bound = HINT_TOL * max([1] + [abs(c) for c in q.as_dict().values()])
        assert nearly_vanishes(q, point) is (abs(q.eval(exact)) <= bound)


def test_nearly_vanishes_refuses_a_non_dyadic_value():
    with pytest.raises(PolyError, match="dyadic"):
        nearly_vanishes(P("x - 1"), {"x": Fraction(1, 3)})


def test_nearly_vanishes_needs_a_value_for_each_occurring_variable():
    with pytest.raises(PolyError, match="unassigned variable 'y'"):
        nearly_vanishes(P("x - y"), {"x": 1.0})
    assert nearly_vanishes(P("x", ("x", "y")), {"x": 0.0})


# -- derivative ---------------------------------------------------------------

def test_derivative_power_rule():
    assert P("x^4 - 5*x^2 + 2").derivative("x") == P("4*x^3 - 10*x")


def test_derivative_of_constant_is_zero():
    p = MultiPoly.constant(("x",), 5)
    assert p.derivative("x").is_zero()


def test_derivative_finite_difference_oracle():
    rng = random.Random(11)
    p = random_poly(rng, ("x", "y"), max_deg=4, max_terms=6)
    dp = p.derivative("x")
    h = Fraction(1, 10**8)
    for _ in range(5):
        x0 = Fraction(rng.randint(-6, 6), rng.randint(1, 5))
        y0 = Fraction(rng.randint(-6, 6), rng.randint(1, 5))
        fd = (p.eval({"x": x0 + h, "y": y0}) - p.eval({"x": x0 - h, "y": y0})) / (2 * h)
        exact = dp.eval({"x": x0, "y": y0})
        scale = max(1, abs(float(exact)))
        assert abs(float(fd - exact)) / scale < 1e-6


# -- substitution ---------------------------------------------------------------

def test_substitute_reference_chain():
    ty = P("17 + 4*y", ["y"])
    branch = P("x^4 - 5*x^2 + 2", ["x"])
    assert ty.substitute("y", branch) == P("4*x^4 - 20*x^2 + 25", ["y", "x"])


def test_substitute_identity():
    rng = random.Random(5)
    p = random_poly(rng, ("x", "y"))
    assert p.substitute("x", MultiPoly.var(("x",), "x")) == p


def test_substitute_factored_form_sampling_oracle():
    # (y^2 - 4)[y := x^4-5x^2+2] equals x^2 (x^2-5)(x^2-1)(x^2-4)
    sub = P("y^2 - 4", ["y"]).substitute("y", P("x^4 - 5*x^2 + 2", ["x"]))
    x = MultiPoly.var(("x",), "x")
    expect = (x ** 2) * (x ** 2 - 5) * (x ** 2 - 1) * (x ** 2 - 4)
    assert sub == expect
    rng = random.Random(2)
    for _ in range(5):
        v = Fraction(rng.randint(1, 30), rng.randint(1, 7))
        assert sub.eval({"x": v}) == expect.eval({"x": v})


# -- resultants ---------------------------------------------------------------

def test_resultant_linear_case():
    r = resultant(P("x - 2"), P("x - 3"), "x")
    assert r.constant_value() == -1


def test_resultant_shared_root_vanishes():
    r = resultant(P("x^2 - 1"), P("x - 1"), "x")
    assert r.is_zero()


def test_resultant_constant_rejected():
    with pytest.raises(PolyError, match="nothing to eliminate"):
        resultant(P("x + 1"), P("3", ["x"]), "x")


def test_quadratic_norm_is_the_resultant():
    # Fraction coefficients, and e between the other variables
    rng = random.Random(29)
    for _ in range(20):
        p = random_poly(rng, ("a", "e", "b"), max_deg=4, max_terms=6)
        if p.degree_in("e") == 0:
            p = p + Fraction(2, 3) * MultiPoly.var(p.vars, "e")
        q = P("e^2 - t*e + 1", ("a", "e", "b", "t"))
        norm = quadratic_norm(p, "e", "t")
        assert norm.vars == ("a", "b", "t")
        assert norm.terms == resultant(p, q, "e").terms


def test_quadratic_norm_needs_the_variable():
    with pytest.raises(PolyError, match="nothing to eliminate"):
        quadratic_norm(P("a^2 + 1", ("a", "e")), "e", "t")


def test_resultant_vanishes_iff_common_factor():
    rng = random.Random(13)
    for _ in range(10):
        common = random_poly(rng, ("x",), max_deg=2, max_terms=3)
        if common.degree_in("x") == 0:
            common = common + MultiPoly.var(("x",), "x")
        a = random_poly(rng, ("x",), max_deg=2, max_terms=3) * common
        b = random_poly(rng, ("x",), max_deg=2, max_terms=3) * common
        if a.degree_in("x") == 0 or b.degree_in("x") == 0:
            continue
        assert resultant(a, b, "x").is_zero()


def test_resultant_root_product_oracle():
    # Res_x(p, q) = lc(p)^deg(q) * prod q(alpha_i) over numeric roots of p
    rng = random.Random(17)
    for _ in range(8):
        while True:
            p = random_poly(rng, ("x",), max_deg=4, max_terms=5)
            q = random_poly(rng, ("x",), max_deg=4, max_terms=5)
            if p.degree_in("x") >= 1 and q.degree_in("x") >= 1:
                break
        res = resultant(p, q, "x").constant_value()
        roots = mp.polyroots([mp.mpf(c.numerator) / mp.mpf(c.denominator)
                              for c in reversed(dense_coeffs(p))], maxsteps=200, extraprec=80)
        lc = p.leading_coefficient()
        acc = (mp.mpf(lc.numerator) / mp.mpf(lc.denominator)) ** q.degree_in("x")
        for r in roots:
            acc *= q.eval({"x": r})
        assert abs(acc - mp.mpf(res.numerator) / mp.mpf(res.denominator)) < 1e-6 * max(1, abs(res))


def test_resultant_multivariate_entries():
    # eliminating e from {e^2 - x e + 1, e - 2} leaves 5 - 2x
    a = P("e^2 - x*e + 1", ["e", "x"])
    b = P("e - 2", ["e", "x"])
    r = resultant(a, b, "e")
    assert r == P("5 - 2*x", ["x"])


# -- squarefree / primitive -----------------------------------------------------

def test_squarefree_strips_multiplicity():
    x = MultiPoly.var(("x",), "x")
    p = (x - 1) ** 2 * (x + 2)
    sf = squarefree_primitive(p, "x")
    assert sf == normalize_sign((x - 1) * (x + 2))


def test_squarefree_content_invariance():
    x = MultiPoly.var(("x",), "x")
    p = (x - 1) * (x + 2)
    assert squarefree_primitive(p * Fraction(7, 3), "x") == squarefree_primitive(p, "x")


def test_squarefree_zero_rejected():
    with pytest.raises(PolyError):
        squarefree_primitive(MultiPoly.zero(("x",)), "x")


def test_squarefree_drops_mainvar_free_content():
    p = P("y^2", ["y"]) * P("x^2 - 9", ["x"])
    sf = squarefree_primitive(p, "x")
    assert sf == P("x^2 - 9", ["y", "x"])


def test_squarefree_of_mainvar_free_polynomial_is_one():
    """A polynomial free of the main variable is all content."""
    assert squarefree_primitive(P("y^2", ["x", "y"]), "x") == MultiPoly.constant(("x", "y"), 1)
    assert squarefree_primitive(P("-3", ["x"]), "x") == MultiPoly.constant(("x",), 1)


def test_squarefree_input_takes_no_trial_division(monkeypatch):
    """A gcd rebuilt as 1 leaves the inputs as their own cofactors: the
    squarefree part of a squarefree input divides nothing."""
    from torsionpoly import pipelines as pl, polys
    from torsionpoly.records import ingest_knot
    eliminants = [pl.eliminated_T(ingest_knot(k)).poly for k in ("4_1", "5_2")]
    assert [len(T.terms) for T in eliminants] == [3, 17]
    divisors, divide = [], polys._divide
    monkeypatch.setattr(polys, "_divide",
                        lambda p, q, n: divisors.append(q) or divide(p, q, n))
    for p, var in [(T, "tau") for T in eliminants] + [(P("x^3 - 2*x + 7"), "x")]:
        assert squarefree_primitive(p, var) == p
    assert divisors == []
    x = MultiPoly.var(("x",), "x")
    assert squarefree_primitive((x - 1) ** 2 * (x + 2), "x") == (x - 1) * (x + 2)
    assert divisors


def test_gcd_poly_bivariate():
    x = MultiPoly.var(("x", "y"), "x")
    y = MultiPoly.var(("x", "y"), "y")
    g = x * y + 1
    a = g * (x + y)
    b = g * (x - y + 2)
    assert gcd_poly(a, b) == normalize_sign(g)


def test_exact_division():
    a = P("x^2 - 1")
    b = P("x - 1")
    assert exact_div(a, b) == P("x + 1")
    assert divides(b, a)
    assert not divides(P("x - 3"), a)


# -- canonical text -------------------------------------------------------------

def test_canonical_text_example_shape():
    p = P("-1*z^4 + 6*z^2 + 4*t^2 - 5", ["z", "t"])
    assert to_text(p) == "-1*z^4 + 6*z^2 + 4*t^2 - 5"


def test_text_roundtrip_random():
    rng = random.Random(23)
    for _ in range(40):
        p = random_poly(rng, ("x", "y", "z"), max_deg=3, max_terms=5)
        assert from_text(to_text(p), ("x", "y", "z")) == p


def test_text_rational_coefficients():
    p = MultiPoly(("x",), {(1,): Fraction(3, 2), (0,): Fraction(-1, 7)})
    txt = to_text(p)
    assert txt == "3/2*x - 1/7"
    assert from_text(txt, ("x",)) == p


@pytest.mark.parametrize("text, message", [
    ("2/0*u", "zero denominator in term '2/0\\*u'"),
    ("x^2 + 3/0", "zero denominator in term '3/0'"),
    ("x - 1 2", "whitespace inside term '1 2'"),
    ("x^1 0 + 3", "whitespace inside term 'x\\^1 0'"),
    ("7*u^2 0 0 5*u^2*y^2", "whitespace inside term"),
    ("x * y", "whitespace inside term"),
], ids=["zero-denominator", "zero-denominator-constant", "split-number",
        "split-exponent", "split-exponents", "spaced-product"])
def test_from_text_refuses_malformed_terms(text, message):
    # a zero denominator is a PolyError, not a ZeroDivisionError, and a
    # space never joins two numbers into one
    with pytest.raises(PolyError, match=message):
        from_text(text)
    assert from_text(" x^2  -  3/4*y ") == from_text("x^2 - 3/4*y")


def test_from_text_keeps_the_constructor_checks():
    with pytest.raises(PolyError, match="duplicate variable names"):
        from_text("x", ("x", "x"))
    top = DEGREE_LIMIT - 1
    for text in (f"x^{DEGREE_LIMIT}", f"x^{DEGREE_LIMIT} - x^{DEGREE_LIMIT}",
                 f"x^{top}*y"):
        with pytest.raises(PolyError, match="limit"):
            from_text(text, ("x", "y"))
    # canonical coefficients: an int when integral, else a reduced Fraction
    p = from_text("4/2*x + 6/4 - 3 + 3", ("x",))
    assert p.as_dict() == {(1,): 2, (0,): Fraction(3, 2)}
    assert [type(c) for _, c in p.sorted_terms()] == [int, Fraction]


# -- univariate polynomials ---------------------------------------------------

def test_unipoly_divmod_gcd():
    f, g = P("t^2 - 1"), P("t + 1")
    assert exact_div(f, g) == P("t - 1")
    assert gcd_poly(f, g) == g
    assert gcd_poly(f * Fraction(1, 2), g * 3) == g


def test_unipoly_primitive_and_squarefree():
    f = from_dense("t", [Fraction(2, 3), Fraction(4, 3)])
    assert normalize_sign(f) == P("2*t + 1")
    g = P("t^2 + 2*t + 1")                   # (t+1)^2
    assert squarefree_primitive(g, "t") == P("t + 1")
    assert squarefree_primitive(g * Fraction(-5, 3), "t") == P("t + 1")


def test_dense_coefficients_roundtrip():
    f = from_dense("t", [5, 0, -3, Fraction(1, 2), 0])
    assert f == P("1/2*t^3 - 3*t^2 + 5") and f.vars == ("t",)
    assert dense_coeffs(f) == [5, 0, -3, Fraction(1, 2)]
    assert dense_coeffs(P("7", ["t"])) == [7]
    assert dense_coeffs(MultiPoly.zero(("t",))) == dense_coeffs(from_dense("t", [])) == []
    with pytest.raises(PolyError, match="not univariate"):
        dense_coeffs(P("x*y"))


def test_bareiss_matches_cofactor_expansion():
    from torsionpoly.polys import bareiss_det

    def cofactor_det(rows):
        if len(rows) == 1:
            return rows[0][0]
        return sum((-1) ** j * a * cofactor_det([r[:j] + r[j + 1:] for r in rows[1:]])
                   for j, a in enumerate(rows[0]))

    rng = random.Random(41)
    cases = [[[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
             for n in (1, 2, 3, 4, 5, 6) for _ in range(4)]
    cases += [
        [[0, 2, 1], [3, 1, 4], [5, 9, 2]],               # zero leading pivot: row swap
        [[0, 0, 1, 2], [0, 3, 1, 1], [4, 1, 0, 2], [1, 1, 1, 1]],
        [[1, 2, 3], [4, 5, 6], [7, 8, 9]],               # singular
        [[2, 4, 1], [1, 2, 5], [3, 6, 7]],               # singular, zero pivot at step 1
        [[0, 1], [0, 5]],                                # zero column
    ]
    for rows in cases:
        det = bareiss_det(rows)
        assert type(det) is int and det == cofactor_det(rows), rows
    with pytest.raises(PolyError, match="empty matrix"):
        bareiss_det([])


def test_gcd_poly_divides_common_multiple():
    rng = random.Random(43)
    for _ in range(8):
        g = random_poly(rng, ("x", "y"), max_deg=1, max_terms=2)
        if g.is_zero() or g.is_constant():
            g = g + MultiPoly.var(("x", "y"), "x")
        a = g * random_poly(rng, ("x", "y"), max_deg=1, max_terms=2)
        b = g * random_poly(rng, ("x", "y"), max_deg=1, max_terms=2)
        if a.is_zero() or b.is_zero():
            continue
        d = gcd_poly(a, b)
        assert divides(normalize_sign(g), d) or divides(g, d)
        assert divides(d, a) and divides(d, b)


def test_parser_accepts_loose_whitespace_and_bare_terms():
    assert P("x^2+1") == P("x^2 + 1")
    assert P("  - x +  2 ") == P("2 - x")
    assert P("x") == MultiPoly.var(("x",), "x")
    assert P("-x^3") == -(MultiPoly.var(("x",), "x") ** 3)


def test_parser_rejects_garbage():
    import pytest as _pytest
    for bad in ("", "x +", "^2", "x^^2"):
        with _pytest.raises(PolyError):
            P(bad)


def test_resultant_nonzero_for_coprime_pairs():
    rng = random.Random(53)
    checked = 0
    while checked < 10:
        p = random_poly(rng, ("x",), max_deg=3, max_terms=4)
        q = random_poly(rng, ("x",), max_deg=3, max_terms=4)
        if p.degree_in("x") == 0 or q.degree_in("x") == 0:
            continue
        if gcd_poly(p, q).degree_in("x") > 0:
            continue
        assert not resultant(p, q, "x").is_zero()
        checked += 1


# -- canonical coefficients ----------------------------------------------------

def canonical(p):
    """Every coefficient is an int, or a Fraction that is not integral."""
    return all(type(c) is int or (type(c) is Fraction and c.denominator > 1)
               for c in p.terms.values())


def test_kernel_results_on_bundled_eliminants_are_canonical():
    from torsionpoly import pipelines as pl
    from torsionpoly.records import ingest_knot
    r41, r52 = ingest_knot("4_1"), ingest_knot("5_2")
    pt = r52.param_torsion
    T52, T41 = pl.eliminated_T(r52).poly, pl.transported_T(r41).poly
    R = pl.trace_relation_of(r41).poly
    branch = pl.branch_and_factor(r41)[0]
    allvars = ("tau", "u", "y")
    elim = MultiPoly.var(allvars, "tau") - pt.tau_expr.with_vars(allvars)
    C = pt.constraints[0].with_vars(allvars)
    half = MultiPoly(("x", "y"), {(1, 0): Fraction(1, 2), (0, 1): -1})
    results = [
        resultant(C, elim, "u"),
        resultant(half, P("x^2 - 3*y", ["x", "y"]), "x"),
        resultant(R, P("y - x^2 + 3", ["x", "y"]), "y"),
        gcd_poly(T52 * T52.derivative("tau"), T52 * 3),
        gcd_poly(R, R.derivative("y")),
        squarefree_primitive(T52 * T52, "tau"),
        squarefree_primitive(T41 * Fraction(7, 3), "tau"),
        exact_div(T52 * R, R),
        exact_div(T41, MultiPoly.constant(T41.vars, 6)),
        exact_div(half * T41, half),
        T52.substitute("y", P("2", ["y"])),
        T52.substitute("tau", pt.tau_expr),
        R.substitute("y", branch),
    ]
    assert T52 in results and exact_div(T52 * R, R) == T52
    assert any(type(c) is Fraction for p in results for c in p.terms.values())
    for p in results:
        assert canonical(p), to_text(p)
    for p in (T52, T41, R, elim, C):
        assert all(type(c) is int for c in p.terms.values())


def test_exact_division_by_an_integer_gives_a_fraction():
    x = MultiPoly.var(("x",), "x")
    q = exact_div(x, MultiPoly.constant(("x",), 3))
    assert q.as_dict() == {(1,): Fraction(1, 3)}
    assert type(q.as_dict()[(1,)]) is Fraction
    assert (q * 3).as_dict() == {(1,): 1} and type((q * 3).as_dict()[(1,)]) is int
    assert exact_div(x * 6, MultiPoly.constant(("x",), 3)).as_dict() == {(1,): 2}


def test_public_constructor_canonicalizes_and_validates():
    p = MultiPoly(("x", "y"), {(1, 0): Fraction(4, 2), (0, 1): "3/6", (0, 0): 0})
    assert p.as_dict() == {(1, 0): 2, (0, 1): Fraction(1, 2)}
    assert type(p.as_dict()[(1, 0)]) is int
    with pytest.raises(PolyError, match="not exact"):
        MultiPoly(("x",), {(1,): 0.5})
    with pytest.raises(PolyError, match="negative exponent"):
        MultiPoly(("x",), {(-1,): 1})
    with pytest.raises(PolyError, match="length mismatch"):
        MultiPoly(("x", "y"), {(1,): 1})


# -- packed keys against a tuple-keyed reference --------------------------------
#
# The reference keeps terms as {exponent tuple: coefficient} dicts over a
# variable list and orders monomials by (total degree, exponent tuple).

NAMES = ("x", "y", "z", "w")


def grlex(mono):
    return (sum(mono), mono)


def ref_clean(terms):
    return {m: c for m, c in terms.items() if c}


def ref_add(a, b):
    out = dict(a)
    for m, c in b.items():
        out[m] = out.get(m, 0) + c
    return ref_clean(out)


def ref_mul(a, b):
    out = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = tuple(e1 + e2 for e1, e2 in zip(m1, m2))
            out[m] = out.get(m, 0) + c1 * c2
    return ref_clean(out)


def ref_pow(a, k, n):
    out = {(0,) * n: 1}
    for _ in range(k):
        out = ref_mul(out, a)
    return out


def ref_exact_div(p, q):
    """The quotient p / q by grlex long division, or None if q does not divide p."""
    qlead = max(q, key=grlex)
    rem, quot = dict(p), {}
    while rem:
        lead = max(rem, key=grlex)
        mono = tuple(a - b for a, b in zip(lead, qlead))
        if min(mono) < 0:
            return None
        c = quot[mono] = Fraction(rem[lead]) / q[qlead]
        rem = ref_add(rem, ref_mul({mono: -c}, q))
    return quot


def ref_drop(m, i):
    return m[:i] + m[i + 1:]


def random_terms(rng, n, max_exp=20, max_terms=6):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        mono = tuple(rng.randint(0, max_exp) for _ in range(n))
        terms[mono] = rng.choice([rng.randint(-9, 9),
                                  Fraction(rng.randint(-9, 9), rng.randint(1, 5))])
    return ref_clean(terms)


def random_case(seed):
    """A seeded variable list of 1-4 names and two term dicts over it."""
    rng = random.Random(seed)
    n = rng.randint(1, 4)
    return rng, NAMES[:n], random_terms(rng, n), random_terms(rng, n)


SEEDS = range(40)


@pytest.mark.parametrize("seed", SEEDS)
def test_packed_ring_operations_match_reference(seed):
    rng, names, a, b = random_case(seed)
    A, B = MultiPoly(names, a), MultiPoly(names, b)
    assert A.as_dict() == a
    assert (A + B).as_dict() == ref_add(a, b)
    assert (A - B).as_dict() == ref_add(a, {m: -c for m, c in b.items()})
    assert (-A).as_dict() == {m: -c for m, c in a.items()}
    assert (A * B).as_dict() == ref_mul(a, b)
    assert (A * Fraction(3, 7)).as_dict() == {m: c * Fraction(3, 7) for m, c in a.items()}
    k = rng.randint(0, 3)
    assert (A ** k).as_dict() == ref_pow(a, k, len(names))


@pytest.mark.parametrize("seed", SEEDS)
def test_packed_exact_div_matches_reference(seed):
    rng, names, a, b = random_case(seed)
    A, B = MultiPoly(names, a), MultiPoly(names, b)
    assert exact_div(A * B, B).as_dict() == a == ref_exact_div(ref_mul(a, b), b)
    # a perturbed product: both divide, or both refuse
    r = random_terms(rng, len(names), max_terms=2)
    p = ref_add(ref_mul(a, b), r)
    expected = ref_exact_div(p, b) if p else {}
    if expected is None:
        with pytest.raises(PolyError, match="not divisible"):
            exact_div(MultiPoly(names, p), B)
    else:
        assert exact_div(MultiPoly(names, p), B).as_dict() == expected


@pytest.mark.parametrize("n", [2, 3, 4])
def test_exact_div_refuses_a_monomial_that_borrows_in_one_field(n):
    # p's exponents are 5 but a 0 at i and q is variable i: p's key is the
    # larger, so the key difference is >= 0 and only field i borrows
    names = NAMES[:n]
    for i in range(n):
        p = MultiPoly(names, {tuple(0 if j == i else 5 for j in range(n)): 1})
        q = MultiPoly.var(names, names[i])
        assert max(p.terms) > max(q.terms)
        assert ref_exact_div(p.as_dict(), q.as_dict()) is None
        with pytest.raises(PolyError, match="not divisible"):
            exact_div(p, q)
        assert not divides(q, p)
        assert exact_div(p * q, q) == p


def test_exact_div_refuses_a_monomial_of_lower_degree():
    one, x = MultiPoly.constant(("x",), 1), MultiPoly.var(("x",), "x")
    with pytest.raises(PolyError, match="not divisible"):
        exact_div(one, x)


@pytest.mark.parametrize("seed", SEEDS)
def test_packed_views_match_reference(seed):
    rng, names, a, _ = random_case(seed)
    A, n = MultiPoly(names, a), len(names)
    i = rng.randrange(n)
    name = names[i]
    assert A.degree_in(name) == max(m[i] for m in a)
    coeffs = A.coeffs_wrt(name)
    expected = {}
    for m, c in a.items():
        expected.setdefault(m[i], {})[ref_drop(m, i)] = c
    assert {d: (c.vars, c.as_dict()) for d, c in coeffs.items()} \
        == {d: (ref_drop(names, i), t) for d, t in expected.items()}
    assert A.derivative(name).as_dict() == ref_clean(
        {m[:i] + (m[i] - 1,) + m[i + 1:]: c * m[i] for m, c in a.items() if m[i]})
    # substitute name := a small q, expanded term by term in the reference
    q = random_terms(rng, n, max_exp=2, max_terms=2)
    expected = {}
    for m, c in a.items():
        term = ref_mul({m[:i] + (0,) + m[i + 1:]: c}, ref_pow(q, m[i], n))
        expected = ref_add(expected, term)
    assert A.substitute(name, MultiPoly(names, q)).as_dict() == expected


@pytest.mark.parametrize("seed", SEEDS)
def test_packed_reindexing_matches_reference(seed):
    rng, names, a, _ = random_case(seed)
    A = MultiPoly(names, a)
    new_vars = list(names) + ["u", "v"][:rng.randint(0, 2)]
    rng.shuffle(new_vars)
    pos = [new_vars.index(v) for v in names]
    moved = {}
    for m, c in a.items():
        m2 = [0] * len(new_vars)
        for p, e in zip(pos, m):
            m2[p] = e
        moved[tuple(m2)] = c
    W = A.with_vars(new_vars)
    assert W.vars == tuple(new_vars) and W.as_dict() == moved
    used = [k for k in range(len(new_vars)) if any(m[k] for m in moved)]
    D = W.drop_vars()
    assert D.vars == tuple(new_vars[k] for k in used)
    assert D.as_dict() == {tuple(m[k] for k in used): c for m, c in moved.items()}
    assert D == W == A


@pytest.mark.parametrize("seed", SEEDS)
def test_packed_text_round_trip_and_order_match_reference(seed):
    _, names, a, _ = random_case(seed)
    A = MultiPoly(names, a)
    assert A.sorted_terms() == sorted(a.items(), key=lambda kv: grlex(kv[0]), reverse=True)
    assert from_text(to_text(A), names).as_dict() == a


@pytest.mark.parametrize("seed", SEEDS)
def test_key_order_is_grlex_order(seed):
    _, names, a, b = random_case(seed)
    monos = sorted(set(a) | set(b))
    key = {m: next(iter(MultiPoly(names, {m: 1}).terms)) for m in monos}
    assert sorted(monos, key=key.get) == sorted(monos, key=grlex)


def test_total_degree_is_the_largest_term_degree():
    assert P("x^3*y + x*y^5 - 2*z^4").total_degree() == 6
    assert P("7", ["x", "y"]).total_degree() == 0
    assert MultiPoly.zero(("x",)).total_degree() == 0


def test_degree_at_the_limit_raises_instead_of_wrapping():
    top = DEGREE_LIMIT - 1
    x = MultiPoly(("x", "y"), {(top, 0): 1})
    assert x.as_dict() == {(top, 0): 1} and x.degree_in("x") == top
    assert exact_div(x, MultiPoly.var(("x", "y"), "x")).as_dict() == {(top - 1, 0): 1}
    for mono in ((DEGREE_LIMIT, 0), (top, 1), (0, DEGREE_LIMIT)):
        with pytest.raises(PolyError, match="limit"):
            MultiPoly(("x", "y"), {mono: 1})
    half = MultiPoly(("x", "y"), {(DEGREE_LIMIT // 2, 0): 1})
    assert (half * MultiPoly(("x", "y"), {(0, DEGREE_LIMIT // 2 - 1): 1})).as_dict() \
        == {(DEGREE_LIMIT // 2, DEGREE_LIMIT // 2 - 1): 1}
    with pytest.raises(PolyError, match="limit"):
        half * half
    with pytest.raises(PolyError, match="limit"):
        x * MultiPoly.var(("x", "y"), "y")
