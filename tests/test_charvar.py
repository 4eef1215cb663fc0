import random
from fractions import Fraction

import mpmath as mp
import pytest

from torsionpoly.charvar import (
    CharVarError, NoGraphBranch, apoly_normalize, change_curve_sq,
    geometric_branch, trace_relation,
)
from torsionpoly.polys import (
    MultiPoly, PolyError, divides, from_text, normalize_sign, quadratic_norm,
    resultant, squarefree_primitive,
)

# Laurent triples (a, b, c) meaning c * em^a el^b for the figure-eight knot,
# in the form whose vanishing gives tr_lam = tr_mu^4 - 5 tr_mu^2 + 2.
A41_TRIPLES = [
    (4, 0, 1), (-4, 0, 1), (2, 0, -1), (-2, 0, -1), (0, 0, -2),
    (0, 1, -1), (0, -1, -1),
]

BRANCH41 = from_text("x^4 - 5*x^2 + 2")


def a41():
    return apoly_normalize(A41_TRIPLES)


def solve_el_mp(A, em, digits=40):
    coeffs_by_deg = A.poly.coeffs_wrt("el")
    deg = max(coeffs_by_deg)
    cs = []
    for d in range(deg + 1):
        c = coeffs_by_deg.get(d)
        cs.append(c.eval({"em": em}) if c is not None else mp.mpc(0))
    # highest degree first for polyroots
    with mp.workdps(digits + 10):
        return mp.polyroots(list(reversed(cs)), maxsteps=200, extraprec=120)


# -- apoly_normalize ------------------------------------------------------------

def test_apoly_normalize_41_shape():
    A = a41()
    assert len(A.poly.terms) == 7
    terms = A.poly.as_dict()
    assert min(m[0] for m in terms) == 0
    assert min(m[1] for m in terms) == 0
    assert A.poly.leading_coefficient() > 0
    assert terms[(8, 1)] == 1 and terms[(4, 2)] == -1


def test_apoly_normalize_matches_laurent_at_random_points():
    A = a41()
    rng = random.Random(3)
    for _ in range(5):
        em = Fraction(rng.randint(1, 9), rng.randint(1, 5))
        el = Fraction(rng.randint(1, 9), rng.randint(1, 5))
        laurent = sum(Fraction(c) * em ** a * el ** b for a, b, c in A41_TRIPLES)
        cleared = A.poly.eval({"em": em, "el": el})
        # cleared = laurent * em^4 * el (the unit monomial), up to overall sign
        unit = em ** 4 * el
        assert cleared == laurent * unit or cleared == -laurent * unit


def test_apoly_normalize_unit_term():
    A = apoly_normalize([(0, -1, 5)])
    assert A.poly == MultiPoly.constant(("em", "el"), 1)


def test_apoly_normalize_already_normal():
    # el - em is already unit-free; normalization may only flip the global sign
    A = apoly_normalize([(0, 1, 1), (1, 0, -1)])
    p = from_text("el - em", ["em", "el"])
    assert A.poly == p or A.poly == -p


def test_apoly_normalize_zero_rejected():
    with pytest.raises(CharVarError):
        apoly_normalize([(1, 1, 0)])


# -- trace_relation ------------------------------------------------------------

def test_trace_relation_41_contains_quartic_branch():
    R = trace_relation(a41())
    factor = MultiPoly.var(("x", "y"), "y") - BRANCH41
    assert divides(normalize_sign(factor), R.poly)


def test_trace_relation_equal_eigenvalues():
    R = trace_relation(apoly_normalize([(0, 1, 1), (1, 0, -1)]))
    factor = from_text("y - x", ["x", "y"])
    assert divides(normalize_sign(factor), R.poly)


def two_resultants(A):
    """Res_el(Res_em(A, em^2 - x*em + 1), el^2 - y*el + 1) over (x, y)."""
    allvars = ("em", "el", "x", "y")
    qm = from_text("em^2 - x*em + 1", allvars)
    ql = from_text("el^2 - y*el + 1", allvars)
    r1 = resultant(A.poly.with_vars(allvars), qm, "em")
    return resultant(r1, ql, "el").drop_vars().with_vars(("x", "y"))


def random_laurent_apoly(rng):
    """A Laurent A-polynomial whose normal form has both eigenvalues."""
    while True:
        A = apoly_normalize([(rng.randint(-4, 4), rng.randint(-3, 3),
                              Fraction(rng.choice([-5, -3, -2, -1, 1, 2, 3, 7]),
                                       rng.choice([1, 1, 1, 2, 3])))
                             for _ in range(rng.randint(2, 6))])
        if A.poly.degree_in("em") and A.poly.degree_in("el"):
            return A


_rng = random.Random(20261020)
NORM_INPUTS = (
    [("4_1", a41())]
    + [(f"random-{i}", random_laurent_apoly(_rng)) for i in range(20)]
    + [(f"4_1+k{k}", apoly_normalize(A41_TRIPLES + [(k, k, 1), (-k, -k, 1), (k, -k, 3)]))
       for k in range(1, 9)])


@pytest.mark.parametrize("A", [a for _, a in NORM_INPUTS],
                         ids=[name for name, _ in NORM_INPUTS])
def test_norm_is_the_two_resultants(A):
    norm = quadratic_norm(quadratic_norm(A.poly, "em", "x"), "el", "y")
    expected = two_resultants(A)
    assert norm.vars == expected.vars == ("x", "y")
    assert norm.terms == expected.terms
    assert trace_relation(A).poly == squarefree_primitive(expected, "y")


@pytest.mark.parametrize("triples", [[(0, 1, 1), (0, 2, -3)], [(1, 0, 1), (3, 0, 2)]],
                         ids=["em-free", "el-free"])
def test_trace_relation_needs_both_eigenvalues(triples):
    with pytest.raises(PolyError, match="nothing to eliminate"):
        trace_relation(apoly_normalize(triples))


def test_trace_relation_41_numeric_sampling_oracle():
    R = trace_relation(a41())
    A = a41()
    rng = random.Random(7)
    count = 0
    with mp.workdps(50):
        while count < 20:
            em = mp.mpc(1, 0) + mp.mpc(rng.uniform(0.02, 0.2), rng.uniform(-0.1, 0.1))
            for el in solve_el_mp(A, em):
                if abs(el) < 1e-6:
                    continue
                x = em + 1 / em
                y = el + 1 / el
                val = R.poly.eval({"x": x, "y": y})
                scale = max(abs(mp.mpf(c.numerator) / mp.mpf(c.denominator))
                            for c in R.poly.terms.values())
                assert abs(val) < 1e-8 * scale * max(1, abs(x)) ** 8
                count += 1


# -- geometric_branch ------------------------------------------------------------

def test_geometric_branch_41_exact():
    R = trace_relation(a41())
    q = geometric_branch(R, (2.0, -2.0))
    assert q == BRANCH41


def test_geometric_branch_identity_curve():
    from torsionpoly.charvar import TraceRelation
    R = TraceRelation(normalize_sign(from_text("y - x", ["x", "y"])))
    q = geometric_branch(R, (3.0, 3.0))
    assert q == from_text("x")


def test_geometric_branch_nongraph():
    from torsionpoly.charvar import TraceRelation
    R = TraceRelation(normalize_sign(from_text("y^2 - x", ["x", "y"])))
    out = geometric_branch(R, (4.0, 2.0))
    assert isinstance(out, NoGraphBranch)


def test_geometric_branch_needs_a_relation_linear_in_y():
    # (y - x)(y + x) holds the graph y = x through the hint, but no
    # bivariate factorization is attempted
    from torsionpoly.charvar import TraceRelation
    R = TraceRelation(normalize_sign(from_text("y^2 - x^2", ["x", "y"])))
    out = geometric_branch(R, (3.0, 3.0))
    assert isinstance(out, NoGraphBranch)
    assert out.reason == "relation is not linear in y"


def test_geometric_branch_off_variety():
    from torsionpoly.charvar import TraceRelation
    R = TraceRelation(normalize_sign(from_text("y - x", ["x", "y"])))
    with pytest.raises(CharVarError, match="off-variety"):
        geometric_branch(R, (3.0, 17.0))


# -- change_curve_sq ------------------------------------------------------------

def test_change_factor_41():
    cf = change_curve_sq(BRANCH41)
    # tau_lambda^2 = (2x^2-5)^2 and tau_mu^2 = (x^2-5)(x^2-1)/4 on the branch
    tau_l_sq = from_text("4*x^4 - 20*x^2 + 25", ["x"])
    tau_m_sq_num = from_text("x^4 - 6*x^2 + 5", ["x"])
    lhs = tau_l_sq * cf.num * 4
    rhs = tau_m_sq_num * cf.den
    assert lhs == rhs
    # exact identity 17 + 4*(x^4-5x^2+2) = (2x^2-5)^2
    assert 17 + 4 * BRANCH41 == from_text("4*x^4 - 20*x^2 + 25")


def test_change_factor_at_an_integer_is_exact():
    """Integer coefficients at an integer trace divide exactly, not as floats."""
    cf = change_curve_sq(BRANCH41)
    v = cf.eval_at(3)
    assert type(v) is Fraction
    assert v == cf.num.eval({"x": Fraction(3)}) / cf.den.eval({"x": Fraction(3)})
    assert cf.eval_at(Fraction(3)) == v


def test_change_factor_identity_curve():
    cf = change_curve_sq(from_text("x"))
    assert cf.num == MultiPoly.constant(("x",), 1)
    assert cf.den == MultiPoly.constant(("x",), 1)


def test_change_factor_constant_branch_rejected():
    with pytest.raises(CharVarError):
        change_curve_sq(from_text("5", ["x"]))


def test_apoly_partial_derivative_finite_difference():
    A = a41()
    dA = A.poly.derivative("el")
    rng = random.Random(31)
    h = Fraction(1, 10**8)
    for _ in range(5):
        em = Fraction(rng.randint(2, 9), rng.randint(1, 4))
        el = Fraction(rng.randint(2, 9), rng.randint(1, 4))
        fd = (A.poly.eval({"em": em, "el": el + h})
              - A.poly.eval({"em": em, "el": el - h})) / (2 * h)
        exact = dA.eval({"em": em, "el": el})
        assert abs(float(fd - exact)) < 1e-6 * max(1.0, abs(float(exact)))
