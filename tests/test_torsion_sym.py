import random
from fractions import Fraction

import mpmath as mp
import pytest

from torsionpoly import numfield, torsion_sym
from torsionpoly.charvar import ChangeFactor, change_curve_sq
from torsionpoly.numfield import root_dps, roots_numeric
from torsionpoly.polys import MultiPoly, from_text, normalize_sign
from torsionpoly.records import (
    NearestToHint, ParamTorsion, PositiveRealRoot, TorsionSymError,
)
from torsionpoly.torsion_sym import (
    TPoly, eliminate_T, rho0_value, specialize, transport_T,
)

# Ex. 1.6 data for 5_2: tau = (5y^4-37y^2+36)u + (7-5y^2)u^2 with
# (2y^2-9) - (y^4-7y^2+14)u + (2y^2-9)u^2 - u^3 = 0, y the meridian trace.
TAU_EXPR_52 = from_text("5*y^4*u - 37*y^2*u + 36*u + 7*u^2 - 5*y^2*u^2", ["u", "y"])
CONSTRAINT_52 = from_text(
    "2*y^2 - 9 - y^4*u + 7*y^2*u - 14*u + 2*y^2*u^2 - 9*u^2 - u^3", ["u", "y"])
# selected root of the constraint cubic at y = 2, the branch whose tau matches
# the printed approximation up to conjugation
U_HINT_52 = complex(-0.2150798541, -1.3071412909)

T52_TEXT = ("tau^3 - 47*tau^2 + 14*tau^2*y^2 - 5*tau^2*y^4"
            " - 5138*tau + 10057*tau*y^2 - 7830*tau*y^4 + 3213*tau*y^6"
            " - 640*tau*y^8 + 50*tau*y^10"
            " - 120447 + 339345*y^2 - 371691*y^4 + 203917*y^6"
            " - 60090*y^8 + 8850*y^10 - 500*y^12")

BRANCH41 = from_text("x^4 - 5*x^2 + 2")


def pt_52():
    return ParamTorsion.create(TAU_EXPR_52, [CONSTRAINT_52], ["u"], "y",
                               {"u": U_HINT_52, "y": 2.0})


def t_lambda_41():
    return TPoly(normalize_sign(from_text("tau^2 - 4*y - 17", ["tau", "y"])), "y")


def same_up_to_sign(a: MultiPoly, b: MultiPoly) -> bool:
    return a == b or a == -b


# -- eliminate_T ---------------------------------------------------------------

def test_eliminate_52_reproduces_printed_polynomial():
    T = eliminate_T(pt_52())
    expected = normalize_sign(from_text(T52_TEXT, ["tau", "y"]))
    assert same_up_to_sign(T.poly, expected)


def test_eliminate_hint_violation_rejected():
    with pytest.raises(TorsionSymError, match="constraint"):
        ParamTorsion.create(TAU_EXPR_52, [CONSTRAINT_52], ["u"], "y",
                            {"u": 5.0 + 0j, "y": 2.0})


def test_eliminate_trivial_linear():
    tau_expr = from_text("u", ["u", "y"])
    constraint = from_text("u - y", ["u", "y"])
    pt = ParamTorsion.create(tau_expr, [constraint], ["u"], "y",
                             {"u": 3.0, "y": 3.0})
    T = eliminate_T(pt)
    assert same_up_to_sign(T.poly, from_text("tau - y", ["tau", "y"]))


def test_eliminate_41_squared_constraint():
    tau_expr = from_text("u", ["u", "y"])
    constraint = from_text("u^2 - 17 - 4*y", ["u", "y"])
    pt = ParamTorsion.create(tau_expr, [constraint], ["u"], "y",
                             {"u": 3.0, "y": -2.0})
    T = eliminate_T(pt)
    assert same_up_to_sign(T.poly, from_text("tau^2 - 4*y - 17", ["tau", "y"]))


def test_eliminate_annihilates_newton_refined_points():
    T = eliminate_T(pt_52())
    rng = random.Random(3)
    with mp.workdps(40):
        scale = max(abs(mp.mpf(c.numerator) / mp.mpf(c.denominator))
                    for c in T.poly.terms.values())
        for _ in range(5):
            yv = Fraction(rng.randint(30, 40), 16)
            uni = CONSTRAINT_52.substitute(
                "y", MultiPoly.constant(("y",), yv)).drop_vars()
            for u in roots_numeric(uni, 40):
                tau = TAU_EXPR_52.eval({"u": u, "y": mp.mpmathify(yv)})
                val = T.poly.eval({"tau": tau, "y": mp.mpmathify(yv)})
                mag = max(1, abs(tau)) ** 3 * max(1, abs(mp.mpmathify(yv))) ** 12
                assert abs(val) < 1e-8 * scale * mag


def perturb_first_resultant(monkeypatch, var):
    """Add `var` to the first resultant torsion_sym takes, as a wrong
    eliminant would differ from the true one."""
    real, calls = torsion_sym.resultant, []

    def perturbed(p, q, name):
        r = real(p, q, name)
        calls.append(name)
        return r + MultiPoly.var(r.vars, var) if len(calls) == 1 else r
    monkeypatch.setattr(torsion_sym, "resultant", perturbed)


def test_eliminate_rejects_a_perturbed_eliminant(monkeypatch):
    perturb_first_resultant(monkeypatch, "y")
    with pytest.raises(TorsionSymError, match="not divisible"):
        eliminate_T(pt_52())


def test_t_poly_requires_tau():
    with pytest.raises(TorsionSymError):
        TPoly(from_text("y - 2", ["tau", "y"]), "y")


# -- transport_T ---------------------------------------------------------------

def test_transport_41_reference_result():
    cf = change_curve_sq(BRANCH41)
    T = transport_T(t_lambda_41(), cf, BRANCH41, new_var="z")
    expected = normalize_sign(from_text("4*tau^2 - z^4 + 6*z^2 - 5", ["tau", "z"]))
    assert same_up_to_sign(T.poly, expected)


def test_transport_identity():
    one = MultiPoly.constant(("x",), 1)
    ident = ChangeFactor(one, one)
    branch = from_text("x")
    T = transport_T(t_lambda_41(), ident, branch, new_var="y")
    assert same_up_to_sign(T.poly, t_lambda_41().poly)


def test_transport_double_is_involutive_on_squarefree_part():
    cf = change_curve_sq(BRANCH41)
    T_mu = transport_T(t_lambda_41(), cf, BRANCH41, new_var="x")
    # transport back with the inverse factor over the same branch variable
    inv = ChangeFactor(cf.den, cf.num)
    back = transport_T(T_mu, inv, from_text("x"), new_var="x")
    # the roundtrip reproduces the squarefree primitive part of the original
    # pulled back to the branch
    orig = t_lambda_41().poly.substitute("y", BRANCH41)
    from torsionpoly.polys import squarefree_primitive
    assert back.poly == squarefree_primitive(orig, "tau")


def test_transport_rejects_a_perturbed_eliminant(monkeypatch):
    perturb_first_resultant(monkeypatch, "x")
    with pytest.raises(TorsionSymError, match="not divisible"):
        transport_T(t_lambda_41(), change_curve_sq(BRANCH41), BRANCH41, new_var="z")


def test_transport_numeric_consistency():
    cf = change_curve_sq(BRANCH41)
    T = transport_T(t_lambda_41(), cf, BRANCH41, new_var="z")
    with mp.workdps(40):
        x = mp.mpf("2.1")
        y = BRANCH41.eval({"x": x})
        tau_l = mp.sqrt(17 + 4 * y)
        tau_m = tau_l * mp.sqrt(cf.eval_at(x))
        val = T.poly.eval({"tau": tau_m, "z": x})
        assert abs(val) < 1e-6


# -- specialize ---------------------------------------------------------------

def test_specialize_52_at_2():
    T = eliminate_T(pt_52())
    spec = specialize(T, Fraction(2))
    assert spec == from_text("tau^3 - 71*tau^2 + 2802*tau - 28075")


def test_specialize_41_lambda():
    spec = specialize(t_lambda_41(), Fraction(-2))
    assert spec == from_text("tau^2 - 9")
    assert sorted(float(mp.re(r)) for r in roots_numeric(spec, 30)) == [-3.0, 3.0]


def test_specialize_41_mu():
    cf = change_curve_sq(BRANCH41)
    T_mu = transport_T(t_lambda_41(), cf, BRANCH41, new_var="z")
    spec = specialize(T_mu, Fraction(2))
    assert spec == from_text("4*tau^2 + 3")


def test_specialize_vertical_component_rejected():
    T = TPoly(from_text("tau*y - tau", ["tau", "y"]), "y")
    with pytest.raises(TorsionSymError):
        specialize(T, Fraction(1))


# -- rho0_value ---------------------------------------------------------------

def test_rho0_positive_root():
    out = rho0_value(from_text("tau^2 - 9"), PositiveRealRoot())
    assert out.value.minpoly == from_text("tau - 3")
    assert abs(out.value.approx - 3) < 1e-30


def test_rho0_52_hint():
    cubic = from_text("tau^3 - 71*tau^2 + 2802*tau - 28075")
    out = rho0_value(cubic, NearestToHint(28.5 + 34.5j))
    assert out.value.minpoly == cubic
    assert abs(mp.re(out.value.approx) - mp.mpf("28.4932")) < 1e-4
    assert abs(mp.im(out.value.approx) - mp.mpf("34.5189")) < 1e-4


QUARTIC_9_5 = "tau^4 + 25*tau^3 + 295*tau^2 + 1542*tau + 4369"
QUINTIC_11_3 = "tau^5 + 17*tau^4 + 191*tau^3 + 5477*tau^2 + 74634*tau + 289651"


@pytest.mark.parametrize("spec, hint", [(QUARTIC_9_5, -3.567 + 4.425j),
                                        (QUARTIC_9_5, -8.933 - 7.446j),
                                        (QUINTIC_11_3, -6.627),
                                        (QUINTIC_11_3, 6.658 + 15.469j)])
def test_rho0_two_bridge_value_is_its_own_minimal_polynomial(spec, hint):
    # the rho0 polynomials of the two-bridge knots b(9,5) and b(11,3) are
    # irreducible: the value is a root of the whole polynomial, which
    # carries all the roots of its pass
    spec = from_text(spec)
    out = rho0_value(spec, NearestToHint(hint))
    assert out.value.minpoly == spec
    assert len(out.value.roots) == spec.degree_in("tau")
    assert abs(out.value.approx - hint) < 1e-3


def test_rho0_rational():
    out = rho0_value(from_text("tau - 7/2"), PositiveRealRoot())
    assert out.value.minpoly == from_text("2*tau - 7")


def test_rho0_rational_root_at_low_ambient_precision():
    # the selected positive real root of (7 tau - 12345)(tau^2 + 1) is the
    # rational 12345/7 at any ambient precision, and its minimal polynomial
    # is the linear factor
    spec = from_text("7*tau^3 - 12345*tau^2 + 7*tau - 12345")
    with mp.workdps(3):
        tau = rho0_value(spec, PositiveRealRoot()).value
    assert tau.minpoly == from_text("7*tau - 12345")


@pytest.mark.parametrize("hint, minpoly", [(1.7, "tau^2 - 3"), (2.1, "tau - 2")])
def test_rho0_root_next_to_a_rational_root(hint, minpoly, monkeypatch):
    # sqrt(3) rounds to the root 2 of (tau - 2)(tau^2 - 3) at denominator 1;
    # only the root that is 2 is taken for it.  The cubic's is the one root
    # pass: a quadratic value carries its two irrational roots
    passes = []
    for module in (numfield, torsion_sym):
        real = module.roots_numeric
        monkeypatch.setattr(
            module, "roots_numeric",
            lambda *a, _real=real: passes.append(_real(*a)) or passes[-1])
    spec = from_text("tau^3 - 2*tau^2 - 3*tau + 6")
    tau = rho0_value(spec, NearestToHint(hint)).value
    assert tau.minpoly == from_text(minpoly)
    (cubic,) = passes
    if tau.degree == 2:
        two = min(cubic, key=lambda r: abs(r - 2))
        irrational = [r for r in cubic if r is not two]
        assert len(tau.roots) == 2 and abs(two - 2) < 1e-60
        assert all(r is s for r, s in zip(tau.roots, irrational))


@pytest.mark.parametrize("spec, value", [("tau^2 - 9", Fraction(3)),
                                         ("4*tau^2 - 49", Fraction(7, 2)),
                                         ("3*tau^2 + 2*tau - 1", Fraction(1, 3))])
def test_rational_rho0_value_takes_no_pass_of_its_factor(spec, value, monkeypatch):
    # a selected rational root is wrapped exactly: the one root pass is the
    # specialized polynomial's, and the value is the exact root rounded, a
    # lone root whose radius is 1/2
    calls = []
    for module in (numfield, torsion_sym):
        real = module.roots_numeric
        monkeypatch.setattr(module, "roots_numeric",
                            lambda *a, _real=real: calls.append(a) or _real(*a))
    tau = rho0_value(from_text(spec), PositiveRealRoot()).value
    assert len(calls) == 1
    assert tau.minpoly == from_text(f"{value.denominator}*tau - {value.numerator}")
    with mp.workdps(root_dps(64)):
        assert tau.roots == (mp.mpc(mp.mpf(value.numerator) / value.denominator),)
    assert tau.approx == tau.roots[0] and tau.err == mp.mpf(1) / 2
    if value.denominator in (1, 2):
        assert tau.approx == value


def test_rho0_ambiguous_rejected():
    with pytest.raises(TorsionSymError, match="ambiguous"):
        rho0_value(from_text("tau^2 - 9"), NearestToHint(0.0))


def test_tpoly_normalization_idempotent():
    from torsionpoly.polys import squarefree_primitive
    for T in (eliminate_T(pt_52()), t_lambda_41()):
        assert squarefree_primitive(T.poly, "tau") == T.poly


def test_specialize_commutes_with_numeric_sections():
    T = eliminate_T(pt_52())
    spec = specialize(T, Fraction(2))
    sym_roots = sorted(roots_numeric(spec, 40), key=lambda r: (mp.re(r), mp.im(r)))
    with mp.workdps(50):
        coeffs = {}
        for d, c in T.poly.coeffs_wrt("tau").items():
            coeffs[d] = mp.mpmathify(c.eval({"y": Fraction(2)}))
        num = [coeffs.get(i, mp.mpc(0)) for i in range(max(coeffs) + 1)]
        num_roots = sorted(mp.polyroots(list(reversed(num)), maxsteps=200,
                                        extraprec=100),
                           key=lambda r: (mp.re(r), mp.im(r)))
        assert len(sym_roots) == len(num_roots)
        for a, b in zip(sym_roots, num_roots):
            assert abs(a - b) < 1e-6
