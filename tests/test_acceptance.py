"""Acceptance gate: every published check, one pass/fail line each.

Mirrors `torsionpoly verify`; the criteria and tolerances live in
torsionpoly.verify and are fixed there.
"""

import itertools
import random
import time
from fractions import Fraction

import mpmath as mp
import pytest

from test_resultant_oracle import from_sympy, to_sympy
from torsionpoly import mplinalg as la, torsion_num as tn, verify
from torsionpoly.numfield import roots_numeric
from torsionpoly.polys import (
    MultiPoly, from_dense, from_text, gcd_cofactors, gcd_poly, normalize_sign,
    resultant, to_text,
)
from torsionpoly.records import ingest_knot


@pytest.mark.parametrize("name,fn", verify.CHECKS, ids=[n for n, _ in verify.CHECKS])
def test_acceptance(name, fn):
    start = time.monotonic()
    ok, detail = fn()
    elapsed = time.monotonic() - start
    print(f"{'PASS' if ok else 'FAIL'} {name} ({elapsed:.2f}s): {detail}")
    assert ok, detail


def test_elimination_under_ten_seconds():
    start = time.monotonic()
    ok, _ = verify.check_52_elimination()
    assert ok
    assert time.monotonic() - start < 10.0


def test_verify_command_exits_clean(capsys):
    from torsionpoly.cli import main
    assert main(["verify"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == len(verify.CHECKS)
    assert "FAIL" not in out


def _rank_two_d1(d1, d2):
    return la.Matrix([*d1[:2], [mp.mp.zero] * d1.cols]), d2


def _zero_d2(d1, d2):
    return d1, la.Matrix([[mp.mp.zero] * d2.cols for _ in range(d2.rows)])


@pytest.mark.parametrize("break_chain, detail", [
    (_rank_two_d1, "non-generic representation: homology (1, 2, 1)"),
    (_zero_d2, "ker d2 has dimension 3"),
], ids=["d1-rank-2", "d2-zero"])
def test_a_broken_homology_pattern_fails_the_engine_check(monkeypatch, break_chain,
                                                          detail):
    """The engine check leaves the homology test to peripheral_torsions; a
    chain complex off the (0, 1, 1) pattern still fails it, at the first
    trace, and the detail names that trace."""
    boundaries = tn.boundaries
    broken = lambda p, rep: break_chain(*boundaries(p, rep))
    monkeypatch.setattr(tn, "boundaries", broken)
    monkeypatch.setattr(verify, "boundaries", broken)
    assert verify.check_numeric_engine() \
        == (False, f"engine failed at trace {verify.ENGINE_TRACES[0]}: {detail}")


def test_the_engine_check_builds_each_representation_complex_once(monkeypatch):
    """Per trace, one complex for the solved representation, which the
    P-rescaling and the basis re-choice reuse, and one for its conjugate."""
    calls = []
    boundaries = tn.boundaries
    monkeypatch.setattr(tn, "boundaries", lambda *args: calls.append(args) or
                        boundaries(*args))
    assert verify.check_numeric_engine()[0]
    assert len(calls) == 2 * len(verify.ENGINE_TRACES)


def squarefree_parts(p: MultiPoly):
    """[(a_i, i)]: pairwise-coprime squarefree a_i of positive degree with
    p = c * prod a_i^i for a constant c; Yun's decomposition (SYMSAC 1976)
    of the univariate p, for the root-product oracle below."""
    var = p.vars[0]
    _, b, c = gcd_cofactors(p, p.derivative(var))
    parts, i = [], 1
    while b.degree_in(var) > 0:
        a, b, c = gcd_cofactors(b, c - b.derivative(var))
        if a.degree_in(var) > 0:
            parts.append((a, i))
        i += 1
    return parts


def root_product_resultant(p: MultiPoly, q: MultiPoly):
    """Res_x(p, q) = lc(p)^deg(q) * prod q(r) over the roots r of p, with
    multiplicity, numerically at the working precision."""
    acc = mp.mpmathify(p.leading_coefficient()) ** q.degree_in("x")
    for part, i in squarefree_parts(p):
        for r in roots_numeric(part, 30):
            acc *= q.eval({"x": r}) ** i
    return acc


def test_the_exact_resultant_check_agrees_with_the_root_product():
    """The suite's exact check, the kernel's resultant and an independent
    numeric oracle agree on 20 pairs from the suite's generator."""
    rng = random.Random(77)
    with mp.workdps(40):
        for _ in range(20):
            p, q = verify._rand_univariate(rng), verify._rand_univariate(rng)
            exact = verify._sylvester_resultant(p, q)
            assert resultant(p, q, "x").constant_value() == exact
            assert abs(root_product_resultant(p, q) - exact) <= 1e-20 * max(1, abs(exact))


@pytest.mark.parametrize("perturb", [
    lambda res: res + Fraction(1, 10 ** 12),
    lambda res: -res,
], ids=["plus-1e-12", "negated"])
def test_a_perturbed_resultant_fails_the_property_suite(monkeypatch, perturb):
    """A resultant off by 1e-12, within the tolerance of a numeric
    comparison, or of the wrong sign fails the exact check."""
    exact = verify.resultant
    monkeypatch.setattr(verify, "resultant", lambda p, q, name: perturb(exact(p, q, name)))
    assert verify.check_property_suites() \
        == (False, "resultant differs from the Sylvester determinant")


A41 = ingest_knot("4_1").apoly.poly


def test_a_wrong_branch_fails_the_change_curve_identity(monkeypatch):
    wrong = "x^4 - 5*x^2 + 3"
    assert verify.change_curve_identity(A41, from_text(verify.BRANCH41_TEXT))
    assert not verify.change_curve_identity(A41, from_text(wrong))
    monkeypatch.setattr(verify, "BRANCH41_TEXT", wrong)
    assert verify.check_property_suites() == (False, "change-of-curve formulas disagree")


@pytest.mark.parametrize("term", sorted(A41.as_dict()), ids=str)
def test_an_apoly_with_a_term_dropped_fails_the_change_curve_identity(term):
    dropped = {m: c for m, c in A41.as_dict().items() if m != term}
    assert not verify.change_curve_identity(MultiPoly(A41.vars, dropped),
                                            from_text(verify.BRANCH41_TEXT))


def squarefree_inputs():
    """The resultant oracle's draw with a repeated root, x^2 (4x + 3), and
    seeded products a * b^2 * c^3 of random univariate factors."""
    yield from_text("-2/3*x^3 - 1/2*x^2")
    rng = random.Random(23)
    for _ in range(12):
        a, b, c = (from_dense("x", [Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                                    for _ in range(rng.randint(1, 3))] + [1])
                   for _ in range(3))
        yield a * b ** 2 * c ** 3


INPUTS = list(squarefree_inputs())


@pytest.mark.parametrize("p", INPUTS, ids=to_text)
def test_squarefree_parts_rebuild_p(p):
    parts = squarefree_parts(p)
    rebuilt = MultiPoly.constant(p.vars, 1)
    for a, i in parts:
        assert a.degree_in("x") > 0
        assert gcd_poly(a, a.derivative("x")).degree_in("x") == 0
        rebuilt = rebuilt * a ** i
    assert normalize_sign(rebuilt) == normalize_sign(p)
    for (a, _), (b, _) in itertools.combinations(parts, 2):
        assert gcd_poly(a, b).degree_in("x") == 0


def test_squarefree_parts_of_the_repeated_draw():
    assert squarefree_parts(from_text("-2/3*x^3 - 1/2*x^2")) == \
        [(from_text("4*x + 3"), 1), (from_text("x"), 2)]


@pytest.mark.parametrize("p", INPUTS, ids=to_text)
def test_squarefree_parts_against_sympy(p):
    sympy = pytest.importorskip("sympy")
    syms = {"x": sympy.Symbol("x")}
    _, want = sympy.sqf_list(to_sympy(p, syms))
    assert [(normalize_sign(a), i) for a, i in squarefree_parts(p)] == \
        [(normalize_sign(from_sympy(f.as_expr(), ("x",), syms)), i) for f, i in want]
