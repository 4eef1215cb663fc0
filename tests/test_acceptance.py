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
from torsionpoly.polys import (
    MultiPoly, from_dense, from_text, gcd_poly, normalize_sign, to_text,
)


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
    parts = verify._squarefree_parts(p)
    rebuilt = MultiPoly.constant(p.vars, 1)
    for a, i in parts:
        assert a.degree_in("x") > 0
        assert gcd_poly(a, a.derivative("x")).degree_in("x") == 0
        rebuilt = rebuilt * a ** i
    assert normalize_sign(rebuilt) == normalize_sign(p)
    for (a, _), (b, _) in itertools.combinations(parts, 2):
        assert gcd_poly(a, b).degree_in("x") == 0


def test_squarefree_parts_of_the_repeated_draw():
    assert verify._squarefree_parts(from_text("-2/3*x^3 - 1/2*x^2")) == \
        [(from_text("4*x + 3"), 1), (from_text("x"), 2)]


@pytest.mark.parametrize("p", INPUTS, ids=to_text)
def test_squarefree_parts_against_sympy(p):
    sympy = pytest.importorskip("sympy")
    syms = {"x": sympy.Symbol("x")}
    _, want = sympy.sqf_list(to_sympy(p, syms))
    assert [(normalize_sign(a), i) for a, i in verify._squarefree_parts(p)] == \
        [(normalize_sign(from_sympy(f.as_expr(), ("x",), syms)), i) for f, i in want]
