"""Symbolic torsion pipeline.

Parametrized torsion expressions are turned into torsion-trace polynomials by
resultant elimination of the auxiliary variables, transported between
peripheral curves through the change-of-curve factor, and specialized at the
discrete faithful representation.  Torsion polynomials are only defined up to
sign and rational content, so all equality contracts are on squarefree
primitive parts.

Elimination and transport prove their result exactly: the polynomial must
vanish on the curve it was derived from, which by Gauss's lemma is the exact
division of its pullback by the curve's squarefree primitive part.  The
record's types read here, `ParamTorsion` with its exact hint check and the
root-selection rules, live in `records`.  None of these reads or sets a
working precision.  Only `rho0_value` is numeric: it holds the rule
that selects one root of a root pass, and `numfield.algebraic_root` makes the
selected root exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import mpmath as mp

from .charvar import ChangeFactor
from .numfield import AlgebraicNumber, algebraic_root, roots_numeric
from .polys import MultiPoly, divides, normalize_sign, resultant, squarefree_primitive
from .records import NearestToHint, ParamTorsion, PositiveRealRoot, TorsionSymError

TAU = "tau"
TAU_OLD = "tau0"


@dataclass(frozen=True)
class TPoly:
    """Squarefree primitive torsion-trace polynomial T(tau, trace)."""

    poly: MultiPoly
    trace_var: str

    def __post_init__(self):
        if self.poly.degree_in(TAU) == 0:
            raise TorsionSymError("torsion polynomial without tau dependence")


def _require_vanishing(poly: MultiPoly, curve: MultiPoly, var: str, what: str):
    """Raise unless poly vanishes on every component of {curve = 0} that
    involves var: exactly, the squarefree primitive part of curve in var
    divides poly."""
    if not divides(squarefree_primitive(curve, var), poly):
        raise TorsionSymError(f"{what} is not divisible by the squarefree part "
                              f"of its curve in {var!r}")


def eliminate_T(pt: ParamTorsion) -> TPoly:
    """Eliminate the auxiliary variables from {tau - tau_expr, constraints}.

    With one auxiliary variable u and one constraint C(u, trace), the
    normalized eliminant T is proven to vanish on the constraint curve:
    C's squarefree primitive part in u divides T(tau_expr(u, trace), trace).
    """
    allvars = (TAU,) + pt.aux_vars + (pt.trace_var,)
    elim = MultiPoly.var(allvars, TAU) - pt.tau_expr.with_vars(allvars)
    remaining = [c.with_vars(allvars) for c in pt.constraints]
    for u in pt.aux_vars:
        users = [c for c in remaining if c.degree_in(u) > 0]
        if not users:
            if elim.degree_in(u) > 0:
                raise TorsionSymError(f"no constraint eliminates {u!r}")
            continue
        pivot = users[0]
        if elim.degree_in(u) > 0:
            elim = resultant(pivot, elim, u)
        remaining = [resultant(pivot, c, u) if c.degree_in(u) > 0 else c
                     for c in remaining if c is not pivot]
        if elim.is_zero():
            raise TorsionSymError("degenerate parametrization")
    elim = elim.drop_vars().with_vars((TAU, pt.trace_var))
    if elim.is_zero() or elim.degree_in(TAU) == 0:
        raise TorsionSymError("degenerate parametrization")
    out = squarefree_primitive(elim, TAU)
    if len(pt.aux_vars) == 1 and len(pt.constraints) == 1:
        _require_vanishing(out.substitute(TAU, pt.tau_expr), pt.constraints[0],
                           pt.aux_vars[0], "eliminant at tau_expr")
    return TPoly(out, pt.trace_var)


def transport_T(T_src: TPoly, factor: ChangeFactor, branch: MultiPoly,
                new_var: str) -> TPoly:
    """Transport T across tau_new^2 * den = tau_old^2 * num on the branch.

    The result is proven to cover the source: over every point of the
    source curve it vanishes at a tau_new related to tau_old, exactly, the
    source's squarefree part in tau_old divides Res_tau_new(result, relation).
    """
    x = branch.vars[0]
    allvars = (TAU, TAU_OLD, x)
    src = T_src.poly.rename(TAU, TAU_OLD)
    subst = src.substitute(T_src.trace_var, branch) \
        .drop_vars().with_vars((TAU_OLD, x)).with_vars(allvars)
    tau_new = MultiPoly.var(allvars, TAU)
    tau_old = MultiPoly.var(allvars, TAU_OLD)
    G = tau_new ** 2 * factor.den.with_vars(allvars) \
        - tau_old ** 2 * factor.num.with_vars(allvars)
    if subst.degree_in(TAU_OLD) == 0:
        raise TorsionSymError("source polynomial lost its tau dependence")
    elim = resultant(subst, G, TAU_OLD)
    if elim.is_zero():
        raise TorsionSymError("degenerate parametrization")
    elim = elim.drop_vars().with_vars((TAU, x))
    out = squarefree_primitive(elim, TAU)
    if out.degree_in(TAU) == 0:
        raise TorsionSymError("transported polynomial lost its tau dependence")
    _require_vanishing(resultant(out, G, TAU), subst, TAU_OLD,
                       "transported polynomial over the source")
    if new_var != x:
        out = out.rename(x, new_var)
    return TPoly(out, new_var)


def specialize(T: TPoly, trace_value: Fraction) -> MultiPoly:
    """Exact substitution of the trace variable: a polynomial in tau,
    primitive with positive lead."""
    sub = T.poly.substitute(T.trace_var,
                            MultiPoly.constant((T.trace_var,), Fraction(trace_value)))
    uni = sub.drop_vars().with_vars((TAU,))
    if uni.is_zero():
        raise TorsionSymError(
            f"torsion polynomial vanishes identically at trace {trace_value}")
    return normalize_sign(uni)


@dataclass(frozen=True)
class Rho0Value:
    value: AlgebraicNumber
    branch_note: str


def rho0_value(spec_poly: MultiPoly, selection, digits: int = 64) -> Rho0Value:
    """Select one root of the specialized polynomial and wrap it exactly."""
    if spec_poly.is_constant():
        raise TorsionSymError("specialized polynomial is constant")
    var = spec_poly.vars[0]
    sf = squarefree_primitive(spec_poly, var)
    roots = roots_numeric(sf, digits)
    if isinstance(selection, PositiveRealRoot):
        cands = [r for r in roots
                 if abs(mp.im(r)) < 1e-9 * max(1, abs(r)) and mp.re(r) > 0]
        if not cands:
            raise TorsionSymError("no positive real root")
        if len(cands) > 1:
            raise TorsionSymError("ambiguous selection: several positive real roots")
        chosen = cands[0]
        note = "positive real root rule"
    elif isinstance(selection, NearestToHint):
        with mp.workprec(max(mp.mp.prec, 53)):  # all 53 bits of the float hint
            hint = mp.mpc(selection.hint)
        by_dist = sorted(roots, key=lambda r: abs(r - hint))
        chosen = by_dist[0]
        if len(by_dist) > 1:
            d0, d1 = abs(by_dist[0] - hint), abs(by_dist[1] - hint)
            if d1 - d0 < 1e-6 * max(1, abs(chosen)):
                raise TorsionSymError("ambiguous selection: two roots near hint")
        note = f"root nearest to hint {mp.nstr(hint, 8)}"
    else:
        raise TorsionSymError(f"unknown selection rule {selection!r}")
    return Rho0Value(algebraic_root(sf, roots, chosen, digits), note)
