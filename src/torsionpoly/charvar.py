"""A-polynomials and character-variety relations.

The eigenvalue-trace bridge tr = e + 1/e is realized by adjoining the
quadratic e^2 - tr*e + 1, never by taking square roots: the trace relation
is the norm of the A-polynomial from Q(x, y)[em, el] modulo both monic
quadratics, which is the resultant against each of them in turn.  The
geometric branch is a trace relation linear in the longitude trace, checked
exactly against a numeric hint near the discrete faithful representation.
No decision here is numeric, and none reads a working precision.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Tuple

from .polys import (
    MultiPoly, exact_div, gcd_cofactors, nearly_vanishes, normalize_sign,
    quadratic_norm, squarefree_primitive,
)

E_MU, E_LAMBDA = "em", "el"
TR_MU, TR_LAMBDA = "x", "y"


class CharVarError(ValueError):
    pass


@dataclass(frozen=True)
class APoly:
    """Normalized A-polynomial in the eigenvalue variables (em, el)."""

    poly: MultiPoly


def apoly_normalize(laurent_terms: List[Tuple[int, int, object]]) -> APoly:
    """Clear a Laurent expression sum c*em^a*el^b into a normalized APoly.

    Denominators are cleared by a unit monomial, minimal exponents are shifted
    to zero and the leading graded-lex coefficient is made positive.
    """
    summed = {}
    for a, b, c in laurent_terms:
        c = c if type(c) is Fraction else Fraction(c)
        summed[a, b] = summed[a, b] + c if (a, b) in summed else c
    terms = {m: c for m, c in summed.items() if c}
    if not terms:
        raise CharVarError("all-zero A-polynomial input")
    # summed before the shift, so no unit monomial survives a cancellation
    min_a = min(a for a, _ in terms)
    min_b = min(b for _, b in terms)
    poly = MultiPoly((E_MU, E_LAMBDA),
                     {(a - min_a, b - min_b): c for (a, b), c in terms.items()})
    return APoly(normalize_sign(poly))


@dataclass(frozen=True)
class TraceRelation:
    """Squarefree primitive polynomial relation in (x, y) = (tr_mu, tr_lambda)."""

    poly: MultiPoly


def trace_relation(A: APoly) -> TraceRelation:
    """Res_el(Res_em(A, em^2 - x*em + 1), el^2 - y*el + 1), made squarefree
    and primitive in y: the norm of A from Q(x, y)[em, el] modulo both
    quadratics, taken one eigenvalue at a time.

    Every (tr_mu, tr_lambda) pair of a representation on A = 0 is a zero of
    the output.  Neither norm vanishes: each quadratic has the discriminant
    t^2 - 4, no square, so it is irreducible over the field of the other
    variables and the quotient is a field, where A is not zero.
    """
    r1 = quadratic_norm(A.poly.with_vars((E_MU, E_LAMBDA)), E_MU, TR_MU)
    r2 = quadratic_norm(r1, E_LAMBDA, TR_LAMBDA)
    return TraceRelation(squarefree_primitive(r2, TR_LAMBDA))


class NoGraphBranch:
    """Sentinel: the hinted component is not the graph of a polynomial in x."""

    def __init__(self, reason: str):
        self.reason = reason

    def __repr__(self):
        return f"NoGraphBranch({self.reason!r})"


def geometric_branch(R: TraceRelation, hint: Tuple[float, float]):
    """Extract y(x) for the linear-in-y relation R through the hint: a
    polynomial in x when R's leading y coefficient is constant, else a
    NoGraphBranch.  No bivariate factorization is attempted, so a relation
    of higher degree in y is a NoGraphBranch too."""
    poly = R.poly
    if not nearly_vanishes(poly, {TR_MU: hint[0], TR_LAMBDA: hint[1]}):
        raise CharVarError("hint off-variety")
    deg_y = poly.degree_in(TR_LAMBDA)
    if deg_y == 0:
        raise CharVarError("relation has no y dependence")
    if deg_y > 1:
        return NoGraphBranch("relation is not linear in y")
    coeffs = poly.coeffs_wrt(TR_LAMBDA)
    lead = coeffs[1].drop_vars()
    if not lead.is_constant():
        return NoGraphBranch("leading y coefficient is not constant")
    c1 = lead.constant_value()
    return exact_div(-coeffs.get(0, MultiPoly.zero((TR_MU,))),
                     MultiPoly.constant((TR_MU,), c1))


@dataclass(frozen=True)
class ChangeFactor:
    """Reduced rational function pair (num, den) in x with
    (tau_mu / tau_lambda)^2 = num/den on the branch."""

    num: MultiPoly
    den: MultiPoly

    def eval_at(self, x):
        num, den = self.num.eval({TR_MU: x}), self.den.eval({TR_MU: x})
        if isinstance(num, int) and isinstance(den, int):
            return Fraction(num, den)    # integer coefficients at an integer x
        return num / den


def change_curve_sq(branch: MultiPoly) -> ChangeFactor:
    """((y(x)^2 - 4) / (x^2 - 4)) * (1 / y'(x))^2 as a reduced pair, for the
    branch y(x) in the one variable x."""
    if branch.degree_in(TR_MU) < 1:
        raise CharVarError("branch is constant")
    x = MultiPoly.var((TR_MU,), TR_MU)
    num = branch * branch - 4
    den = (x * x - 4) * branch.derivative(TR_MU) ** 2
    _, num, den = gcd_cofactors(num, den)
    # fix the representative: integer-primitive den with positive lead
    dnorm = normalize_sign(den)
    return ChangeFactor(num * Fraction(dnorm.leading_coefficient(),
                                       den.leading_coefficient()), dnorm)
