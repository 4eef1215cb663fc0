"""Exact algebraic numbers and number fields, each built one way: a root
pass, a factorization, an isolation.

A root pass takes a squarefree polynomial, decided by one exact gcd with
its derivative, and seeds mp.polyroots with a Durand-Kerner run in machine
floats, so mpmath polishes the roots at the unchanged working precision
instead of searching for them; where no seed forms, the pass starts cold.
`factor_rational` recombines the roots of a pass into the irreducible
factors over Q.  Each factor is proven by exact division; that none is
missed rests on the accuracy of the pass, which inclusion disks around its
roots would certify.  A NumberField is Q[x]/(f) for a monic irreducible f
with one root, certified isolated, as the embedding; `algebraic_root`
makes a root of a pass exact: a root of the factor that owns it, isolated
among that factor's roots.  Each carries the roots it certified and their
digits, so a later step at those digits makes no new pass.

A field product is the `polys` product of the two power-basis polynomials,
reduced by `pseudo_rem` modulo f.  The minimal polynomial of A(x) is the
squarefree part of Res_x(f(x), tau - A(x)).  Field membership is decided by a
high-precision linear solve over all embeddings: the inverse Vandermonde matrix
is the Lagrange basis of the embeddings, and each pairing is an mplinalg
product with it.  Rationals are never guessed: each is read exactly off its mpf
and rounded at a denominator the algebra proves (Gauss's lemma, and disc(a*x)
O_K in Z[a*x] for the integral generator a*x), and each candidate is confirmed
exactly; a failed search is reported, never guessed around.
"""

from __future__ import annotations

import cmath
import dataclasses
import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Tuple

import mpmath as mp

from . import mplinalg as la
from .polys import (
    MultiPoly, dense_coeffs, divides, exact_div, from_dense, gcd_poly,
    normalize_sign, pseudo_rem, resultant, squarefree_primitive, to_text,
)

DEFAULT_DIGITS = 64
MAX_DIGITS = 512
MAX_PAIRINGS = 1024    # embedding pairings express_in_field searches, about 3 s
MAX_SUBSETS = 8192     # root subsets factor_rational searches, about 0.2 s


class NumFieldError(ValueError):
    pass


def _to_mpf(c: Fraction):
    return mp.mpf(c.numerator) / mp.mpf(c.denominator)


def root_dps(digits: int) -> int:
    """The working digits roots_numeric starts at for roots good to digits."""
    return max(digits + 20, 30)


_SEED_SWEEPS = 100          # float Durand-Kerner sweeps before giving up
_SEED_SETTLED = 2.0 ** -40  # relative correction at which a seed is settled
_SEED_APART = 2.0 ** -20    # relative distance below which seeds coincide


def _float_seed(coeffs):
    """Durand-Kerner roots of coeffs (highest degree first) in machine
    complex arithmetic, from mpmath's own starting points and in its sweep
    order; None when no seed can be formed."""
    cs = [complex(c) for c in coeffs]
    if cs[0] == 0:
        return None
    cs = [c / cs[0] for c in cs]
    if not all(cmath.isfinite(c) for c in cs):
        return None
    deg = len(cs) - 1
    roots = [(0.4 + 0.9j) ** n for n in range(deg)]
    for _ in range(_SEED_SWEEPS):
        worst = 0.0
        for i, p in enumerate(roots):
            x = 0j
            for c in cs:
                x = x * p + c
            for j, q in enumerate(roots):
                if j != i and p != q:
                    x /= p - q
            roots[i] = p - x
            worst = max(worst, abs(x) / max(1.0, abs(p)))
        if not all(cmath.isfinite(r) for r in roots):
            return None
        if worst <= _SEED_SETTLED:
            break
    else:
        return None
    for i, j in itertools.combinations(range(deg), 2):
        if abs(roots[i] - roots[j]) <= \
                _SEED_APART * max(1.0, abs(roots[i]), abs(roots[j])):
            return None
    return roots


def _polyroots(coeffs, maxsteps: int, extraprec: int):
    """mp.polyroots(coeffs, maxsteps, extraprec) polished from a machine-float
    Durand-Kerner seed, or started cold where no seed can be formed.  Both
    stop at the same fixed point, corrections below the working epsilon,
    so both round to the same roots."""
    return mp.polyroots(coeffs, maxsteps=maxsteps, extraprec=extraprec,
                        roots_init=_float_seed(coeffs))


def roots_at(p: MultiPoly, var: str, point: dict):
    """The complex roots in var of p with its other variables at the numeric
    point: each coefficient in var evaluated there as an mpmath number, then
    `_polyroots` at 200 steps and 80 extra bits.  Its one caller is the
    diagnostic scalar of `pipelines.torsion_at`."""
    by_deg = p.coeffs_wrt(var)
    return _polyroots([mp.mpmathify(by_deg[d].eval(point)) if d in by_deg else mp.mpc(0)
                       for d in range(max(by_deg), -1, -1)], 200, 80)


def roots_numeric(p: MultiPoly, digits: int = DEFAULT_DIGITS):
    """All complex roots of the squarefree univariate p, each with residual
    |p(root)| <= 10^-digits * max|coeff|.  Sorted by (Re, Im).  The
    requested digits are tried at least once, however many they are."""
    if p.is_zero():
        raise NumFieldError("zero polynomial has no well-defined roots")
    if p.is_constant():
        return []
    var = p.vars[0]
    if gcd_poly(p, p.derivative(var)).degree_in(var) > 0:
        raise NumFieldError("polynomial is not squarefree")
    target = mp.mpf(10) ** (-digits) * max(abs(_to_mpf(c)) for c in p.terms.values())
    prim = normalize_sign(p)
    dps = root_dps(digits)
    while dps <= max(8 * MAX_DIGITS, root_dps(digits)):
        with mp.workdps(dps):
            coeffs = [_to_mpf(c) for c in reversed(dense_coeffs(prim))]
            try:
                roots = _polyroots(coeffs, 300, 3 * dps)
            except mp.libmp.NoConvergence:
                dps *= 2
                continue
            roots = sorted(roots, key=lambda z: (mp.re(z), mp.im(z)))
            if all(abs(p.eval({var: r})) <= target for r in roots):
                return [mp.mpc(r) for r in roots]
        dps *= 2
    raise NumFieldError(f"root refinement failed at {digits} digits")


def _exact(x) -> Fraction:
    """The exact value of the mpf x, whatever the ambient precision."""
    return Fraction(*mp.libmp.to_rational(x._mpf_))


def _integer(c, tol):
    """The integer nearest the real mpf c, or None farther than tol, relative."""
    n = round(_exact(c))
    return n if abs(c - n) <= tol * max(1, abs(c)) else None


def factor_rational(p: MultiPoly, roots, digits: int):
    """(factor, owned roots, in pass order) for each irreducible primitive
    factor of the squarefree univariate p, for `roots` all its complex roots
    as one root pass found them good to `digits`.  By Gauss's lemma the
    factor owning the roots S is the primitive part of lead(p) prod_S (x - r),
    whose coefficients are integers, and S is a union of conjugation classes.
    Such S of at most half the roots left are tried smallest first, constant
    term first, each coefficient read exactly off its mpf; one dividing p
    exactly is a factor, irreducible as no smaller S gave one (Zassenhaus).
    Over MAX_SUBSETS unions of classes are refused before the search."""
    rest = normalize_sign(p)
    lead, tol = rest.leading_coefficient(), mp.mpf(10) ** (-digits // 2)
    with mp.workdps(root_dps(digits)):
        # conjugation classes: a real root alone, any other with its conjugate
        classes = sorted({tuple(sorted({i, min(range(len(roots)), key=lambda j: abs(
            roots[j] - c))})) for i, c in enumerate(map(mp.conj, roots))})
        if 2 ** len(classes) > MAX_SUBSETS:
            raise NumFieldError(f"2^{len(classes)} = {2 ** len(classes)} root subsets "
                                f"exceed the factorization bound {MAX_SUBSETS}")
        const = {c: mp.re(mp.fprod(-roots[i] for i in c)) for c in classes}
        subsets = [(sorted(sum(s, ())), s) for k in range(1, len(roots) // 2 + 1)
                   for s in itertools.combinations(classes, k)]
        factors, taken = [], set()
        for owned, s in sorted(subsets, key=lambda o_s: (len(o_s[0]), o_s[0])):
            if 2 * len(owned) > len(roots) - len(taken):
                break
            if taken.intersection(owned) or \
                    _integer(lead * mp.fprod(const[c] for c in s), tol) is None:
                continue
            coeffs = [mp.mpc(lead)]
            for i in owned:
                coeffs = [a - roots[i] * b for a, b in zip(coeffs + [0], [0] + coeffs)]
            ints = [_integer(mp.re(c), tol) for c in reversed(coeffs)]
            g = None if None in ints else normalize_sign(from_dense(p.vars[0], ints))
            if g is None or not divides(g, rest):
                continue
            factors.append((g, tuple(roots[i] for i in owned)))
            rest, taken = exact_div(rest, g), taken.union(owned)
    return factors + [(rest, tuple(r for i, r in enumerate(roots) if i not in taken))]


def algebraic_root(sf: MultiPoly, roots, root, digits: int) -> "AlgebraicNumber":
    """`root`, one of `roots`, all complex roots of the squarefree primitive
    univariate sf as one root pass found them good to `digits`, as an
    AlgebraicNumber: a root of the factor of sf that owns it, carrying that
    factor's roots, or the exact rational, at the pass's working digits."""
    factor, owned = next((g, rs) for g, rs in factor_rational(sf, roots, digits)
                         if any(r is root for r in rs))
    if factor.degree_in(factor.vars[0]) == 1:
        c0, c1 = dense_coeffs(factor)
        with mp.workdps(root_dps(digits)):
            owned = (mp.mpc(_to_mpf(Fraction(-c0, c1))),)
    isolated = _isolate(factor, owned, root, digits)
    if isolated is None:
        raise NumFieldError("approximation does not isolate a root")
    return AlgebraicNumber(factor, *isolated, owned, digits)


def _isolate(f: MultiPoly, roots, near, digits: int):
    """(root, radius): the root of f nearest to `near` and half its distance
    to the other roots, which roots_numeric found good to `digits`.  None
    when the certificate |f(root)| < radius * |f'(root)| / 2 fails at the
    digits the roots were found at; a lone root needs none."""
    root = min(roots, key=lambda r: abs(r - near))
    others = [r for r in roots if r is not root]
    radius = min((abs(root - r) for r in others), default=mp.mpf(1)) / 2
    at = {f.vars[0]: root}
    with mp.workdps(root_dps(digits)):
        if others and not abs(f.eval(at)) < \
                radius * abs(f.derivative(f.vars[0]).eval(at)) / 2:
            return None
    return root, radius


@dataclass(frozen=True)
class NumberField:
    """Q[x]/(defining_poly) with a chosen complex embedding of x.

    Carries the roots of defining_poly it certified, as roots_numeric found
    them at `digits`."""

    defining_poly: MultiPoly     # monic, in one variable
    embedding: object            # mp.mpc
    roots: tuple = dataclasses.field(compare=False, repr=False)
    digits: int = dataclasses.field(compare=False, repr=False)

    @classmethod
    def create(cls, poly: MultiPoly, embedding_hint=None, digits: int = DEFAULT_DIGITS):
        poly = normalize_sign(poly)
        var = poly.vars[0]
        if poly.degree_in(var) < 2:
            raise NumFieldError("defining polynomial must have degree >= 2")
        monic = poly * Fraction(1, poly.leading_coefficient())
        roots = roots_numeric(monic, digits)
        (g, _), *others = factor_rational(monic, roots, digits)
        if others:
            reason = "has a rational root" if g.degree_in(var) == 1 else \
                f"{to_text(poly)} is reducible: {to_text(g)} divides it"
            raise NumFieldError(f"defining polynomial {reason}")
        near = roots[0] if embedding_hint is None else mp.mpc(embedding_hint)
        isolated = _isolate(monic, roots, near, digits)
        if isolated is None:
            raise NumFieldError("root isolation certificate failed")
        return cls(monic, isolated[0], tuple(roots), digits)

    @property
    def degree(self) -> int:
        return len(dense_coeffs(self.defining_poly)) - 1

    def all_embeddings(self, digits: int = DEFAULT_DIGITS):
        """Roots of the defining polynomial, declared embedding first; the
        carried roots at the digits the field was created at."""
        roots = list(self.roots) if digits == self.digits \
            else roots_numeric(self.defining_poly, digits)
        roots.sort(key=lambda r: abs(r - self.embedding))
        return roots

    def element(self, coords) -> "FieldElement":
        return FieldElement(self, tuple(Fraction(c) for c in coords))

    def generator(self) -> "FieldElement":
        coords = [Fraction(0)] * self.degree
        coords[1] = Fraction(1)
        return self.element(coords)

    def from_rational(self, q) -> "FieldElement":
        coords = [Fraction(0)] * self.degree
        coords[0] = Fraction(q)
        return self.element(coords)


class FieldElement:
    """Element of a NumberField in the power basis 1, x, ..., x^(d-1)."""

    __slots__ = ("field", "coords")

    def __init__(self, field: NumberField, coords: Tuple[Fraction, ...]):
        if len(coords) != field.degree:
            raise NumFieldError("coordinate vector length != field degree")
        self.field = field
        self.coords = tuple(Fraction(c) for c in coords)

    def __eq__(self, other):
        return (isinstance(other, FieldElement)
                and self.field == other.field and self.coords == other.coords)

    def __hash__(self):
        return hash((self.field.defining_poly, self.coords))

    def __repr__(self):
        return f"FieldElement{self.coords}"

    def __add__(self, other):
        other = self._coerce(other)
        return FieldElement(self.field,
                            tuple(a + b for a, b in zip(self.coords, other.coords)))

    __radd__ = __add__

    def __neg__(self):
        return FieldElement(self.field, tuple(-a for a in self.coords))

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return FieldElement(self.field, tuple(a * other for a in self.coords))
        other = self._coerce(other)
        f = self.field.defining_poly
        x = f.vars[0]
        # the pseudo-remainder by the monic f is the plain remainder
        prod = dense_coeffs(pseudo_rem(from_dense(x, self.coords)
                                       * from_dense(x, other.coords), f, x))
        return FieldElement(self.field, prod + [0] * (self.field.degree - len(prod)))

    __rmul__ = __mul__

    def _coerce(self, other):
        if isinstance(other, FieldElement):
            if other.field != self.field:
                raise NumFieldError("elements of different fields")
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.from_rational(other)
        raise NumFieldError(f"cannot coerce {other!r}")

    def embed(self, digits: int = DEFAULT_DIGITS, embedding=None):
        with mp.workdps(digits + 10):
            x = self.field.embedding if embedding is None else embedding
            acc = mp.mpc(0)
            for c in reversed(self.coords):
                acc = acc * x + _to_mpf(c)
            return acc


def minimal_polynomial(e: FieldElement, var: str = "tau") -> MultiPoly:
    """Primitive integer minimal polynomial of a field element, positive lead.

    For e = A(x) the characteristic polynomial is Res_x(f(x), var - A(x))
    (Cohen, GTM 138); f is squarefree, so Q[x]/(f) is a product of
    fields and its squarefree part is the minimal polynomial."""
    if not any(e.coords[1:]):
        return normalize_sign(from_dense(var, [-e.coords[0], 1]))
    x = "_" + var          # distinct from var, which may be the field variable
    f = from_dense(x, dense_coeffs(e.field.defining_poly)).with_vars((x, var))
    a = from_dense(x, e.coords).with_vars((x, var))
    charpoly = resultant(f, MultiPoly.var((x, var), var) - a, x)
    return squarefree_primitive(charpoly, var)


@dataclass(frozen=True)
class AlgebraicNumber:
    """A root of a squarefree rational polynomial plus an isolating
    approximation.

    Carries all complex roots of minpoly good to `digits`: those it owns in
    a root pass of a multiple of it, or its exact root where it is linear."""

    minpoly: MultiPoly    # primitive, in one variable
    approx: object        # mp.mpc
    err: object           # mp.mpf
    roots: tuple = dataclasses.field(compare=False, repr=False)
    digits: int = dataclasses.field(compare=False, repr=False)

    @property
    def degree(self):
        return len(dense_coeffs(self.minpoly)) - 1


@dataclass(frozen=True)
class NotInField:
    """Verified or precision-final negative membership outcome."""
    reason: str
    precision: int


@dataclass(frozen=True)
class Undecided:
    """Numeric stages could not reach the required residuals."""
    reason: str
    precision: int


def _vandermonde_inverse(nodes):
    """V^-1 for the Vandermonde matrix of distinct nodes, in closed form, so
    no rank tolerance enters: column i holds the coefficients, lowest first,
    of prod_{j != i} (x - r_j) / (r_i - r_j).  None when two nodes coincide."""
    cols = []
    for i, ri in enumerate(nodes):
        num, den = [mp.mpf(1)], mp.mpf(1)
        for rj in nodes[:i] + nodes[i + 1:]:
            num = [a - rj * b for a, b in zip([0] + num, num + [0])]
            den *= ri - rj
        if not den:
            return None
        cols.append([c / den for c in num])
    return la.Matrix(map(list, zip(*cols)))


def express_in_field(target: AlgebraicNumber, field: NumberField,
                     digits: int = DEFAULT_DIGITS):
    """Write target as an element of the field, trying every pairing of field
    embeddings with roots of the target minimal polynomial g; a candidate c
    is accepted only when g(c) = 0 holds exactly in K.

    Returns a (FieldElement, note) pair, NotInField, or Undecided, the last
    also when the d_g^d_f pairings exceed `MAX_PAIRINGS`.
    """
    g = normalize_sign(target.minpoly)
    d_f, d_g = field.degree, target.degree
    if d_g == 1:
        c0, c1 = dense_coeffs(g)
        return field.from_rational(Fraction(-c0, c1)), "rational value"
    if d_f % d_g != 0:
        return NotInField(f"degree {d_g} does not divide field degree {d_f}", digits)
    if d_g ** d_f > MAX_PAIRINGS:
        return Undecided(f"{d_g}^{d_f} = {d_g ** d_f} embedding pairings exceed "
                         f"the search bound {MAX_PAIRINGS}", digits)

    # lead(g)*tau and a*x are algebraic integers, a the lead of the primitive
    # integer form of f, and disc(a*x) = a^(d(d-1)) disc(f) multiplies O_K
    # into Z[a*x] (Cohen, GTM 138, Section 4.4): each coordinate of a root of
    # g in K has a denominator dividing lead(g) * |disc(a*x)|
    f, x = field.defining_poly, field.defining_poly.vars[0]
    den = int(g.leading_coefficient()
              * normalize_sign(f).leading_coefficient() ** (d_f * (d_f - 1))
              * abs(resultant(f, f.derivative(x), x).constant_value()))
    prec = digits
    while prec <= max(MAX_DIGITS, digits):
        with mp.workdps(prec + 30):
            try:
                f_roots = field.all_embeddings(prec)
                g_roots = target.roots if prec == target.digits \
                    else roots_numeric(g, prec)
            except NumFieldError:
                return Undecided("root refinement failed", prec)
            inverse = _vandermonde_inverse(f_roots)
            if inverse is None:
                return Undecided("degenerate embedding matrix", prec)
            for assign in itertools.product(range(len(g_roots)), repeat=d_f):
                if len(set(assign)) != len(g_roots):
                    continue
                sol = la.matmul(inverse, [[g_roots[a]] for a in assign])
                coords = []
                for (v,) in sol:
                    if abs(mp.im(v)) > mp.mpf(10) ** (-prec // 3):
                        coords = None
                        break
                    coords.append(Fraction(round(den * _exact(mp.re(v))), den))
                if coords is None:
                    continue
                cand = field.element(coords)
                if not any(g.eval({g.vars[0]: cand}).coords):
                    note = _match_note(cand, target, prec, f_roots)
                    if note is not None:
                        return cand, note
        prec *= 2
    return NotInField("no rational coordinates verified", prec // 2)


def _match_note(cand: FieldElement, target: AlgebraicNumber, prec: int, f_roots):
    """Note the root in f_roots (declared first) where cand matches target."""
    tol = max(mp.mpf(target.err), mp.mpf(10) ** (-prec // 3))
    val = cand.embed(prec)
    if abs(val - target.approx) <= tol:
        return "matched at the declared field embedding"
    if abs(mp.conj(val) - target.approx) <= tol:
        return "matched at the conjugate of the declared field embedding"
    for emb in f_roots[1:]:
        if abs(cand.embed(prec, embedding=emb) - target.approx) <= tol:
            return f"matched at the non-declared embedding x ~ {mp.nstr(emb, 8)}"
    return None
