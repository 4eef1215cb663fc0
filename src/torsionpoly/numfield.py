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
squarefree part of Res_x(f(x), tau - A(x)).  Field membership is decided by
Trager's norm, factored once by `factor_rational` on sums of the roots the
target and the field carry: a "no" is the degree over K of the target that
a factor's degree proves, and a "yes" is read exactly off a gcd over K.
Nothing is searched for and no coordinate is rounded.
"""

from __future__ import annotations

import cmath
import dataclasses
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Tuple

import mpmath as mp

from .polys import (
    MultiPoly, dense_coeffs, divides, exact_div, from_dense, gcd_poly,
    normalize_sign, pseudo_rem, resultant, squarefree_primitive, to_text,
)

DEFAULT_DIGITS = 64
MAX_DIGITS = 512
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


def _conjugation_classes(roots):
    """Each root with the root nearest its conjugate, the lowest index on a
    tie (a real root alone), as sorted index tuples.  Where the machine-float
    distances leave more than one root in doubt (a cluster, an overflow),
    the distances at the ambient precision decide among those."""
    zs = [complex(r) for r in roots]
    # over the rounding of the float distances, underflow included
    slack = 2.0 ** -40 * max(map(abs, zs), default=0.0) + 2.0 ** -1000
    classes = set()
    for i, z in enumerate(zs):
        d = [abs(w - z.conjugate()) for w in zs]
        cut = min(d) + slack
        near = [j for j, dj in enumerate(d) if not dj > cut]
        if len(near) > 1:
            c = mp.conj(roots[i])
            near = [min(near, key=lambda j: abs(roots[j] - c))]
        classes.add(tuple(sorted({i, near[0]})))
    return sorted(classes)


def factor_rational(p: MultiPoly, roots, digits: int):
    """(factor, owned roots, in pass order) for each irreducible primitive
    factor of the squarefree univariate p, for `roots` all its complex roots
    good to `digits`, as a root pass or sums of roots of passes found them.
    By Gauss's lemma the factor owning the roots S is the primitive part of
    lead(p) prod_S (x - r), with integer coefficients, and S is a union of
    conjugation classes.  Such S of at most half the roots left are tried
    smallest first, constant term first, each coefficient read exactly off
    its mpf; one dividing p exactly is a factor, irreducible as no smaller S
    gave one (Zassenhaus).  Over MAX_SUBSETS unions of classes are refused."""
    rest = normalize_sign(p)
    lead, tol = rest.leading_coefficient(), mp.mpf(10) ** (-digits // 2)
    with mp.workdps(root_dps(digits)):
        classes = _conjugation_classes(roots)
        if 2 ** len(classes) > MAX_SUBSETS:
            raise NumFieldError(f"2^{len(classes)} = {2 ** len(classes)} root subsets "
                                f"exceed the factorization bound {MAX_SUBSETS}")
        # a class of over half the roots is in no subset that is tried
        small = [c for c in classes if 2 * len(c) <= len(roots)]
        const = {c: mp.re(mp.fprod(-roots[i] for i in c)) for c in small}
        subsets = [(sorted(sum(s, ())), s) for k in range(1, len(roots) // 2 + 1)
                   for s in itertools.combinations(small, k)]
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
        carried roots at up to the digits the field was created at."""
        roots = list(self.roots) if digits <= self.digits \
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
    """Proven negative membership outcome: degree divisibility or the norm."""
    reason: str
    precision: int


def express_in_field(target: AlgebraicNumber, field: NumberField,
                     digits: int = DEFAULT_DIGITS):
    """Write target as an element of the field, or prove that it is none, by
    Trager's norm (Trager, SYMSAC 1976; Cohen, GTM 138, Section 3.6.2): the
    factors of N_s(x) = Res_y(f(y), g(x - s*y)), for the least s >= 1 that
    makes it squarefree, are the norms of g's factors over K = Q[y]/(f), of
    n times their degree.  With none of degree n, the one owning
    tau + s*alpha at the declared embedding gives [K(tau):K]; otherwise the
    one whose root there is built from the lowest-index root of g gives the
    element.  Returns a (FieldElement, note) pair or NotInField."""
    g = normalize_sign(target.minpoly)
    n, d_g = field.degree, target.degree
    if d_g == 1:
        c0, c1 = dense_coeffs(g)
        return field.from_rational(Fraction(-c0, c1)), "rational value"
    if n % d_g != 0:
        return NotInField(f"degree {d_g} does not divide field degree {n}", digits)

    f = field.defining_poly
    y = f.vars[0]
    x = "_" + y                 # the norm's variable
    X, Y, fxy = MultiPoly.var((x, y), x), MultiPoly.var((x, y), y), f.with_vars((x, y))
    gx = from_dense(x, dense_coeffs(g))
    for s in itertools.count(1):
        norm = normalize_sign(resultant(fxy, gx.substitute(x, X - s * Y), y))
        if gcd_poly(norm, norm.derivative(x)).is_constant():
            break
    # Mignotte: a coefficient of lead(N) prod_S (x - theta), S a factor's roots,
    # is at most 2^deg ||N||_2; theta = tau + s*alpha off by 10^-work (1 + s)
    # radius, over Cauchy's bound, moves it by bound 10^-work <= 10^(-work/2)
    deg = norm.degree_in(x)
    radius = 2 + int(max(abs(Fraction(c) / q[-1]) for q in map(dense_coeffs, (f, g))
                         for c in q))
    bound = 2 * deg * 2 ** deg * (1 + s) * radius \
        * (math.isqrt(sum(c * c for c in norm.terms.values())) + 1)
    work = max(digits, 2 * len(str(bound)))
    with mp.workdps(root_dps(work)):
        alphas = field.all_embeddings(work)
        taus = target.roots if target.digits >= work else roots_numeric(g, work)
        grid = [[t + s * a for a in alphas] for t in taus]
    owner = {id(r): h for h, owned in factor_rational(
        norm, [theta for row in grid for theta in row], work) for r in owned}
    declared = [owner[id(row[0])] for row in grid]
    h = next((h for h in declared if h.degree_in(x) == n), None)
    if h is None:
        t = min(range(len(taus)), key=lambda j: abs(taus[j] - target.approx))
        d = declared[t].degree_in(x)
        return NotInField(f"[K(tau):K] = {d // n} by a norm factor of degree {d}", work)
    # gcd_K(h(x + s*y), g(x)) = x - tau: the last nonzero pseudo-remainder
    # c1*x + c0, each reduced modulo f and made primitive, gives
    # tau = -c0/c1 = c0 q(c1) / m(0) for c1's minimal polynomial t q(t) + m(0)
    a, b = h.substitute(x, X + s * Y), gx.with_vars((x, y))
    while not b.is_zero():
        a, b = b, normalize_sign(pseudo_rem(pseudo_rem(a, b, x), fxy, y))
    if a.degree_in(x) != 1:
        raise NumFieldError(f"a norm factor leaves a gcd of degree {a.degree_in(x)} "
                            "with the target's minimal polynomial")
    c0, c1 = (dense_coeffs(a.coeffs_wrt(x).get(k, MultiPoly.zero((y,)))) for k in (0, 1))
    c0, c1 = (field.element(c + [0] * (n - len(c))) for c in (c0, c1))
    m = dense_coeffs(minimal_polynomial(c1))
    elem = c0 * from_dense("t", m[1:]).eval({"t": c1}) * Fraction(1, m[0])
    return elem, _match_note(elem, target, work, alphas)


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
    raise NumFieldError("the field element matches the target at no embedding")
