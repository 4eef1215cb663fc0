"""Exact sparse polynomials over Q, one type for every number of variables.

A `MultiPoly` coefficient is canonical: an `int` when it is integral, else a
reduced `fractions.Fraction`, never a float.  The public constructor (used by
`from_text` and the records) validates coefficients and exponent vectors and
canonicalizes them.  Results built inside this module go through the trusted
`MultiPoly._make`, which only drops zero terms and turns an integral
`Fraction` into its `int`, so the ring operations, remainder sequences and
exact division of integer polynomials run on plain ints.  A univariate
polynomial is a one-variable `MultiPoly`; `from_dense` and `dense_coeffs`
convert it from and to its list of exact coefficients, constant term first.

Term order is graded lexicographic (total degree first, ties broken by the
declared variable order), which fixes a canonical serialization used for
golden-file comparisons.  Each term is stored under one packed int key: over
the variables v0 ... v(n-1), the monomial with exponents e0 ... e(n-1) and
total degree T is

    T * 2^(32n) + e0 * 2^(32(n-1)) + ... + e(n-1),

one 32-bit field per exponent below the total degree.  Comparing two keys
compares T first, then e0, e1, ... in turn, so int order is grlex order: the
largest key is the leading monomial and keys sorted in reverse give the
canonical text order.  A monomial product is the sum of the keys.  Every
total degree, hence every exponent, stays below `DEGREE_LIMIT` = 2^31, so
the top bit of each exponent field is a guard: the difference of two keys
is the quotient monomial exactly when it is >= 0 and sets no guard bit, as
an exponent that would go negative borrows from the field above and leaves
its own guard set.  The constructor and products refuse a degree at the
limit with `PolyError`.  Keys stay inside this module: `as_dict` reads the
terms as exponent tuples, and the constructor accepts them.

Resultants are computed by the subresultant polynomial remainder sequence on
integer polynomials, each remainder divided exactly by its known factor; the
Sylvester matrix and its integer Bareiss determinant remain as the reference
for tests; `pseudo_rem` is public, and reduces number-field products.
`gcd_cofactors` returns a gcd with both cofactors, from the heuristic GCD on
integer images: one variable at a time is evaluated at an integer xi, the
gcd of the images is rebuilt from its symmetric xi-adic digits, and a
candidate counts only when it divides both inputs exactly.  After
`_HEU_TRIES` points, or when an image would pass `_HEU_BITS` bits, the
primitive polynomial remainder sequence answers instead; it stays as the
reference for tests.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Dict, Iterable, Tuple

Monomial = Tuple[int, ...]

_FIELD = 32                         # bits per exponent field of a key
_MASK = (1 << _FIELD) - 1
DEGREE_LIMIT = 1 << (_FIELD - 1)    # every total degree stays below this


class PolyError(ValueError):
    pass


def _pack(mono: Monomial) -> int:
    """The key of a valid exponent tuple."""
    key = sum(mono)
    for e in mono:
        key = key << _FIELD | e
    return key


def _unpack(key: int, n: int) -> Monomial:
    """The exponent tuple of a key over n variables."""
    return tuple(key >> _FIELD * (n - 1 - i) & _MASK for i in range(n))


def _unit(n: int, i: int) -> int:
    """The key of variable i of n: its exponent field's 1 plus the degree's."""
    return (1 << _FIELD * (n - 1 - i)) + (1 << _FIELD * n)


def _guards(n: int) -> int:
    """The guard bits of the n exponent fields of a key."""
    return DEGREE_LIMIT * (((1 << _FIELD * n) - 1) // _MASK)


def _exact(c):
    """The canonical coefficient equal to c: an int when c is integral."""
    if isinstance(c, str):
        c = Fraction(c)
    if isinstance(c, Fraction):
        return c.numerator if c.denominator == 1 else c
    if isinstance(c, int):
        return int(c)
    raise PolyError(f"coefficient {c!r} is not exact")


def _quo(a, b):
    """Exact quotient a / b of two coefficients, canonical."""
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        if not r:
            return q
    q = Fraction(a, b)
    return q.numerator if q.denominator == 1 else q


class MultiPoly:
    """Sparse multivariate polynomial over Q with a fixed variable order;
    `terms` maps packed monomial keys to coefficients."""

    __slots__ = ("vars", "terms")

    def __init__(self, variables: Iterable[str], terms: Dict[Monomial, object] = None):
        self.vars: Tuple[str, ...] = tuple(variables)
        if len(set(self.vars)) != len(self.vars):
            raise PolyError("duplicate variable names")
        clean = {}
        for mono, c in (terms or {}).items():
            c = _exact(c)
            if len(mono) != len(self.vars):
                raise PolyError("exponent vector length mismatch")
            if any(e < 0 for e in mono):
                raise PolyError("negative exponent in monomial")
            if sum(mono) >= DEGREE_LIMIT:
                raise PolyError(f"total degree reaches the limit {DEGREE_LIMIT}")
            if c != 0:
                clean[_pack(mono)] = c
        self.terms = clean

    @classmethod
    def _make(cls, variables: Tuple[str, ...], terms: dict) -> "MultiPoly":
        """Trusted constructor for results built in this module: distinct
        variables, exact coefficients keyed by valid packed keys.  Only
        drops zero terms and canonicalizes an integral Fraction."""
        p = object.__new__(cls)
        p.vars = variables
        p.terms = {m: c if type(c) is int or c.denominator != 1 else c.numerator
                   for m, c in terms.items() if c}
        return p

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, variables):
        return cls(variables, {})

    @classmethod
    def constant(cls, variables, c):
        p, c = cls(variables), _exact(c)
        if c:
            p.terms[0] = c  # the key of the constant monomial
        return p

    @classmethod
    def var(cls, variables, name):
        variables = tuple(variables)
        if name not in variables:
            raise PolyError(f"unknown variable {name!r}")
        mono = tuple(1 if v == name else 0 for v in variables)
        return cls(variables, {mono: 1})

    # -- basic queries -------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return not any(self.terms)

    def constant_value(self):
        if not self.is_constant():
            raise PolyError("not a constant polynomial")
        return next(iter(self.terms.values()), 0)

    def degree_in(self, name: str) -> int:
        shift = _FIELD * (len(self.vars) - 1 - self._index(name))
        return max((m >> shift & _MASK for m in self.terms), default=0)

    def as_dict(self) -> Dict[Monomial, object]:
        """The terms keyed by exponent tuples, as the constructor takes them."""
        n = len(self.vars)
        return {_unpack(m, n): c for m, c in self.terms.items()}

    def sorted_terms(self):
        """(exponent tuple, coefficient) pairs, leading term first."""
        n = len(self.vars)
        return [(_unpack(m, n), c) for m, c in sorted(self.terms.items(), reverse=True)]

    def leading_coefficient(self):
        if self.is_zero():
            return 0
        return self.terms[max(self.terms)]

    def _index(self, name: str) -> int:
        try:
            return self.vars.index(name)
        except ValueError:
            raise PolyError(f"variable {name!r} not in {self.vars}")

    def __eq__(self, other):
        if not isinstance(other, MultiPoly):
            return NotImplemented
        a, b = align(self, other)
        return a.terms == b.terms

    def __hash__(self):
        return hash((self.vars, frozenset(self.terms.items())))

    def __repr__(self):
        return f"MultiPoly({to_text(self)!r}, vars={self.vars})"

    # -- ring operations -------------------------------------------------

    def __neg__(self):
        return MultiPoly._make(self.vars, {m: -c for m, c in self.terms.items()})

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.constant(self.vars, other)
        a, b = align(self, other)
        terms = dict(a.terms)
        for m, c in b.terms.items():
            terms[m] = terms.get(m, 0) + c
        return MultiPoly._make(a.vars, terms)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = _exact(other)
            return MultiPoly._make(self.vars, {m: c * v for m, v in self.terms.items()})
        if self.vars == other.vars:  # a product by the constant 1 is the other factor
            if other.terms == {0: 1}:
                return self
            if self.terms == {0: 1}:
                return other
        a, b = align(self, other)
        return MultiPoly._make(a.vars, _add_product({}, a.terms, b.terms, len(a.vars)))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int):
            raise PolyError("exponent must be an integer")
        if n < 0:
            raise PolyError("negative exponent unsupported")
        result = MultiPoly.constant(self.vars, 1)
        for _ in range(n):
            result = result * self
        return result

    # -- calculus and evaluation ------------------------------------------

    def derivative(self, name: str) -> "MultiPoly":
        n, i = len(self.vars), self._index(name)
        shift, unit = _FIELD * (n - 1 - i), _unit(n, i)
        return MultiPoly._make(self.vars, {m - unit: c * e for m, c in self.terms.items()
                                           if (e := m >> shift & _MASK)})

    def eval(self, assignment: dict):
        """Evaluate with values from any commutative ring (Fraction, mpc,
        complex, FieldElement).  Horner in each variable in turn.  Integer
        coefficients at integer values give an int."""
        occurring = self.drop_vars().vars
        missing = [v for v in occurring if v not in assignment]
        if missing:
            raise PolyError(f"unassigned variable {missing[0]!r}")
        filled = dict(assignment)
        for v in self.vars:
            filled.setdefault(v, 0)
        return _horner_eval(self, list(self.vars), filled)

    def substitute(self, name: str, q: "MultiPoly") -> "MultiPoly":
        """Exact composition p[name := q]."""
        n, i = len(self.vars), self._index(name)
        shift, unit = _FIELD * (n - 1 - i), _unit(n, i)
        merged_vars = list(self.vars)
        for v in q.vars:
            if v not in merged_vars:
                merged_vars.append(v)
        # Horner on powers of the substituted variable.
        by_deg: Dict[int, dict] = {}
        for m, c in self.terms.items():
            e = m >> shift & _MASK
            by_deg.setdefault(e, {})[m - e * unit] = c
        if not by_deg:
            return MultiPoly.zero(merged_vars)
        qm = q.with_vars(merged_vars)
        result = MultiPoly.zero(merged_vars)
        for d in range(max(by_deg), -1, -1):
            result = result * qm
            if d in by_deg:
                result = result + MultiPoly._make(self.vars, by_deg[d]).with_vars(merged_vars)
        return result

    def with_vars(self, new_vars) -> "MultiPoly":
        """Reindex onto a variable list that contains all current variables."""
        new_vars = tuple(new_vars)
        if new_vars == self.vars:
            return self
        if len(set(new_vars)) != len(new_vars):
            raise PolyError("duplicate variable names")
        pos = []
        for v in self.vars:
            if v not in new_vars:
                raise PolyError(f"variable {v!r} dropped in with_vars")
            pos.append(new_vars.index(v))
        return self._reindex(new_vars, pos)

    def drop_vars(self) -> "MultiPoly":
        """Remove variables that no term uses."""
        n = len(self.vars)
        used = [i for i in range(n)
                if any(m >> _FIELD * (n - 1 - i) & _MASK for m in self.terms)]
        if len(used) == n:
            return self
        pos = [used.index(i) if i in used else None for i in range(n)]
        return self._reindex(tuple(self.vars[i] for i in used), pos)

    def _reindex(self, new_vars: Tuple[str, ...], pos) -> "MultiPoly":
        """Move the exponent of variable i to position pos[i] of new_vars,
        or drop it where pos[i] is None (an exponent that is 0 in every term)."""
        n, n_new = len(self.vars), len(new_vars)
        moves = [(_FIELD * (n - 1 - i), _FIELD * (n_new - 1 - p))
                 for i, p in enumerate(pos) if p is not None]
        terms = {}
        for m, c in self.terms.items():
            key = m >> _FIELD * n << _FIELD * n_new
            for old, new in moves:
                key |= (m >> old & _MASK) << new
            terms[key] = c
        return MultiPoly._make(new_vars, terms)

    def rename(self, old: str, new: str) -> "MultiPoly":
        """The same polynomial with variable old called new; unchanged when
        old does not occur in vars."""
        if old not in self.vars:
            return self
        if new in self.vars:
            raise PolyError(f"variable {new!r} already present")
        return MultiPoly._make(tuple(new if v == old else v for v in self.vars), self.terms)

    # -- coefficient views -------------------------------------------------

    def coeffs_wrt(self, name: str) -> Dict[int, "MultiPoly"]:
        """Map degree -> coefficient polynomial in the remaining variables."""
        i = self._index(name)
        rest_vars = self.vars[:i] + self.vars[i + 1:]
        # a key is [degree, e0 .. e(i-1)] [ei] [low]: drop the ei field and
        # take ei off the degree
        low = _FIELD * (len(self.vars) - 1 - i)
        low_mask, degree_unit = (1 << low) - 1, 1 << _FIELD * i
        out: Dict[int, dict] = {}
        for m, c in self.terms.items():
            e = m >> low & _MASK
            key = ((m >> low + _FIELD) - e * degree_unit) << low | m & low_mask
            out.setdefault(e, {})[key] = c
        return {d: MultiPoly._make(rest_vars, t) for d, t in out.items()}


def _add_product(terms: dict, a: dict, b: dict, n: int) -> dict:
    """terms plus the product of the term dicts a and b over n variables."""
    # the leading keys' sum leads the product: its degree bounds all others
    if a and b and max(a) + max(b) >> _FIELD * n >= DEGREE_LIMIT:
        raise PolyError(f"total degree reaches the limit {DEGREE_LIMIT}")
    get = terms.get
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = m1 + m2
            terms[m] = get(m, 0) + c1 * c2
    return terms


def _content(coeffs) -> Tuple[int, int]:
    """(gcd of the numerators, lcm of the denominators): the positive
    rational c with every coeff / c an integer, those integers coprime."""
    coeffs = list(coeffs)
    return (math.gcd(*(c.numerator for c in coeffs)),
            math.lcm(*(c.denominator for c in coeffs)))


def align(a: MultiPoly, b: MultiPoly) -> Tuple[MultiPoly, MultiPoly]:
    """Put two polynomials over the union variable list (left order first)."""
    if a.vars == b.vars:
        return a, b
    merged = list(a.vars)
    for v in b.vars:
        if v not in merged:
            merged.append(v)
    return a.with_vars(merged), b.with_vars(merged)


def from_dense(var: str, coeffs) -> MultiPoly:
    """The polynomial sum coeffs[d] * var^d in the one variable var, for
    exact coefficients (ints or Fractions), built by the trusted `_make`."""
    unit = _unit(1, 0)
    return MultiPoly._make((var,), {d * unit: c for d, c in enumerate(coeffs)})


def dense_coeffs(p: MultiPoly) -> list:
    """Coefficients of a polynomial in at most one variable, constant term
    first, zeros included; [] for the zero polynomial."""
    if len(p.vars) > 1:
        raise PolyError(f"polynomial is not univariate: vars {p.vars}")
    shift = _FIELD * len(p.vars)  # the degree field
    coeffs = [0] * ((max(p.terms, default=-1) >> shift) + 1)
    for m, c in p.terms.items():
        coeffs[m >> shift] = c
    return coeffs


def _horner_eval(p: MultiPoly, var_order, assignment):
    if not var_order:
        return p.constant_value()
    name = var_order[-1]
    coeffs = p.coeffs_wrt(name)
    if not coeffs:
        return assignment[name] * 0
    val = assignment[name]
    top = max(coeffs)
    result = _horner_eval(coeffs[top], var_order[:-1], assignment)
    for d in range(top - 1, -1, -1):
        result = result * val
        if d in coeffs:
            result = result + _horner_eval(coeffs[d], var_order[:-1], assignment)
    return result


class _Dyadic:
    """(re + im*i) / 2^k for ints re, im and k >= 0: the ring, closed under
    integers, in which `nearly_vanishes` runs `MultiPoly.eval`."""

    __slots__ = ("re", "im", "k")

    def __init__(self, re: int, im: int, k: int):
        self.re, self.im, self.k = re, im, k

    @classmethod
    def of(cls, x) -> "_Dyadic":
        """The exact value of an int, float or complex."""
        (a, da), (b, db) = x.real.as_integer_ratio(), x.imag.as_integer_ratio()
        if da & da - 1 or db & db - 1:
            raise PolyError(f"{x!r} is not a dyadic value")
        ka, kb = da.bit_length() - 1, db.bit_length() - 1
        k = max(ka, kb)
        return cls(a << k - ka, b << k - kb, k)

    def __add__(self, other):
        if type(other) is int:
            return _Dyadic(self.re + (other << self.k), self.im, self.k)
        a, b = (self, other) if self.k >= other.k else (other, self)
        s = a.k - b.k
        return _Dyadic(a.re + (b.re << s), a.im + (b.im << s), a.k)

    __radd__ = __add__

    def __mul__(self, other):
        if type(other) is int:
            return _Dyadic(self.re * other, self.im * other, self.k)
        return _Dyadic(self.re * other.re - self.im * other.im,
                       self.re * other.im + self.im * other.re, self.k + other.k)

    __rmul__ = __mul__


HINT_TOL = Fraction(1, 10 ** 6)


def nearly_vanishes(p: MultiPoly, point: dict) -> bool:
    """Whether |p(point)| <= HINT_TOL * max(1, max |c|) over the
    coefficients c of p, decided exactly.

    Each coordinate of the point is an int, float or complex; every float
    part is the dyadic rational it stores.  The integer multiple L*p is
    evaluated in Z[i][1/2] and the squares of both sides, scaled by L, are
    compared, so no working precision enters the decision."""
    den = _content(p.terms.values())[1]
    val = (p * den).eval({v: _Dyadic.of(x) for v, x in point.items()})
    if type(val) is int:
        val = _Dyadic(val, 0, 0)
    bound = HINT_TOL * max([den] + [abs(c) * den for c in p.terms.values()])
    return Fraction(val.re ** 2 + val.im ** 2, 1 << 2 * val.k) <= bound ** 2


# ---------------------------------------------------------------------------
# Exact division, gcd, squarefree
# ---------------------------------------------------------------------------

def exact_div(p: MultiPoly, q: MultiPoly) -> MultiPoly:
    """Exact quotient p/q (a constant q only scales p); PolyError if q does not divide p."""
    p, q = align(p, q)
    if q.is_zero():
        raise PolyError("division by zero polynomial")
    if q.is_constant():
        c = q.constant_value()
        return MultiPoly._make(p.vars, {m: _quo(v, c) for m, v in p.terms.items()})
    quot = _divide(p.terms, q.terms, len(p.vars))
    if quot is None:
        raise PolyError("not divisible")
    return MultiPoly._make(p.vars, quot)


def _divide(p: dict, q: dict, n: int):
    """The quotient of the term dicts p / q over n variables, q nonzero, or
    None when q does not divide p."""
    guards = _guards(n)
    qlead = max(q)
    qc = q[qlead]
    qrest = [(m, c) for m, c in q.items() if m != qlead]
    rem = dict(p)
    quot = {}
    while rem:
        rlead = max(rem)
        mono = rlead - qlead
        if mono < 0 or mono & guards:
            return None
        c = quot[mono] = _quo(rem.pop(rlead), qc)
        for m, v in qrest:
            m += mono
            r = rem.get(m, 0) - c * v
            if r:
                rem[m] = r
            else:
                del rem[m]
    return quot


def divides(q: MultiPoly, p: MultiPoly) -> bool:
    try:
        exact_div(p, q)
        return True
    except PolyError:
        return False


def _content_primitive(p: MultiPoly, name: str) -> Tuple[MultiPoly, MultiPoly]:
    """(content, primitive part) of a nonzero p with respect to name, both
    normalized; the content is the gcd of the coefficients, smallest first."""
    coeffs = sorted(p.coeffs_wrt(name).values(), key=lambda c: len(c.terms))
    cont = coeffs[0]
    for c in coeffs[1:]:
        if cont.is_constant():
            break
        cont = gcd_poly(cont, c)
    cont = normalize_sign(cont).with_vars(p.vars)
    return cont, normalize_sign(exact_div(p, cont))


def _slice(p: MultiPoly, i: int, d: int, e: int) -> MultiPoly:
    """The terms of p of degree d in variable i, that degree set to e."""
    n = len(p.vars)
    shift, move = _FIELD * (n - 1 - i), (e - d) * _unit(n, i)
    return MultiPoly._make(p.vars, {m + move: c for m, c in p.terms.items()
                                    if m >> shift & _MASK == d})


def pseudo_rem(p: MultiPoly, q: MultiPoly, name: str) -> MultiPoly:
    """Pseudo-remainder: lc(q)^(deg p - deg q + 1) * p mod q, no divisions."""
    p, q = align(p, q)
    n, i, dq = len(q.vars), q._index(name), q.degree_in(name)
    lc_q = _slice(q, i, dq, 0)
    rem, e = p, p.degree_in(name) - dq + 1
    while not rem.is_zero() and (dr := rem.degree_in(name)) >= dq:
        # rem := lc_q * rem - (its leading part in name, shifted) * q
        lead = {m: -c for m, c in _slice(rem, i, dr, dr - dq).terms.items()}
        terms = _add_product({}, lc_q.terms, rem.terms, n)
        rem = MultiPoly._make(q.vars, _add_product(terms, lead, q.terms, n))
        e -= 1
    return rem * lc_q ** e if e > 0 else rem


def _primitive_prs(a: MultiPoly, b: MultiPoly, name: str) -> MultiPoly:
    """gcd of two primitive polynomials in name by the primitive remainder
    sequence; a remainder free of name ends it with gcd 1."""
    if a.degree_in(name) < b.degree_in(name):
        a, b = b, a
    while not b.is_zero():
        if b.degree_in(name) == 0:
            return MultiPoly.constant(a.vars, 1)
        r = pseudo_rem(a, b, name)
        a, b = b, r if r.is_zero() else _content_primitive(r, name)[1]
    return a


_HEU_TRIES = 6          # evaluation points before the PRS fallback
_HEU_BITS = 1 << 20     # largest degree * bit_length(xi) evaluated densely


def _heu_gcd(a: dict, b: dict, n: int):
    """(g, a/g, b/g) for nonzero integer term dicts a and b over n variables
    by the heuristic GCD (Char, Geddes and Gonnet, J. Symbolic Comput. 7,
    1989), or None when it gives up.

    With the integer contents taken out, a variable of a is evaluated at
    xi > 1 + 2 min(|a|, |b|) (max norms), the gcd of the two images is
    found by recursion, and g is rebuilt from its symmetric xi-adic digits.
    The primitive part of g is accepted only when it divides a and b
    exactly, and under that bound it is then their gcd."""
    ca, cb = math.gcd(*a.values()), math.gcd(*b.values())
    c = math.gcd(ca, cb)
    a = {m: v // ca for m, v in a.items()}
    b = {m: v // cb for m, v in b.items()}
    if a.keys() == {0} or b.keys() == {0}:      # a unit: the contents decide
        g, qa, qb = {0: 1}, a, b
    else:
        lead = max(a)
        j = next(i for i in range(n) if lead >> _FIELD * (n - 1 - i) & _MASK)
        shift, unit = _FIELD * (n - 1 - j), _unit(n, j)
        deg = max(m >> shift & _MASK for f in (a, b) for m in f)
        xi = 2 * min(max(map(abs, a.values())), max(map(abs, b.values()))) + 2
        for _ in range(_HEU_TRIES):
            if deg * xi.bit_length() > _HEU_BITS:
                return None
            powers = [xi ** e for e in range(deg + 1)]
            images = [{}, {}]
            for f, image in zip((a, b), images):
                for m, v in f.items():
                    e = m >> shift & _MASK
                    image[m - e * unit] = image.get(m - e * unit, 0) + v * powers[e]
            images = [{m: v for m, v in image.items() if v} for image in images]
            # a zero image (x_j - xi divides an input) skips to the next point
            found = all(images) and _heu_gcd(*images, n)
            if found:
                g, half = {}, xi // 2
                for m, v in found[0].items():
                    while v:
                        d = (v + half) % xi - half
                        if d:
                            g[m] = d
                        v, m = (v - d) // xi, m + unit
                cg = math.gcd(*g.values())
                g = {m: v // cg for m, v in g.items()}
                qa = _divide(a, g, n)
                qb = None if qa is None else _divide(b, g, n)
                if qb is not None:
                    break
            xi = 73794 * xi * math.isqrt(math.isqrt(xi)) // 27011
        else:
            return None
    return ({m: v * c for m, v in g.items()}, {m: v * (ca // c) for m, v in qa.items()},
            {m: v * (cb // c) for m, v in qb.items()})


def _integral(p: MultiPoly) -> Tuple[dict, int]:
    """(terms, den): the integer multiple of p by its common denominator."""
    den = _content(p.terms.values())[1]
    return {m: v.numerator * (den // v.denominator) for m, v in p.terms.items()}, den


def _prs_gcd(p: MultiPoly, q: MultiPoly) -> MultiPoly:
    """gcd of two nonconstant polynomials over the same variables: in the
    first variable that occurs, the gcd of the two contents times the
    primitive PRS gcd of the two primitive parts, each content computed
    once.  The heuristic GCD's fallback, and its reference in tests."""
    name = next(v for v in p.vars if p.degree_in(v) > 0 or q.degree_in(v) > 0)
    (cp, a), (cq, b) = _content_primitive(p, name), _content_primitive(q, name)
    return gcd_poly(cp, cq) * _primitive_prs(a, b, name)


def _gcd_parts(p: MultiPoly, q: MultiPoly):
    """(g, (a, s), (b, t)): the gcd g of `gcd_cofactors`, and its cofactors
    p/g = s·a and q/g = t·b with the rational scalars s, t not yet applied."""
    p, q = align(p, q)
    if p.is_zero() or q.is_zero():
        g = normalize_sign(p + q)
        if g.is_zero():
            return g, (g, 1), (g, 1)
    elif p.is_constant() or q.is_constant():
        return MultiPoly.constant(p.vars, 1), (p, 1), (q, 1)
    else:
        (a, dp), (b, dq) = _integral(p), _integral(q)
        found = _heu_gcd(a, b, len(p.vars))
        if found:
            G, qp, qq = (MultiPoly._make(p.vars, f) for f in found)
            g = normalize_sign(G)
            s = Fraction(G.leading_coefficient(), g.leading_coefficient())
            return g, (qp, s / dp), (qq, s / dq)
        g = normalize_sign(_prs_gcd(p, q))
    return g, (exact_div(p, g), 1), (exact_div(q, g), 1)


def gcd_cofactors(p: MultiPoly, q: MultiPoly) -> Tuple[MultiPoly, MultiPoly, MultiPoly]:
    """(g, p/g, q/g) for the gcd g, normalized integer-primitive with positive
    leading graded-lex coefficient, and gcd(0, 0) = 0: by the heuristic GCD
    on the integer multiples of p and q, its cofactors rescaled, or by the
    primitive PRS and exact division when that gives up."""
    g, (a, s), (b, t) = _gcd_parts(p, q)
    return g, a if s == 1 else a * s, b if t == 1 else b * t


def gcd_poly(p: MultiPoly, q: MultiPoly) -> MultiPoly:
    """The gcd of `gcd_cofactors`, without its cofactors."""
    return gcd_cofactors(p, q)[0]


def normalize_sign(p: MultiPoly) -> MultiPoly:
    """Integer-primitive scalar multiple with positive leading grlex coefficient."""
    if p.is_zero():
        return p
    num, den = _content(p.terms.values())
    if p.leading_coefficient() < 0:
        num = -num
    return MultiPoly._make(p.vars, {m: v.numerator // num * (den // v.denominator)
                                    for m, v in p.terms.items()})


def squarefree_primitive(p: MultiPoly, main_var: str) -> MultiPoly:
    """Squarefree part of p in main_var, with main_var-free content removed:
    the cofactor of p over its gcd with its derivative in main_var.  That
    gcd holds the content of p too, so no content is computed.  A p free of
    main_var is all content, so its part is the constant 1.

    Output is integer-primitive with positive leading graded-lex coefficient.
    """
    if p.is_zero():
        raise PolyError("squarefree_primitive of zero polynomial")
    if p.degree_in(main_var) == 0:
        return MultiPoly.constant(p.vars, 1)
    # normalized once: a scalar multiple of p/g has the same normal form
    return normalize_sign(_gcd_parts(p, p.derivative(main_var))[1][0])


# ---------------------------------------------------------------------------
# Resultants (subresultant polynomial remainder sequence)
# ---------------------------------------------------------------------------

def sylvester_matrix(p: MultiPoly, q: MultiPoly, name: str):
    """The Sylvester matrix of p and q in name, entries polynomials in the
    remaining variables.  Reference for tests: its determinant (by
    `bareiss_det` at integer points, or by polynomial Bareiss) is the
    resultant that `resultant` computes without it."""
    dp, dq = p.degree_in(name), q.degree_in(name)
    if dp == 0 or dq == 0:
        raise PolyError("nothing to eliminate")
    p, q = align(p, q)
    zero = MultiPoly.zero(tuple(v for v in p.vars if v != name))
    rows = []
    for f, deg, count in ((p, dp, dq), (q, dq, dp)):
        coeffs = f.coeffs_wrt(name)
        for i in range(count):
            row = [zero] * (dp + dq)
            for d, c in coeffs.items():
                row[i + deg - d] = c
            rows.append(row)
    return rows


def bareiss_det(rows) -> int:
    """Fraction-free (Bareiss) determinant of a square integer matrix; every
    division is exact, so integer floor division loses nothing.  Reference
    for tests: with `sylvester_matrix` it gives the resultant at a point."""
    n = len(rows)
    if n == 0:
        raise PolyError("empty matrix")
    M = [list(r) for r in rows]
    prev, sign = 1, 1
    for k in range(n - 1):
        if not M[k][k]:
            swap = next((i for i in range(k + 1, n) if M[i][k]), None)
            if swap is None:
                return 0
            M[k], M[swap] = M[swap], M[k]
            sign = -sign
        pivot, row_k = M[k][k], M[k]
        for row in M[k + 1:]:
            lead = row[k]
            row[k + 1:] = [(a * pivot - lead * b) // prev
                           for a, b in zip(row[k + 1:], row_k[k + 1:])]
        prev = pivot
    return sign * M[n - 1][n - 1]


def resultant(p: MultiPoly, q: MultiPoly, name: str) -> MultiPoly:
    """Res_name(p, q), exact, over the remaining variables (those of
    align(p, q) without name, in that order).

    Subresultant polynomial remainder sequence (Collins, JACM 14, 1967;
    Brown and Traub, JACM 18, 1971; Cohen, GTM 138, Algorithm 3.3.7): with
    p and q scaled to integer polynomials, each pseudo-remainder is divided
    exactly by g*h^delta, a swap of odd-degree operands flips the sign, and
    the last subresultant is divided by the scales."""
    dp, dq = p.degree_in(name), q.degree_in(name)
    if dp == 0 or dq == 0:
        raise PolyError("nothing to eliminate")
    p, q = align(p, q)
    i = p._index(name)
    rest = p.vars[:i] + p.vars[i + 1:]
    sp, sq = (_content(f.terms.values())[1] for f in (p, q))
    a, b = p * sp, q * sq
    sign = 1
    if dp < dq:
        a, b = b, a
        sign = (-1) ** (dp * dq)
    g = h = MultiPoly.constant(p.vars, 1)
    while b.degree_in(name):
        da, db = a.degree_in(name), b.degree_in(name)
        if da % 2 and db % 2:
            sign = -sign
        r = pseudo_rem(a, b, name)
        if r.is_zero():
            return MultiPoly.zero(rest)
        delta = da - db
        a, b = b, exact_div(r, g * h ** delta)
        g = _slice(a, i, db, 0)
        if delta:  # h = g^delta / h^(delta - 1)
            h = g if delta == 1 else exact_div(g ** delta, h ** (delta - 1))
    d = a.degree_in(name)
    res = exact_div(b ** d, h ** (d - 1))
    den = sign * sp ** dq * sq ** dp
    res = res.coeffs_wrt(name)[0]  # free of name: drop its exponent field
    return MultiPoly._make(rest, {m: _quo(c, den) for m, c in res.terms.items()})


# ---------------------------------------------------------------------------
# Canonical text grammar
# ---------------------------------------------------------------------------

_TERM_RE = re.compile(
    r"""(?P<coeff>-?\d+(?:/\d+)?)?          # optional rational coefficient
        (?P<body>(?:\*?[A-Za-z_][A-Za-z_0-9]*(?:\^\d+)?)*)$""",
    re.VERBOSE,
)
_FACTOR_RE = re.compile(r"([A-Za-z_][A-Za-z_0-9]*)(?:\^(\d+))?")


def to_text(p: MultiPoly) -> str:
    """Canonical text: graded-lex descending terms, explicit coefficients."""
    if p.is_zero():
        return "0"
    parts = []
    for mono, c in p.sorted_terms():
        factors = [v if e == 1 else f"{v}^{e}" for v, e in zip(p.vars, mono) if e]
        sign = (" + " if c > 0 else " - ") if parts else ("" if c > 0 else "-")
        parts.append(sign + "*".join([str(abs(c))] + factors))
    return "".join(parts)


def from_text(text: str, variables=None) -> MultiPoly:
    """Parse the canonical grammar.  Variables default to first-appearance order."""
    raw = text.strip()
    if not raw:
        raise PolyError("empty polynomial text")
    if variables is None:
        variables = []
        for name in _FACTOR_RE.findall(raw):
            if name[0] not in variables:
                variables.append(name[0])
    variables = tuple(variables)
    # terms alternate with runs of signs; a run's product signs the next term
    tokens = re.split(r"\s*([+-])\s*", raw)
    if not tokens[-1]:
        raise PolyError(f"cannot parse polynomial text {text!r}")
    terms, sign = {}, 1
    for k, chunk in enumerate(tokens):
        if k % 2:
            sign = -sign if chunk == "-" else sign
            continue
        if not chunk:
            continue
        if re.search(r"\s", chunk):
            raise PolyError(f"whitespace inside term {chunk!r} in {text!r}")
        m = _TERM_RE.match(chunk)
        if not m or (m.group("coeff") is None and not m.group("body")):
            raise PolyError(f"bad term {chunk!r} in {text!r}")
        try:
            coeff, sign = sign * Fraction(m.group("coeff") or 1), 1
        except ZeroDivisionError:
            raise PolyError(f"zero denominator in term {chunk!r} in {text!r}") from None
        mono = [0] * len(variables)
        for name, exp in _FACTOR_RE.findall(m.group("body")):
            if name not in variables:
                raise PolyError(f"unknown variable {name!r} in {text!r}")
            mono[variables.index(name)] += int(exp) if exp else 1
        mono = tuple(mono)
        terms[mono] = terms.get(mono, 0) + coeff
    return MultiPoly(variables, terms)
