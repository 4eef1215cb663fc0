"""Numeric torsion engine: twisted chain complexes and their torsion.

The twisted complex of a presentation 2-complex is

    0 -> sl2^(s-1) --d2--> sl2^s --d1--> sl2 -> 0

with group-ring coefficients pushed through g |-> Ad(rho(g))^(-1); the
inversion is what makes d1 . d2 = 0 hold (the plain evaluation composed with
the Fox product rule does not vanish because the group ring is
noncommutative); the words and their Fox derivatives come from `words`.
Torsion is Milnor's determinant ratio for based complexes with homology
bases.  The reported value is the raw ratio rescaled by the invariant
bilinear form of h2 and of the peripheral-invariant vector P, which makes it
invariant, up to sign, under P rescaling and global conjugation; it
equals the torsion of the fundamental-class basing only up to a
representation-dependent scalar, which cancels in the mu/lambda ratios used
throughout.  Each sample point builds one based complex (d1, d2, P, h2,
interior bases, T0, T2); each peripheral curve adds its cycle h1 and T1.

A 2x2 matrix is a tuple (m00, m01, m10, m11), the generators of a `Rep`
included, and the adjoint a row-major 9-tuple; d1, d2, h1, P and h2 are row
lists (`mplinalg.Matrix`).  The arithmetic is bit-exact with the `mp.matrix`
code it replaced, and makes the libmp calls that `mp.fdot` and mpmath's
operators make there (`mplinalg.fdot`, `mul` and `add_mul`): each entry of
a generator is the object `mp.matrix` stored for it, each product entry
makes fdot's calls over the same operand pairs in the same order as
`mp.matrix.__mul__` (the exact products, rounded once by `mpf_sum`), a zero
result is stored as `mp.mp.zero` as the sparse `mp.matrix` storage reads it
back, `eye - X` is `e + (-1) * x` entry by entry, and sums, scalings and
negations make the operators' calls on the same operands.  The tuple kernel
has two exceptions.  A pair with an `mp.mp.zero` operand is left out of the
dot, because fdot's sum skips the exact zeros that products with a zero
operand give, so only the result type records them (an mpc operand in a
dropped pair still makes the entry an mpc).  A single remaining pair is
`mplinalg.mul(a, b)`: with at most one mpc operand the product `a * b`,
which rounds the exact product once as fdot's one-term sum does, and for
two fdot's one-pair sum, which can round differently from `mpc_mul`.  The
matrices of `mplinalg` skip no zeros.  The reports print round-off digits,
so any reordering of this arithmetic would change them.  A word image is
the left fold I * g1 * ... * gn.

Each sample point shares its derived values through one short-lived
`Evaluation`, which `based_complex` builds and drops: word images by
prefix (a left fold's partial products are the images of the word's
prefixes), the Fox-term adjoints Ad(rho(w^-1)) by word, so d2 and both h1
share them, and the Frobenius norms of d1 and d2, which `boundaries` and
`basing` both read.  `riley_solve` hands the relator residual it checked to
the `Rep` it builds, and `boundaries` reads it only at the same relators and
precision.  The point's linear algebra is shared the same way: d2 is
eliminated once, for its rank, kernel and interior pivots, and each
[d2 | h1] rank test replays that elimination on h1
(`Elimination.extends_rank`); both T1 = det([b2 | h1 | e1]) come from one
`det` call that takes the LU steps over b2 once.  Each shared value is the
result of the same operations on the same operands at the same precision
as the repeat it replaces, so the sharing is bit-exact.  No memo is kept on
a `Rep` or at module level: one that outlived the point would outlive a
precision change and be shared between threads.

Every function here runs at the caller's mpmath precision and sets none of
its own, and neither do the `pipelines` flows built on it; only the entry
points `cli` and `verify` set it.  The one exception is `riley_solve`, whose
Newton iteration works 15 digits above the caller's precision.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Tuple

import mpmath as mp

from . import mplinalg as la
from .words import GroupRingElem, Presentation, Word, fox_derivative

NEWTON_TOL = mp.mpf("1e-10")
CHAIN_TOL = mp.mpf("1e-8")      # relative bound on |d1 d2| in boundaries


class TorsionNumError(ValueError):
    pass


# ---------------------------------------------------------------------------
# 2x2 matrices as tuples (m00, m01, m10, m11)
# ---------------------------------------------------------------------------

_ZERO = mp.mp.zero
_IDENTITY = (mp.mp.one, _ZERO, _ZERO, mp.mp.one)
_fdot, _mul, _add_mul = la.fdot, la.mul, la.add_mul
_make_mpc = mp.mp.make_mpc
_fzero = mp.libmp.fzero


def _dot2(a, b, c, d):
    """a * b + c * d as mp.fdot(((a, b), (c, d))) gives it, or _ZERO, with
    the pairs that have a _ZERO operand left out by the zero rule, and a
    single pair formed as `la.mul(a, b)`."""
    if a is _ZERO or b is _ZERO:
        if c is _ZERO or d is _ZERO:
            return _ZERO
        a, b, c, d = c, d, a, b
    elif c is not _ZERO and d is not _ZERO:
        return _fdot((a, c), (b, d))
    s = _mul(a, b)
    if hasattr(s, "_mpf_") and (hasattr(c, "_mpc_") or hasattr(d, "_mpc_")):
        return _make_mpc((s._mpf_, _fzero))
    return s


def _mul2(A, B) -> tuple:
    """A * B entry by entry as mp.matrix.__mul__ computes it."""
    a0, a1, a2, a3 = A
    b0, b1, b2, b3 = B
    return (_dot2(a0, b0, a1, b2), _dot2(a0, b1, a1, b3),
            _dot2(a2, b0, a3, b2), _dot2(a2, b1, a3, b3))


def _add2(A, B) -> tuple:
    return tuple(x + y or _ZERO for x, y in zip(A, B))


def _neg2(A) -> tuple:
    """-A, which mp.matrix computes as the scalar product (-1) * A."""
    return tuple(-1 * x or _ZERO for x in A)


def _det2(A):
    return A[0] * A[3] - A[1] * A[2]


def _inv2(A) -> tuple:
    return (A[3], -A[1] or _ZERO, -A[2] or _ZERO, A[0])


def _dist_to_identity(A):
    return abs(A[0] - 1) + abs(A[1]) + abs(A[2]) + abs(A[3] - 1)


# ---------------------------------------------------------------------------
# Representations
# ---------------------------------------------------------------------------

def _image(gens, w: Word) -> tuple:
    """rho(w) for the generator images gens."""
    acc = _IDENTITY
    for g, e in w.letters:
        acc = _mul2(acc, gens[g] if e > 0 else _inv2(gens[g]))
    return acc


def _relator_residual(gens, p: Presentation):
    """The largest distance of a relator image from I; a NaN, which
    compares false against every bound, is kept."""
    worst = mp.mpf(0)
    for r in p.relators:
        d = _dist_to_identity(_image(gens, r))
        if d > worst or mp.isnan(d):
            worst = d
    return worst


@dataclass
class Rep:
    """Numeric SL(2,C) images of the generators, as 2x2 tuples.  `checked`
    is the relator check `riley_solve` made, (relators, precision in bits,
    residual), set once when the Rep is built and read by `boundaries` at
    the same relators and precision instead of folding them again."""

    generators: Tuple[tuple, ...]
    checked: Optional[tuple] = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        for A in self.generators:
            if not abs(_det2(A) - 1) <= mp.mpf("1e-9"):
                raise TorsionNumError("generator matrix is not in SL(2,C)")

    def image(self, w: Word) -> tuple:
        """rho(w) as a tuple: the left fold I * g1 * ... * gn."""
        return _image(self.generators, w)

    def relator_residual(self, p: Presentation):
        """The largest distance of a relator image from I, NaN kept."""
        return _relator_residual(self.generators, p)

    def conjugated(self, C) -> "Rep":
        """The generators conjugated A -> C A C^-1, for C a 2x2 tuple."""
        Ci = _inv2(C)
        return Rep(tuple(_mul2(_mul2(C, A), Ci) for A in self.generators))


class Evaluation:
    """One sample point: a `Rep` evaluated at the caller's precision, each
    derived value computed once.  Word images are memoised by prefix, since
    a left fold's partial products are the images of the word's prefixes;
    Fox-term adjoints by word; Frobenius norms by matrix.  Each is the
    first computation's result, which a repeat would reproduce bit for bit.
    `based_complex` builds one and drops it when the point ends, so
    nothing outlives a precision change or is shared between threads."""

    __slots__ = ("rep", "_prefixes", "_adjoints", "_norms")

    def __init__(self, rep: Rep):
        self.rep = rep
        self._prefixes = {}     # letter -> (image of the prefix, its children)
        self._adjoints = {}     # word w -> Ad(rho(w^-1))
        self._norms = {}        # id(M) -> (M, |M|_F)

    def image(self, w: Word) -> tuple:
        """rho(w), the left fold I * g1 * ... * gn, from its longest
        prefix already folded at this point."""
        acc, node = _IDENTITY, self._prefixes
        for letter in w.letters:
            hit = node.get(letter)
            if hit is None:
                A = self.rep.generators[letter[0]]
                hit = node[letter] = (
                    _mul2(acc, A if letter[1] > 0 else _inv2(A)), {})
            acc, node = hit
        return acc

    def ad_inv(self, w: Word) -> tuple:
        """Ad(rho(w)^-1) = Ad(rho(w^-1)), the coefficient of a Fox term w."""
        hit = self._adjoints.get(w)
        if hit is None:
            hit = self._adjoints[w] = adjoint(self.image(w.inverse()))
        return hit

    def relator_residual(self, p: Presentation):
        """The relator residual `riley_solve` checked at these relators and
        this precision, or the relators folded once more."""
        checked = self.rep.checked
        if checked is not None and checked[:2] == (p.relators, mp.mp.prec):
            return checked[2]
        return _relator_residual(self.rep.generators, p)

    def frob(self, M):
        """The Frobenius norm of M, computed once per matrix object."""
        hit = self._norms.get(id(M))
        if hit is None:
            hit = self._norms[id(M)] = (M, la.frob(M))
        return hit[1]


def _evaluation(rep) -> Evaluation:
    """The point's Evaluation, or a new one for a plain Rep."""
    return rep if isinstance(rep, Evaluation) else Evaluation(rep)


def riley_solve(p: Presentation, target_tr_mu, seed) -> Rep:
    """Newton solve on the two-bridge ansatz a = [[m, 1], [0, 1/m]],
    b = [[m, 0], [t, 1/m]] with m + 1/m = target, unknown t, from the
    complex seed t.  Newton runs 15 digits above the caller's precision,
    with m, 1/m, a, a^-1, the image of the relator's leading run of a
    letters and the stopping bound computed once; the residual is checked
    at the caller's precision and handed to the Rep."""
    if p.generator_count != 2:
        raise TorsionNumError("riley_solve needs a two-generator presentation")
    dps = mp.mp.dps
    with mp.workdps(dps + 15):
        target = mp.mpmathify(target_tr_mu)
        t = mp.mpmathify(seed)
        disc = mp.sqrt(target ** 2 - 4)
        m = (target + disc) / 2
        if abs(m) < 1:
            m = (target - disc) / 2
        im = 1 / m
        a = (m, mp.mp.one, _ZERO, im)
        images = {(0, 1): a, (0, -1): _inv2(a)}
        bound = mp.mpf(10) ** (-(dps + 5))
        # the relator's leading run of a letters is t-independent: its image
        # is folded once, and its t-derivative is zero
        letters = p.relators[0].letters
        run = next((i for i, (g, _) in enumerate(letters) if g), len(letters))
        head = _prefixes(_IDENTITY, letters[:run], images)[-1]
        tail = letters[run:]
        for _ in range(80):
            b = (m, _ZERO, t or _ZERO, im)
            images[1, 1], images[1, -1] = b, _inv2(b)
            prefixes = _prefixes(head, tail, images)
            M = prefixes[-1]
            F = [M[0] - 1, M[1], M[2], M[3] - 1]
            res = mp.fsum(abs(f) ** 2 for f in F)
            if mp.sqrt(res) < bound:
                break
            J = _relator_derivative(tail, images, prefixes)
            num = mp.fsum(mp.conj(j) * f for j, f in zip(J, F))
            den = mp.fsum(abs(j) ** 2 for j in J)
            if den == 0:
                raise TorsionNumError("Newton stalled: zero derivative")
            t = t - num / den
        generators = (a, (m, _ZERO, t or _ZERO, im))
    # checked before the Rep, whose determinant check a NaN t also fails
    resid = _relator_residual(generators, p)
    if not resid <= NEWTON_TOL:
        raise TorsionNumError(
            f"Newton did not converge: residual {mp.nstr(resid, 5)}")
    return Rep(generators, (p.relators, mp.mp.prec, resid))


def _prefixes(acc, letters, images) -> list:
    """The prefix products acc, acc * g1, ..., acc * g1 * ... * gn of the
    letters, for the letter images `images`."""
    prefixes = [acc]
    for letter in letters:
        prefixes.append(_mul2(prefixes[-1], images[letter]))
    return prefixes


def _relator_derivative(letters, images, prefixes) -> list:
    """The t-derivative of the fold of the letters onto a t-independent
    prefixes[0], flattened, by the product rule
    D_k = D_(k-1) * g_k + prefixes[k-1] * g_k' over the prefixes."""
    db = (_ZERO, _ZERO, mp.mp.one, _ZERO)
    bi = images[(1, -1)]
    # a does not depend on t, and its zero derivative is left out because
    # adding its products would add exact zeros
    derivs = {(1, 1): db, (1, -1): _mul2(_mul2(_neg2(bi), db), bi)}
    D = (_ZERO,) * 4
    for letter, M in zip(letters, prefixes):
        G, dG = images[letter], derivs.get(letter)
        D = _mul2(D, G) if dG is None else _add2(_mul2(D, G), _mul2(M, dG))
    return list(D)


# ---------------------------------------------------------------------------
# Adjoint action and chain data
# ---------------------------------------------------------------------------

# fixed ordered sl2 basis E, H, F; X = e E + h H + f F = [[h, e], [f, -h]]
_SL2_BASIS = (
    (_ZERO, mp.mp.one, _ZERO, _ZERO),
    (mp.mp.one, _ZERO, _ZERO, -mp.mp.one),
    (_ZERO, _ZERO, mp.mp.one, _ZERO),
)


def adjoint(A) -> tuple:
    """Row-major entries of X -> A X A^-1 in the basis (E, H, F), for A a
    2x2 tuple: column j holds the (e, h, f) coordinates of A X_j A^-1."""
    if not abs(_det2(A) - 1) <= mp.mpf("1e-9"):
        raise TorsionNumError("adjoint input must have determinant 1")
    i0, i1, i2, i3 = _inv2(A)
    cols = []
    for X in _SL2_BASIS:
        p0, p1, p2, p3 = _mul2(A, X)
        # entries (0, 1), (0, 0) and (1, 0) of (A X) A^-1; (1, 1) is -h
        cols.append((_dot2(p0, i1, p1, i3), _dot2(p0, i0, p1, i2),
                     _dot2(p2, i0, p3, i2)))
    return tuple(Y[i] for i in range(3) for Y in cols)


def _block(entries) -> la.Matrix:
    """The 3x3 matrix with these row-major entries."""
    return la.Matrix(list(entries[i:i + 3]) for i in (0, 3, 6))


def _minus(A, B) -> la.Matrix:
    """A - B for row-major 9-tuples, as mp.matrix computes it: A + (-1) * B."""
    return _block([_add_mul(x, -1, y) for x, y in zip(A, B)])


def _divide(v, c) -> la.Matrix:
    """The vector v / c, divided entry by entry."""
    return la.Matrix([x / c or _ZERO] for (x,) in v)


_EYE3 = (mp.mp.one, _ZERO, _ZERO, _ZERO, mp.mp.one, _ZERO, _ZERO, _ZERO,
         mp.mp.one)


def _ad_eval_inv(elem: GroupRingElem, point: Evaluation) -> la.Matrix:
    """Sum n_w Ad(rho(w)^-1); the inversion makes the boundaries compose."""
    out = (_ZERO,) * 9
    for w, n in elem.coeffs.items():
        term = point.ad_inv(w)
        out = tuple(_add_mul(x, n, y) for x, y in zip(out, term))
    return _block(out)


def killing(u) -> object:
    """Invariant complex bilinear form tr(XY) summed over sl2 blocks."""
    acc = mp.mpc(0)
    for k in range(0, len(u), 3):
        (e,), (h,), (f,) = u[k:k + 3]
        acc += 2 * (h * h + e * f)
    return acc


def boundaries(p: Presentation, rep):
    """Twisted boundary matrices (d1, d2) at a solved representation, a
    `Rep` or the point's `Evaluation`."""
    point = _evaluation(rep)
    resid = point.relator_residual(p)
    if not resid <= mp.mpf("1e-8"):
        raise TorsionNumError(
            f"representation violates relators: {mp.nstr(resid, 5)}")
    s = p.generator_count
    d1 = la.hstack([_minus(_EYE3, adjoint(_inv2(A)))
                    for A in point.rep.generators])
    d2 = la.hstack([la.vstack([_ad_eval_inv(fox_derivative(rel, k), point)
                               for k in range(s)])
                    for rel in p.relators])
    prod_norm = la.frob(la.matmul(d1, d2))
    if not prod_norm <= CHAIN_TOL * max(point.frob(d1) * point.frob(d2),
                                        mp.mpf(1)):
        raise TorsionNumError(
            f"chain condition failed: |d1 d2| = {mp.nstr(prod_norm, 5)}")
    return d1, d2


def invariant_vector(M, L) -> la.Matrix:
    """Unit-norm generator of ker(Ad(M) - 1) ^ ker(Ad(L) - 1), for the
    peripheral images M = rho(mu) and L = rho(lambda) as 2x2 tuples."""
    out = []
    for A in (M, L):
        if not all(map(mp.isfinite, A)):
            raise TorsionNumError("peripheral holonomy is non-finite")
        if not min(_dist_to_identity(A), _dist_to_identity(_neg2(A))) \
                >= mp.mpf("1e-9"):
            raise TorsionNumError("peripheral holonomy is central")
        out.append(_minus(adjoint(A), _EYE3))
    ker = la.nullspace(la.vstack(out))
    if len(ker) != 1:
        raise TorsionNumError(
            f"non-generic peripheral holonomy: invariant space dim {len(ker)}")
    return _divide(ker[0], la.frob(ker[0]))


def basing(p: Presentation, rep, P, curves, chain):
    """Reference cycles of the complex chain = (d1, d2): one h1 per curve
    gamma, from the Fox expansion of gamma tensored with P, and one h2 shared
    by all curves, the kernel generator of d2 with largest coordinate
    normalized to 1; returns (cycles, h2, pivots of d2).  d2 is eliminated
    once, in natural column order, for its rank, its kernel, the interior
    pivots that torsion_numeric reuses and each curve's rank test, which
    replays the elimination on h1.  Checks run in the order: first curve,
    h2, remaining curves.  rep is a `Rep` or the point's `Evaluation`."""
    point = _evaluation(rep)
    d1, d2 = chain
    elim = la.eliminate(d2)
    norm1 = point.frob(d1)

    def cycle(gamma):
        h1 = la.vstack([la.matmul(_ad_eval_inv(fox_derivative(gamma, k),
                                               point), P)
                        for k in range(p.generator_count)])
        cyc = la.frob(la.matmul(d1, h1))
        if not cyc <= mp.mpf("1e-8") * max(mp.mpf(1), norm1 * la.frob(h1)):
            raise TorsionNumError(
                f"h1 is not a cycle: residual {mp.nstr(cyc, 5)}")
        if not elim.extends_rank(h1):
            raise TorsionNumError("gamma-torsion degenerate at rho")
        return h1

    first = cycle(curves[0])
    ker = elim.kernel()
    if len(ker) != 1:
        raise TorsionNumError(f"ker d2 has dimension {len(ker)}")
    h2 = ker[0]
    (top,) = max(h2, key=lambda x: abs(x[0]))
    h2 = _divide(h2, top)
    res = la.frob(la.matmul(d2, h2))
    if not res <= mp.mpf("1e-8") * max(mp.mpf(1), point.frob(d2)):
        raise TorsionNumError(f"h2 kernel residual {mp.nstr(res, 5)}")
    return [first] + [cycle(gamma) for gamma in curves[1:]], h2, elim.pivots


NORMALIZATION_NOTE = (
    "torsion = det ratio of the based complex, rescaled by sqrt(B(h2,h2)/B(P,P)) "
    "for the invariant bilinear form B; equals the fundamental-class-based "
    "torsion only up to a representation-dependent nonzero scalar, which "
    "cancels in mu/lambda ratios with shared h2 and P"
)


def torsion_numeric(chain, P, cycles, h2, piv2,
                    basis_seed: Optional[int] = None) -> list:
    """Milnor torsion of the based twisted complex chain = (d1, d2) with
    homology basis (h1, h2), one value per h1 in cycles, each adding only its
    determinant T1, which share their LU steps over the d2 block; homology
    dimensions must be (0, 1, 1).  piv2 are the pivot columns of d2 in
    natural order, as basing returns them; a basis_seed re-chooses both
    interior bases from shuffled column orders."""
    d1, d2 = chain
    n1, n2 = d1.cols, d2.cols
    order1 = list(range(n1))
    if basis_seed is not None:
        rng = random.Random(basis_seed)
        rng.shuffle(order1)
        order2 = list(range(n2))
        rng.shuffle(order2)
        piv2 = la.pivot_columns(d2, order2)
    piv1 = la.pivot_columns(d1, order1)
    rank1, rank2 = len(piv1), len(piv2)
    h0 = d1.rows - rank1
    h1dim = n1 - rank1 - rank2
    h2dim = n2 - rank2
    if (h0, h1dim, h2dim) != (0, 1, 1):
        raise TorsionNumError(
            f"non-generic representation: homology ({h0}, {h1dim}, {h2dim})")
    T0 = la.det(la.columns(d1, piv1))
    T2 = la.det(la.hstack([h2] + [la.basis_vector(n2, c) for c in piv2]))
    if T0 == 0 or T2 == 0:
        raise TorsionNumError("degenerate basis choice")
    bh2 = killing(h2)
    bp = killing(P)
    if not (abs(bh2) >= mp.mpf("1e-20") and abs(bp) >= mp.mpf("1e-20")):
        raise TorsionNumError("invariant form degenerates (parabolic point?)")
    e1 = [la.basis_vector(n1, c) for c in piv1]
    out = []
    # T1 = det([b2 | h1 | e1]) for each h1, the LU steps over b2 taken once
    for T1 in la.det(la.columns(d2, piv2),
                     [la.hstack([h1] + e1) for h1 in cycles]):
        value = T1 / (T0 * T2) * mp.sqrt(bh2) / mp.sqrt(bp)
        if value == 0:
            raise TorsionNumError(
                "torsion vanished; representation not gamma-regular")
        out.append(value)
    return out


class BasedComplex(NamedTuple):
    """One sample point's twisted complex chain = (d1, d2) based for both
    peripheral curves: the invariant vector P, the meridian and longitude
    cycles, the shared h2, the pivots of d2, and the images M and L."""
    chain: tuple
    P: la.Matrix
    cycles: list
    h2: la.Matrix
    piv2: list
    M: tuple
    L: tuple

    def torsions(self) -> dict:
        """Both peripheral torsions, plus diagnostics."""
        t_mu, t_la = torsion_numeric(self.chain, self.P, self.cycles, self.h2,
                                     self.piv2)
        return {
            "tau_mu": t_mu,
            "tau_lambda": t_la,
            "ratio_sq": (t_mu / t_la) ** 2,
            "tr_mu": self.M[0] + self.M[3],
            "tr_lambda": self.L[0] + self.L[3],
        }


def based_complex(p: Presentation, rep: Rep) -> BasedComplex:
    """The point's complex and its basing; the point's one `Evaluation` is
    shared by its chain, P and cycles."""
    point = Evaluation(rep)
    chain = boundaries(p, point)
    M, L = point.image(p.meridian), point.image(p.longitude)
    P = invariant_vector(M, L)
    cycles, h2, piv2 = basing(p, point, P, (p.meridian, p.longitude), chain)
    return BasedComplex(chain, P, cycles, h2, piv2, M, L)


def peripheral_torsions(p: Presentation, rep: Rep) -> dict:
    """Both peripheral torsions of one based complex, plus diagnostics."""
    return based_complex(p, rep).torsions()
