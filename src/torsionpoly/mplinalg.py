"""Pivoted complex linear algebra on row lists of mpmath numbers.

A matrix is a `Matrix`, a list of row lists with `rows` and `cols`; a vector
is an n x 1 Matrix.  An exact zero entry is `mp.mp.zero`.  Rank, pivots and
kernels come from one elimination, whose rank decisions use a threshold
relative to the largest entry of the input, per the working-precision
contract of the torsion engine.  Determinants come from one LU.

A matrix that extends an eliminated one by columns is not eliminated
again.  A column's pivot search, swap and multipliers read only that
column, which earlier steps updated with operations read from earlier
columns; so the steps over the leading columns of [M | v] are M's own
steps, and applied to v they update it with the same operations on the
same operands as a full pass would.
`Elimination.extends_rank(v)` replays M's elimination on a column v, the
row operations below each pivot row being the only ones a later pivot
search reads, and tests v's own pivot.  The rank threshold reads the scale
of the whole input, so the replay re-checks every recorded pivot decision
against the scale of [M | v], max(scale, max |v|), and eliminates [M | v]
in full if one of them would flip or if any entry is non-finite; its
answer is the full elimination's at the precision M was eliminated at.
`det(M, tails)` takes the LU steps over a leading block M once, on every
tail side by side, and then finishes each tail alone.

The arithmetic is bit-exact with the `mp.matrix` code it replaced: every
stored result is `x or mp.mp.zero`, which is how `mp.matrix` reads back a
zero it did not store, and a product entry is a dot over every k, zero
operands included, as `mp.matrix.__mul__` forms it with `mp.fdot`.  Zeros
are not skipped here: `mpf - mpc(0)` is an mpc, so a skipped zero product
could change an entry's type.

The hot arithmetic, here and in `torsion_num`, skips mpmath's dispatch and
makes the libmp calls that `mp.fdot` and the operators make, with the same
arguments in the same order, so every mpf comes out of the same call:
`fdot` forms fdot's exact products and sums them by `mpf_sum`, and `mul`,
`sub_mul` and `add_mul` call the `mpf_*`/`mpc_*` functions of `*`, `-` and
`+`.  These are the active backend's, bound from `mpmath.libmp` as in
`ctx_mp_python`.  Any other operand (an int, `mp.pi`) goes through mpmath.

Importing this module, which `numfield` and `torsion_num` do before they
compute, rebinds four exact integer primitives of mpmath's pure-Python
backend to CPython builtins: `bitcount` to `int.bit_length`, `isqrt` and
`isqrt_small` to `math.isqrt`, and `sqrtrem` to `math.isqrt` and its
remainder.  The rebinding is exact.  Each original computes a function
with one integer value: the bit length of n (a bisect over the powers
2^0 .. 2^299, past them a table lookup on the top bits), or the floor of
the square root of n, with its remainder for `sqrtrem` (Newton steps from
above, corrected to the floor).  For every n >= 0 the builtin returns the
same integer, and mpmath passes them mantissas, absolute values and
shifted mantissas, never a negative n.  So every mpf they feed, and every
report byte, stays the same; mpmath's gmpy backend swaps the same four for
gmpy's C versions.  Only an attribute of an `mpmath` module that *is* the
pure-Python original is rebound, so under gmpy2 nothing is.  `isqrt_fast`
is left alone: it may return less than the floor, so an exact replacement
is another function, which could change bits.
"""

from __future__ import annotations

import math
import sys
from typing import NamedTuple

import mpmath as mp
from mpmath.libmp import (fzero, libintmath, mpc_add, mpc_add_mpf, mpc_mul,
                          mpc_mul_int, mpc_mul_mpf, mpc_sub, mpc_sub_mpf,
                          mpf_add, mpf_mul, mpf_mul_int, mpf_neg, mpf_sub,
                          mpf_sum)

REL_RANK_TOL = mp.mpf("1e-8")
_ZERO = mp.mp.zero


def _sqrtrem(x):
    y = math.isqrt(x)
    return y, x - y * y


# the name mpmath's modules bind each primitive under: (the name of the
# pure-Python original in libintmath, its builtin)
BUILTIN_PRIMITIVES = {
    "bitcount": ("python_bitcount", int.bit_length),
    "isqrt": ("isqrt_python", math.isqrt),
    "isqrt_small": ("isqrt_small_python", math.isqrt),
    "sqrtrem": ("sqrtrem_python", _sqrtrem),
}


def use_builtin_primitives():
    """Rebind every attribute of a loaded `mpmath` module named in
    BUILTIN_PRIMITIVES that is the pure-Python original to its builtin."""
    modules = [m for name, m in list(sys.modules.items())
               if name == "mpmath" or name.startswith("mpmath.")]
    for name, (original, builtin) in BUILTIN_PRIMITIVES.items():
        original = getattr(libintmath, original, None)
        for module in modules:
            if original is not None and getattr(module, name, None) is original:
                setattr(module, name, builtin)


use_builtin_primitives()

_PR = mp.mp._prec_rounding      # [prec, rounding], which mpmath updates in place
_mpf, _mpc = mp.mpf, mp.mpc
_TYPES = (_mpf, _mpc)
_make_mpf, _make_mpc = mp.mp.make_mpf, mp.mp.make_mpc
_CZERO = (fzero, fzero)


def _number(v):
    """The mpf with raw value v, or the mpc for a raw pair; _ZERO for a zero
    (NaN and inf are not), as `x or _ZERO` reads it."""
    if len(v) == 2:
        return _make_mpc(v) if v != _CZERO else _ZERO
    return _make_mpf(v) if v != fzero else _ZERO


def fdot(A, B):
    """mp.fdot(A, B) or _ZERO: fdot's exact products, appended in its order
    and summed by mpf_sum at the working precision."""
    re, im = [], []
    for a, b in zip(A, B):
        ta, tb = type(a), type(b)
        if ta is _mpc and tb is _mpc:
            (ar, ai), (br, bi) = a._mpc_, b._mpc_
            re += mpf_mul(ar, br), mpf_neg(mpf_mul(ai, bi))
            im += mpf_mul(ar, bi), mpf_mul(ai, br)
        elif ta is _mpc and tb is _mpf:
            (ar, ai), y = a._mpc_, b._mpf_
            re.append(mpf_mul(ar, y))
            im.append(mpf_mul(ai, y))
        elif ta is _mpf and tb is _mpc:
            x, (br, bi) = a._mpf_, b._mpc_
            re.append(mpf_mul(x, br))
            im.append(mpf_mul(x, bi))
        elif ta is _mpf and tb is _mpf:
            re.append(mpf_mul(a._mpf_, b._mpf_))
        else:
            return mp.fdot(A, B) or _ZERO
    prec, rnd = _PR
    s = mpf_sum(re, prec, rnd)
    return _number((s, mpf_sum(im, prec, rnd)) if im else s)


def _product(a, b, prec, rnd):
    """The raw a * b (a pair for an mpc) from the operator's libmp call, or
    None when an operand is not an mpf or mpc."""
    ta, tb = type(a), type(b)
    if ta is _mpc:
        if tb is _mpc:
            return mpc_mul(a._mpc_, b._mpc_, prec, rnd)
        if tb is _mpf:
            return mpc_mul_mpf(a._mpc_, b._mpf_, prec, rnd)
    elif ta is _mpf:
        if tb is _mpc:
            return mpc_mul_mpf(b._mpc_, a._mpf_, prec, rnd)
        if tb is _mpf:
            return mpf_mul(a._mpf_, b._mpf_, prec, rnd)
    return None


def mul(a, b):
    """a * b as the operator gives it, a zero kept, but complex * complex
    as fdot's one-pair sum, which can round differently from mpc_mul."""
    prec, rnd = _PR
    if type(a) is _mpc and type(b) is _mpc:
        (ar, ai), (br, bi) = a._mpc_, b._mpc_
        return _make_mpc((
            mpf_sum([mpf_mul(ar, br), mpf_neg(mpf_mul(ai, bi))], prec, rnd),
            mpf_sum([mpf_mul(ar, bi), mpf_mul(ai, br)], prec, rnd)))
    p = _product(a, b, prec, rnd)
    if p is None:
        return a * b
    return _make_mpc(p) if len(p) == 2 else _make_mpf(p)


def _plus(x, p, prec, rnd, sub=False):
    """x + p, or x - p if sub, for an mpf or mpc x and a raw p, from the
    operator's libmp call, or _ZERO for a zero."""
    if type(x) is _mpc:
        f = (mpc_sub if sub else mpc_add) if len(p) == 2 \
            else mpc_sub_mpf if sub else mpc_add_mpf
        return _number(f(x._mpc_, p, prec, rnd))
    if len(p) == 4:
        return _number((mpf_sub if sub else mpf_add)(x._mpf_, p, prec, rnd))
    if sub:
        return _number(mpc_sub((x._mpf_, fzero), p, prec, rnd))
    return _number(mpc_add_mpf(p, x._mpf_, prec, rnd))


def sub_mul(x, f, y):
    """x - f * y or _ZERO, a row operation."""
    prec, rnd = _PR
    p = _product(f, y, prec, rnd)
    if p is None or type(x) not in _TYPES:
        return x - f * y or _ZERO
    return _plus(x, p, prec, rnd, True)


def add_mul(x, n, y):
    """x + (n * y or _ZERO) or _ZERO for an int n; a zero product is _ZERO,
    an mpf, whatever the type of y."""
    ty = type(y)
    if type(n) is not int or ty not in _TYPES or type(x) not in _TYPES:
        return x + (n * y or _ZERO) or _ZERO
    prec, rnd = _PR
    if ty is _mpc:
        p = mpc_mul_int(y._mpc_, n, prec, rnd)
        return _plus(x, fzero if p == _CZERO else p, prec, rnd)
    return _plus(x, mpf_mul_int(y._mpf_, n, prec, rnd), prec, rnd)


class Matrix(list):
    """A list of row lists of mpmath numbers."""

    __slots__ = ()

    rows = property(len)

    @property
    def cols(self) -> int:
        return len(self[0])


def frob(M) -> object:
    return mp.sqrt(mp.fsum(abs(x) ** 2 for row in M for x in row))


def matmul(A, B) -> Matrix:
    """A * B with one fdot per entry over every k."""
    cols = list(zip(*B))
    return Matrix([[fdot(row, col) for col in cols] for row in A])


class Elimination(NamedTuple):
    """Result of eliminate: pivot columns in elimination order, and the
    reduced matrix, whose row k is the normalized pivot row of pivots[k];
    with what a replay needs: the input and its scale, and one step per
    column tried, (column, best magnitude, swap row, pivot, the (row, f)
    pairs of its row operations below the pivot row), the last three None
    for a rejected column.  The operations above the pivot row are not
    kept: no later pivot search reads those rows."""

    pivots: list
    reduced: Matrix
    source: Matrix
    scale: object
    steps: list

    def kernel(self):
        """Basis of the right kernel: one vector per free column."""
        nc = self.reduced.cols
        basis = []
        for fc in range(nc):
            if fc in self.pivots:
                continue
            v = basis_vector(nc, fc)
            for row, pc in enumerate(self.pivots):
                v[pc][0] = -self.reduced[row][fc] or _ZERO
            basis.append(v)
        return basis

    def extends_rank(self, v) -> bool:
        """Whether the column v raises the rank: whether eliminating
        [M | v] in this elimination's column order, then v, finds one
        pivot more.  M's steps are replayed on v when every entry is finite
        and no recorded decision flips under the scale of [M | v]; else
        [M | v] is eliminated."""
        w = [x for (x,) in v]
        if all(map(mp.isfinite, w)) \
                and all(mp.isfinite(x) for row in self.source for x in row):
            limit = REL_RANK_TOL * max([self.scale] + [abs(x) for x in w])
            row = 0
            for _, best, bi, pv, ops in self.steps:
                if (best > limit) != (bi is not None):
                    break
                if bi is None:
                    continue
                if bi != row:
                    w[row], w[bi] = w[bi], w[row]
                x = w[row] = w[row] / pv or _ZERO
                for r2, f in ops:
                    w[r2] = sub_mul(w[r2], f, x)
                row += 1
            else:
                best = mp.mpf(0)
                for a in map(abs, w[row:]):
                    if a > best:
                        best = a
                return best > limit
        order = [step[0] for step in self.steps] + [self.source.cols]
        grown = eliminate(hstack([self.source, v]), order)
        return len(grown.pivots) > len(self.pivots)


def eliminate(M, col_order=None) -> Elimination:
    """Gauss-Jordan elimination with normalized pivot rows.

    Each column of col_order (default: left to right) is tried once, and
    becomes a pivot when its largest entry at or below the current row
    exceeds REL_RANK_TOL times the largest entry of M.  Acceptance relative
    to the input scale keeps a numerically-zero column from promoting noise
    to a pivot; an explicit col_order lets callers re-choose interior bases
    among valid independent sets."""
    A = Matrix(list(row) for row in M)
    nr, nc = A.rows, A.cols
    scale = max((abs(x) for row in A for x in row), default=mp.mpf(0))
    pivots, steps = [], []
    for col in range(nc) if col_order is None else col_order:
        row = len(pivots)
        best, bi = mp.mpf(0), None
        for i in range(row, nr):
            a = abs(A[i][col])
            if a > best:
                best, bi = a, i
        if best <= REL_RANK_TOL * scale:
            steps.append((col, best, None, None, None))
            continue
        if bi != row:
            A[row], A[bi] = A[bi], A[row]
        top = A[row]
        pv = top[col]
        for c2 in range(nc):
            top[c2] = top[c2] / pv or _ZERO
        ops = []
        for r2 in range(nr):
            if r2 != row:
                other = A[r2]
                f = other[col]
                if f != 0:
                    if r2 > row:
                        ops.append((r2, f))
                    for c2 in range(nc):
                        other[c2] = sub_mul(other[c2], f, top[c2])
        steps.append((col, best, bi, pv, ops))
        pivots.append(col)
    return Elimination(pivots, A, M, scale, steps)


def pivot_columns(M, col_order=None) -> list:
    """Pivot column indices, in elimination order."""
    return eliminate(M, col_order).pivots


def nullspace(M):
    """Basis of the right kernel via row-reduced echelon form."""
    return eliminate(M).kernel()


def _lu(A, row0, count, acc, sign):
    """LU steps with partial pivoting on the rows A over their first count
    columns, column c pivoting in row row0 + c and updating every column to
    its right; (acc, sign) carried on through the pivots, or None when a
    column has no nonzero entry."""
    n, nc = len(A), len(A[0]) if A else 0
    for c in range(count):
        r = row0 + c
        best, bi = mp.mpf(0), None
        for i in range(r, n):
            a = abs(A[i][c])
            if a > best:
                best, bi = a, i
        if bi is None or best == 0:
            return None
        if bi != r:
            A[r], A[bi] = A[bi], A[r]
            sign = -sign
        top = A[r]
        acc *= top[c]
        for i in range(r + 1, n):
            other = A[i]
            f = other[c] / top[c]
            if f != 0:
                for c2 in range(c + 1, nc):
                    other[c2] = sub_mul(other[c2], f, top[c2])
    return acc, sign


def det(M, tails=None):
    """LU determinant of M with partial pivoting; given tails, the list of
    det([M | tail]) for each tail, M a leading block of columns whose LU
    steps are taken once on [M | tail | tail ...] before each tail goes on
    alone."""
    k = len(M[0]) if M else 0
    A = hstack([M, *(tails or ())])
    state = _lu(A, 0, k, mp.mpc(1), 1)
    if tails is None:
        return mp.mpc(0) if state is None else state[0] * state[1]
    if state is None:
        return [mp.mpc(0) for _ in tails]
    out, start = [], k
    for tail in tails:
        stop = start + (len(tail[0]) if tail else 0)
        done = _lu([row[start:stop] for row in A], k, stop - start, *state)
        out.append(mp.mpc(0) if done is None else done[0] * done[1])
        start = stop
    return out


def columns(M, cols) -> Matrix:
    return Matrix([row[c] for c in cols] for row in M)


def hstack(blocks) -> Matrix:
    return Matrix([x for b in blocks for x in b[i]]
                  for i in range(len(blocks[0])))


def vstack(blocks) -> Matrix:
    return Matrix(list(row) for b in blocks for row in b)


def basis_vector(n, i) -> Matrix:
    v = Matrix([_ZERO] for _ in range(n))
    v[i][0] = mp.mpf(1)
    return v
