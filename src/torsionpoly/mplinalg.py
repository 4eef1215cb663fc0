"""Pivoted complex linear algebra on row lists of mpmath numbers.

A matrix is a `Matrix`, a list of row lists with `rows` and `cols`; a vector
is an n x 1 Matrix.  An exact zero entry is `mp.mp.zero`.  Rank, pivots and
kernels come from one elimination, whose rank decisions use a threshold
relative to the largest entry of the input, per the working-precision
contract of the torsion engine.  Determinants use their own LU.

The arithmetic is bit-exact with the `mp.matrix` code it replaced: every
stored result is `x or mp.mp.zero`, which is how `mp.matrix` reads back a
zero it did not store, and a product entry is one `mp.fdot` over every k,
zero operands included, as `mp.matrix.__mul__` forms it.  Zeros are not
skipped here: `mpf - mpc(0)` is an mpc, so a skipped zero product could
change an entry's type.
"""

from __future__ import annotations

from typing import NamedTuple

import mpmath as mp

REL_RANK_TOL = mp.mpf("1e-8")
_ZERO = mp.mp.zero


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
    """A * B with one mp.fdot per entry over every k."""
    cols = list(zip(*B))
    return Matrix([[mp.fdot(zip(row, col)) or _ZERO for col in cols]
                   for row in A])


class Elimination(NamedTuple):
    """Result of eliminate: pivot columns in elimination order, and the
    reduced matrix, whose row k is the normalized pivot row of pivots[k]."""

    pivots: list
    reduced: Matrix

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
    pivots = []
    for col in range(nc) if col_order is None else col_order:
        row = len(pivots)
        best, bi = mp.mpf(0), None
        for i in range(row, nr):
            a = abs(A[i][col])
            if a > best:
                best, bi = a, i
        if best <= REL_RANK_TOL * scale:
            continue
        if bi != row:
            A[row], A[bi] = A[bi], A[row]
        top = A[row]
        pv = top[col]
        for c2 in range(nc):
            top[c2] = top[c2] / pv or _ZERO
        for r2 in range(nr):
            if r2 != row:
                other = A[r2]
                f = other[col]
                if f != 0:
                    for c2 in range(nc):
                        other[c2] = other[c2] - f * top[c2] or _ZERO
        pivots.append(col)
    return Elimination(pivots, A)


def pivot_columns(M, col_order=None) -> list:
    """Pivot column indices, in elimination order."""
    return eliminate(M, col_order).pivots


def rank(M) -> int:
    return len(pivot_columns(M))


def nullspace(M):
    """Basis of the right kernel via row-reduced echelon form."""
    return eliminate(M).kernel()


def det(M):
    """LU determinant with partial pivoting."""
    A = [list(row) for row in M]
    n = len(A)
    sign = 1
    acc = mp.mpc(1)
    for col in range(n):
        best, bi = mp.mpf(0), None
        for i in range(col, n):
            a = abs(A[i][col])
            if a > best:
                best, bi = a, i
        if bi is None or best == 0:
            return mp.mpc(0)
        if bi != col:
            A[col], A[bi] = A[bi], A[col]
            sign = -sign
        top = A[col]
        acc *= top[col]
        for i in range(col + 1, n):
            other = A[i]
            f = other[col] / top[col]
            if f != 0:
                for c2 in range(col + 1, n):
                    other[c2] = other[c2] - f * top[c2] or _ZERO
    return acc * sign


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
