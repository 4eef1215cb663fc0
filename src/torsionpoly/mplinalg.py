"""Pivoted complex linear algebra on mpmath matrices.

Rank, pivots and kernels come from one elimination, whose rank decisions
use a threshold relative to the largest entry of the input, per the
working-precision contract of the torsion engine.  Determinants use their
own LU.
"""

from __future__ import annotations

from typing import NamedTuple

import mpmath as mp

REL_RANK_TOL = mp.mpf("1e-8")


def frob(M) -> object:
    return mp.sqrt(mp.fsum(abs(M[i, j]) ** 2
                           for i in range(M.rows) for j in range(M.cols)))


class Elimination(NamedTuple):
    """Result of eliminate: pivot columns in elimination order, and the
    reduced matrix, whose row k is the normalized pivot row of pivots[k]."""

    pivots: list
    reduced: object

    def kernel(self):
        """Basis of the right kernel: one vector per free column."""
        nc = self.reduced.cols
        basis = []
        for fc in range(nc):
            if fc in self.pivots:
                continue
            v = basis_vector(nc, fc)
            for row, pc in enumerate(self.pivots):
                v[pc] = -self.reduced[row, fc]
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
    A = M.copy()
    nr, nc = A.rows, A.cols
    scale = max((abs(A[i, j]) for i in range(nr) for j in range(nc)),
                default=mp.mpf(0))
    pivots = []
    for col in range(nc) if col_order is None else col_order:
        row = len(pivots)
        best, bi = mp.mpf(0), None
        for i in range(row, nr):
            a = abs(A[i, col])
            if a > best:
                best, bi = a, i
        if best <= REL_RANK_TOL * scale:
            continue
        if bi != row:
            A[row, :], A[bi, :] = A[bi, :], A[row, :]
        pv = A[row, col]
        for c2 in range(nc):
            A[row, c2] /= pv
        for r2 in range(nr):
            if r2 != row:
                f = A[r2, col]
                if f != 0:
                    for c2 in range(nc):
                        A[r2, c2] -= f * A[row, c2]
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
    A = M.copy()
    n = A.rows
    sign = 1
    acc = mp.mpc(1)
    for col in range(n):
        best, bi = mp.mpf(0), None
        for i in range(col, n):
            a = abs(A[i, col])
            if a > best:
                best, bi = a, i
        if bi is None or best == 0:
            return mp.mpc(0)
        if bi != col:
            A[col, :], A[bi, :] = A[bi, :], A[col, :]
            sign = -sign
        acc *= A[col, col]
        for i in range(col + 1, n):
            f = A[i, col] / A[col, col]
            if f != 0:
                for c2 in range(col + 1, n):
                    A[i, c2] -= f * A[col, c2]
    return acc * sign


def columns(M, cols):
    return hstack([M[:, c] for c in cols])


def hstack(blocks):
    nr = blocks[0].rows
    nc = sum(b.cols for b in blocks)
    out = mp.matrix(nr, nc)
    at = 0
    for b in blocks:
        for j in range(b.cols):
            for i in range(nr):
                out[i, at + j] = b[i, j]
        at += b.cols
    return out


def vstack(blocks):
    return hstack([b.T for b in blocks]).T


def basis_vector(n, i):
    v = mp.matrix(n, 1)
    v[i] = mp.mpf(1)
    return v
