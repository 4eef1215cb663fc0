"""Pivoted complex linear algebra on mpmath matrices.

Rank decisions use a relative threshold against the largest pivot seen, per
the working-precision contract of the torsion engine.
"""

from __future__ import annotations

import mpmath as mp

REL_RANK_TOL = mp.mpf("1e-8")


def frob(M) -> object:
    return mp.sqrt(mp.fsum(abs(M[i, j]) ** 2
                           for i in range(M.rows) for j in range(M.cols)))


def pivot_columns(M, col_order=None, rel_tol=REL_RANK_TOL):
    """Greedy pivoted elimination; returns (rank, pivot column indices).

    With the default order the largest available pivot is taken each step
    (this is the rank decision).  An explicit col_order takes the first
    acceptable column in that order instead, so callers can re-choose
    interior bases among valid independent sets.
    """
    A = M.copy()
    nr, nc = A.rows, A.cols
    first_fit = col_order is not None
    order = list(range(nc)) if col_order is None else list(col_order)
    scale = max((abs(A[i, j]) for i in range(nr) for j in range(nc)),
                default=mp.mpf(0))
    if scale == 0:
        return 0, []
    pivots = []
    used = set()
    row = 0
    while row < nr:
        chosen = None
        best_seen = mp.mpf(0)
        for c in order:
            if c in used:
                continue
            colbest, bi = mp.mpf(0), None
            for i in range(row, nr):
                a = abs(A[i, c])
                if a > colbest:
                    colbest, bi = a, i
            if colbest > rel_tol * scale:
                if first_fit:
                    chosen = (bi, c)
                    break
                if colbest > best_seen:
                    best_seen, chosen = colbest, (bi, c)
        if chosen is None:
            break
        i, c = chosen
        if i != row:
            A[row, :], A[i, :] = A[i, :], A[row, :]
        pv = A[row, c]
        for r2 in range(nr):
            if r2 == row:
                continue
            f = A[r2, c] / pv
            if f != 0:
                for c2 in range(nc):
                    A[r2, c2] -= f * A[row, c2]
        pivots.append(c)
        used.add(c)
        row += 1
    return len(pivots), sorted(pivots) if col_order is None else pivots


def rank(M, rel_tol=REL_RANK_TOL) -> int:
    return pivot_columns(M, rel_tol=rel_tol)[0]


def nullspace(M, rel_tol=REL_RANK_TOL):
    """Basis of the right kernel via row-reduced echelon form.

    Pivot acceptance is relative to the largest entry of the input matrix, so
    a numerically-zero leading column cannot promote noise to a pivot."""
    A = M.copy()
    nr, nc = A.rows, A.cols
    scale = max((abs(A[i, j]) for i in range(nr) for j in range(nc)),
                default=mp.mpf(0))
    if scale == 0:
        return [basis_vector(nc, i) for i in range(nc)]
    piv_of_col = {}
    row = 0
    for col in range(nc):
        best, bi = mp.mpf(0), None
        for i in range(row, nr):
            a = abs(A[i, col])
            if a > best:
                best, bi = a, i
        if bi is None or best <= rel_tol * scale:
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
        piv_of_col[col] = row
        row += 1
        if row == nr:
            break
    free = [c for c in range(nc) if c not in piv_of_col]
    basis = []
    for fc in free:
        v = mp.matrix(nc, 1)
        v[fc] = mp.mpf(1)
        for pc, pr in piv_of_col.items():
            v[pc] = -A[pr, fc]
        basis.append(v)
    return basis


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
    out = mp.matrix(M.rows, len(cols))
    for j, c in enumerate(cols):
        for i in range(M.rows):
            out[i, j] = M[i, c]
    return out


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


def basis_vector(n, i):
    v = mp.matrix(n, 1)
    v[i] = mp.mpf(1)
    return v
