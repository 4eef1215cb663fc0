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
                    w[r2] = w[r2] - f * x or _ZERO
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
                        other[c2] = other[c2] - f * top[c2] or _ZERO
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
                    other[c2] = other[c2] - f * top[c2] or _ZERO
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
