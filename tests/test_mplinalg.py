"""mplinalg: rank policy, kernels and determinants, and a bit oracle.

The mp.matrix elimination and determinant that the row-list code replaced are
kept here as references.  Pivots, reduced entries, kernels, determinants and
products are compared by type and raw mpmath value, because the reports print
round-off digits that any change in rounding would move.
"""

import itertools
import random

import mpmath as mp
import pytest

from torsionpoly import mplinalg as la

SHAPES = [(1, 1), (3, 3), (3, 6), (6, 3), (4, 7), (5, 5)]
DIGITS = (15, 32, 64)


# -- references: the mp.matrix code the row lists replaced -------------------

def ref_eliminate(M, col_order=None):
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
        if best <= la.REL_RANK_TOL * scale:
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
    return pivots, A


def ref_kernel(pivots, reduced):
    nc = reduced.cols
    basis = []
    for fc in range(nc):
        if fc in pivots:
            continue
        v = mp.matrix(nc, 1)
        v[fc] = mp.mpf(1)
        for row, pc in enumerate(pivots):
            v[pc] = -reduced[row, fc]
        basis.append(v)
    return basis


def ref_det(M):
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


# -- helpers ----------------------------------------------------------------

def bits(x):
    """Type and raw value of an mpmath number: equal only if bit-identical."""
    return type(x).__name__, getattr(x, "_mpc_", None) or x._mpf_


def entries(M):
    """Bits of every entry, row by row, of an mp.matrix or a row list."""
    rows = M.tolist() if isinstance(M, mp.matrix) else M
    return [bits(x) for row in rows for x in row]


def rand_matrix(rng, rows, cols):
    return la.Matrix([mp.mpc(rng.uniform(-1, 1), rng.uniform(-1, 1))
                      for _ in range(cols)] for _ in range(rows))


def zeros(rows, cols):
    return la.Matrix([mp.mp.zero] * cols for _ in range(rows))


def rank_k(rng, rows, cols, k):
    """Product B C of random complex factors: rank k almost surely."""
    if k == 0:
        return zeros(rows, cols)
    return la.matmul(rand_matrix(rng, rows, k), rand_matrix(rng, k, cols))


def shuffled(rng, n):
    order = list(range(n))
    rng.shuffle(order)
    return order


def rand_entry(rng, kind):
    """An exact zero (one time in three), or an mpf or mpc computed 20 digits
    above the working precision, so that arithmetic on it rounds."""
    if rng.random() < 1 / 3:
        return 0
    with mp.workdps(mp.mp.dps + 20):
        x = mp.mpf(rng.uniform(-2, 2)) / 3
        if kind == "mixed":
            kind = rng.choice(("real", "complex"))
        return x if kind == "real" else mp.mpc(x, mp.mpf(rng.uniform(-2, 2)) / 7)


def oracle_inputs(rng, kind):
    """mp.matrix inputs with exact zeros: random, with a zero column, and
    rank-deficient products."""
    def rand(rows, cols):
        return mp.matrix([[rand_entry(rng, kind) for _ in range(cols)]
                          for _ in range(rows)])
    out = []
    for rows, cols in SHAPES:
        out.append(rand(rows, cols))
        M = rand(rows, cols)
        M[:, rng.randrange(cols)] = 0
        out.append(M)
        for k in range(1, min(rows, cols)):
            out.append(rand(rows, k) * rand(k, cols))
    return out


# -- bit oracle -----------------------------------------------------------------

@pytest.mark.parametrize("digits", DIGITS)
@pytest.mark.parametrize("kind", ("real", "complex", "mixed"))
def test_eliminate_and_kernel_match_reference_bits(kind, digits):
    rng = random.Random(f"eliminate {kind} {digits}")
    with mp.workdps(digits):
        for R in oracle_inputs(rng, kind):
            M = la.Matrix(R.tolist())
            for order in (None, shuffled(rng, R.cols)):
                pivots, reduced = ref_eliminate(R, order)
                elim = la.eliminate(M, order)
                assert elim.pivots == pivots
                assert entries(elim.reduced) == entries(reduced)
                assert [entries(v) for v in elim.kernel()] \
                    == [entries(v) for v in ref_kernel(pivots, reduced)]
            assert entries(M) == entries(R)     # the input is left as it was


@pytest.mark.parametrize("digits", DIGITS)
@pytest.mark.parametrize("kind", ("real", "complex", "mixed"))
def test_det_matches_reference_bits(kind, digits):
    rng = random.Random(f"det {kind} {digits}")
    with mp.workdps(digits):
        for R in oracle_inputs(rng, kind):
            if R.rows == R.cols:
                assert bits(la.det(la.Matrix(R.tolist()))) == bits(ref_det(R))


@pytest.mark.parametrize("digits", DIGITS)
def test_matmul_matches_matrix_product_bits(digits):
    rng = random.Random(f"matmul {digits}")
    with mp.workdps(digits):
        for kinds in itertools.product(("real", "complex", "mixed"), repeat=2):
            for n, k, m in ((3, 6, 3), (6, 3, 1), (2, 5, 4)):
                A = mp.matrix([[rand_entry(rng, kinds[0]) for _ in range(k)]
                               for _ in range(n)])
                B = mp.matrix([[rand_entry(rng, kinds[1]) for _ in range(m)]
                               for _ in range(k)])
                got = la.matmul(la.Matrix(A.tolist()), la.Matrix(B.tolist()))
                assert entries(got) == entries(A * B)
                assert (got.rows, got.cols) == (n, m)
                want = mp.sqrt(mp.fsum(abs(x) ** 2 for x in A * B))
                assert bits(la.frob(got)) == bits(want)


def column_cases(rng, kind, M):
    """Columns v for M: random with exact zeros, zero, a column of M, and a
    random combination inside M's column span; each scaled to at most M's
    largest entry, so that no pivot decision of M can flip."""
    n = M.rows
    scale = max(abs(x) for row in M for x in row)
    cases = [la.Matrix([rand_entry(rng, kind) or mp.mp.zero] for _ in range(n)),
             la.Matrix([mp.mp.zero] for _ in range(n)),
             la.columns(M, [rng.randrange(M.cols)]),
             la.matmul(M, la.Matrix([rand_entry(rng, kind) or mp.mp.zero]
                                    for _ in range(M.cols)))]
    out = []
    for v in cases:
        top = max(abs(x) for (x,) in v)
        if top > scale:
            v = la.Matrix([x * (scale / top) or mp.mp.zero] for (x,) in v)
        out.append(v)
    return out


def count_eliminations(monkeypatch):
    calls = []
    real = la.eliminate

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)
    monkeypatch.setattr(la, "eliminate", counted)
    return calls


@pytest.mark.parametrize("digits", DIGITS)
@pytest.mark.parametrize("kind", ("real", "complex", "mixed"))
def test_extends_rank_replays_the_elimination(kind, digits, monkeypatch):
    """The replay answers what eliminating [M | v] would, without a second
    elimination while no pivot decision of M can flip."""
    rng = random.Random(f"extends {kind} {digits}")
    with mp.workdps(digits):
        for R in oracle_inputs(rng, kind):
            M = la.Matrix(R.tolist())
            for order in (None, shuffled(rng, R.cols)):
                elim = la.eliminate(M, order)
                grown = None if order is None else order + [R.cols]
                for v in column_cases(rng, kind, M):
                    want = len(la.eliminate(la.hstack([M, v]), grown).pivots) \
                        > len(elim.pivots)
                    calls = count_eliminations(monkeypatch)
                    assert elim.extends_rank(v) == want
                    assert calls == []
                    monkeypatch.undo()


def smallest_pivot(elim):
    return min(best for _, best, bi, _, _ in elim.steps if bi is not None)


@pytest.mark.parametrize("digits", DIGITS)
def test_extends_rank_falls_back_when_a_pivot_would_flip(digits, monkeypatch):
    """A v 10^9 times larger than M's smallest accepted pivot raises the
    scale of [M | v] so far that the pivot falls under the rank threshold;
    a non-finite entry in v or M makes the scale order-dependent.  Both
    eliminate [M | v] in full."""
    rng = random.Random(f"fallback {digits}")
    with mp.workdps(digits):
        for kind in ("real", "complex", "mixed"):
            for R in oracle_inputs(rng, kind):
                M = la.Matrix(R.tolist())
                elim = la.eliminate(M)
                if not elim.pivots:
                    continue
                n = M.rows
                big = la.Matrix([mp.mp.zero] for _ in range(n))
                big[rng.randrange(n)][0] = smallest_pivot(elim) * mp.mpf(10) ** 9
                nan = column_cases(rng, kind, M)[0]
                nan[rng.randrange(n)][0] = mp.nan
                bad = la.Matrix(list(row) for row in M)
                bad[rng.randrange(n)][rng.randrange(M.cols)] = mp.inf
                for source, e, v in ((M, elim, big), (M, elim, nan),
                                     (bad, la.eliminate(bad), big)):
                    want = len(la.eliminate(la.hstack([source, v])).pivots) \
                        > len(e.pivots)
                    calls = count_eliminations(monkeypatch)
                    assert e.extends_rank(v) == want
                    assert len(calls) == 1
                    monkeypatch.undo()


@pytest.mark.parametrize("digits", DIGITS)
@pytest.mark.parametrize("kind", ("real", "complex", "mixed"))
def test_block_determinants_match_full_determinants_bits(kind, digits):
    """det(B, tails) shares the LU steps over the block B and gives each
    det([B | tail]) bit for bit, exact zeros and zero columns included."""
    rng = random.Random(f"block det {kind} {digits}")
    with mp.workdps(digits):
        for R in oracle_inputs(rng, kind):
            if R.rows != R.cols:
                continue
            n = R.rows
            M = la.Matrix(R.tolist())
            for k in range(n + 1):
                block = la.columns(M, range(k))
                tails = [la.columns(M, range(k, n)),
                         la.Matrix([rand_entry(rng, kind) or mp.mp.zero
                                    for _ in range(n - k)] for _ in range(n)),
                         la.Matrix([mp.mp.zero] * (n - k) for _ in range(n))]
                got = la.det(block, tails)
                assert [bits(x) for x in got] \
                    == [bits(la.det(la.hstack([block, t]))) for t in tails]
                assert bits(got[0]) == bits(ref_det(R))


# -- rank policy and kernels -------------------------------------------------------

def test_det_matches_mpmath():
    rng = random.Random(1)
    with mp.workdps(30):
        for n in range(1, 7):
            for _ in range(3):
                M = rand_matrix(rng, n, n)
                want = mp.det(mp.matrix(M))
                assert abs(la.det(M) - want) < mp.mpf("1e-25") * abs(want)


def test_det_of_singular_matrix_is_zero():
    with mp.workdps(30):
        assert la.det(zeros(3, 3)) == 0


@pytest.mark.parametrize("rows,cols", SHAPES)
def test_rank_of_products(rows, cols):
    rng = random.Random(rows * 10 + cols)
    with mp.workdps(30):
        for k in range(min(rows, cols) + 1):
            M = rank_k(rng, rows, cols, k)
            assert la.rank(M) == k
            assert len(la.pivot_columns(M)) == k
            assert len(la.pivot_columns(M, shuffled(rng, cols))) == k


@pytest.mark.parametrize("rows,cols", SHAPES)
def test_kernel_size_and_residual(rows, cols):
    rng = random.Random(rows * 100 + cols)
    with mp.workdps(30):
        for k in range(min(rows, cols) + 1):
            M = rank_k(rng, rows, cols, k)
            scale = max(la.frob(M), mp.mpf(1))
            for order in (None, shuffled(rng, cols)):
                elim = la.eliminate(M, order)
                ker = elim.kernel()
                assert len(elim.pivots) == k
                assert len(ker) == cols - k
                for v in ker:
                    assert la.frob(la.matmul(M, v)) < mp.mpf("1e-20") * scale
            assert len(la.nullspace(M)) == cols - k


def test_zero_matrix_has_identity_kernel():
    with mp.workdps(30):
        ker = la.nullspace(zeros(3, 4))
        assert len(ker) == 4
        for i, v in enumerate(ker):
            assert v == la.basis_vector(4, i)


def test_column_below_tolerance_never_pivots():
    rng = random.Random(5)
    with mp.workdps(30):
        M = rand_matrix(rng, 4, 4)
        for i in range(4):
            M[i][2] *= mp.mpf("1e-12")
        for order in ([0, 1, 2, 3], [2, 0, 1, 3], [2, 3, 1, 0]):
            assert 2 not in la.pivot_columns(M, order)
        assert la.rank(M) == 3
        assert len(la.nullspace(M)) == 1


def test_small_column_above_tolerance_pivots():
    rng = random.Random(6)
    with mp.workdps(30):
        M = rand_matrix(rng, 4, 4)
        for i in range(4):
            M[i][2] *= mp.mpf("1e-6")
        assert la.pivot_columns(M, [2, 0, 1, 3]) == [2, 0, 1, 3]
        assert la.rank(M) == 4


def test_pivots_follow_col_order():
    rng = random.Random(7)
    with mp.workdps(30):
        M = rand_matrix(rng, 3, 7)
        for _ in range(5):
            order = shuffled(rng, 7)
            assert la.pivot_columns(M, order) == order[:3]
        assert la.pivot_columns(M) == [0, 1, 2]


def test_dependent_column_is_skipped_in_order():
    rng = random.Random(8)
    with mp.workdps(30):
        M = rand_matrix(rng, 4, 3)
        M = la.hstack([M, la.Matrix([2 * r[0] - r[1]] for r in M)])
        # column 3 depends on columns 0 and 1, so it is passed over
        assert la.pivot_columns(M, [0, 1, 3, 2]) == [0, 1, 2]
        assert la.pivot_columns(M, [3, 0, 1, 2]) == [3, 0, 2]


def test_stacking_and_columns_keep_entries_and_shape():
    rng = random.Random(9)
    with mp.workdps(30):
        A, B = rand_matrix(rng, 3, 2), rand_matrix(rng, 3, 4)
        H = la.hstack([A, B, la.basis_vector(3, 1)])
        assert (H.rows, H.cols) == (3, 7)
        assert la.columns(H, [2, 3, 4, 5]) == B
        assert la.columns(H, [6]) == la.basis_vector(3, 1)
        V = la.vstack([A, la.columns(B, [0, 1])])
        assert (V.rows, V.cols) == (6, 2)
        assert V[:3] == A and V[3:] == la.columns(B, [0, 1])
