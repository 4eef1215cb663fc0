import random

import mpmath as mp
import pytest

from torsionpoly import mplinalg as la

SHAPES = [(1, 1), (3, 3), (3, 6), (6, 3), (4, 7), (5, 5)]


def rand_matrix(rng, rows, cols):
    M = mp.matrix(rows, cols)
    for i in range(rows):
        for j in range(cols):
            M[i, j] = mp.mpc(rng.uniform(-1, 1), rng.uniform(-1, 1))
    return M


def rank_k(rng, rows, cols, k):
    """Product B C of random complex factors: rank k almost surely."""
    if k == 0:
        return mp.matrix(rows, cols)
    return rand_matrix(rng, rows, k) * rand_matrix(rng, k, cols)


def shuffled(rng, n):
    order = list(range(n))
    rng.shuffle(order)
    return order


def test_det_matches_mpmath():
    rng = random.Random(1)
    with mp.workdps(30):
        for n in range(1, 7):
            for _ in range(3):
                M = rand_matrix(rng, n, n)
                want = mp.det(M)
                assert abs(la.det(M) - want) < mp.mpf("1e-25") * abs(want)


def test_det_of_singular_matrix_is_zero():
    with mp.workdps(30):
        assert la.det(mp.matrix(3, 3)) == 0


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
                    assert la.frob(M * v) < mp.mpf("1e-20") * scale
            assert len(la.nullspace(M)) == cols - k


def test_zero_matrix_has_identity_kernel():
    with mp.workdps(30):
        ker = la.nullspace(mp.matrix(3, 4))
        assert len(ker) == 4
        for i, v in enumerate(ker):
            assert v == la.basis_vector(4, i)


def test_column_below_tolerance_never_pivots():
    rng = random.Random(5)
    with mp.workdps(30):
        M = rand_matrix(rng, 4, 4)
        for i in range(4):
            M[i, 2] *= mp.mpf("1e-12")
        for order in ([0, 1, 2, 3], [2, 0, 1, 3], [2, 3, 1, 0]):
            assert 2 not in la.pivot_columns(M, order)
        assert la.rank(M) == 3
        assert len(la.nullspace(M)) == 1


def test_small_column_above_tolerance_pivots():
    rng = random.Random(6)
    with mp.workdps(30):
        M = rand_matrix(rng, 4, 4)
        for i in range(4):
            M[i, 2] *= mp.mpf("1e-6")
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
        M = la.hstack([M, la.columns(M, [0]) * 2 - la.columns(M, [1])])
        # column 3 depends on columns 0 and 1, so it is passed over
        assert la.pivot_columns(M, [0, 1, 3, 2]) == [0, 1, 2]
        assert la.pivot_columns(M, [3, 0, 1, 2]) == [3, 0, 2]
