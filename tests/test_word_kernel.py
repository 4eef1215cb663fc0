"""Bit-exactness oracle for the tuple kernel of torsion_num.

The mp.matrix implementations that the kernel replaced are kept here as
references: the left-fold word image, the A X A^-1 adjoint, the Fox-term sum
and the Newton relator with its t-derivative.  Each result is compared with
== on every entry's type and raw mpmath value, at several precisions, because
the reports print round-off digits that any change in rounding would move.
"""

import itertools
import random

import mpmath as mp
import pytest
from mpmath import ctx_mp_python

from torsionpoly import mplinalg as la
from torsionpoly import torsion_num as tn
from torsionpoly.records import ingest_knot
from torsionpoly.torsion_num import Rep, adjoint, riley_solve
from torsionpoly.words import Word, fox_derivative

DIGITS = (15, 32, 64, 100)


# -- references: the mp.matrix code the kernel replaced ----------------------

def ref_inv2(M):
    return mp.matrix([[M[1, 1], -M[0, 1]], [-M[1, 0], M[0, 0]]])


def ref_of_word(matrices, w):
    acc = mp.matrix([[1, 0], [0, 1]])
    for g, e in w.letters:
        M = matrices[g]
        acc = acc * (M if e > 0 else ref_inv2(M))
    return acc


def ref_adjoint(A):
    Ai = ref_inv2(A)
    out = mp.matrix(3, 3)
    for j, X in enumerate((((0, 1), (0, 0)), ((1, 0), (0, -1)),
                           ((0, 0), (1, 0)))):
        Y = A * mp.matrix(X) * Ai
        out[0, j] = Y[0, 1]
        out[1, j] = Y[0, 0]
        out[2, j] = Y[1, 0]
    return out


def ref_ad_eval_inv(elem, matrices):
    out = mp.matrix(3, 3)
    for w, n in elem.coeffs.items():
        out += n * ref_adjoint(ref_of_word(matrices, w.inverse()))
    return out


def ref_relator_and_derivative(relator, m, t):
    a = mp.matrix([[m, 1], [0, 1 / m]])
    b = mp.matrix([[m, 0], [t, 1 / m]])
    da = mp.matrix(2, 2)
    db = mp.matrix([[0, 0], [1, 0]])
    mats = {0: (a, da), 1: (b, db)}
    M = mp.matrix([[1, 0], [0, 1]])
    D = mp.matrix(2, 2)
    for g, e in relator.letters:
        G, dG = mats[g]
        if e < 0:
            Gi = ref_inv2(G)
            dG = -Gi * dG * Gi
            G = Gi
        D = D * G + M * dG
        M = M * G
    F = [M[0, 0] - 1, M[0, 1], M[1, 0], M[1, 1] - 1]
    J = [D[0, 0], D[0, 1], D[1, 0], D[1, 1]]
    return F, J


# -- helpers ----------------------------------------------------------------

def bits(x):
    """Type and raw value of an mpmath number: equal only if bit-identical."""
    return type(x).__name__, getattr(x, "_mpc_", None) or x._mpf_


def entries(M):
    """Bits of every entry, row by row, of an mp.matrix or a row list."""
    rows = M.tolist() if isinstance(M, mp.matrix) else M
    return [bits(x) for row in rows for x in row]


def flat(T):
    """Bits of every entry of a row-major tuple."""
    return [bits(x) for x in T]


def as_tuple(M):
    """The entries of a 2x2 mp.matrix, as it reads them back."""
    return (M[0, 0], M[0, 1], M[1, 0], M[1, 1])


def as_matrix(A):
    """The 2x2 mp.matrix with the entries of a 2x2 tuple."""
    return mp.matrix([A[:2], A[2:]])


def rand_word(rng, max_len=14):
    return Word.from_letters([(rng.randrange(2), rng.choice((1, -1)))
                              for _ in range(rng.randint(0, max_len))])


def rand_sl2(rng, kind):
    """A determinant-1 matrix computed 20 digits above the working precision,
    so that reading it at the working precision rounds: generic complex,
    generic real, or one of the two Riley shapes with zero entries."""
    with mp.workdps(mp.mp.dps + 20):
        if kind == "riley":
            m = mp.mpc(rng.uniform(1, 2), rng.uniform(-1, 1))
            t = mp.mpc(rng.uniform(-1, 1), rng.uniform(-1, 1))
            return rng.choice([mp.matrix([[m, 1], [0, 1 / m]]),
                               mp.matrix([[m, 0], [t, 1 / m]])])
        while True:
            if kind == "real":
                M = mp.matrix([[mp.mpf(rng.uniform(-2, 2)) for _ in range(2)]
                               for _ in range(2)])
            else:
                M = mp.matrix([[mp.mpc(rng.uniform(-2, 2), rng.uniform(-2, 2))
                                for _ in range(2)] for _ in range(2)])
            d = M[0, 0] * M[1, 1] - M[0, 1] * M[1, 0]
            if abs(d) > 0.05 and (kind != "real" or d > 0):
                return M / mp.sqrt(d)


def rand_rep(rng, kind):
    """Two random generator mp.matrices and the Rep of their entries."""
    matrices = (rand_sl2(rng, kind), rand_sl2(rng, kind))
    return Rep(tuple(map(as_tuple, matrices))), matrices


KINDS = ("complex", "real", "riley")


def rand_entry(rng, kind):
    """An mpf or mpc computed 20 digits above the working precision."""
    with mp.workdps(mp.mp.dps + 20):
        x = mp.mpf(rng.uniform(-2, 2)) / 3
        return x if kind == "mpf" else mp.mpc(x, mp.mpf(rng.uniform(-2, 2)) / 7)


def lazy_relator_and_derivative(relator, m, t):
    """rho(relator) - I from the kernel's prefix fold, and the t-derivative
    built from the fold's prefixes, as riley_solve computes them."""
    a = (m, mp.mp.one, tn._ZERO, 1 / m)
    b = (m, tn._ZERO, t or tn._ZERO, 1 / m)
    images = {(0, 1): a, (0, -1): tn._inv2(a), (1, 1): b, (1, -1): tn._inv2(b)}
    prefixes = tn._prefixes(tn._IDENTITY, relator.letters, images)
    M = prefixes[-1]
    return ([M[0] - 1, M[1], M[2], M[3] - 1],
            tn._relator_derivative(relator.letters, images, prefixes))


def ref_mul2(A, B):
    """A * B through mp.matrix, read back as a 4-tuple of bits."""
    return entries(as_matrix(A) * as_matrix(B))


# -- tests ------------------------------------------------------------------

@pytest.mark.parametrize("digits", DIGITS)
def test_of_word_matches_left_fold(digits):
    rng = random.Random(digits)
    with mp.workdps(digits):
        for kind in KINDS:
            rep, matrices = rand_rep(rng, kind)
            # one point for all words, so later words reuse folded prefixes
            point = tn.Evaluation(rep)
            words = [rand_word(rng) for _ in range(12)]
            words += [w * v for w, v in zip(words, words[1:])]
            for w in words:
                want = entries(ref_of_word(matrices, w))
                assert flat(rep.image(w)) == want
                assert flat(point.image(w)) == want


@pytest.mark.parametrize("digits", DIGITS)
def test_mul2_matches_matrix_product_with_zero_in_every_position(digits):
    # each of the 256 zero patterns of the 8 operands, over mpf, mpc and
    # mixed entries: the pairs with a zero operand are left out of the fdot
    rng = random.Random(600 + digits)
    with mp.workdps(digits):
        for mask in range(256):
            for kinds in (("mpf",), ("mpc",), ("mpf", "mpc")):
                ops = [tn._ZERO if mask >> i & 1
                       else rand_entry(rng, rng.choice(kinds))
                       for i in range(8)]
                A, B = tuple(ops[:4]), tuple(ops[4:])
                assert [bits(x) for x in tn._mul2(A, B)] == ref_mul2(A, B)


@pytest.mark.parametrize("digits", DIGITS)
def test_mul2_dropped_complex_operand_keeps_mpc(digits):
    # in every entry the only complex operand sits in a pair with a zero
    # operand: fdot returns the real sum as an mpc with zero imaginary part
    rng = random.Random(700 + digits)
    with mp.workdps(digits):
        x = lambda: rand_entry(rng, "mpf")
        z = lambda: rand_entry(rng, "mpc")
        cases = [((x(), z(), x(), z()), (x(), x(), tn._ZERO, tn._ZERO)),
                 ((tn._ZERO, x(), tn._ZERO, x()), (z(), z(), x(), x())),
                 ((z(), x(), z(), x()), (tn._ZERO, tn._ZERO, x(), x()))]
        for A, B in cases:
            got = tn._mul2(A, B)
            assert [bits(y) for y in got] == ref_mul2(A, B)
            for y in got:
                assert type(y) is mp.mpc and y.imag == 0 and y.real != 0


@pytest.mark.parametrize("digits", DIGITS)
def test_dot2_single_pair_matches_fdot(digits):
    # one pair left out by the zero rule, the other formed as a product: for
    # every placement of one or two zeros in one pair and every mpf/mpc
    # pattern of the other operands, _dot2 equals the two-pair fdot read
    # back as mp.matrix stores it
    rng = random.Random(900 + digits)
    with mp.workdps(digits):
        for zeros in ((0,), (1,), (0, 1), (2,), (3,), (2, 3)):
            for kinds in itertools.product(("mpf", "mpc"),
                                           repeat=4 - len(zeros)):
                for _ in range(8):
                    it = iter(kinds)
                    ops = [tn._ZERO if i in zeros
                           else rand_entry(rng, next(it)) for i in range(4)]
                    a, b, c, d = ops
                    want = mp.fdot(((a, b), (c, d))) or tn._ZERO
                    assert bits(tn._dot2(*ops)) == bits(want)


@pytest.mark.parametrize("digits", DIGITS)
def test_dot2_and_matmul_make_no_mp_fdot_call(digits, monkeypatch):
    # every _dot2 path, and la.matmul, calls libmp directly.  The spy sits on
    # the mpf_sum that mpmath's fdot looks up in its own module at each call,
    # so it sees every mp.fdot call, through any binding of it
    calls = []

    def spy(*args):
        calls.append(args)
        return mpf_sum(*args)
    mpf_sum = ctx_mp_python.mpf_sum
    monkeypatch.setattr(ctx_mp_python, "mpf_sum", spy)
    rng = random.Random(1000 + digits)
    with mp.workdps(digits):
        x = lambda: rand_entry(rng, "mpf")
        z = lambda: rand_entry(rng, "mpc")
        kinds = (x, z, lambda: tn._ZERO)
        for a, b, c, d in itertools.product(kinds, repeat=4):
            tn._dot2(a(), b(), c(), d())
        rows = [[rng.choice(kinds)() for _ in range(4)] for _ in range(3)]
        la.matmul(rows, la.Matrix([[z()], [x()], [tn._ZERO], [z()]]))
        assert calls == []
        # an operand that is not an mpf or mpc does reach mpmath's fdot
        y = x()
        assert la.fdot([2], [y]) == mp.fdot([2], [y]) and len(calls) == 2


def solved(knot, trace):
    record = ingest_knot(knot)
    return record.presentation, riley_solve(
        record.presentation, mp.mpf(trace), record.riley_seed)


@pytest.mark.parametrize("digits", DIGITS)
@pytest.mark.parametrize("knot", ("4_1", "5_2"))
@pytest.mark.parametrize("trace", ("2.05", "1.95"), ids=("real-m", "complex-m"))
def test_kernel_matches_reference_at_solved_reps(knot, trace, digits):
    # above trace 2 the Riley m is real and b's t entry complex, below it
    # both are complex: word images, adjoints, Fox sums and the Newton
    # derivative at the solved (m, t) mix mpf, mpc and zero operands
    rng = random.Random(800 + digits)
    with mp.workdps(digits):
        pres, rep = solved(knot, trace)
        matrices = tuple(map(as_matrix, rep.generators))
        relator = pres.relators[0]
        words = [relator, pres.meridian, pres.longitude] \
            + [rand_word(rng) for _ in range(6)]
        for w in words:
            img = ref_of_word(matrices, w)
            assert flat(rep.image(w)) == entries(img)
            assert flat(adjoint(as_tuple(img))) == entries(ref_adjoint(img))
        point = tn.Evaluation(rep)
        for gamma in (relator, pres.longitude):
            for k in (0, 1):
                elem = fox_derivative(gamma, k)
                assert entries(tn._ad_eval_inv(elem, point)) \
                    == entries(ref_ad_eval_inv(elem, matrices))
        a, b = rep.generators
        m, t = a[0], b[2]
        got = lazy_relator_and_derivative(relator, m, t)
        want = ref_relator_and_derivative(relator, m, t)
        for g, w in zip(got, want):
            assert [bits(x) for x in g] == [bits(x) for x in w]


@pytest.mark.parametrize("digits", DIGITS)
def test_adjoint_matches_reference(digits):
    rng = random.Random(100 + digits)
    with mp.workdps(digits):
        for kind in KINDS:
            for _ in range(4):
                A = rand_sl2(rng, kind)
                assert flat(adjoint(as_tuple(A))) == entries(ref_adjoint(A))


@pytest.mark.parametrize("digits", DIGITS)
def test_ad_eval_inv_matches_reference(digits):
    rng = random.Random(200 + digits)
    with mp.workdps(digits):
        for kind in KINDS:
            rep, matrices = rand_rep(rng, kind)
            # one point for all words, so later terms reuse its adjoints
            point = tn.Evaluation(rep)
            for _ in range(3):
                w = rand_word(rng, 10)
                for k in (0, 1):
                    elem = fox_derivative(w, k)
                    assert entries(tn._ad_eval_inv(elem, point)) \
                        == entries(ref_ad_eval_inv(elem, matrices))


@pytest.mark.parametrize("digits", DIGITS)
def test_relator_and_derivative_matches_reference(digits):
    rng = random.Random(300 + digits)
    with mp.workdps(digits):
        for _ in range(6):
            relator = rand_word(rng, 16)
            m = rng.choice([mp.mpf(rng.uniform(1, 2)),
                            mp.mpc(rng.uniform(1, 2), rng.uniform(-1, 1))])
            # an exact zero t is read back as mp.mp.zero by mp.matrix
            t = rng.choice([mp.mpf(rng.uniform(-1, 1)),
                            mp.mpc(rng.uniform(-1, 1), rng.uniform(-1, 1)),
                            mp.mpc(0)])
            got = lazy_relator_and_derivative(relator, m, t)
            want = ref_relator_and_derivative(relator, m, t)
            for g, w in zip(got, want):
                assert [bits(x) for x in g] == [bits(x) for x in w]


@pytest.mark.parametrize("digits", DIGITS)
def test_conjugated_matches_reference(digits):
    rng = random.Random(400 + digits)
    with mp.workdps(digits):
        rep, matrices = rand_rep(rng, "complex")
        C = rand_sl2(rng, "complex")
        Ci = ref_inv2(C)
        got = rep.conjugated(as_tuple(C))
        for A, N in zip(got.generators, matrices):
            assert flat(A) == entries(C * N * Ci)


def test_one_rep_read_at_two_precisions():
    rng = random.Random(5)
    with mp.workdps(120):
        rep, matrices = rand_rep(rng, "complex")
    words = [rand_word(rng) for _ in range(8)]
    seen = {}
    for digits in (15, 100, 15, 100):
        with mp.workdps(digits):
            got = [flat(rep.image(w)) for w in words]
            assert got == [entries(ref_of_word(matrices, w)) for w in words]
            assert seen.setdefault(digits, got) == got
    assert seen[15] != seen[100]
