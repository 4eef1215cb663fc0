import random
from collections import Counter

import mpmath as mp
import pytest

from torsionpoly import mplinalg as la
from torsionpoly import pipelines as pl
from torsionpoly import torsion_num as tn
from torsionpoly.charvar import change_curve_sq
from torsionpoly.polys import from_text
from torsionpoly.records import ingest_knot
from torsionpoly.torsion_num import (
    Rep, TorsionNumError, adjoint, basing, boundaries, invariant_vector,
    peripheral_torsions, riley_solve, torsion_numeric,
)
from torsionpoly.words import (
    GroupRingElem, Presentation, Word, WordError, fox_derivative, parse_word,
)

BRANCH41 = from_text("x^4 - 5*x^2 + 2")

PRES_41 = Presentation.create(
    2,
    [parse_word("aBAbaBabAB")],
    parse_word("a"),
    parse_word("bABaaBAb"),
)
SEED_41 = complex(0.5, 0.9)

PRES_52 = Presentation.create(
    2,
    [parse_word("abABabaBAbaBAB")],
    parse_word("a"),
    parse_word("baBAbaabABabAAAA"),
)
SEED_52 = complex(-0.215, -1.307)


def solved_41(trace, dps=40):
    with mp.workdps(dps):
        return riley_solve(PRES_41, trace, SEED_41)


def solved_52(trace, dps=40):
    with mp.workdps(dps):
        return riley_solve(PRES_52, trace, SEED_52)


def based_complex(pres, rep, P):
    """(d1, d2), the meridian and longitude cycles, the shared h2 and the
    pivots of d2."""
    chain = boundaries(pres, rep)
    return (chain,) + basing(pres, rep, P, (pres.meridian, pres.longitude),
                             chain)


def peripheral_vector(rep, pres):
    return invariant_vector(rep.image(pres.meridian),
                            rep.image(pres.longitude))


def scaled(v, c):
    """c * v entry by entry."""
    return la.Matrix([c * x or mp.mp.zero] for (x,) in v)


def mat2(*entries):
    """The 2x2 tuple with these row-major entries, read as mp.matrix stores
    them: numbers as mpmath numbers, zeros as mp.mp.zero."""
    return tuple(mp.mpmathify(x) or mp.mp.zero for x in entries)


EYE = mat2(1, 0, 0, 1)


def column(*entries):
    return la.Matrix([mp.mpmathify(x) or mp.mp.zero] for x in entries)


def assert_same_up_to_sign(values, reference):
    assert len(values) == len(reference) == 2
    for t1, t0 in zip(values, reference):
        assert min(abs(t1 - t0), abs(t1 + t0)) < 1e-9 * abs(t0)


# -- words ---------------------------------------------------------------

def test_parse_word_grammar():
    w = parse_word("abAB")
    assert w.letters == ((0, 1), (1, 1), (0, -1), (1, -1))


def test_parse_word_free_reduction():
    assert parse_word("aA").letters == ()
    assert parse_word("aab").letters == ((0, 1), (0, 1), (1, 1))


def test_parse_word_bad_letter():
    with pytest.raises(WordError, match="position 1"):
        parse_word("a1b")


def test_word_roundtrip():
    rng = random.Random(1)
    for _ in range(20):
        txt = "".join(rng.choice("abAB") for _ in range(12))
        w = parse_word(txt)
        assert parse_word(w.to_text()) == w


@pytest.mark.parametrize("relators, h1_is_z", [
    (["aBAbaBabAB"], True),
    (["aBAbaBabAB", "aBAbaBabAB"], True),
    (["ab", "AB"], True),
    (["aabb"], False),
    (["a", "b"], False),
    (["a", "", "b"], False),
])
def test_abelianization_decides_h1_whatever_the_relator_count(relators, h1_is_z):
    pres = Presentation.create(2, [parse_word(r) for r in relators],
                               parse_word("a"), parse_word("b"))
    assert pres.abelianization_ok() is h1_is_z


# -- fox calculus ---------------------------------------------------------------

def gr_single(text, c=1):
    return GroupRingElem({parse_word(text): c})


def fox_recursive(w: Word, k: int) -> GroupRingElem:
    """Independent oracle: d(g v) = d(g) + g d(v) applied recursively."""
    if len(w) == 0:
        return GroupRingElem({})
    g, e = w.letters[0]
    head = Word(((g, e),))
    if g != k:
        first = GroupRingElem({})
    elif e > 0:
        first = GroupRingElem({Word(()): 1})
    else:
        first = GroupRingElem({head: -1})
    rest = Word(w.letters[1:])
    return first + fox_recursive(rest, k).left_mul(head)


def test_fox_axioms():
    assert fox_derivative(parse_word("a"), 0) == GroupRingElem({Word(()): 1})
    assert fox_derivative(parse_word("a"), 1) == GroupRingElem({})
    assert fox_derivative(parse_word("ab"), 1) == gr_single("a")
    assert fox_derivative(parse_word("abAB"), 0) == \
        GroupRingElem({Word(()): 1, parse_word("abA"): -1})


def test_fox_inverse_rule():
    assert fox_derivative(parse_word("A"), 0) == gr_single("A", -1)


def test_fox_matches_recursive_oracle():
    rng = random.Random(9)
    for _ in range(100):
        w = parse_word("".join(rng.choice("abAB") for _ in range(rng.randint(1, 10))))
        for k in (0, 1):
            assert fox_derivative(w, k) == fox_recursive(w, k)


def test_fox_product_rule_exact_200():
    rng = random.Random(4)
    for _ in range(200):
        u = parse_word("".join(rng.choice("abAB") for _ in range(rng.randint(0, 8))))
        v = parse_word("".join(rng.choice("abAB") for _ in range(rng.randint(0, 8))))
        for k in (0, 1):
            lhs = fox_derivative(u * v, k)
            rhs = fox_derivative(u, k) + fox_derivative(v, k).left_mul(u)
            assert lhs == rhs


# -- adjoint ---------------------------------------------------------------

def ad(A):
    """adjoint of a 2x2 tuple, as a 3x3 row list."""
    return tn._block(adjoint(A))


def rand_sl2(rng):
    while True:
        M = tuple(mp.mpc(rng.uniform(-2, 2), rng.uniform(-2, 2))
                  for _ in range(4))
        d = M[0] * M[3] - M[1] * M[2]
        if abs(d) > 0.05:
            r = mp.sqrt(d)
            return tuple(x / r for x in M)


def test_adjoint_identity():
    with mp.workdps(40):
        A = ad(EYE)
        assert all(abs(A[i][j] - (1 if i == j else 0)) < 1e-30
                   for i in range(3) for j in range(3))


def test_adjoint_diagonal():
    with mp.workdps(40):
        m = mp.mpf(3)
        A = ad(mat2(m, 0, 0, 1 / m))
        expect = [m ** 2, 1, m ** -2]
        for i in range(3):
            for j in range(3):
                want = expect[i] if i == j else 0
                assert abs(A[i][j] - want) < 1e-30


def test_adjoint_homomorphism_and_det():
    rng = random.Random(12)
    with mp.workdps(40):
        for _ in range(10):
            A, B = rand_sl2(rng), rand_sl2(rng)
            lhs = ad(tn._mul2(A, B))
            rhs = la.matmul(ad(A), ad(B))
            assert max(abs(x - y) for r, q in zip(lhs, rhs)
                       for x, y in zip(r, q)) < 1e-9
            d = (lhs[0][0] * (lhs[1][1] * lhs[2][2] - lhs[1][2] * lhs[2][1])
                 - lhs[0][1] * (lhs[1][0] * lhs[2][2] - lhs[1][2] * lhs[2][0])
                 + lhs[0][2] * (lhs[1][0] * lhs[2][1] - lhs[1][1] * lhs[2][0]))
            assert abs(d - 1) < 1e-9


def test_adjoint_rejects_non_unimodular():
    with pytest.raises(TorsionNumError):
        ad(mat2(2, 0, 0, 2))


@pytest.mark.parametrize("check, message", [
    (lambda A: adjoint(A), "determinant 1"),
    (lambda A: invariant_vector(A, A), "peripheral holonomy is non-finite"),
], ids=["adjoint", "invariant-vector"])
def test_a_nan_fails_the_tolerance_checks(check, message):
    # a NaN compares false against every tolerance, so each check is
    # written to fail unless the value is within it
    with mp.workdps(40):
        with pytest.raises(TorsionNumError, match=message):
            check(mat2(1, 0, "nan", 1))


# -- riley_solve ---------------------------------------------------------------

def test_riley_solve_41():
    with mp.workdps(40):
        target = mp.mpf("2.05")
        rep = riley_solve(PRES_41, target, SEED_41)
        assert rep.relator_residual(PRES_41) < 1e-10
        a = rep.generators[0]
        assert abs(a[0] + a[3] - target) < 1e-25


def test_riley_solve_parabolic_longitude_trace():
    with mp.workdps(40):
        rep = riley_solve(PRES_41, 2.0, SEED_41)
        L = rep.image(PRES_41.longitude)
        assert abs(L[0] + L[3] + 2) < 1e-9


def gaps_from_100_digits(compute):
    """The largest relative gaps of compute()'s values at 40 and at 60 digits
    from its values at 100 digits; the caller's precision is left as it was."""
    prec = mp.mp.prec
    runs = {}
    for digits in (40, 60, 100):
        with mp.workdps(digits):
            runs[digits] = compute()
    assert mp.mp.prec == prec
    with mp.workdps(100):
        return [max(abs(low - high) / max(1, abs(high))
                    for low, high in zip(runs[digits], runs[100]))
                for digits in (40, 60)]


def test_engine_runs_at_the_callers_precision():
    # the solve and both torsions follow the ambient precision: a 60-digit
    # run agrees with a 100-digit run to 1e-50, and a 40-digit run does not.
    # The trace is the double nearest 2.05, the same number at every
    # precision, so a fixed-precision engine would give three equal runs
    def compute():
        rep = riley_solve(PRES_41, mp.mpf(2.05), SEED_41)
        out = peripheral_torsions(PRES_41, rep)
        return [rep.generators[1][2], out["tau_mu"], out["tau_lambda"],
                out["ratio_sq"]]
    gap40, gap60 = gaps_from_100_digits(compute)
    assert gap60 < mp.mpf("1e-50")
    assert gap40 > mp.mpf("1e-50")


@pytest.mark.parametrize("flow, keys", [
    (lambda record: pl.torsion_at(record, 2.05),
     ("tr_lambda", "tau_mu", "tau_lambda", "ratio_sq", "change_factor",
      "diag_scalar")),
    (lambda record: pl.validate_parabolic(record),
     ("relator_residual", "tr_lambda")),
], ids=["torsion_at", "validate_parabolic"])
def test_pipelines_run_at_the_callers_precision(flow, keys):
    # the flows set no precision either
    record = ingest_knot("4_1")
    gap40, gap60 = gaps_from_100_digits(
        lambda: [flow(record)[key] for key in keys])
    assert gap60 < mp.mpf("1e-50")
    assert gap40 > mp.mpf("1e-50")


@pytest.mark.parametrize("pres", [PRES_41, PRES_52], ids=["4_1", "5_2"])
def test_riley_solve_refuses_a_nan_seed(pres):
    # a NaN residual compares false against the tolerance
    with mp.workdps(40):
        with pytest.raises(TorsionNumError,
                           match="Newton did not converge: residual nan"):
            riley_solve(pres, mp.mpf("2.05"), complex("nan"))


def test_riley_solve_52():
    with mp.workdps(40):
        rep = riley_solve(PRES_52, 2.0, SEED_52)
        assert rep.relator_residual(PRES_52) < 1e-10
        L = rep.image(PRES_52.longitude)
        assert abs(L[0] + L[3] + 2) < 1e-9


# -- chain complex ---------------------------------------------------------------

def test_boundaries_trivial_rep():
    with mp.workdps(40):
        rep = Rep((EYE, EYE))
        d1, d2 = boundaries(PRES_41, rep)
        assert (d1.rows, d1.cols, d2.rows, d2.cols) == (3, 6, 6, 3)
        assert max(abs(x) for row in d1 for x in row) < 1e-30


def test_boundaries_homology_pattern_41():
    rep = solved_41(mp.mpf("2.05"))
    with mp.workdps(40):
        d1, d2 = boundaries(PRES_41, rep)
        assert la.rank(d1) == 3
        assert len(la.nullspace(d2)) == 1


def test_chain_condition_random_traces():
    rng = random.Random(8)
    with mp.workdps(40):
        for _ in range(10):
            tr = mp.mpf(2) + mp.mpf(rng.uniform(-0.12, 0.18))
            rep = riley_solve(PRES_41, tr, SEED_41)
            d1, d2 = boundaries(PRES_41, rep)
            assert la.frob(la.matmul(d1, d2)) \
                < 1e-8 * la.frob(d1) * la.frob(d2)


def test_invariant_vector_diagonal():
    with mp.workdps(40):
        m = mp.mpf(3)
        d = mat2(m, 0, 0, 1 / m)
        rep = Rep((d, d))
        (e,), (h,), (f,) = invariant_vector(d, d)
        # commutant of a regular diagonal is spanned by H = coords (0, 1, 0)
        assert abs(abs(h) - 1) < 1e-25
        assert abs(e) < 1e-25 and abs(f) < 1e-25


def test_invariant_vector_parabolic():
    with mp.workdps(40):
        u1 = mat2(1, 1, 0, 1)
        u2 = mat2(1, mp.mpf(3) / 2, 0, 1)
        (e,), (h,), (f,) = invariant_vector(u1, u2)
        assert abs(abs(e) - 1) < 1e-25
        assert abs(h) < 1e-25 and abs(f) < 1e-25


def test_invariant_vector_rejects_central():
    with mp.workdps(40):
        with pytest.raises(TorsionNumError, match="central"):
            invariant_vector(EYE, EYE)


def test_basing_single_generator_blocks():
    rep = solved_41(mp.mpf("2.05"))
    with mp.workdps(40):
        d1d2 = boundaries(PRES_41, rep)
        P = peripheral_vector(rep, PRES_41)
        (h1,), h2, _ = basing(PRES_41, rep, P, (parse_word("a"),), d1d2)
        for i in range(3):
            assert abs(h1[i][0] - P[i][0]) < 1e-25
            assert abs(h1[3 + i][0]) < 1e-25


def test_basing_cycle_and_kernel_residuals():
    with mp.workdps(40):
        for k in range(10):
            tr = mp.mpf(2) + mp.mpf("0.02") * (k + 1)
            rep = riley_solve(PRES_41, tr, SEED_41)
            P = peripheral_vector(rep, PRES_41)
            (d1, d2), cycles, h2, _ = based_complex(PRES_41, rep, P)
            for h1 in cycles:
                assert la.frob(la.matmul(d1, h1)) \
                    < 1e-8 * max(1, la.frob(d1) * la.frob(h1))
            assert la.frob(la.matmul(d2, h2)) < 1e-8 * max(1, la.frob(d2))


def test_basing_checks_first_curve_then_h2_then_other_curves():
    # at the trivial representation of <a, b | abAB> both boundaries vanish,
    # so ker d2 has dimension 3; the empty word's cycle is degenerate
    with mp.workdps(40):
        rep = Rep((EYE, EYE))
        pres = Presentation.create(2, [parse_word("abAB")],
                                   parse_word("a"), parse_word("b"))
        chain = boundaries(pres, rep)
        P = column(1, 0, 0)
        a, empty = parse_word("a"), parse_word("")
        with pytest.raises(TorsionNumError, match="ker d2 has dimension 3"):
            basing(pres, rep, P, (a, empty), chain)
        with pytest.raises(TorsionNumError, match="degenerate"):
            basing(pres, rep, P, (empty, a), chain)


# -- torsion ---------------------------------------------------------------

def test_torsion_ratio_matches_change_factor():
    cf = change_curve_sq(BRANCH41)
    with mp.workdps(40):
        for tr in ("1.95", "2.05", "2.1"):
            rep = riley_solve(PRES_41, mp.mpf(tr), SEED_41)
            out = peripheral_torsions(PRES_41, rep)
            expected = cf.eval_at(mp.mpf(tr))
            assert abs(out["ratio_sq"] - expected) < 1e-6 * abs(expected)


def check_P_rescaling(pres, rep, rng):
    with mp.workdps(40):
        P = peripheral_vector(rep, pres)
        chain, cycles, h2, piv2 = based_complex(pres, rep, P)
        t0 = torsion_numeric(chain, P, cycles, h2, piv2)
        for _ in range(3):
            Pc = scaled(P, mp.mpc(rng.uniform(0.2, 2), rng.uniform(-2, 2)))
            chain, cycles, h2, piv2 = based_complex(pres, rep, Pc)
            assert_same_up_to_sign(
                torsion_numeric(chain, Pc, cycles, h2, piv2), t0)


def check_basis_rechoice(pres, rep):
    with mp.workdps(40):
        P = peripheral_vector(rep, pres)
        chain, cycles, h2, piv2 = based_complex(pres, rep, P)
        t0 = torsion_numeric(chain, P, cycles, h2, piv2)
        for seed in (1, 2, 3, 4):
            assert_same_up_to_sign(
                torsion_numeric(chain, P, cycles, h2, piv2, basis_seed=seed),
                t0)


def test_torsion_invariant_under_P_rescaling():
    check_P_rescaling(PRES_41, solved_41(mp.mpf("2.07")), random.Random(3))


def test_torsion_invariant_under_basis_rechoice():
    check_basis_rechoice(PRES_41, solved_41(mp.mpf("2.11")))


def test_torsion_52_invariant_under_P_rescaling():
    check_P_rescaling(PRES_52, solved_52(mp.mpf("2.07")), random.Random(5))


def test_torsion_52_invariant_under_basis_rechoice():
    check_basis_rechoice(PRES_52, solved_52(mp.mpf("2.11")))


@pytest.mark.parametrize("pres, seed", [(PRES_41, SEED_41), (PRES_52, SEED_52)],
                         ids=["4_1", "5_2"])
def test_peripheral_torsions_builds_one_based_complex(pres, seed, monkeypatch):
    with mp.workdps(40):
        rep = riley_solve(pres, mp.mpf("2.05"), seed)
    calls = Counter()

    def count(module, name):
        fn = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)

    for module, name in ((la, "eliminate"), (la, "det"), (la, "_lu"),
                         (tn, "basing"), (tn, "torsion_numeric")):
        count(module, name)
    with mp.workdps(40):
        peripheral_torsions(pres, rep)
    # eliminations: the stacked peripheral holonomy (for P), d2 once (for its
    # rank, kernel, interior pivots and both [d2 | h1] rank tests), and the
    # interior pivots of d1; determinants: T0, T2 and both T1 in one call,
    # whose LU passes are b2 once and then each curve's own columns
    assert calls == {"eliminate": 3, "det": 3, "_lu": 5, "basing": 1,
                     "torsion_numeric": 1}


@pytest.mark.parametrize("knot", ["4_1", "5_2"])
def test_newton_and_fox_terms_make_no_matrix_products(knot, monkeypatch):
    record = ingest_knot(knot)
    pres = record.presentation
    matrices, adjoints = Counter(), []

    def count(name):
        fn = getattr(mp.matrix, name)

        def counted(*args, **kwargs):
            matrices[name] += 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(mp.matrix, name, counted)

    def counted_adjoint(A, ad=tn.adjoint):
        adjoints.append(A)
        return ad(A)
    count("__init__")
    count("__mul__")
    monkeypatch.setattr(tn, "adjoint", counted_adjoint)
    words = set()
    with mp.workdps(40):
        rep = riley_solve(pres, mp.mpf("2.05"), record.riley_seed)
        point = tn.Evaluation(rep)
        for gamma in (pres.relators[0], pres.longitude):
            for k in range(2):
                elem = fox_derivative(gamma, k)
                tn._ad_eval_inv(elem, point)
                words.update(elem.coeffs)
    # one public adjoint per distinct Fox-term word per point, the name the
    # benchmark trace counts
    assert len(adjoints) == len(words)
    # a whole sample point, its symbolic cross-checks included, builds and
    # multiplies no mp.matrix
    with mp.workdps(40):
        pl.torsion_at(record, "2.05")
    assert matrices == {}


def fox_words(pres):
    """The distinct words of the Fox terms one point evaluates: those of the
    relators (d2) and of the meridian and longitude (h1)."""
    return {w for gamma in pres.relators + (pres.meridian, pres.longitude)
            for k in range(pres.generator_count)
            for w in fox_derivative(gamma, k).coeffs}


@pytest.mark.parametrize("knot, adjoints, products",
                         [("4_1", 17, 297), ("5_2", 29, 522)],
                         ids=["4_1", "5_2"])
def test_a_point_computes_each_shared_value_once(knot, adjoints, products,
                                                 monkeypatch):
    record = ingest_knot(knot)
    calls, normed = Counter(), []
    for name in ("adjoint", "_mul2", "_relator_residual"):
        def counted(*args, _fn=getattr(tn, name), _name=name):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(tn, name, counted)

    def frob(M, _fn=la.frob):
        normed.append(M)
        return _fn(M)
    monkeypatch.setattr(la, "frob", frob)
    with mp.workdps(32):
        pl.torsion_at(record, "2.05")
    # two adjoints for the d1 blocks and two for P, then one per distinct
    # Fox-term word, however many curves and relators share it
    assert calls["adjoint"] == len(fox_words(record.presentation)) + 4 \
        == adjoints
    # riley_solve's residual check is the point's one fold of its relator
    assert calls["_relator_residual"] == 1
    # Newton steps and the point's word images: 379 and 649 without sharing,
    # 311 and 536 with the relator's leading a run folded at every step
    assert calls["_mul2"] == products
    # d1 and d2 are normed once, in boundaries, and basing reuses the norms
    assert len(normed) == len({id(M) for M in normed})


def test_torsion_invariant_under_conjugation():
    rng = random.Random(6)
    rep = solved_41(mp.mpf("1.95"))
    with mp.workdps(40):
        t0 = peripheral_torsions(PRES_41, rep)["tau_lambda"]
        for _ in range(3):
            C = rand_sl2(rng)
            rep2 = rep.conjugated(C)
            t1 = peripheral_torsions(PRES_41, rep2)["tau_lambda"]
            assert min(abs(t1 - t0), abs(t1 + t0)) < 1e-9 * abs(t0)


def test_torsion_rejects_bad_homology():
    with mp.workdps(40):
        # abelian representation: common fixed vector makes H0 nonzero
        m = mp.mpf(2)
        d = mat2(m, 0, 0, 1 / m)
        rep = Rep((d, d))
        pres = Presentation.create(2, [parse_word("abAB")],
                                   parse_word("a"), parse_word("b"))
        d1, d2 = boundaries(pres, rep)
        P = peripheral_vector(rep, pres)
        h1 = la.vstack([P, column(0, 0, 0)])
        h2 = column(1, 0, 0)
        with pytest.raises(TorsionNumError, match="non-generic"):
            torsion_numeric((d1, d2), P, [h1], h2, la.pivot_columns(d2))


def test_torsion_diagnostic_scalar_is_stable():
    # engine torsion against the closed form tau_lambda^2 = 17 + 4 tr_lambda;
    # reported as a diagnostic, constancy is an open question, not asserted
    with mp.workdps(40):
        vals = []
        for tr in ("2.04", "2.1"):
            rep = riley_solve(PRES_41, mp.mpf(tr), SEED_41)
            out = peripheral_torsions(PRES_41, rep)
            ratio = out["tau_lambda"] ** 2 / (17 + 4 * out["tr_lambda"])
            vals.append(ratio)
        assert all(abs(v) > 1e-12 for v in vals)


@pytest.mark.parametrize("pres", [PRES_41, PRES_52], ids=["4_1", "5_2"])
def test_boundaries_refuses_a_nan_representation(pres):
    gens = (mat2(2, 0, 0, 0.5), mat2(1, 0, "nan", 1))
    with mp.workdps(40):
        # a NaN determinant compares false against the tolerance
        with pytest.raises(TorsionNumError, match="not in SL"):
            Rep(gens)
        rep = object.__new__(Rep)   # past the determinant check
        rep.generators = gens
        assert mp.isnan(rep.relator_residual(pres))
        with pytest.raises(TorsionNumError,
                           match="representation violates relators: nan"):
            boundaries(pres, rep)


def test_boundaries_rejects_relator_violation():
    with mp.workdps(40):
        bad = Rep((mat2(2, 0, 0, mp.mpf(1) / 2), mat2(1, 1, 0, 1)))
        with pytest.raises(TorsionNumError, match="relator"):
            boundaries(PRES_41, bad)
