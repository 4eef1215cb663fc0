"""One-shot acceptance suite behind `torsionpoly verify` and the test suite.

Each check prints one pass/fail line; tolerances are fixed here, not
configurable, so a green run certifies the published contract of the package.
`run_all` ingests each bundled record once and every check of the run reads
it, so each record's artifacts are derived once; a check called on its own
ingests its own records.
"""

from __future__ import annotations

import json
import random
from contextvars import ContextVar
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Tuple

import mpmath as mp

from . import mplinalg as la
from . import pipelines as pl
from .charvar import E_LAMBDA, E_MU, APoly, CharVarError, change_curve_sq
from .numfield import roots_at, roots_numeric
from .polys import MultiPoly, divides, from_dense, from_text, gcd_cofactors, \
    normalize_sign, resultant, to_text
from .records import KnotRecord, ingest_knot
from .torsion_num import (
    TorsionNumError, _block, _mul2, adjoint, basing, boundaries, invariant_vector,
    peripheral_torsions, riley_solve, torsion_numeric,
)
from .torsion_sym import specialize
from .words import fox_derivative, parse_word

T52_TEXT = ("tau^3 - 47*tau^2 + 14*tau^2*y^2 - 5*tau^2*y^4"
            " - 5138*tau + 10057*tau*y^2 - 7830*tau*y^4 + 3213*tau*y^6"
            " - 640*tau*y^8 + 50*tau*y^10"
            " - 120447 + 339345*y^2 - 371691*y^4 + 203917*y^6"
            " - 60090*y^8 + 8850*y^10 - 500*y^12")
CUBIC_AT_2 = from_dense("tau", [-28075, 2802, -71, 1])
BRANCH41_TEXT = "x^4 - 5*x^2 + 2"
TMU41_TEXT = "4*tau^2 - z^4 + 6*z^2 - 5"
ENGINE_TRACES = ("1.90", "1.95", "2.05", "2.10", "2.15")


# the records of the running `run_all`, by name; None outside a run
_RUN_RECORDS: ContextVar[Optional[Dict[str, KnotRecord]]] = ContextVar(
    "verify_records", default=None)


def _record(name: str) -> KnotRecord:
    """The bundled record `name`: the run's shared copy inside `run_all`,
    a fresh one otherwise."""
    shared = _RUN_RECORDS.get()
    if shared is None:
        return ingest_knot(name)
    if name not in shared:
        shared[name] = ingest_knot(name)
    return shared[name]


def _same_up_to_sign(a: MultiPoly, b: MultiPoly) -> bool:
    return a == b or a == -b


def check_52_elimination() -> Tuple[bool, str]:
    record = _record("5_2")
    T = pl.eliminated_T(record)
    expected = normalize_sign(from_text(T52_TEXT, ["tau", "y"]))
    ok = _same_up_to_sign(T.poly, expected)
    return ok, "eliminant equals the reference coefficients exactly (up to sign)" \
        if ok else f"got {to_text(T.poly)}"


def check_52_specialization() -> Tuple[bool, str]:
    record = _record("5_2")
    spec = specialize(pl.eliminated_T(record), Fraction(2))
    ok = spec == CUBIC_AT_2
    return ok, f"specialization at trace 2 is {to_text(spec)}"


def check_41_symbolic_chain() -> Tuple[bool, str]:
    record = _record("4_1")
    R = pl.trace_relation_of(record)
    factor = normalize_sign(
        MultiPoly.var(("x", "y"), "y") - from_text(BRANCH41_TEXT, ["x", "y"]))
    if not divides(factor, R.poly):
        return False, "trace relation lost the quartic branch factor"
    branch, _ = pl.branch_and_factor(record)
    if branch != from_text(BRANCH41_TEXT):
        return False, f"geometric branch is {branch!r}"
    ident = 17 + 4 * branch == from_text("4*x^4 - 20*x^2 + 25")
    if not ident:
        return False, "square identity for the longitude torsion failed"
    T_mu = pl.transported_T(record)
    expected = normalize_sign(from_text(TMU41_TEXT, ["tau", "z"]))
    if not _same_up_to_sign(T_mu.poly, expected):
        return False, f"transport gave {to_text(T_mu.poly)}"
    return True, "trace relation, square identity and transport all exact"


def check_rho0_values() -> Tuple[bool, str]:
    r41 = _record("4_1")
    r52 = _record("5_2")
    v_l, poly_l, _ = pl.rho0_for_curve(r41, "lambda")
    if v_l.value.minpoly != from_text("tau - 3"):
        return False, f"longitude value minpoly {v_l.value.minpoly!r}"
    v_m, poly_m, notes_m = pl.rho0_for_curve(r41, "mu")
    if poly_m != from_text("4*tau^2 + 3"):
        return False, f"meridian specialization {to_text(poly_m)}"
    if v_m.value.minpoly != poly_m:
        return False, "meridian value squared is not -3/4"
    if not any("i*sqrt(3)" in n for n in notes_m):
        return False, "missing discrepancy note on the meridian report"
    v52, _, _ = pl.rho0_for_curve(r52, "lambda")
    with mp.workdps(40):
        a = v52.value.approx
        ref = mp.mpc("28.4932", "34.5189")
        near = min(abs(a - ref), abs(mp.conj(a) - ref))
        if near > mp.mpf("5e-5"):
            return False, f"5_2 value {fmt(a)} is not the reference root"
    return True, ("tau_lambda(4_1) = 3, tau_mu(4_1)^2 = -3/4 "
                  "(with discrepancy note), 5_2 root matches to 4 decimals")


def check_52_membership() -> Tuple[bool, str]:
    record = _record("5_2")
    out = pl.membership(record, "lambda")
    if not out["in_field"]:
        return False, f"membership failed: {out['outcome']!r}"
    coords = out["element"].coords
    if coords != (Fraction(13), Fraction(13), Fraction(19)):
        return False, f"element coords {coords}"
    if out["element_minpoly"] != CUBIC_AT_2:
        return False, "element minimal polynomial differs from the specialization"
    return True, ("value is 19*x^2 + 13*x + 13 in Q[x]/(x^3 - x^2 + 1); "
                  f"{out['pairing_note']}")


def check_numeric_engine() -> Tuple[bool, str]:
    record = _record("4_1")
    pres = record.presentation
    cf = change_curve_sq(from_text(BRANCH41_TEXT))
    rng = random.Random(20)
    with mp.workdps(40):
        for tr_text in ENGINE_TRACES:
            tr = mp.mpf(tr_text)
            rep = riley_solve(pres, tr, record.riley_seed)
            d1, d2 = boundaries(pres, rep)
            try:    # refuses any homology pattern but (0, 1, 1)
                out = peripheral_torsions(pres, rep)
            except TorsionNumError as exc:
                return False, f"engine failed at trace {tr_text}: {exc}"
            expected = cf.eval_at(tr)
            if abs(out["ratio_sq"] - expected) > 1e-6 * abs(expected):
                return False, f"change-of-curve ratio off at trace {tr_text}"
            base = {c: out[c] for c in ("tau_mu", "tau_lambda")}

            def drifted(other, what):
                for curve, t0 in base.items():
                    t1 = other[curve]
                    if min(abs(t1 - t0), abs(t1 + t0)) > 1e-9 * abs(t0):
                        return f"{what} broke {curve} invariance at trace {tr_text}"
                return None

            # P rescaling (shared h2 stays fixed by construction)
            P = invariant_vector(rep.image(pres.meridian),
                                 rep.image(pres.longitude))
            c = mp.mpc(rng.uniform(0.3, 2), rng.uniform(-1, 1))
            Pc = la.Matrix([c * x or mp.mp.zero] for (x,) in P)
            cycles, h2, piv2 = basing(pres, rep, Pc,
                                      (pres.meridian, pres.longitude), (d1, d2))
            rescaled = dict(zip(("tau_mu", "tau_lambda"),
                                torsion_numeric((d1, d2), Pc, cycles, h2,
                                                piv2)))
            msg = drifted(rescaled, "P-rescaling")
            if msg:
                return False, msg
            # interior basis re-choice
            rechosen = peripheral_torsions(pres, rep,
                                           basis_seed=rng.randint(0, 10 ** 6))
            msg = drifted(rechosen, "basis re-choice")
            if msg:
                return False, msg
            # global conjugation, full recomputation downstream
            conj = peripheral_torsions(pres, rep.conjugated(_random_sl2(rng)))
            msg = drifted(conj, "conjugation")
            if msg:
                return False, msg
    return True, ("homology (0,1,1), invariances to 1e-9 and change-of-curve "
                  f"ratio to 1e-6 at traces {', '.join(ENGINE_TRACES)}; absolute "
                  "values are normalization-dependent by design and not compared")


def _random_sl2(rng):
    while True:
        M = tuple(mp.mpc(rng.uniform(-2, 2), rng.uniform(-2, 2))
                  for _ in range(4))
        d = M[0] * M[3] - M[1] * M[2]
        if abs(d) > 0.05:
            r = mp.sqrt(d)
            return tuple(x / r for x in M)


def check_property_suites() -> Tuple[bool, str]:
    rng = random.Random(77)
    # Fox product rule, exact, 200 pairs
    for _ in range(200):
        u = parse_word("".join(rng.choice("abAB") for _ in range(rng.randint(0, 8))))
        v = parse_word("".join(rng.choice("abAB") for _ in range(rng.randint(0, 8))))
        for k in (0, 1):
            lhs = fox_derivative(u * v, k)
            rhs = fox_derivative(u, k) + fox_derivative(v, k).left_mul(u)
            if lhs != rhs:
                return False, "Fox product rule failed"
    # resultant vs complex-root-product oracle
    with mp.workdps(40):
        for _ in range(8):
            p, q = _rand_univariate(rng), _rand_univariate(rng)
            res = resultant(p, q, "x")
            acc = mp.mpmathify(p.leading_coefficient()) ** q.degree_in("x")
            for part, i in _squarefree_parts(p):
                for r in roots_numeric(part, 30):
                    acc *= q.eval({"x": r}) ** i
            want = mp.mpmathify(res.constant_value())
            if abs(acc - want) > 1e-6 * max(1, abs(want)):
                return False, "resultant root-product oracle failed"
        # adjoint homomorphism
        for _ in range(10):
            A, B = _random_sl2(rng), _random_sl2(rng)
            ad = [_block(adjoint(M)) for M in (_mul2(A, B), A, B)]
            lhs, rhs = ad[0], la.matmul(ad[1], ad[2])
            if max(abs(x - y) for r, s in zip(lhs, rhs)
                   for x, y in zip(r, s)) > 1e-9:
                return False, "adjoint homomorphism failed"
        # chain condition at solved representations
        record = _record("4_1")
        pres = record.presentation
        for _ in range(5):
            tr = mp.mpf(2) + mp.mpf(rng.uniform(-0.1, 0.15))
            rep = riley_solve(pres, tr, record.riley_seed)
            d1, d2 = boundaries(pres, rep)
            if la.frob(la.matmul(d1, d2)) > 1e-8 * la.frob(d1) * la.frob(d2):
                return False, "chain condition failed"
        # change-of-curve: A-polynomial partials against the branch formula
        A = record.apoly
        dq = from_text(BRANCH41_TEXT).derivative("x")
        pts = _apoly_samples(A, rng, 10)
        ratios = change_curve_apoly(A, pts)
        for (em, el), r in zip(pts, ratios):
            if isinstance(r, str):
                return False, f"singular sample: {r}"
            x, y = em + 1 / em, el + 1 / el
            rhs = mp.sqrt((y ** 2 - 4) / (x ** 2 - 4)) / dq.eval({"x": x})
            if min(abs(r - rhs), abs(r + rhs)) > 1e-6 * max(1, abs(rhs)):
                return False, "change-of-curve formulas disagree"
    return True, ("Fox rule exact on 200 pairs; resultant, adjoint, chain "
                  "condition and the two change-of-curve formulas all agree")


def _squarefree_parts(p: MultiPoly) -> List[Tuple[MultiPoly, int]]:
    """[(a_i, i)]: pairwise-coprime squarefree a_i of positive degree with
    p = c * prod a_i^i for a constant c; Yun's decomposition (SYMSAC 1976)
    of the univariate p."""
    var = p.vars[0]
    _, b, c = gcd_cofactors(p, p.derivative(var))
    parts, i = [], 1
    while b.degree_in(var) > 0:
        a, b, c = gcd_cofactors(b, c - b.derivative(var))
        if a.degree_in(var) > 0:
            parts.append((a, i))
        i += 1
    return parts


def _rand_univariate(rng):
    while True:
        cs = [Fraction(rng.randint(-5, 5), rng.randint(1, 3))
              for _ in range(rng.randint(2, 5))]
        p = from_dense("x", cs)
        if p.degree_in("x") >= 1:
            return p


def change_curve_apoly(A: APoly, samples):
    """Evaluate (el/em) * (dA/del) / (dA/dem) at points of A = 0.

    Per-sample output is either a complex ratio or an error string for
    singular points; a sample off the variety raises.
    """
    dA_m = A.poly.derivative(E_MU)
    dA_l = A.poly.derivative(E_LAMBDA)
    scale = max(abs(c) for c in A.poly.terms.values())
    out = []
    for em, el in samples:
        em, el = mp.mpc(em), mp.mpc(el)
        at = {E_MU: em, E_LAMBDA: el}
        if abs(A.poly.eval(at)) > 1e-8 * max(1, scale) * max(1, abs(em)) ** A.poly.degree_in(E_MU):
            raise CharVarError(f"sample ({em}, {el}) violates A = 0")
        dm = dA_m.eval(at)
        dl = dA_l.eval(at)
        if abs(dm) < 1e-8 * max(1, scale):
            out.append("singular point: dA/dem vanishes")
            continue
        out.append((el / em) * dl / dm)
    return out


def _apoly_samples(A, rng, n):
    pts = []
    while len(pts) < n:
        em = mp.mpc(1 + rng.uniform(0.05, 0.3), rng.uniform(-0.05, 0.05))
        for el in roots_at(A.poly, "el", {"em": em}):
            if abs(el) > 1e-4 and len(pts) < n:
                pts.append((em, el))
    return pts


def check_records() -> Tuple[bool, str]:
    with mp.workdps(40):
        for name in ("4_1", "5_2"):
            out = pl.validate_parabolic(_record(name))
            if not out["ok"]:
                return False, f"record {name}: parabolic longitude trace is not -2"
    return True, "bundled records pass deep validation (parabolic trace -2)"


CHECKS: List[Tuple[str, Callable[[], Tuple[bool, str]]]] = [
    ("5_2-elimination-exact", check_52_elimination),
    ("5_2-specialization-at-2", check_52_specialization),
    ("4_1-symbolic-chain", check_41_symbolic_chain),
    ("rho0-values", check_rho0_values),
    ("5_2-trace-field-membership", check_52_membership),
    ("4_1-numeric-engine", check_numeric_engine),
    ("property-suites", check_property_suites),
    ("record-validation", check_records),
]


def fmt(v):
    return mp.nstr(mp.mpc(v), 10)


def run_all(fmt: str = "text") -> bool:
    results = []
    token = _RUN_RECORDS.set({})
    try:
        for name, fn in CHECKS:
            try:
                ok, detail = fn()
            except Exception as exc:        # a crash is a failure, not an abort
                ok, detail = False, f"exception: {exc!r}"
            results.append({"name": name, "passed": ok, "detail": detail})
    finally:
        _RUN_RECORDS.reset(token)
    all_ok = all(r["passed"] for r in results)
    if fmt == "json":
        print(json.dumps({"checks": results, "all_passed": all_ok}, indent=2))
    else:
        for r in results:
            mark = "PASS" if r["passed"] else "FAIL"
            print(f"{mark} {r['name']}: {r['detail']}")
        print(f"{'OK' if all_ok else 'FAILED'} "
              f"({sum(r['passed'] for r in results)}/{len(results)} checks)")
    return all_ok
