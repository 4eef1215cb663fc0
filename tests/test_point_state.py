"""A sample point's shared evaluation lives only as long as the point.

`peripheral_torsions` memoises word images, Fox-term adjoints and chain norms
in one `Evaluation` per call, and `riley_solve` hands its relator residual to
the `Rep` it returns.  Whatever order, precision, thread or conjugation the
points come in, each result must equal a fresh single call bit for bit, and
the working precision must be left as it was.
"""

import random
import sys
import threading

import mpmath as mp
import pytest

from torsionpoly import pipelines as pl
from torsionpoly import torsion_num as tn
from torsionpoly.records import ingest_knot

KNOTS = ("4_1", "5_2")
DIGITS = (32, 50)
TRACE = "2.05"


def raw(point: dict) -> list:
    """Key, type name and raw value of every number of a point."""
    return [(key, type(x).__name__, getattr(x, "_mpc_", None) or x._mpf_)
            for key, x in sorted(point.items())]


def fresh_torsion_at(knot, digits):
    with mp.workdps(digits):
        return raw(pl.torsion_at(ingest_knot(knot), TRACE))


def solved(knot, digits):
    record = ingest_knot(knot)
    with mp.workdps(digits):
        rep = tn.riley_solve(record.presentation, mp.mpf(TRACE),
                             record.riley_seed)
    return record.presentation, rep


def test_interleaved_knots_and_precisions_equal_fresh_calls():
    prec = mp.mp.prec
    want = {(k, d): fresh_torsion_at(k, d) for k in KNOTS for d in DIGITS}
    records = {k: ingest_knot(k) for k in KNOTS}
    # 4_1 at 32, 5_2 at 32, 4_1 at 50, 5_2 at 50, then the same again
    for i in range(8):
        knot, digits = KNOTS[i % 2], DIGITS[i // 2 % 2]
        with mp.workdps(digits):
            got = raw(pl.torsion_at(records[knot], TRACE))
        assert got == want[knot, digits], (i, knot, digits)
    assert mp.mp.prec == prec


def test_four_threads_at_one_precision_equal_fresh_calls():
    # riley_solve sets the process-wide precision for its Newton steps, so
    # threads share only the points, which set none: each thread evaluates
    # both knots' solved representations in turn
    reps = {k: solved(k, 32) for k in KNOTS}
    with mp.workdps(32):
        want = {k: raw(tn.peripheral_torsions(*reps[k])) for k in KNOTS}
    results = [[] for _ in range(4)]

    def run(i):
        for j in range(4):
            knot = KNOTS[(i + j) % 2]
            results[i].append((knot, raw(tn.peripheral_torsions(*reps[knot]))))
    threads = [threading.Thread(target=run, args=(i,)) for i in range(4)]
    interval, prec = sys.getswitchinterval(), mp.mp.prec
    sys.setswitchinterval(1e-5)
    try:
        mp.mp.dps = 32
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        after = mp.mp.dps
    finally:
        mp.mp.prec = prec
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert after == 32
    assert all(len(r) == 4 for r in results)
    for r in results:
        for knot, got in r:
            assert got == want[knot], knot


@pytest.mark.parametrize("knot", KNOTS)
def test_a_conjugated_rep_is_evaluated_afresh(knot):
    rng = random.Random(17)
    pres, rep = solved(knot, 40)
    with mp.workdps(40):
        c0 = mp.mpc(rng.uniform(1, 2), rng.uniform(-1, 1))
        c1, c2 = mp.mpf("0.3"), mp.mpf("0.1")
        conj = rep.conjugated((c0, c1, c2, (1 + c1 * c2) / c0))
        # the residual riley_solve checked belongs to the unconjugated rep
        assert conj.checked is None and rep.checked is not None
        want_conj = raw(tn.peripheral_torsions(pres, tn.Rep(conj.generators)))
        want = raw(tn.peripheral_torsions(pres, tn.Rep(rep.generators)))
        for _ in range(2):
            assert raw(tn.peripheral_torsions(pres, conj)) == want_conj
            assert raw(tn.peripheral_torsions(pres, rep)) == want
    assert want_conj != want


@pytest.mark.parametrize("knot", KNOTS)
def test_a_residual_is_reused_only_at_its_own_precision(knot, monkeypatch):
    pres, rep = solved(knot, 50)
    folds = []
    real = tn._relator_residual

    def counted(*args):
        folds.append(mp.mp.prec)
        return real(*args)
    monkeypatch.setattr(tn, "_relator_residual", counted)
    for digits in (50, 32):
        with mp.workdps(digits):
            got = raw(tn.peripheral_torsions(pres, rep))
            assert got == raw(tn.peripheral_torsions(pres, tn.Rep(rep.generators)))
    # at 50 digits the handed-on residual answers, and only the plain Rep
    # folds; at 32 digits both fold the relator at the new precision
    assert folds == [mp.libmp.dps_to_prec(50)] + [mp.libmp.dps_to_prec(32)] * 2
