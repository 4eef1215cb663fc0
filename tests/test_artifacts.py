"""Symbolic artifacts are derived once per record and shared by its readers."""

import io
import sys
import threading
from contextlib import redirect_stdout

import mpmath as mp
import pytest

from torsionpoly import (
    charvar, cli, numfield, pipelines as pl, polys, torsion_sym,
)
from torsionpoly.records import ingest_knot


def count_calls(monkeypatch, modules, name):
    """Replace `name` in each module by a wrapper that appends to the
    returned list on every call."""
    calls = []
    for module in modules:
        real = getattr(module, name)

        def counted(*args, _real=real, **kwargs):
            calls.append(name)
            return _real(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("read", [pl.eliminated_T, pl.branch_and_factor,
                                  pl.transported_T])
def test_second_read_is_the_same_object(read, monkeypatch):
    # every derivation ends in squarefree_primitive
    calls = count_calls(monkeypatch, (charvar, torsion_sym), "squarefree_primitive")
    record = ingest_knot("4_1")
    first = read(record)
    derived = len(calls)
    assert derived > 0
    assert read(record) is first
    assert len(calls) == derived


def test_trace_relation_takes_no_resultant(monkeypatch):
    # the trace relation is a norm over two monic quadratics
    modules = [m for m in (charvar, polys) if hasattr(m, "resultant")]
    calls = count_calls(monkeypatch, modules, "resultant")
    relation = charvar.trace_relation(ingest_knot("4_1").apoly)
    assert relation.poly.degree_in("y") > 0
    assert calls == []


def test_serial_sweep_derives_each_artifact_once(monkeypatch, capsys):
    relations = count_calls(monkeypatch, (pl,), "trace_relation")
    eliminations = count_calls(monkeypatch, (pl,), "eliminate_T")
    code = cli.main(["--no-cache", "sweep", "--knot", "4_1", "--from", "1.9",
                     "--to", "2.2", "--steps", "7"])
    assert code == 0
    assert "2.2/diagnostic_scalar" in capsys.readouterr().out
    assert len(relations) == 1
    assert len(eliminations) == 1


def test_records_share_no_artifacts():
    a, b = ingest_knot("4_1"), ingest_knot("4_1")
    assert a == b
    assert pl.eliminated_T(a) is not pl.eliminated_T(b)
    assert pl.trace_relation_of(a) is not pl.trace_relation_of(b)
    assert pl.branch_and_factor(a) is not pl.branch_and_factor(b)
    assert a == b


def test_threads_reading_one_record_agree():
    record = ingest_knot("4_1")
    results = [None] * 4

    def read(i):
        results[i] = pl.transported_T(record)
    threads = [threading.Thread(target=read, args=(i,)) for i in range(4)]
    interval, prec = sys.getswitchinterval(), mp.mp.prec
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    # mpmath's working precision is one process-wide setting (see the
    # README); the exact derivation sets none, so no interleaving changes it
    assert mp.mp.prec == prec
    assert all(r is not None and r.poly == results[0].poly for r in results)
    assert pl.transported_T(record).poly == results[0].poly


def test_errors_are_not_stored():
    record = ingest_knot("5_2")
    for _ in range(2):
        with pytest.raises(pl.PipelineError, match="no A-polynomial"):
            pl.branch_and_factor(record)
    assert record.artifacts == {}


@pytest.mark.parametrize("knot, read, reductions", [("5_2", pl.eliminated_T, 0),
                                                    ("4_1", pl.transported_T, 1)])
def test_gcd_calls_per_derivation(knot, read, reductions, monkeypatch):
    """squarefree_primitive takes the squarefree part as a cofactor of one
    gcd, with no content computed, and reducing the 4_1 change-of-curve
    factor by `gcd_cofactors` takes one more: a fresh record's derivation
    takes 2 and 5 squarefree parts, so 2 and 6 gcds (56 and 74 when
    contents were recomputed).  Every gcd is one `_gcd_parts` call."""
    parts = count_calls(monkeypatch, (torsion_sym, charvar), "squarefree_primitive")
    calls = count_calls(monkeypatch, (polys,), "_gcd_parts")
    read(ingest_knot(knot))
    assert len(calls) == len(parts) + reductions == {"5_2": 2, "4_1": 6}[knot]


@pytest.mark.parametrize("knot, read", [("5_2", pl.eliminated_T),
                                        ("4_1", pl.transported_T)])
def test_derivation_finds_no_numeric_roots(knot, read, monkeypatch):
    """Elimination and transport prove their result by exact division, so
    deriving them follows no branch numerically."""
    calls = count_calls(monkeypatch, (torsion_sym,), "roots_numeric")
    read(ingest_knot(knot))
    assert calls == []


def test_verify_derives_each_record_once(monkeypatch, capsys):
    """A `verify` run ingests each bundled record once and its checks share
    it, so each parametrized torsion is eliminated once and the 4_1 trace
    relation derived once (6 eliminations when every check ingested its own
    record)."""
    eliminated = []
    real = pl.eliminate_T
    monkeypatch.setattr(pl, "eliminate_T",
                        lambda pt: eliminated.append(pt) or real(pt))
    relations = count_calls(monkeypatch, (pl,), "trace_relation")
    assert cli.main(["verify"]) == 0
    assert "OK (8/8 checks)" in capsys.readouterr().out
    assert len(eliminated) == len({id(pt) for pt in eliminated}) == 2
    assert len(relations) == 1


@pytest.mark.parametrize("argv, passes", [
    (("rho0", "--knot", "4_1"), 1),
    (("rho0", "--knot", "5_2"), 1),
    (("rho0", "--knot", "4_1", "--curve", "mu"), 1),
    (("membership", "--knot", "4_1"), 2),
    (("membership", "--knot", "5_2"), 2),
], ids=["rho0-lambda-4_1", "rho0-lambda-5_2", "rho0-mu-4_1",
        "membership-4_1", "membership-5_2"])
def test_root_passes_per_command(argv, passes, monkeypatch):
    """Each polynomial's roots are found once per command and precision:
    the rho0 value carries the roots of the specialized polynomial when
    that is its minimal polynomial, a rational value (4_1 lambda selects
    the root 3) carries its exact root and takes no pass of its linear
    factor, and the trace field carries the roots express_in_field pairs
    with them (5 passes for 5_2 membership, 2 for each rho0 when every step
    found its own).  charvar and verify take no root pass, so they bind no
    roots_numeric to count."""
    calls = count_calls(monkeypatch, (numfield, torsion_sym), "roots_numeric")
    with redirect_stdout(io.StringIO()):
        assert cli.main(["--no-cache", *argv]) == 0
    assert len(calls) == passes
