"""Tests of the benchmark itself: its output checks, its seeded inputs, its
tracer and its refusal to run without the program.

    python3 -m pytest benchmarks/test_benchmark.py -q
"""

from __future__ import annotations

import hashlib
import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import check
import run
import workloads as wl
from tracing import Tracer

cli = wl.load_program()


def _report(argv, cache_dir=None):
    rc, out, err = wl.run_cli(cli.main, wl.FORMAT + ("--no-cache",) + argv,
                              cache_dir)
    assert rc == 0, err
    return json.loads(out)


@pytest.fixture(scope="module")
def sweep_41():
    """A real 3-point sweep over 1.9, 2.0 and 2.1: 2.0 is the parabolic
    point, which the engine refuses by design."""
    return _report(wl.sweep_argv("4_1", "1.9", "2.1")[:-3] + ("--steps", "3"))


def _sweep_verdict(report):
    return check.check_sweep("4_1", "1.9", "2.1", 3, 0, json.dumps(report), "")


def test_every_expected_report_matches_the_program():
    for argv in wl.symbolic_pairs():
        report = _report(argv)
        assert check.check_symbolic(argv, 0, json.dumps(report), "") is None


def test_one_changed_coefficient_fails_the_op():
    argv = ("eliminate", "--knot", "5_2")
    report = _report(argv)
    text = report["results"]["T_polynomial"]
    assert "- 8850*y^10" in text
    report["results"]["T_polynomial"] = text.replace("- 8850*y^10", "- 8851*y^10")
    problem = check.check_symbolic(argv, 0, json.dumps(report), "")
    assert problem is not None and "T_polynomial" in problem


def test_a_changed_note_or_a_nonzero_exit_fails_the_op():
    argv = ("rho0", "--knot", "4_1", "--curve", "mu")
    report = _report(argv)
    report["notes"] = report["notes"][:1]
    assert check.check_symbolic(argv, 0, json.dumps(report), "") is not None
    assert check.check_symbolic(argv, 2, "", "error: rho0: boom\n") is not None


def test_a_clean_sweep_passes_with_its_parabolic_refusal(sweep_41):
    assert sweep_41["results"]["2.0/error"] == check.PARABOLIC_ERROR
    assert _sweep_verdict(sweep_41) == (3, None)


def test_an_unexpected_point_error_fails_the_sweep(sweep_41):
    report = json.loads(json.dumps(sweep_41))
    results = {k: v for k, v in report["results"].items()
               if not k.startswith("2.1/")}
    results["2.1/error"] = "representation violates relators: 1e-3"
    report["results"] = results
    points, problem = _sweep_verdict(report)
    assert problem is not None and "2.1" in problem


@pytest.mark.parametrize("key, value", [
    ("1.9/change_factor_ok", "false"),
    ("1.9/tau_lambda", "5.0 + 1.0i"),
    ("1.9/tr_lambda", "-2.0"),
    ("1.9/ratio_sq", "-0.5"),
    ("1.9/homology_dims", "0 1 2"),
])
def test_a_wrong_point_value_fails_the_sweep(sweep_41, key, value):
    report = json.loads(json.dumps(sweep_41))
    report["results"][key] = value
    assert _sweep_verdict(report)[1] is not None


def test_the_parabolic_error_is_allowed_only_at_trace_two():
    fields = {"error": check.PARABOLIC_ERROR}
    assert check.check_point("4_1", "2.0", fields) is None
    assert check.check_point("4_1", "2.05", fields) is not None


def _source_digest():
    h = hashlib.sha256()
    for path in sorted((wl.SRC / "torsionpoly").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(path.read_bytes())
    return h.hexdigest()


def test_a_new_seed_changes_the_inputs_but_not_the_program(tmp_path):
    sym = [list(itertools.islice(wl.symbolic_ops(s), 28)) for s in (1, 2)]
    assert sym[0] != sym[1]
    # the same valid pairs in the same proportions, only the order differs
    assert sorted(sym[0]) == sorted(sym[1])
    assert set(sym[0]) == set(wl.symbolic_pairs())
    sweeps = [list(itertools.islice(wl.sweep_ops(s), 6)) for s in (1, 2)]
    assert sweeps[0] != sweeps[1]
    for knot, lo, hi in sweeps[0] + sweeps[1]:
        assert 1.85 <= float(lo) < 2 < float(hi) <= 2.25
        assert wl.sweep_argv(knot, lo, hi)[-3:] == ("--steps", "7", "--no-cache")
    assert sorted(k for k, _, _ in sweeps[0]) == ["4_1"] * 4 + ["5_2"] * 2
    # the same seed gives the same inputs
    assert list(itertools.islice(wl.symbolic_ops(1), 28)) == sym[0]
    before = _source_digest()
    runner = run.InProcess("symbolic", cli, tmp_path)
    for ops in sym:
        assert runner.run(ops[0]).problem is None
    assert _source_digest() == before


def test_tracer_restores_the_program_and_accounts_for_all_time(tmp_path):
    polys = sys.modules["torsionpoly.polys"]
    originals = (polys.resultant, cli.ingest_knot, cli.to_text,
                 sys.modules["torsionpoly.numfield"].NumberField.__dict__["create"])
    tracer = Tracer()
    tracer.install()
    assert polys.resultant is not originals[0]
    assert cli.ingest_knot is not originals[1]
    tracer.begin_op(0)
    wl.run_cli(cli.main, wl.FORMAT + ("membership", "--knot", "5_2"), tmp_path)
    tracer.end_op()
    tracer.uninstall()
    assert (polys.resultant, cli.ingest_knot, cli.to_text,
            sys.modules["torsionpoly.numfield"].NumberField.__dict__["create"]) \
        == originals
    rec = tracer.op_records()[0]
    root = tracer.spans[0]
    assert sum(rec["self_s"].values()) == pytest.approx(root[3] - root[2])
    assert rec["calls"]["polys.resultant"] == rec["resultant_distinct"] == 1
    assert rec["calls"]["numfield.NumberField.create"] == 1
    assert rec["calls"]["cli.cache_load"] == 1 and rec["cache_hits"] == 0
    assert tracer.sizes()["sylvester_dims"] == [5]


def test_benchmark_json_names_every_metric_run_prints():
    spec = json.loads((wl.ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] \
        == list(run.END_TO_END_UNITS.items())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] \
        == [(name, unit) for name, unit, _, _ in run.PER_LAYER]
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(wl.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(Path(run.__file__).parent, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "symbolic",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
