import json
import os

import mpmath as mp
import pytest

from torsionpoly import cli, pipelines as pl
from torsionpoly.records import (
    RecordError, bundled_record_text, ingest_knot, parse_record,
    validate_parabolic,
)


@pytest.fixture()
def cache_dir(tmp_path, monkeypatch):
    d = tmp_path / "cache"
    monkeypatch.setenv(cli.CACHE_ENV, str(d))
    return d


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# -- records ---------------------------------------------------------------

def test_bundled_records_ingest():
    for name in ("4_1", "5_2"):
        rec = ingest_knot(name)
        assert rec.name == name
        assert rec.presentation.abelianization_ok()


def test_ingest_from_path(tmp_path):
    p = tmp_path / "my.knot"
    p.write_text(bundled_record_text("4_1"))
    rec = ingest_knot(str(p))
    assert rec.name == "4_1"


def test_record_requires_some_pipeline():
    text = """
[knot]
name = toy

[presentation]
generators = 2
relator = aab
meridian = a
longitude = b
"""
    with pytest.raises(RecordError, match="apoly.*param_torsion|param_torsion.*apoly"):
        parse_record(text)


def test_record_hint_violating_constraint_rejected():
    bad = bundled_record_text("4_1").replace("hint = u 3", "hint = u 5")
    with pytest.raises(RecordError, match="param_torsion"):
        parse_record(bad)


def test_record_schema_error_names_line():
    bad = bundled_record_text("4_1").replace("generators = 2", "generators = x")
    with pytest.raises(RecordError, match=r"\[presentation\] line \d+"):
        parse_record(bad)


def test_record_entry_outside_section():
    with pytest.raises(RecordError, match="line 1"):
        parse_record("foo = bar\n")


def test_record_bad_word_letter():
    bad = bundled_record_text("4_1").replace("meridian = a", "meridian = a?")
    with pytest.raises(RecordError, match="presentation"):
        parse_record(bad)


def test_deep_validation():
    out = validate_parabolic(ingest_knot("4_1"))
    assert out["ok"]


# -- CLI ---------------------------------------------------------------

def test_cli_eliminate_golden(capsys, cache_dir):
    code, out, _ = run_cli(capsys, "eliminate", "--knot", "4_1", "--no-cache")
    assert code == 0
    assert "T_polynomial = 1*tau^2 - 4*y - 17" in out


def test_cli_rho0_lambda_exact(capsys, cache_dir):
    code, out, _ = run_cli(capsys, "rho0", "--knot", "4_1", "--curve", "lambda")
    assert code == 0
    assert "value_exact = 3" in out


def test_cli_rho0_mu_notes_discrepancy(capsys, cache_dir):
    code, out, _ = run_cli(capsys, "rho0", "--knot", "4_1", "--curve", "mu")
    assert code == 0
    assert "value_squared_exact = -3/4" in out
    assert "i*sqrt(3)" in out


def test_cli_json_schema(capsys, cache_dir):
    code, out, _ = run_cli(capsys, "--format", "json", "trace-relation",
                           "--knot", "4_1")
    assert code == 0
    doc = json.loads(out)
    assert list(doc) == ["command", "inputs_digest", "results", "notes", "tolerances"]


def test_cli_determinism_and_cache(capsys, cache_dir):
    args = ("membership", "--knot", "5_2")
    code1, out1, _ = run_cli(capsys, *args)
    assert code1 == 0
    # second run is served from the cache and must be byte-identical
    assert any(f.endswith(".json") for f in os.listdir(cache_dir))
    code2, out2, _ = run_cli(capsys, *args)
    assert out1 == out2
    # a fresh, uncached run agrees on the whole payload (the command echo and
    # digest differ only by the --no-cache flag itself)
    code3, out3, _ = run_cli(capsys, *args, "--no-cache")
    payload = lambda s: s.split("[results]", 1)[1]
    assert payload(out1) == payload(out3)


@pytest.mark.parametrize("entry", [
    [], {"json": "x"},
    {"text": "stale\n", "json": "stale\n"},
    {"text": "stale\n", "json": "stale\n", "source": "0" * 64},
], ids=["list", "no-text", "no-source", "other-source"])
def test_cli_malformed_cache_entry_is_a_miss(capsys, cache_dir, entry):
    args = ("eliminate", "--knot", "4_1")
    code1, fresh, _ = run_cli(capsys, *args)
    assert code1 == 0
    [name] = os.listdir(cache_dir)
    (cache_dir / name).write_text(json.dumps(entry))
    code2, out, _ = run_cli(capsys, *args)
    assert code2 == 0
    assert out == fresh
    # the recomputed report replaced the entry, and a third run hits it
    assert json.loads((cache_dir / name).read_text())["text"] == fresh
    stamp = lambda st: (st.st_ino, st.st_mtime_ns)
    before = stamp((cache_dir / name).stat())
    assert run_cli(capsys, *args)[1] == fresh
    assert stamp((cache_dir / name).stat()) == before


def test_cli_flag_position_flexible(capsys, cache_dir):
    _, out1, _ = run_cli(capsys, "--format", "json", "eliminate", "--knot", "4_1",
                         "--no-cache")
    _, out2, _ = run_cli(capsys, "eliminate", "--knot", "4_1", "--format", "json",
                         "--no-cache")
    d1, d2 = json.loads(out1), json.loads(out2)
    assert d1["results"] == d2["results"]


def test_cli_missing_pipeline_errors(capsys, cache_dir):
    code, out, err = run_cli(capsys, "trace-relation", "--knot", "5_2")
    assert code == 2
    assert "A-polynomial" in err


def test_cli_knot_directory_is_a_record_error(capsys, cache_dir, tmp_path):
    with pytest.raises(RecordError, match="cannot read knot record"):
        ingest_knot(str(tmp_path))
    code, _, err = run_cli(capsys, "torsion", "--knot", str(tmp_path),
                           "--trace", "2.05", "--no-cache")
    assert code == 2
    assert err.startswith("error: torsion: cannot read knot record")


@pytest.mark.parametrize("argv", [
    ("torsion", "--trace", "inf"),
    ("torsion", "--trace", "nan"),
    ("torsion", "--trace", "abc"),
    ("sweep", "--from", "nan", "--to", "2.1", "--steps", "2"),
    ("sweep", "--from", "1.9", "--to", "inf", "--steps", "2"),
], ids=["torsion-inf", "torsion-nan", "torsion-text", "sweep-from-nan",
        "sweep-to-inf"])
def test_cli_rejects_bad_trace(capsys, cache_dir, argv):
    code, out, err = run_cli(capsys, argv[0], "--knot", "4_1", *argv[1:],
                             "--no-cache")
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {argv[0]}: --")


@pytest.mark.parametrize("argv, message", [
    (("--precision", "0", "rho0", "--knot", "4_1"),
     "rho0: --precision must be at least 1, got 0"),
    (("--precision", "-3", "membership", "--knot", "5_2"),
     "membership: --precision must be at least 1, got -3"),
    (("--tolerance", "nan", "torsion", "--knot", "4_1", "--trace", "2.05"),
     "torsion: --tolerance must be a finite number, got nan"),
    (("--tolerance", "inf", "torsion", "--knot", "4_1", "--trace", "2.05"),
     "torsion: --tolerance must be a finite number, got +inf"),
    (("--tolerance=-inf", "torsion", "--knot", "4_1", "--trace", "2.05"),
     "torsion: --tolerance must be a finite number, got -inf"),
    (("--tolerance", "0", "torsion", "--knot", "4_1", "--trace", "2.05"),
     "torsion: --tolerance must be positive, got 0.0"),
    (("sweep", "--knot", "4_1", "--from", "1.9", "--to", "2.2", "--steps", "0"),
     "sweep: --steps must be at least 1, got 0"),
    (("sweep", "--knot", "4_1", "--from", "1.9", "--to", "2.2", "--steps", "2",
      "--jobs", "0"),
     "sweep: --jobs must be at least 1, got 0"),
], ids=["precision-0", "precision-negative", "tolerance-nan", "tolerance-inf",
        "tolerance-minus-inf", "tolerance-0", "steps-0", "jobs-0"])
def test_cli_rejects_bad_flags(capsys, cache_dir, argv, message):
    code, out, err = run_cli(capsys, *argv, "--no-cache")
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_cli_torsion_point(capsys, cache_dir):
    code, out, _ = run_cli(capsys, "torsion", "--knot", "4_1", "--trace", "2.05")
    assert code == 0
    assert "change_factor_ok = true" in out
    assert "homology_dims = 0 1 1" in out


def test_cli_sweep(capsys, cache_dir):
    code, out, _ = run_cli(capsys, "sweep", "--knot", "4_1", "--from", "2.02",
                           "--to", "2.06", "--steps", "2")
    assert code == 0
    assert "2.02/ratio_sq" in out and "2.06/ratio_sq" in out


def test_cli_validate(capsys, cache_dir):
    code, out, _ = run_cli(capsys, "validate", "--knot", "5_2")
    assert code == 0
    assert "ok = true" in out


def test_cli_verify_fails_nonzero(capsys, monkeypatch):
    from torsionpoly import verify
    broken = [("always-red", lambda: (False, "forced failure"))]
    monkeypatch.setattr(verify, "CHECKS", broken)
    assert cli.main(["verify"]) == 1
    out = capsys.readouterr().out
    assert "FAIL always-red" in out


@pytest.mark.parametrize("argv, flag", [
    (("--precision", "0", "--tolerance", "nan", "verify"), "--precision"),
    (("verify", "--precision", "100"), "--precision"),
    (("--tolerance", "1e-6", "verify"), "--tolerance"),
    (("verify", "--tolerance", "nan"), "--tolerance"),
    (("--no-cache", "verify"), "--no-cache"),
    (("verify", "--no-cache", "--format", "json"), "--no-cache"),
], ids=["precision-0-tolerance-nan", "precision-100", "tolerance", "tolerance-nan",
        "no-cache", "no-cache-json"])
def test_cli_verify_rejects_flags_it_ignores(capsys, monkeypatch, argv, flag):
    from torsionpoly import verify
    ran = []
    monkeypatch.setattr(verify, "CHECKS", [("probe", lambda: ran.append(1) or (True, ""))])
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, ran) == (2, "", [])
    assert err.startswith(f"error: verify: {flag} has no effect")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("argv", [("verify",), ("--format", "json", "verify"),
                                  ("verify", "--precision", "64", "--tolerance", "1e-8")])
def test_cli_verify_accepts_default_flags(capsys, monkeypatch, argv):
    from torsionpoly import verify
    monkeypatch.setattr(verify, "CHECKS", [("probe", lambda: (True, "ran"))])
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    if "json" in argv:
        assert json.loads(out)["all_passed"] is True
    else:
        assert out == "PASS probe: ran\nOK (1/1 checks)\n"


def test_cli_sweep_parallel_matches_serial(capsys, cache_dir):
    args = ["sweep", "--knot", "4_1", "--from", "2.03", "--to", "2.09",
            "--steps", "2", "--no-cache"]
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args, "--jobs", "2")
    assert code1 == code2 == 0
    payload = lambda s: s.split("[results]", 1)[1]
    assert payload(out1) == payload(out2)


def test_cli_sweep_parallel_matches_serial_52(capsys, cache_dir):
    # workers receive the record with its artifacts derived in the parent
    args = ["sweep", "--knot", "5_2", "--from", "1.95", "--to", "2.15",
            "--steps", "3", "--no-cache"]
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args, "--jobs", "2")
    assert code1 == code2 == 0
    payload = lambda s: s.split("[results]", 1)[1]
    assert payload(out1) == payload(out2)


def test_cli_sweep_skips_singular_points(capsys, cache_dir):
    # the parabolic point itself has a degenerate invariant form; the sweep
    # reports it per-point and completes the remaining traces
    code, out, _ = run_cli(capsys, "sweep", "--knot", "4_1", "--from", "1.9",
                           "--to", "2.1", "--steps", "3", "--no-cache")
    assert code == 0
    assert "2.0/error" in out
    assert "1.9/ratio_sq" in out and "2.1/ratio_sq" in out


def test_cli_sweep_contains_non_converging_point(capsys, cache_dir, monkeypatch):
    # mpmath's NoConvergence is no ValueError; the diagnostic root finding
    # turns it into a PipelineError, so only its own point fails
    solving = []
    real_solve, real_roots = pl.riley_solve, mp.polyroots

    def solve(pres, trace, *args, **kwargs):
        solving.append(mp.nstr(trace, 12))
        return real_solve(pres, trace, *args, **kwargs)

    def roots(*args, **kwargs):
        if solving[-1] == "2.06":
            raise mp.libmp.NoConvergence("injected")
        return real_roots(*args, **kwargs)
    monkeypatch.setattr(pl, "riley_solve", solve)
    monkeypatch.setattr(mp, "polyroots", roots)
    code, out, err = run_cli(capsys, "sweep", "--knot", "5_2", "--from", "2.03",
                             "--to", "2.09", "--steps", "3", "--no-cache")
    assert code == 0, err
    assert "2.06/error = diagnostic scalar at trace 2.06: injected" in out
    assert "2.03/diagnostic_scalar" in out and "2.09/diagnostic_scalar" in out
