import json
import os
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import mpmath as mp
import pytest

from torsionpoly import cli, front, pipelines as pl
from torsionpoly import records
from torsionpoly.records import (
    RATIONAL_BITS, RECORD_DEGREE, RecordError, bundled_record_text, ingest_knot, parse_record,
)

SRC = Path(__file__).resolve().parents[1] / "src"


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


@pytest.mark.parametrize("dps", [1, 2, 5, 15, 64])
def test_bundled_records_ingest_at_any_working_precision(dps):
    # the hint checks are exact, so no working precision decides them
    for name in ("4_1", "5_2"):
        with mp.workdps(dps):
            assert ingest_knot(name).name == name


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


@pytest.mark.parametrize("edit, message", [
    (("generators = 2\nrelator = aBAbaBabAB",
      "generators = 3\nrelator = aBAbaBabAB\nrelator = c"),
     "abelianization check implemented for s = 2"),
    (("relator = aBAbaBabAB", "relator = aabb"),
     "abelianization is not infinite cyclic"),
    (("relator = aBAbaBabAB", "relator = aBAbaBabAB\nrelator = aBAbaBabAB"),
     "presentation is not deficiency one: 2 relators on 2 generators"),
], ids=["three-generators", "not-infinite-cyclic", "two-relators"])
def test_record_abelianization_error_names_line(capsys, cache_dir, tmp_path,
                                                edit, message):
    p = tmp_path / "bad.knot"
    p.write_text(bundled_record_text("4_1").replace(*edit))
    with pytest.raises(RecordError) as info:
        ingest_knot(str(p))
    assert str(info.value) == f"[presentation] line 6: {message}"
    code, out, err = run_cli(capsys, "eliminate", "--knot", str(p), "--no-cache")
    assert (code, out) == (2, "")
    assert err == f"error: eliminate: [presentation] line 6: {message}\n"


@pytest.mark.parametrize("edit, message", [
    (("embedding = 0 1.7320508", "embedding = nan 0"),
     "[trace_field] line 39: expected finite `re [im]`, got 'nan 0'"),
    (("mu_rule = hint 0 0.87", "mu_rule = hint inf 0.87"),
     "[rho0] line 45: expected finite `re [im]`, got 'inf 0.87'"),
    (("hint = u 3", "hint = u nan"),
     "[param_torsion] line 33: expected finite `re [im]`, got 'nan'"),
    (("riley_seed = 0.5 0.9", "riley_seed = nan 0.9"),
     "[rho0] line 47: expected finite `re [im]`, got 'nan 0.9'"),
    (("branch_hint = 2 -2", "branch_hint = 2 -inf"),
     "[apoly] line 24: expected finite `re [im]`, got '2 -inf'"),
    (("branch_hint = 2 -2", "branch_hint = 2 x"),
     "[apoly] line 24: expected finite `re [im]`, got '2 x'"),
    (("lambda_trace_value = -2", "lambda_trace_value = abc"),
     "[rho0] line 42: Invalid literal for Fraction: 'abc'"),
    (("mu_trace_value = 2", "mu_trace_value = 2/0"),
     "[rho0] line 44: zero denominator in '2/0'"),
    (("term = 0 0 -2", "term = 0 0 1/0"),
     "[apoly] line 21: zero denominator in '1/0'"),
    (("constraint = u^2 - 4*y - 17", "constraint = u^2 - 4*y - 17 +"),
     "[param_torsion] line 32: cannot parse polynomial text 'u^2 - 4*y - 17 +'"),
    (("tau_expr = u", "tau_expr = 2/0*u"),
     "[param_torsion] line 31: zero denominator in term '2/0*u' in '2/0*u'"),
    (("poly = x^2 + 3", "poly = x^2 + 3/0"),
     "[trace_field] line 38: zero denominator in term '3/0' in 'x^2 + 3/0'"),
    (("constraint = u^2 - 4*y - 17", "constraint = u^2 - 4*y - 1 7"),
     "[param_torsion] line 32: whitespace inside term '1 7' in 'u^2 - 4*y - 1 7'"),
    (("poly = x^2 + 3", "poly = x^1 0 + 3"),
     "[trace_field] line 38: whitespace inside term 'x^1 0' in 'x^1 0 + 3'"),
    (("riley_seed = 0.5 0.9", "riley_seed = 0.5 0.9\nriley_seed = 0.5 0.9"),
     "[rho0] line 48: duplicate key 'riley_seed'"),
], ids=["embedding-nan", "mu-rule-inf", "hint-nan", "riley-seed-nan",
        "branch-hint-inf", "branch-hint-text", "trace-value-text",
        "trace-value-zero-denominator", "term-zero-denominator",
        "constraint-text", "tau-expr-zero-denominator",
        "trace-field-zero-denominator", "constraint-split-number",
        "trace-field-split-exponent", "duplicate-key"])
def test_record_numbers_are_finite_and_errors_name_their_place(
        capsys, cache_dir, tmp_path, edit, message):
    p = tmp_path / "bad.knot"
    p.write_text(bundled_record_text("4_1").replace(*edit))
    with pytest.raises(RecordError) as info:
        ingest_knot(str(p))
    assert str(info.value) == message
    code, out, err = run_cli(capsys, "validate", "--knot", str(p), "--no-cache")
    assert (code, out) == (2, "")
    assert err == f"error: validate: {message}\n"


@pytest.mark.parametrize("edit, message", [
    (("riley_seed = 0.5 0.9", "riley_sed = 0.5 0.9"),
     "[rho0] line 47: unknown key 'riley_sed'"),
    (("branch_hint = 2 -2", "branch_hint = 2 -2\nbrnach = 1"),
     "[apoly] line 25: unknown key 'brnach'"),
    (("riley_seed = 0.5 0.9", "riley_seed = 0.5 0.9\n\n[extra]\nkey = 1"),
     "[extra] line 49: unknown section"),
    (("[param_torsion]\n", ""),
     "[apoly] line 27: unknown key 'aux_vars'"),
    (("[trace_field]", "[trace_field]\n[trace_field]"),
     "[trace_field] line 38: duplicate section"),
    (("[knot]\nname = 4_1\n", ""),
     "[knot] line 45: the record ends without this section"),
], ids=["misspelled-seed", "extra-apoly-key", "extra-section",
        "deleted-param-torsion-header", "duplicate-section", "no-knot-section"])
def test_record_refuses_keys_and_sections_it_does_not_define(
        capsys, cache_dir, tmp_path, edit, message):
    text = bundled_record_text("4_1")
    assert edit[0] in text
    p = tmp_path / "bad.knot"
    p.write_text(text.replace(*edit))
    with pytest.raises(RecordError) as info:
        ingest_knot(str(p))
    assert str(info.value) == message
    for cmd in ("validate", "eliminate"):
        code, out, err = run_cli(capsys, cmd, "--knot", str(p), "--no-cache")
        assert (code, out, err) == (2, "", f"error: {cmd}: {message}\n")


def test_spaces_inside_a_term_do_not_join_exponents(capsys, cache_dir, tmp_path):
    # read with its spaces deleted, this term was 7*u^2007*y^2, and the
    # elimination ran for more than a minute
    text = bundled_record_text("5_2")
    assert "7*u^2 - 5*u^2*y^2" in text
    p = tmp_path / "bad.knot"
    p.write_text(text.replace("7*u^2 - 5*u^2*y^2", "7*u^2 0 0 5*u^2*y^2"))
    code, out, err = run_cli(capsys, "eliminate", "--knot", str(p), "--no-cache")
    assert (code, out) == (2, "")
    assert err == ("error: eliminate: [param_torsion] line 23: whitespace inside "
                   "term '7*u^2 0 0 5*u^2*y^2' in "
                   "'5*u*y^4 - 37*u*y^2 + 36*u + 7*u^2 0 0 5*u^2*y^2'\n")


@pytest.mark.parametrize("value", ["1e400", "1/18446744073709551616"])
def test_long_trace_values_are_refused_at_once(tmp_path, cache_dir, value):
    """A trace value of 10^400 kept membership busy for about 17 s before it
    answered; one whose numerator or denominator has more than 64 bits is
    refused with the key's line and the limit, well inside the guard."""
    p = tmp_path / "big.knot"
    p.write_text(bundled_record_text("5_2").replace(
        "lambda_trace_value = 2", f"lambda_trace_value = {value}"))
    proc = subprocess.run(
        [sys.executable, "-m", "torsionpoly.cli", "--no-cache", "membership",
         "--knot", str(p)], capture_output=True, text=True, timeout=5,
        env=dict(os.environ, PYTHONPATH=str(SRC)))
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == ("error: membership: [rho0] line 34: lambda_trace_value has a "
                           f"numerator or denominator over {RATIONAL_BITS} bits\n")
    limit = 2 ** RATIONAL_BITS - 1
    p.write_text(bundled_record_text("5_2").replace(
        "lambda_trace_value = 2", f"lambda_trace_value = -{limit}/{limit - 2}"))
    assert ingest_knot(str(p)).rho0["lambda"].trace_value == Fraction(-limit, limit - 2)


@pytest.mark.parametrize("key, edit, message", [
    ("5_2", ("lambda_trace_value = 2", "lambda_trace_value = 1e10000000"),
     "[rho0] line 34: lambda_trace_value has a numerator or denominator over "
     f"{RATIONAL_BITS} bits"),
    ("5_2", ("lambda_trace_value = 2", "lambda_trace_value = 1e-10000000"),
     "[rho0] line 34: lambda_trace_value has a numerator or denominator over "
     f"{RATIONAL_BITS} bits"),
    ("4_1", ("term = 0 0 -2", "term = 0 0 1e10000000"),
     "[apoly] line 21: term coefficient has a numerator or denominator over "
     f"{RATIONAL_BITS} bits"),
    ("4_1", ("term = 0 0 -2", "term = 0 0 1/18446744073709551616"),
     "[apoly] line 21: term coefficient has a numerator or denominator over "
     f"{RATIONAL_BITS} bits"),
    ("5_2", ("lambda_trace_value = 2", "lambda_trace_value = " + "1" * 5000),
     "[rho0] line 34: lambda_trace_value has a numerator or denominator over "
     f"{RATIONAL_BITS} bits"),
    ("5_2", ("lambda_trace_value = 2", "lambda_trace_value = 1/" + "3" * 5000),
     "[rho0] line 34: lambda_trace_value has a numerator or denominator over "
     f"{RATIONAL_BITS} bits"),
    ("4_1", ("mu_trace_value = 2", "mu_trace_value = " + "1" * 5000 + ".5"),
     "[rho0] line 44: mu_trace_value has a numerator or denominator over "
     f"{RATIONAL_BITS} bits"),
    ("4_1", ("term = 0 0 -2", "term = 0 0 " + "7" * 5000),
     "[apoly] line 21: term coefficient has a numerator or denominator over "
     f"{RATIONAL_BITS} bits"),
    ("4_1", ("term = 0 0 -2", "term = 0 0 1e" + "9" * 5000),
     "[apoly] line 21: term coefficient has a numerator or denominator over "
     f"{RATIONAL_BITS} bits"),
], ids=["trace-value-exponent", "trace-value-negative-exponent",
        "term-coefficient-exponent", "term-coefficient-denominator",
        "trace-value-5000-digits", "trace-value-5000-digit-denominator",
        "trace-value-5000-digit-decimal", "term-coefficient-5000-digits",
        "term-coefficient-5000-digit-exponent"])
def test_long_numbers_are_refused_before_conversion(capsys, cache_dir, tmp_path,
                                                    key, edit, message):
    """Fraction expands a decimal exponent in full: 1e10000000 took about
    9 s before the size cap refused it, and term coefficients had no cap.
    A digit string of over 4300 digits got Python's own conversion error,
    which named neither the key nor the cap."""
    text = bundled_record_text(key)
    assert edit[0] in text
    p = tmp_path / "big.knot"
    p.write_text(text.replace(*edit, 1))
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "validate", "--knot", str(p), "--no-cache")
    assert time.perf_counter() - start < 2
    assert (code, out, err) == (2, "", f"error: validate: {message}\n")


@pytest.mark.parametrize("text", [
    "0", "-3/4", "2.5", "1e3", "1_000.5", "+.5e1", "5.", "-0e10000000",
    "1" + "0" * 80 + "e-80", "1.8446744073709551615e19", "2e-19",
    "12345678901234567890e-1", "  7  ", "-1_0/2_0", "00/7", "1.e5", "-1.5e-3",
])
def test_rational_reads_what_fraction_reads(text):
    assert records._rational(text, "x") == Fraction(text.replace("e10000000", ""))


@pytest.mark.parametrize("text, value", [
    ("0" * 5000 + "1", 1), ("1/" + "0" * 5000 + "3", Fraction(1, 3)),
    ("-" + "0" * 5000 + ".5", Fraction(-1, 2)), ("1e-" + "0" * 5000 + "5",
                                                 Fraction(1, 10 ** 5)),
], ids=["integer", "denominator", "decimal", "exponent"])
def test_rational_reads_leading_zeros_past_the_conversion_limit(text, value):
    """Leading zeros are not significant digits: Fraction refuses these
    texts as longer than 4300 digits, and the record reader does not."""
    assert records._rational(text, "x") == value


def test_rational_keeps_the_errors_of_what_is_no_number():
    for text, message in (("abc", "Invalid literal for Fraction: 'abc'"),
                          ("2/00", "zero denominator in '2/00'"),
                          ("1/-2", "Invalid literal for Fraction: '1/-2'")):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            records._rational(text, "x")


@pytest.mark.parametrize("text", [
    "1e65", "1.8446744073709551616e19", "1e-65", "5e-28", "1" * 30,
    "-1e99999999999", "1/" + "9" * 30, "1" * 5000, "1/" + "3" * 5000,
    "1" * 5000 + ".5", "0." + "1" * 5000, "1e" + "1" * 5000, "1" * 129 + "/" + "1" * 129,
], ids=lambda text: text if len(text) <= 40 else f"{text[:6]}...{len(text)}-chars")
def test_rational_refuses_what_passes_the_bits(text):
    with pytest.raises(ValueError, match=f"x has a numerator or denominator "
                                         f"over {RATIONAL_BITS} bits"):
        records._rational(text, "x")


@pytest.mark.parametrize("key, edit, message", [
    ("4_1", ("constraint = u^2 - 4*y - 17", "constraint = u^100000 - 1"),
     f"[param_torsion] line 32: total degree over {RECORD_DEGREE}"),
    ("4_1", ("tau_expr = u", "tau_expr = u^33*y^32"),
     f"[param_torsion] line 31: total degree over {RECORD_DEGREE}"),
    ("5_2", ("poly = x^3 - x^2 + 1", "poly = x^65 - x^2 + 1"),
     f"[trace_field] line 30: total degree over {RECORD_DEGREE}"),
    ("4_1", ("term = 4 0 1", "term = 40 -25 1"),
     f"[apoly] line 17: term total degree over {RECORD_DEGREE}"),
], ids=["constraint", "tau-expr", "trace-field", "apoly-term"])
def test_record_polynomials_have_a_total_degree_cap(capsys, cache_dir, tmp_path,
                                                    key, edit, message):
    text = bundled_record_text(key)
    assert edit[0] in text
    p = tmp_path / "deep.knot"
    p.write_text(text.replace(*edit, 1))
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "eliminate", "--knot", str(p), "--no-cache")
    assert time.perf_counter() - start < 2
    assert (code, out, err) == (2, "", f"error: eliminate: {message}\n")


def test_record_polynomials_at_the_degree_cap_are_read(tmp_path):
    p = tmp_path / "deep.knot"
    p.write_text(bundled_record_text("4_1")
                 .replace("poly = x^2 + 3", f"poly = x^{RECORD_DEGREE} + 3")
                 .replace("term = 4 0 1", f"term = 32 {32 - RECORD_DEGREE} 1"))
    record = ingest_knot(str(p))
    assert record.trace_field_poly.degree_in("x") == RECORD_DEGREE


def test_an_apoly_term_at_the_degree_cap_eliminates_in_seconds(capsys, cache_dir,
                                                                tmp_path):
    # the gcds of this elimination need integer images of about 150,000
    # bits; the heuristic GCD once gave up on them, and the primitive
    # remainder sequence it fell back on ran for minutes
    p = tmp_path / "deep.knot"
    p.write_text(bundled_record_text("4_1").replace("term = 4 0 1", "term = 4 60 1"))
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "trace-relation", "--knot", str(p), "--no-cache")
    assert time.perf_counter() - start < 10
    assert (code, err) == (0, "") and "trace_relation = " in out


def test_record_entry_outside_section():
    with pytest.raises(RecordError, match="line 1"):
        parse_record("foo = bar\n")


def test_record_bad_word_letter():
    bad = bundled_record_text("4_1").replace("meridian = a", "meridian = a?")
    with pytest.raises(RecordError, match="presentation"):
        parse_record(bad)


def test_deep_validation():
    with mp.workdps(40):
        out = pl.validate_parabolic(ingest_knot("4_1"))
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
    assert any(f.endswith(".txt") for f in os.listdir(cache_dir))
    code2, out2, _ = run_cli(capsys, *args)
    assert out1 == out2
    # a fresh, uncached run agrees on the whole payload (the command echo and
    # digest differ only by the --no-cache flag itself)
    code3, out3, _ = run_cli(capsys, *args, "--no-cache")
    payload = lambda s: s.split("[results]", 1)[1]
    assert payload(out1) == payload(out3)


def _parent_entry(report):
    """An entry as the JSON envelope of an earlier cache layout stored it,
    both formats and the current source digest in one object."""
    envelope = {"text": report, "json": report, "source": front._source_digest()}
    return json.dumps(envelope).encode()


@pytest.mark.parametrize("entry", [
    lambda report: b"",
    lambda report: front._source_digest().encode(),
    lambda report: ("0" * 64 + "\n" + report).encode(),
    lambda report: (front._source_digest() + "\n").encode() + b"\xff" + report.encode(),
    _parent_entry,
], ids=["empty", "no-header-line", "other-source", "undecodable", "parent-json"])
def test_cli_malformed_cache_entry_is_a_miss(capsys, cache_dir, entry):
    args = ("eliminate", "--knot", "4_1")
    code1, fresh, _ = run_cli(capsys, *args)
    assert code1 == 0
    [name] = os.listdir(cache_dir)
    (cache_dir / name).write_bytes(entry(fresh))
    code2, out, _ = run_cli(capsys, *args)
    assert code2 == 0
    assert out == fresh
    # the recomputed report replaced the entry, and a third run hits it
    assert (cache_dir / name).read_bytes() \
        == (front._source_digest() + "\n" + fresh).encode()
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


def results_section(out: str) -> str:
    """The [results] lines of a text report."""
    return out.split("[results]\n", 1)[-1].split("\n[", 1)[0]


# 2.1 -0.6019 is on the branch y = x^4 - 5x^2 + 2 up to the floats' rounding
BRANCH_HINT_EDIT = ("branch_hint = 2 -2", "branch_hint = 2.1 -0.6019")


@pytest.mark.parametrize("cmd", ["eliminate", "trace-relation", "change-curve",
                                 "transport"])
@pytest.mark.parametrize("knot", ["4_1", "5_2", "4_1-branch-hint"])
def test_exact_commands_read_no_precision(capsys, cache_dir, tmp_path, cmd, knot):
    if knot == "4_1-branch-hint":
        knot = tmp_path / "hint.knot"
        knot.write_text(bundled_record_text("4_1").replace(*BRANCH_HINT_EDIT))
    runs = []
    for precision in ("1", "64"):
        code, out, err = run_cli(capsys, "--precision", precision, cmd,
                                 "--knot", str(knot), "--no-cache")
        runs.append((code, results_section(out), err))
    assert runs[0] == runs[1]
    assert runs[0][0] == (2 if knot == "5_2" and cmd != "eliminate" else 0)


@pytest.mark.parametrize("trace, tr_mu", [("41/20", "2.05"),
                                          ("2+0.1j", "2.0 + 0.1i")])
def test_cli_torsion_accepts_rational_and_complex_traces(capsys, cache_dir,
                                                         trace, tr_mu):
    code, out, _ = run_cli(capsys, "--precision", "20", "torsion", "--knot",
                           "4_1", "--trace", trace, "--no-cache")
    assert code == 0
    assert f"tr_mu = {tr_mu}\n" in out


@pytest.mark.parametrize("argv, message", [
    (("torsion", "--trace", "inf"), "--trace must be a finite number, got +inf"),
    (("torsion", "--trace", "nan"), "--trace must be a finite number, got nan"),
    (("torsion", "--trace", "abc"), "--trace 'abc' is not a number"),
    (("sweep", "--from", "nan", "--to", "2.1", "--steps", "2"),
     "--from must be a finite number, got nan"),
    (("sweep", "--from", "x", "--to", "2.1", "--steps", "2"),
     "--from 'x' is not a number"),
    (("sweep", "--from", "1.9", "--to", "inf", "--steps", "2"),
     "--to must be a finite number, got +inf"),
    (("sweep", "--from", "1.9", "--to", "2+0.1j", "--steps", "2"),
     "--to '2+0.1j' is not a number"),
], ids=["torsion-inf", "torsion-nan", "torsion-text", "sweep-from-nan",
        "sweep-from-text", "sweep-to-inf", "sweep-to-text"])
def test_cli_rejects_bad_trace(capsys, cache_dir, argv, message):
    code, out, err = run_cli(capsys, argv[0], "--knot", "4_1", *argv[1:],
                             "--no-cache")
    assert code == 2
    assert out == ""
    assert err == f"error: {argv[0]}: {message}\n"


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


def test_cli_membership_rational_root_at_low_precision(capsys, cache_dir, tmp_path):
    # (7x - 12345)(x^2 + 1) as trace field is refused at --precision 3 as
    # it is at 64
    p = tmp_path / "5_2.knot"
    p.write_text(bundled_record_text("5_2").replace(
        "poly = x^3 - x^2 + 1", "poly = 7*x^3 - 12345*x^2 + 7*x - 12345"))
    code, out, err = run_cli(capsys, "--no-cache", "--precision", "3",
                             "membership", "--knot", str(p))
    assert code == 2
    assert err == "error: membership: defining polynomial has a rational root\n"


GOLDENS = os.path.join(os.path.dirname(__file__), "goldens")


def report_body(text):
    """The [results] and [notes] lines of a text report."""
    lines = text.splitlines()
    return lines[lines.index("[results]"):lines.index("[tolerances]")]


@pytest.mark.parametrize("argv, golden", [
    (("--precision", "513", "membership", "--knot", "5_2"), "membership-5_2.txt"),
    (("--precision", "600", "membership", "--knot", "4_1", "--curve", "mu"), None),
    (("--precision", "4100", "rho0", "--knot", "4_1", "--curve", "mu"),
     "rho0-mu-4_1.txt"),
], ids=["membership-513", "membership-mu-600", "rho0-4100"])
def test_cli_precision_above_the_search_caps_is_tried(capsys, cache_dir, argv, golden):
    # a precision above the membership search's or the root pass's cap is
    # still tried once, and finds what the default precision finds
    code, out, _ = run_cli(capsys, "--no-cache", *argv)
    assert code == 0
    if golden is None:
        assert "in_field = true" in out and "element = -1/2*x" in out
    else:
        with open(os.path.join(GOLDENS, golden)) as f:
            assert report_body(out) == report_body(f.read())


@pytest.mark.parametrize("precision", ["1", "5", "64"])
def test_cli_hint_note_reads_the_record_hint(capsys, cache_dir, precision):
    # the note prints the record's float hint, not its value at --precision
    code, out, _ = run_cli(capsys, "--no-cache", "--precision", precision,
                           "rho0", "--knot", "4_1", "--curve", "mu")
    assert code == 0
    assert "- root selection: root nearest to hint (0.0 + 0.87j)\n" in out


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


class SerialPool:
    """Stands in for ProcessPoolExecutor: records max_workers, maps serially
    and starts no process."""

    sizes = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


@pytest.mark.parametrize("steps, jobs, workers", [
    ("3", "500", [3]), ("3", "2", [2]), ("1", "8", [])])
def test_cli_sweep_starts_no_more_workers_than_points(
        capsys, cache_dir, monkeypatch, steps, jobs, workers):
    import concurrent.futures
    monkeypatch.setattr(SerialPool, "sizes", [])
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    args = ["sweep", "--knot", "4_1", "--from", "2.03", "--to", "2.09",
            "--steps", steps, "--no-cache"]
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args, "--jobs", jobs)
    assert code1 == code2 == 0
    assert SerialPool.sizes == workers
    payload = lambda s: s.split("[results]", 1)[1]
    assert payload(out1) == payload(out2)


def test_cli_sweep_computes_each_trace_once(capsys, cache_dir, monkeypatch):
    calls = []
    real = pl.torsion_at

    def counted(record, trace, *args, **kwargs):
        calls.append(trace)
        return real(record, trace, *args, **kwargs)
    monkeypatch.setattr(pl, "torsion_at", counted)
    args = ["sweep", "--knot", "4_1", "--from", "2.05", "--to", "2.05",
            "--no-cache"]
    code1, out1, _ = run_cli(capsys, *args, "--steps", "5")
    assert calls == ["2.05"]
    code2, out2, _ = run_cli(capsys, *args, "--steps", "1")
    assert code1 == code2 == 0
    payload = lambda s: s.split("[results]", 1)[1]
    assert payload(out1) == payload(out2)
    # 7 steps over 2e-11 print as 3 distinct traces at 12 digits, each
    # computed once, in first-occurrence order
    calls.clear()
    code, out, _ = run_cli(capsys, "sweep", "--knot", "4_1", "--from", "2.05",
                           "--to", "2.05000000002", "--steps", "7",
                           "--no-cache")
    assert code == 0
    assert calls == ["2.05", "2.05000000001", "2.05000000002"]


def test_cli_sweep_skips_singular_points(capsys, cache_dir):
    # the parabolic point itself has a degenerate invariant form; the sweep
    # reports it per-point and completes the remaining traces
    code, out, _ = run_cli(capsys, "sweep", "--knot", "4_1", "--from", "1.9",
                           "--to", "2.1", "--steps", "3", "--no-cache")
    assert code == 0
    assert "2.0/error" in out
    assert "1.9/ratio_sq" in out and "2.1/ratio_sq" in out


def test_cli_sweep_contains_newton_failure(capsys, cache_dir):
    # at meridian trace 3 riley_solve's Newton iteration from the record's
    # seed does not converge; only that point reports the error
    code, out, err = run_cli(capsys, "sweep", "--knot", "4_1", "--from", "2.1",
                             "--to", "3.0", "--steps", "2", "--no-cache")
    assert code == 0, err
    assert "2.1/ratio_sq = " in out
    assert "3.0/error = Newton did not converge: residual 7.8015\n" in out


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
