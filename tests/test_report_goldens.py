"""Every report the benchmark's symbolic commands, `torsion` and `sweep`
print, a 100-digit `sweep` and `validate`, byte for byte against reports
kept in tests/goldens/, and `verify`'s text and JSON output against
tests/goldens/verify/."""

import io
from contextlib import redirect_stdout
from pathlib import Path

import mpmath as mp
import pytest

from torsionpoly import cli

GOLDENS = Path(__file__).parent / "goldens"

CASES = {
    "eliminate-4_1": ("eliminate", "--knot", "4_1"),
    "eliminate-5_2": ("eliminate", "--knot", "5_2"),
    "trace-relation-4_1": ("trace-relation", "--knot", "4_1"),
    "change-curve-4_1": ("change-curve", "--knot", "4_1"),
    "transport-4_1": ("transport", "--knot", "4_1"),
    "rho0-lambda-4_1": ("rho0", "--knot", "4_1", "--curve", "lambda"),
    "rho0-lambda-5_2": ("rho0", "--knot", "5_2", "--curve", "lambda"),
    "rho0-mu-4_1": ("rho0", "--knot", "4_1", "--curve", "mu"),
    "membership-4_1": ("membership", "--knot", "4_1"),
    "membership-5_2": ("membership", "--knot", "5_2"),
    "torsion-4_1": ("torsion", "--knot", "4_1", "--trace", "2.05"),
    "torsion-5_2": ("torsion", "--knot", "5_2", "--trace", "2.05"),
    "sweep-4_1": ("sweep", "--knot", "4_1", "--from", "1.9", "--to", "2.2",
                  "--steps", "7"),
    "sweep-5_2": ("sweep", "--knot", "5_2", "--from", "1.9", "--to", "2.2",
                  "--steps", "7"),
    "sweep-100-4_1": ("--precision", "100", "sweep", "--knot", "4_1",
                      "--from", "1.9", "--to", "2.2", "--steps", "7"),
    "sweep-100-5_2": ("--precision", "100", "sweep", "--knot", "5_2",
                      "--from", "1.9", "--to", "2.2", "--steps", "7"),
    "validate-4_1": ("validate", "--knot", "4_1"),
    "validate-5_2": ("validate", "--knot", "5_2"),
}


def test_every_golden_has_a_case():
    assert sorted(p.stem for p in GOLDENS.glob("*.txt")) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(name):
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(["--no-cache", *CASES[name]])
    assert code == 0
    assert out.getvalue() == (GOLDENS / f"{name}.txt").read_text()


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_verify_output_matches_golden(fmt):
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(["--format", fmt, "verify"])
    assert code == 0
    name = "verify.txt" if fmt == "text" else "verify.json"
    assert out.getvalue() == (GOLDENS / "verify" / name).read_text()


def results_section(report: str) -> str:
    return report.split("[results]\n")[1].split("[notes]")[0]


@pytest.mark.parametrize("name", ["eliminate-4_1", "eliminate-5_2",
                                  "transport-4_1"])
def test_exact_results_do_not_depend_on_precision(name):
    """Elimination and transport are proven by exact division and read no
    working precision, so a low --precision still derives the golden
    polynomial."""
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(["--no-cache", "--precision", "5", *CASES[name]])
    assert code == 0
    assert results_section(out.getvalue()) == results_section(
        (GOLDENS / f"{name}.txt").read_text())


def field_embedding_line(report: str) -> str:
    return next(line for line in report.splitlines()
                if line.startswith("field_embedding = "))


@pytest.mark.parametrize("name", ["membership-4_1", "membership-5_2"])
def test_field_embedding_echo_does_not_depend_on_precision(name):
    """The record's embedding is a float, echoed at no less than its own
    53 bits whatever the working precision."""
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(["--no-cache", "--precision", "5", *CASES[name]])
    assert code == 0
    assert field_embedding_line(out.getvalue()) == field_embedding_line(
        (GOLDENS / f"{name}.txt").read_text())


def value_line(report: str) -> str:
    return next(line for line in report.splitlines()
                if line.startswith("value = "))[len("value = "):]


@pytest.mark.parametrize("name", ["rho0-lambda-5_2", "membership-5_2"])
def test_value_prints_no_more_digits_than_its_precision(name):
    """A value computed at --precision 5 prints 5 significant digits, the
    64-digit golden's value rounded to 5."""
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(["--no-cache", "--precision", "5", *CASES[name]])
    assert code == 0
    golden = value_line((GOLDENS / f"{name}.txt").read_text())
    re_text, im_text = golden.removesuffix("i").split(" + ")
    with mp.workdps(30):
        want = f"{mp.nstr(mp.mpf(re_text), 5)} + {mp.nstr(mp.mpf(im_text), 5)}i"
    assert want == "28.493 + 34.519i"
    assert value_line(out.getvalue()) == want


def test_torsion_and_sweep_print_at_the_engine_precision():
    """torsion and sweep run the engine at no fewer than 30 digits and print
    at those digits, so --precision 3 does not round the trace to 2^-10."""
    for argv, line in ((CASES["torsion-4_1"], "tr_mu = 2.05\n"),
                       (CASES["sweep-4_1"], "1.95/tr_mu = 1.95\n")):
        out = io.StringIO()
        with redirect_stdout(out):
            code = cli.main(["--no-cache", "--precision", "3", *argv])
        assert code == 0
        assert line in out.getvalue()
