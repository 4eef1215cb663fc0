"""Property test of the command line on mutated records.

Each example takes a bundled record, mutates its text (numbers, words,
polynomial texts, deleted and duplicated lines, misspelled keys) and runs one
record command on it in process, with small flag values and no cache.  The
run must print a report and exit 0, or print nothing, exit 2 and write
exactly one `error:` line; a record the parser refuses must be refused with
a `RecordError` that names its section and line.  An alarm bounds each run,
so a hang fails the example instead of stalling the suite.
"""

import contextlib
import io
import json
import re
import signal

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from torsionpoly import front
from torsionpoly.records import RecordError, bundled_record_text, parse_record

ALARM_S = 10

NUMBER = re.compile(r"\d+(?:\.\d+)?")
WORD_LINE = re.compile(r"^(relator|meridian|longitude) = (.*)$", re.M)
POLY_LINE = re.compile(r"^(tau_expr|constraint|poly) = (.*)$", re.M)
KEY_LINE = re.compile(r"^([a-z_]+) =", re.M)
# a RecordError names the section and line of its place; only a line
# outside every section has no section to name
PLACE = re.compile(r"(\[[^\]\n]*\] line [1-9]\d*: .+"
                   r"|line [1-9]\d*: (entry outside any \[section\]|expected `key = value`))")

numbers = st.one_of(
    st.integers(-70, 70).map(str),
    st.sampled_from(["0.5", "-2.5", "1/3", "1e3", "1e400", "nan", "inf", "1/0", "x", "",
                     "1" * 40]))
words = st.text(alphabet="abABc", max_size=12)
variables = st.sampled_from(["u", "y", "tau", "x", "z", "w"])
terms = st.tuples(st.integers(-20, 20), variables, st.integers(0, 8)).map(
    lambda t: f"{t[0]}*{t[1]}^{t[2]}")
polynomials = st.one_of(
    st.lists(terms, min_size=1, max_size=4).map(" + ".join),
    st.sampled_from(["", "u^", "1 2", "x^2 +", "(u)"]))


def _mutate(text, data):
    kind = data.draw(st.sampled_from(
        ["number", "word", "polynomial", "delete", "duplicate", "misspell"]))
    if kind in ("delete", "duplicate"):
        lines = text.splitlines(keepends=True)
        i = data.draw(st.integers(0, len(lines) - 1))
        lines[i:i + 1] = [] if kind == "delete" else [lines[i]] * 2
        return "".join(lines)
    pattern, group, values = {
        "number": (NUMBER, 0, numbers),
        "word": (WORD_LINE, 2, words),
        "polynomial": (POLY_LINE, 2, polynomials),
        "misspell": (KEY_LINE, 1, None),
    }[kind]
    found = list(pattern.finditer(text))
    if not found:
        return text
    match = data.draw(st.sampled_from(found))
    if values is None:
        key = match[1]
        i = data.draw(st.integers(0, len(key) - 1))
        values = st.sampled_from([key[:i] + key[i + 1:], key[:i] + "x" + key[i:],
                                  key[:i] + key[i + 1:i + 2] + key[i:i + 1] + key[i + 2:]])
    return text[:match.start(group)] + data.draw(values) + text[match.end(group):]


def _command(data, path):
    """(command, argv, format) of one run with valid global flags."""
    cmd = data.draw(st.sampled_from(sorted(set(front.COMMANDS) - {"verify"})))
    fmt = data.draw(st.sampled_from(["text", "json"]))
    precision = data.draw(st.integers(1, 80))
    tolerance = data.draw(st.sampled_from(["1e-8", "1e-3", "1e-30", "1"]))
    argv = ["--no-cache", "--format", fmt, "--precision", str(precision),
            "--tolerance", tolerance, cmd, "--knot", path]
    traces = st.sampled_from(["2.05", "1.9", "2", "0", "-2.1", "3", "2+0.1j", "1/2", "x"])
    if cmd in ("rho0", "membership"):
        argv += ["--curve", data.draw(st.sampled_from(["lambda", "mu"]))]
    if cmd == "torsion":
        argv += ["--trace", data.draw(traces)]
    if cmd == "sweep":   # --jobs stays at its default of 1
        argv += ["--from", data.draw(traces), "--to", data.draw(traces),
                 "--steps", str(data.draw(st.integers(1, 3)))]
    return cmd, argv, fmt


class Alarm(Exception):
    pass


def _alarm(signum, frame):
    raise Alarm(f"a run took over {ALARM_S} s")


@pytest.fixture(scope="module")
def record_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "mutated.knot"


@settings(derandomize=True, max_examples=150, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(data=st.data())
def test_a_mutated_record_gives_a_report_or_one_error_line(record_path, data):
    text = bundled_record_text(data.draw(st.sampled_from(["4_1", "5_2"])))
    for _ in range(data.draw(st.integers(0, 2))):
        text = _mutate(text, data)
    record_path.write_text(text)
    cmd, argv, fmt = _command(data, str(record_path))
    out, err = io.StringIO(), io.StringIO()
    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, ALARM_S)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = front.main(argv)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    out, err = out.getvalue(), err.getvalue()
    if code == 0:
        assert err == ""
        if fmt == "json":
            assert list(json.loads(out)) \
                == ["command", "inputs_digest", "results", "notes", "tolerances"]
        else:
            assert out.startswith("command = torsionpoly ") and "\n[results]\n" in out
    else:
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {cmd}: ") and err.count("\n") == 1 \
            and err.endswith("\n"), err
    try:
        parse_record(text)
    except RecordError as exc:
        assert PLACE.fullmatch(str(exc)), str(exc)
        assert (code, err) == (2, f"error: {cmd}: {exc}\n")
