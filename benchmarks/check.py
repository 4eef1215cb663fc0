"""Output checks: every op's report against published values.

The expected symbolic reports are the package's reports for each (command,
knot) pair. Their polynomials and values are the ones ``torsionpoly verify``
asserts: the 5_2 degree-12 eliminant, the 4_1 trace relation, branch and
transported polynomial, tau_lambda(4_1) = 3, tau_mu(4_1)^2 = -3/4, the 5_2
root 28.4932 + 34.5189i and its field element 19*x^2 + 13*x + 13.
``inputs_digest`` is not compared: it may come to depend on the source.

A sweep has no stored report; each point is checked against the published
polynomials instead (see ``check_sweep``).
"""

from __future__ import annotations

import json
import math
import re

NOTE_41 = ("y is the longitude trace; the hinted branch takes the positive "
           "square root near the complete structure")
NOTE_52 = ("y denotes the meridian trace; the hinted constraint root at y = 2 "
           "is the branch whose torsion value matches the reference "
           "approximation 28.4932 + 34.5189i up to complex conjugation")
T52 = ("500*y^12 - 50*tau*y^10 - 8850*y^10 + 640*tau*y^8 + 60090*y^8"
       " - 3213*tau*y^6 + 5*tau^2*y^4 - 203917*y^6 + 7830*tau*y^4"
       " - 14*tau^2*y^2 + 371691*y^4 - 1*tau^3 - 10057*tau*y^2 + 47*tau^2"
       " - 339345*y^2 + 5138*tau + 120447")
CUBIC52 = "1*tau^3 - 71*tau^2 + 2802*tau - 28075"
VALUE52 = "28.4932220661 + 34.518887261i"
HINT52 = "root selection: root nearest to hint (28.5 + 34.5j)"
POSITIVE = "root selection: positive real root rule"
MU_NOTE = ("the often-cited closed form tau_mu = i*sqrt(3) at the complete "
           "structure is inconsistent with the transported polynomial, which "
           "forces tau_mu^2 = -3/4, i.e. tau_mu = i*sqrt(3)/2; this tool "
           "follows the polynomial")

# (command, knot, curve) -> (results, notes)
EXPECTED = {
    ("eliminate", "4_1", None): (
        {"T_polynomial": "1*tau^2 - 4*y - 17", "trace_variable": "y",
         "trace_of": "lambda"}, [NOTE_41]),
    ("eliminate", "5_2", None): (
        {"T_polynomial": T52, "trace_variable": "y", "trace_of": "mu"},
        [NOTE_52]),
    ("trace-relation", "4_1", None): (
        {"trace_relation": "1*x^4 - 5*x^2 - 1*y + 2",
         "variables": "x = meridian trace, y = longitude trace"}, []),
    ("change-curve", "4_1", None): (
        {"branch": "1*x^4 - 5*x^2 + 2",
         "factor_num": "1/4*x^4 - 3/2*x^2 + 5/4",
         "factor_den": "4*x^4 - 20*x^2 + 25",
         "contract": "(tau_mu / tau_lambda)^2 = factor_num / factor_den on the branch"},
        []),
    ("transport", "4_1", None): (
        {"T_polynomial": "1*z^4 - 4*tau^2 - 6*z^2 + 5",
         "trace_variable": "z = meridian trace"}, []),
    ("rho0", "4_1", "lambda"): (
        {"curve": "lambda", "specialized_polynomial": "1*tau^2 - 9",
         "minimal_polynomial": "1*tau - 3", "value": "3.0",
         "value_exact": "3"}, [POSITIVE]),
    ("rho0", "5_2", "lambda"): (
        {"curve": "lambda", "specialized_polynomial": CUBIC52,
         "minimal_polynomial": CUBIC52, "value": VALUE52}, [HINT52]),
    ("rho0", "4_1", "mu"): (
        {"curve": "mu", "specialized_polynomial": "4*tau^2 + 3",
         "minimal_polynomial": "4*tau^2 + 3",
         "value": "0.0 + 0.866025403784i", "value_squared_exact": "-3/4"},
        ["root selection: root nearest to hint (0.0 + 0.87j)", MU_NOTE]),
    ("membership", "4_1", "lambda"): (
        {"curve": "lambda", "in_field": "true", "field": "1*x^2 + 3",
         "field_embedding": "0.0 + 1.7320508i", "element": "3",
         "element_minpoly": "1*tau - 3", "value": "3.0"},
        [POSITIVE, "embedding pairing: rational value"]),
    ("membership", "5_2", "lambda"): (
        {"curve": "lambda", "in_field": "true", "field": "1*x^3 - 1*x^2 + 1",
         "field_embedding": "0.8774 - 0.7448i",
         "element": "19*x^2 + 13*x + 13", "element_minpoly": CUBIC52,
         "value": VALUE52},
        [HINT52, "embedding pairing: matched at the conjugate of the declared "
                 "field embedding"]),
}

# Published polynomials used to check sweep points, as (coefficient,
# exponent of tau, exponent of the trace variable) terms.
T41 = ((1, 2, 0), (-4, 0, 1), (-17, 0, 0))            # trace var: tr_lambda
BRANCH41 = (1, 0, -5, 0, 2)                           # tr_lambda(tr_mu)
FACTOR41_NUM = (0.25, 0, -1.5, 0, 1.25)
FACTOR41_DEN = (4, 0, -20, 0, 25)
PARABOLIC_ERROR = "invariant form degenerates (parabolic point?)"
SWEEP_KEYS = ("tr_mu", "tr_lambda", "tau_mu", "tau_lambda", "ratio_sq",
              "homology_dims", "diagnostic_scalar")
FACTOR_KEYS = ("change_factor", "change_factor_rel_err", "change_factor_ok")
REL_TOL = 1e-7          # reports carry 12 significant digits


def _terms(text):
    """Canonical polynomial text in tau and y -> (coeff, tau exp, y exp)."""
    out = []
    for sign, body in re.findall(r"(^-?|[+-] )([^ ]+)", text):
        coeff, tau, y = 1, 0, 0
        for factor in body.split("*"):
            name, _, exp = factor.partition("^")
            if name == "tau":
                tau = int(exp or 1)
            elif name == "y":
                y = int(exp or 1)
            else:
                coeff = int(factor)
        out.append((-coeff if sign.strip() == "-" else coeff, tau, y))
    return tuple(out)


T52_TERMS = _terms(T52)


def expected_key(argv):
    """(command, knot, curve) of a symbolic argv without global flags."""
    command, knot = argv[0], argv[argv.index("--knot") + 1]
    curve = None
    if command in ("rho0", "membership"):
        curve = argv[argv.index("--curve") + 1] if "--curve" in argv else "lambda"
    return command, knot, curve


def parse_report(rc, stdout, stderr):
    """The JSON report of a clean exit, or raise ValueError with the reason."""
    if rc != 0:
        tail = stderr.strip().splitlines()[-1:] or ["no message"]
        raise ValueError(f"exit status {rc}: {tail[0]}")
    report = json.loads(stdout)
    if not isinstance(report, dict) or "results" not in report \
            or "notes" not in report:
        raise ValueError("report lacks results or notes")
    return report


def check_symbolic(argv, rc, stdout, stderr):
    """None when the report of a symbolic command is right, else the reason."""
    try:
        report = parse_report(rc, stdout, stderr)
    except ValueError as exc:
        return str(exc)
    results, notes = EXPECTED[expected_key(argv)]
    if report["results"] != results:
        wrong = sorted(k for k in set(results) | set(report["results"])
                       if results.get(k) != report["results"].get(k))
        return f"{' '.join(argv)}: wrong results {', '.join(wrong)}"
    if report["notes"] != notes:
        return f"{' '.join(argv)}: wrong notes"
    return None


def parse_complex(text):
    """A value as the CLI formats it: 'a', 'a + bi' or 'a - bi'."""
    m = re.fullmatch(r"(\S+)(?: ([+-]) (\S+)i)?", text)
    if m is None:
        raise ValueError(f"not a complex number: {text!r}")
    re_part = float(m.group(1))
    im_part = float(m.group(3)) if m.group(3) else 0.0
    value = complex(re_part, -im_part if m.group(2) == "-" else im_part)
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        raise ValueError(f"not finite: {text!r}")
    return value


def _horner(coeffs, x):
    acc = 0
    for c in coeffs:
        acc = acc * x + c
    return acc


def _residual(terms, tau, y):
    """|T(tau, y)| relative to the sum of the absolute values of its terms."""
    value = scale = 0
    for c, a, b in terms:
        t = c * tau ** a * y ** b
        value += t
        scale += abs(t)
    return abs(value) / scale


def _close(a, b, tol=REL_TOL):
    return abs(a - b) <= tol * max(1.0, abs(b))


def check_point(knot, trace, fields):
    """None when one sweep point agrees with the published polynomials."""
    if set(fields) == {"error"}:
        if float(trace) == 2.0 and fields["error"] == PARABOLIC_ERROR:
            return None             # refused by design at the parabolic point
        return f"point {trace}: {fields['error']}"
    want = SWEEP_KEYS + (FACTOR_KEYS if knot == "4_1" else ())
    if set(fields) != set(want):
        return f"point {trace}: fields {sorted(fields)}"
    if fields["homology_dims"] != "0 1 1":
        return f"point {trace}: homology {fields['homology_dims']}"
    try:
        v = {k: parse_complex(fields[k]) for k in
             ("tr_mu", "tr_lambda", "tau_lambda", "ratio_sq",
              "diagnostic_scalar")}
    except ValueError as exc:
        return f"point {trace}: {exc}"
    x = v["tr_mu"]
    if not _close(x, float(trace)):
        return f"point {trace}: solved at tr_mu = {fields['tr_mu']}"
    # the numeric tau_lambda is tau / sqrt(scalar) off a root of T
    root = v["tau_lambda"] / (v["diagnostic_scalar"] ** 0.5)
    terms, y = (T41, v["tr_lambda"]) if knot == "4_1" else (T52_TERMS, x)
    if min(_residual(terms, root, y), _residual(terms, -root, y)) > REL_TOL:
        return f"point {trace}: tau_lambda is off the eliminant"
    if knot == "4_1":
        if fields["change_factor_ok"] != "true":
            return f"point {trace}: change_factor_ok = {fields['change_factor_ok']}"
        if not _close(v["tr_lambda"], _horner(BRANCH41, x)):
            return f"point {trace}: tr_lambda is off the geometric branch"
        factor = _horner(FACTOR41_NUM, x) / _horner(FACTOR41_DEN, x)
        if not _close(v["ratio_sq"], factor):
            return f"point {trace}: ratio_sq is off the change-of-curve factor"
    return None


def sweep_traces(lo, hi, steps):
    return [float(lo) + (float(hi) - float(lo)) * i / (steps - 1)
            for i in range(steps)]


def check_sweep(knot, lo, hi, steps, rc, stdout, stderr):
    """(points checked, failure reason or None) for one sweep report."""
    try:
        report = parse_report(rc, stdout, stderr)
    except ValueError as exc:
        return 0, str(exc)
    points = {}
    for key, value in report["results"].items():
        trace, _, field = key.rpartition("/")
        points.setdefault(trace, {})[field] = value
    try:
        got = sorted(float(t) for t in points)
    except ValueError:
        return 0, f"unreadable traces {sorted(points)}"
    want = sweep_traces(lo, hi, steps)
    if len(got) != steps or any(not _close(g, w, 1e-9) for g, w in zip(got, want)):
        return 0, f"traces {sorted(points)} are not the requested grid"
    for trace, fields in points.items():
        problem = check_point(knot, trace, fields)
        if problem is not None:
            return len(points), f"sweep {knot} {lo}..{hi}: {problem}"
    return len(points), None
