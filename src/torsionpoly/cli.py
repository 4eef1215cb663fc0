"""Command-line interface: the report handlers and the report formats.

``front.main`` imports this module only on a cache miss; the guard below
sends ``python -m torsionpoly.cli`` there before any engine import. Tracer
contract: importing this module loads every traced module and binds
``main``, ``ingest_knot``, the front's digest and cache functions and the
renderers.
"""

from __future__ import annotations

if __name__ == "__main__":
    from torsionpoly.front import main
    raise SystemExit(main())

import json
import sys
from fractions import Fraction
from typing import Dict, List, Tuple

import mpmath as mp

from . import pipelines as pl
from .front import (  # noqa: F401  (bound here for the tracer and the tests)
    CACHE_ENV, COMMANDS, cache_load, cache_store, main, make_digest,
)
from .polys import dense_coeffs, to_text
from .records import ingest_knot, parse_record  # noqa: F401
from .torsion_num import NORMALIZATION_NOTE

REPORT_DIGITS = 12


def fmt_mp(v, digits: int = REPORT_DIGITS) -> str:
    v = mp.mpc(v)
    if v.imag == 0:
        return mp.nstr(v.real, digits)
    re = mp.nstr(v.real, digits)
    im = mp.nstr(abs(v.imag), digits)
    sign = "+" if v.imag > 0 else "-"
    return f"{re} {sign} {im}i"


# ---------------------------------------------------------------------------
# Command handlers: return (results, notes)
# ---------------------------------------------------------------------------

H2_NOTE = ("numeric torsion uses the largest-coordinate kernel basing of the "
           "top homology; absolute values match the fundamental-class "
           "normalization only up to a representation-dependent scalar, which "
           "cancels in the mu/lambda ratios reported here")


def cmd_eliminate(record, args) -> Tuple[Dict[str, str], List[str]]:
    T = pl.eliminated_T(record)
    notes = [record.torsion_note] if record.torsion_note else []
    return {
        "T_polynomial": to_text(T.poly),
        "trace_variable": T.trace_var,
        "trace_of": record.trace_of,
    }, notes


def cmd_trace_relation(record, args):
    R = pl.trace_relation_of(record)
    return {
        "trace_relation": to_text(R.poly),
        "variables": "x = meridian trace, y = longitude trace",
    }, []


def cmd_change_curve(record, args):
    branch, factor = pl.branch_and_factor(record)
    return {
        "branch": to_text(branch),
        "factor_num": to_text(factor.num),
        "factor_den": to_text(factor.den),
        "contract": "(tau_mu / tau_lambda)^2 = factor_num / factor_den on the branch",
    }, []


def cmd_transport(record, args):
    T = pl.transported_T(record)
    return {
        "T_polynomial": to_text(T.poly),
        "trace_variable": "z = meridian trace",
    }, []


def _value_digits(args) -> int:
    """A value computed at --precision digits prints no more of them."""
    return min(REPORT_DIGITS, args.precision)


def cmd_rho0(record, args):
    value, poly, notes = pl.rho0_for_curve(record, args.curve, args.precision)
    results = {
        "curve": args.curve,
        "specialized_polynomial": to_text(poly),
        "minimal_polynomial": to_text(value.value.minpoly),
        "value": fmt_mp(value.value.approx, _value_digits(args)),
    }
    coeffs = dense_coeffs(value.value.minpoly)
    if len(coeffs) == 2:
        results["value_exact"] = str(Fraction(-coeffs[0], coeffs[1]))
    elif len(coeffs) == 3 and coeffs[1] == 0:
        results["value_squared_exact"] = str(Fraction(-coeffs[0], coeffs[2]))
    return results, notes


def cmd_membership(record, args):
    out = pl.membership(record, args.curve, args.precision)
    if not out["in_field"]:
        o = out["outcome"]
        return {
            "curve": args.curve,
            "in_field": "false",
            "outcome": f"not in field: {o.reason} (precision {o.precision})",
        }, out["notes"]
    # the record's embedding is a float: read all 53 of its bits
    with mp.workprec(max(mp.mp.prec, 53)):
        embedding = fmt_mp(record.trace_field_embedding)
    return {
        "curve": args.curve,
        "in_field": "true",
        "field": to_text(record.trace_field_poly),
        "field_embedding": embedding,
        "element": pl.field_element_text(out["element"]),
        "element_minpoly": to_text(out["element_minpoly"]),
        "value": fmt_mp(out["value"].value.approx, _value_digits(args)),
    }, out["notes"]


def _working_dps(args) -> int:
    """The mpmath digits a command works at: the numeric engine's commands
    at half --precision, and at least 30, the others at --precision."""
    if args.cmd in ("torsion", "sweep", "validate"):
        return max(30, args.precision // 2)
    return args.precision


def _torsion_results(point: dict, tolerance: float) -> Dict[str, str]:
    """The report lines of a torsion_at point, formatted at the precision
    that computed it."""
    results = {
        "tr_mu": fmt_mp(point["tr_mu"]),
        "tr_lambda": fmt_mp(point["tr_lambda"]),
        "tau_mu": fmt_mp(point["tau_mu"]),
        "tau_lambda": fmt_mp(point["tau_lambda"]),
        "ratio_sq": fmt_mp(point["ratio_sq"]),
        "homology_dims": "0 1 1",
    }
    if "change_factor" in point:
        results["change_factor"] = fmt_mp(point["change_factor"])
        err = point["change_factor_rel_err"]
        results["change_factor_rel_err"] = mp.nstr(err, 3)
        results["change_factor_ok"] = "true" if err < tolerance else "false"
    if "diag_scalar" in point:
        results["diagnostic_scalar"] = fmt_mp(point["diag_scalar"])
    return results


def _flag_number(text: str, flag: str, parse):
    """The value of a numeric flag, read by `parse` (mp.mpf for a real one,
    mp.mpmathify where a complex value is allowed) and required finite: inf
    and nan would fail inside mpmath's arithmetic or compare false against
    every error."""
    try:
        value = parse(text)
    except (TypeError, ValueError):  # mpmathify and mpf's errors for text
        raise ValueError(f"{flag} {text!r} is not a number") from None
    if not mp.isfinite(value):
        raise ValueError(f"{flag} must be a finite number, got {mp.nstr(value)}")
    return value


def cmd_torsion(record, args):
    _flag_number(args.trace, "--trace", mp.mpmathify)
    point = pl.torsion_at(record, args.trace)
    results = {"trace": args.trace}
    results.update(_torsion_results(point, args.tolerance))
    notes = [H2_NOTE, NORMALIZATION_NOTE]
    return results, notes


def _sweep_point(payload):
    """One sweep row, at the precision the payload carries: a worker process
    does not share `run`'s."""
    record, trace, dps, tolerance = payload
    with mp.workdps(dps):
        try:
            point = pl.torsion_at(record, trace)
        except ValueError as exc:
            # singular samples (e.g. the parabolic point itself) are reported
            # per-point, the rest of the sweep continues
            return trace, {"error": str(exc)}
        return trace, _torsion_results(point, tolerance)


def cmd_sweep(record, args):
    steps = args.steps
    lo = _flag_number(args.start, "--from", mp.mpf)
    hi = _flag_number(args.stop, "--to", mp.mpf)
    traces = [mp.nstr(lo + (hi - lo) * i / max(1, steps - 1), 12)
              for i in range(steps)]
    # the report has one row per printed trace, so each is computed once
    payloads = [(record, t, mp.mp.dps, args.tolerance)
                for t in dict.fromkeys(traces)]
    # a fork pool starts all its workers at the first submit
    jobs = min(args.jobs, len(payloads))
    if jobs > 1:
        import concurrent.futures as cf
        # workers get the record with its symbolic artifacts already derived
        pl.derive_artifacts(record)
        with cf.ProcessPoolExecutor(max_workers=jobs) as ex:
            rows = list(ex.map(_sweep_point, payloads))
    else:
        rows = [_sweep_point(p) for p in payloads]
    results = {}
    for trace, r in rows:
        for k, v in r.items():
            results[f"{trace}/{k}"] = v
    return results, [H2_NOTE]


def cmd_validate(record, args):
    out = pl.validate_parabolic(record)
    results = {
        "abelianization": "Z",
        "parabolic_relator_residual": mp.nstr(out["relator_residual"], 4),
        "parabolic_tr_lambda": fmt_mp(out["tr_lambda"]),
        "ok": "true" if out["ok"] else "false",
    }
    return results, [record.presentation_note] if record.presentation_note else []


HANDLERS = {name: globals()["cmd_" + name.replace("-", "_")] for name in COMMANDS}


def render_text(rep: dict) -> str:
    lines = [f"command = {rep['command']}", f"inputs_digest = {rep['inputs_digest']}"]
    lines.append("[results]")
    for k, v in rep["results"].items():
        lines.append(f"{k} = {v}")
    lines.append("[notes]")
    for n in rep["notes"]:
        lines.append(f"- {n}")
    lines.append("[tolerances]")
    for k, v in rep["tolerances"].items():
        lines.append(f"{k} = {v}")
    return "\n".join(lines) + "\n"


def render_json(rep: dict) -> str:
    return json.dumps(rep, indent=2) + "\n"


def run(args, command_echo: str, text: str, digest: str) -> int:
    """front.main past a cache miss: parse the record text it read and
    hashed, run the handler, render the report in --format and store it."""
    record = parse_record(text)
    with mp.workdps(_working_dps(args)):
        results, notes = HANDLERS[args.cmd](record, args)
    render = render_json if args.format == "json" else render_text
    report = render({
        "command": command_echo,
        "inputs_digest": digest,
        "results": results,
        "notes": notes,
        "tolerances": {
            "precision_digits": str(args.precision),
            "numeric_tolerance": repr(args.tolerance),
        },
    })
    if not args.no_cache:
        cache_store(digest, report)
    sys.stdout.write(report)
    return 0
