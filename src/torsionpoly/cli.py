"""Command-line interface: the report handlers.

``front.main`` imports this module only on a cache miss; the guard below
sends ``python -m torsionpoly.cli`` there before any engine import. Tracer
contract: importing this module loads every traced module and binds
``main``, ``ingest_knot`` and the front's cache and render functions.
"""

from __future__ import annotations

if __name__ == "__main__":
    from torsionpoly.front import main
    raise SystemExit(main())

import sys
from typing import Dict, List, Tuple

import mpmath as mp

from . import pipelines as pl
from .front import (  # noqa: F401  (bound here for the tracer and the tests)
    CACHE_ENV, COMMANDS, cache_load, cache_store, main, make_digest, render_json,
    render_text, report_dict,
)
from .numfield import NotInField
from .polys import to_text
from .records import ingest_knot, parse_record, validate_parabolic  # noqa: F401

REPORT_DIGITS = 12


def fmt_mp(v) -> str:
    v = mp.mpc(v)
    if v.imag == 0:
        return mp.nstr(v.real, REPORT_DIGITS)
    re = mp.nstr(v.real, REPORT_DIGITS)
    im = mp.nstr(abs(v.imag), REPORT_DIGITS)
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
        "branch": to_text(branch.to_multi()),
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


def cmd_rho0(record, args):
    value, poly, notes = pl.rho0_for_curve(record, args.curve, args.precision)
    results = {
        "curve": args.curve,
        "specialized_polynomial": to_text(poly.to_multi()),
        "minimal_polynomial": to_text(value.value.minpoly.to_multi()),
        "value": fmt_mp(value.value.approx),
    }
    mpoly = value.value.minpoly
    if mpoly.degree() == 1:
        results["value_exact"] = str(-mpoly.coeffs[0] / mpoly.coeffs[1])
    elif mpoly.degree() == 2 and mpoly.coeffs[1] == 0:
        results["value_squared_exact"] = str(-mpoly.coeffs[0] / mpoly.coeffs[2])
    return results, notes


def cmd_membership(record, args):
    out = pl.membership(record, args.curve, args.precision)
    if not out["in_field"]:
        o = out["outcome"]
        kind = "not in field" if isinstance(o, NotInField) else "undecided"
        return {
            "curve": args.curve,
            "in_field": "false",
            "outcome": f"{kind}: {o.reason} (precision {o.precision})",
        }, out["notes"]
    # the record's embedding is a float: read all 53 of its bits
    with mp.workprec(max(mp.mp.prec, 53)):
        embedding = fmt_mp(record.trace_field_embedding)
    return {
        "curve": args.curve,
        "in_field": "true",
        "field": to_text(record.trace_field_poly.to_multi()),
        "field_embedding": embedding,
        "element": pl.field_element_text(out["element"]),
        "element_minpoly": to_text(out["element_minpoly"].to_multi()),
        "value": fmt_mp(out["value"].value.approx),
    }, out["notes"]


def _torsion_results(point: dict, tolerance: float) -> Dict[str, str]:
    results = {
        "tr_mu": fmt_mp(point["tr_mu"]),
        "tr_lambda": fmt_mp(point["tr_lambda"]),
        "tau_mu": fmt_mp(point["tau_mu"].value),
        "tau_lambda": fmt_mp(point["tau_lambda"].value),
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


def _finite(value, flag: str):
    """A parsed number; inf and nan would fail inside mpmath's arithmetic or
    compare false against every error."""
    if not mp.isfinite(value):
        raise ValueError(f"{flag} must be a finite number, got {mp.nstr(value)}")
    return value


def cmd_torsion(record, args):
    try:
        _finite(mp.mpmathify(args.trace), "--trace")
    except TypeError:  # mpmath's error for text that is not a number
        raise ValueError(f"--trace {args.trace!r} is not a number") from None
    dps = max(30, args.precision // 2)
    point = pl.torsion_at(record, args.trace, dps=dps)
    results = {"trace": args.trace}
    results.update(_torsion_results(point, args.tolerance))
    notes = [H2_NOTE, point["tau_mu"].normalization_note]
    return results, notes


def _sweep_point(payload):
    record, trace, dps, tolerance = payload
    try:
        point = pl.torsion_at(record, trace, dps=dps)
    except ValueError as exc:
        # singular samples (e.g. the parabolic point itself) are reported
        # per-point, the rest of the sweep continues
        return trace, {"error": str(exc)}
    return trace, _torsion_results(point, tolerance)


def cmd_sweep(record, args):
    dps = max(30, args.precision // 2)
    traces = []
    lo = _finite(mp.mpf(args.start), "--from")
    hi = _finite(mp.mpf(args.stop), "--to")
    steps = args.steps
    for i in range(steps):
        t = lo + (hi - lo) * i / max(1, steps - 1)
        traces.append(mp.nstr(t, 12))
    payloads = [(record, t, dps, args.tolerance) for t in traces]
    if args.jobs > 1:
        import concurrent.futures as cf
        # workers get the record with its symbolic artifacts already derived
        pl.derive_artifacts(record)
        with cf.ProcessPoolExecutor(max_workers=args.jobs) as ex:
            rows = list(ex.map(_sweep_point, payloads))
    else:
        rows = [_sweep_point(p) for p in payloads]
    results = {}
    for trace, r in rows:
        for k, v in r.items():
            results[f"{trace}/{k}"] = v
    return results, [H2_NOTE]


def cmd_validate(record, args):
    out = validate_parabolic(record, dps=max(30, args.precision // 2))
    return {
        "abelianization": "Z",
        "parabolic_relator_residual": mp.nstr(out["relator_residual"], 4),
        "parabolic_tr_lambda": fmt_mp(out["tr_lambda"]),
        "ok": "true" if out["ok"] else "false",
    }, [record.presentation_note] if record.presentation_note else []


HANDLERS = {name: globals()["cmd_" + name.replace("-", "_")] for name in COMMANDS}


def run(args, command_echo: str, text: str, digest: str) -> int:
    """front.main past a cache miss: parse the record text it read and
    hashed, run the handler and store the report."""
    record = parse_record(text)
    with mp.workdps(args.precision):
        results, notes = HANDLERS[args.cmd](record, args)
    rep = report_dict(command_echo, digest, results, notes, {
        "precision_digits": str(args.precision),
        "numeric_tolerance": repr(args.tolerance),
    })
    rendered = {"text": render_text(rep), "json": render_json(rep)}
    if not args.no_cache:
        cache_store(digest, rendered)
    sys.stdout.write(rendered[args.format])
    return 0
