"""Command-line interface: reports, caching, and the verify entry point.

Reports are deterministic for identical inputs and precision settings; the
cache stores fully rendered reports under a content-addressed key, so cached
and fresh runs are byte-identical.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import tempfile
from typing import Dict, List, Optional, Tuple

import mpmath as mp

from . import __version__, pipelines as pl
from .numfield import NotInField
from .polys import to_text
from .records import ingest_knot, validate_parabolic

CACHE_ENV = "TORSIONPOLY_CACHE"
DEFAULT_CACHE_DIR = ".torsionpoly-cache"
REPORT_DIGITS = 12


def fmt_mp(v) -> str:
    v = mp.mpc(v)
    if v.imag == 0:
        return mp.nstr(v.real, REPORT_DIGITS)
    re = mp.nstr(v.real, REPORT_DIGITS)
    im = mp.nstr(abs(v.imag), REPORT_DIGITS)
    sign = "+" if v.imag > 0 else "-"
    return f"{re} {sign} {im}i"


def report_dict(command_echo: str, digest: str, results: Dict[str, str],
                notes: List[str], tolerances: Dict[str, str]) -> dict:
    return {
        "command": command_echo,
        "inputs_digest": digest,
        "results": results,
        "notes": notes,
        "tolerances": tolerances,
    }


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


def _cache_dir() -> str:
    return os.environ.get(CACHE_ENV, DEFAULT_CACHE_DIR)


def cache_load(digest: str) -> Optional[dict]:
    """The stored rendering for digest; None when the entry is missing,
    unreadable or not of the shape cache_store writes."""
    path = os.path.join(_cache_dir(), digest + ".json")
    try:
        with open(path, "r") as fh:
            entry = json.load(fh)
    except (OSError, ValueError):
        return None
    if not (isinstance(entry, dict)
            and all(isinstance(entry.get(k), str) for k in ("text", "json"))):
        return None
    return entry


def cache_store(digest: str, rendered: dict):
    d = _cache_dir()
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            json.dump(rendered, fh)
        os.replace(tmp, os.path.join(d, digest + ".json"))
    except OSError:
        if os.path.exists(tmp):
            os.unlink(tmp)


def make_digest(command_echo: str, record_text: str, precision: int,
                tolerance: str) -> str:
    h = hashlib.sha256()
    for part in (__version__, command_echo, record_text, str(precision), tolerance):
        h.update(part.encode())
        h.update(b"\x00")
    return h.hexdigest()


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


def _check_flags(args):
    """Flag values that would otherwise fail later with a misleading error
    (a precision below 1) or silently do nothing useful."""
    if args.cmd == "verify":
        for dest in ("precision", "tolerance", "no_cache"):
            if getattr(args, dest) != DEFAULTS[dest]:
                raise ValueError(f"--{dest.replace('_', '-')} has no effect: the checks fix "
                                 "their own precisions and tolerances and use no cache")
        return
    if args.precision < 1:
        raise ValueError(f"--precision must be at least 1, got {args.precision}")
    _finite(mp.mpf(args.tolerance), "--tolerance")
    if args.tolerance <= 0:
        raise ValueError(f"--tolerance must be positive, got {args.tolerance!r}")
    for flag in ("steps", "jobs"):
        value = getattr(args, flag, 1)
        if value < 1:
            raise ValueError(f"--{flag} must be at least 1, got {value}")


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


COMMANDS = {
    "eliminate": (cmd_eliminate, "eliminate auxiliary variables into the torsion-trace polynomial"),
    "trace-relation": (cmd_trace_relation, "eliminate eigenvalues from the A-polynomial"),
    "change-curve": (cmd_change_curve, "geometric branch and change-of-curve factor"),
    "transport": (cmd_transport, "transport the torsion polynomial to the meridian"),
    "rho0": (cmd_rho0, "torsion value at the discrete faithful representation"),
    "membership": (cmd_membership, "trace-field membership of the rho0 torsion value"),
    "torsion": (cmd_torsion, "numeric torsion at one meridian trace"),
    "sweep": (cmd_sweep, "numeric torsion over a range of meridian traces"),
    "validate": (cmd_validate, "deep-validate a knot record"),
}


DEFAULTS = {"precision": 64, "tolerance": 1e-8, "format": "text", "no_cache": False}


def _add_common_flags(parser, suppress: bool):
    # subcommand copies use SUPPRESS so they never clobber values parsed
    # before the subcommand name
    d = (lambda dest: argparse.SUPPRESS if suppress else DEFAULTS[dest])
    parser.add_argument("--precision", type=int, default=d("precision"),
                        help="working decimal digits (default 64)")
    parser.add_argument("--tolerance", type=float, default=d("tolerance"),
                        help="numeric comparison tolerance (default 1e-8)")
    parser.add_argument("--format", choices=("text", "json"), default=d("format"))
    parser.add_argument("--no-cache", action="store_true", default=d("no_cache"))


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="torsionpoly",
        description="torsion-trace polynomials of knot exteriors, with a "
                    "numeric Fox-calculus cross-check engine")
    _add_common_flags(ap, suppress=False)
    sub = ap.add_subparsers(dest="cmd", required=True)
    for name, (_, help_text) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        _add_common_flags(p, suppress=True)
        p.add_argument("--knot", required=True,
                       help="bundled knot name (4_1, 5_2) or a record path")
        if name in ("rho0", "membership"):
            p.add_argument("--curve", choices=("lambda", "mu"), default="lambda")
        if name == "torsion":
            p.add_argument("--trace", required=True,
                           help="meridian trace value, e.g. 2.05")
        if name == "sweep":
            p.add_argument("--from", dest="start", required=True)
            p.add_argument("--to", dest="stop", required=True)
            p.add_argument("--steps", type=int, required=True)
            p.add_argument("--jobs", type=int, default=1)
    v = sub.add_parser("verify", help="run the full acceptance suite")
    _add_common_flags(v, suppress=True)
    return ap


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    ap = build_parser()
    args = ap.parse_args(argv)
    command_echo = "torsionpoly " + " ".join(argv)
    try:
        _check_flags(args)
        if args.cmd == "verify":
            from .verify import run_all
            return 0 if run_all(fmt=args.format) else 1
        record = ingest_knot(args.knot)
        digest = make_digest(command_echo, record.source_text, args.precision,
                             repr(args.tolerance))
        cached = None if args.no_cache else cache_load(digest)
        if cached is not None:
            sys.stdout.write(cached[args.format])
            return 0
        with mp.workdps(args.precision):
            handler = COMMANDS[args.cmd][0]
            results, notes = handler(record, args)
        rep = report_dict(command_echo, digest, results, notes, {
            "precision_digits": str(args.precision),
            "numeric_tolerance": repr(args.tolerance),
        })
        rendered = {"text": render_text(rep), "json": render_json(rep)}
        if not args.no_cache:
            cache_store(digest, rendered)
        sys.stdout.write(rendered[args.format])
        return 0
    except ValueError as exc:
        print(f"error: {args.cmd}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
