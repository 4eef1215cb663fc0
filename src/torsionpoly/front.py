"""Command-line front: flags, record text, the report digest and cache, and
dispatch.  Standard library only, not even ``json``, so a cache hit is
answered without loading the engine; ``verify`` and a miss import the rest
of the package lazily.  Tracer contract: ``cli`` binds ``main`` and the
digest and cache functions, and the benchmark tracer wraps them there by
identity, which replaces their bindings here as well.
"""

import argparse
import functools
import hashlib
import math
import os
import shlex
import sys

from . import __version__

CACHE_ENV = "TORSIONPOLY_CACHE"
DEFAULT_CACHE_DIR = ".torsionpoly-cache"
PACKAGE_DIR = os.path.dirname(os.path.abspath(__file__))

COMMANDS = {
    "eliminate": "eliminate auxiliary variables into the torsion-trace polynomial",
    "trace-relation": "eliminate eigenvalues from the A-polynomial",
    "change-curve": "geometric branch and change-of-curve factor",
    "transport": "transport the torsion polynomial to the meridian",
    "rho0": "torsion value at the discrete faithful representation",
    "membership": "trace-field membership of the rho0 torsion value",
    "torsion": "numeric torsion at one meridian trace",
    "sweep": "numeric torsion over a range of meridian traces",
    "validate": "deep-validate a knot record",
}


class RecordError(ValueError):
    pass


def bundled_record_text(name: str) -> str:
    try:
        with open(os.path.join(PACKAGE_DIR, "data", f"{name}.knot"), "r") as fh:
            return fh.read()
    except FileNotFoundError:
        raise RecordError(f"no bundled knot record named {name!r}") from None


def record_text(path_or_name: str) -> str:
    """The text of the record at a path, or else of the bundled record of
    that knot name."""
    if os.path.exists(path_or_name):
        try:
            with open(path_or_name, "r") as fh:
                return fh.read()
        except OSError as exc:
            raise RecordError(
                f"cannot read knot record {path_or_name!r}: {exc.strerror}") from None
    return bundled_record_text(path_or_name)


@functools.cache
def _source_digest() -> str:
    """sha256 of the package's top-level .py files and bundled records, by
    sorted name; an entry stored under another digest is a miss."""
    names = sorted([n for n in os.listdir(PACKAGE_DIR) if n.endswith(".py")] + [
        f"data/{n}" for n in os.listdir(os.path.join(PACKAGE_DIR, "data"))
        if n.endswith(".knot")])
    h = hashlib.sha256()
    for name in names:
        with open(os.path.join(PACKAGE_DIR, name), "rb") as fh:
            h.update(name.encode() + b"\x00" + fh.read() + b"\x00")
    return h.hexdigest()


def _cache_dir() -> str | None:
    """The cache location, or None for no cache: an empty TORSIONPOLY_CACHE
    is read and written by neither cache_load nor cache_store."""
    return os.environ.get(CACHE_ENV, DEFAULT_CACHE_DIR) or None


def cache_load(digest: str) -> str | None:
    """The report that cache_store stored for digest after a line with the
    source digest; None when there is no cache, or the entry is missing,
    unreadable or undecodable, has no such line or was stored by other
    source code."""
    d = _cache_dir()
    if d is None:
        return None
    path = os.path.join(d, digest + ".txt")
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            source, header_ends, report = fh.read().partition("\n")
    except (OSError, ValueError):
        return None
    return report if header_ends and source == _source_digest() else None


def cache_store(digest: str, report: str):
    """Best effort: no cache, or a location that cannot hold the entry,
    stores nothing."""
    d = _cache_dir()
    if d is None:
        return
    import tempfile  # only a miss writes, and a hit should not pay for it
    tmp = None
    try:
        os.makedirs(d, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(_source_digest() + "\n" + report)
        os.replace(tmp, os.path.join(d, digest + ".txt"))
    except OSError:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)


def make_digest(command_echo: str, record_text: str, precision: int,
                tolerance: str) -> str:
    h = hashlib.sha256()
    for part in (__version__, command_echo, record_text, str(precision), tolerance):
        h.update(part.encode())
        h.update(b"\x00")
    return h.hexdigest()


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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="torsionpoly",
        description="torsion-trace polynomials of knot exteriors, with a "
                    "numeric Fox-calculus cross-check engine")
    _add_common_flags(ap, suppress=False)
    sub = ap.add_subparsers(dest="cmd", required=True)
    for name, help_text in COMMANDS.items():
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
    if not math.isfinite(args.tolerance):  # shown the way mpmath prints it
        shown = "nan" if math.isnan(args.tolerance) else f"{args.tolerance:+}"
        raise ValueError(f"--tolerance must be a finite number, got {shown}")
    if args.tolerance <= 0:
        raise ValueError(f"--tolerance must be positive, got {args.tolerance!r}")
    for flag in ("steps", "jobs"):
        value = getattr(args, flag, 1)
        if value < 1:
            raise ValueError(f"--{flag} must be at least 1, got {value}")


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    args = build_parser().parse_args(argv)
    command_echo = "torsionpoly " + shlex.join(argv)
    try:
        _check_flags(args)
        if args.cmd == "verify":
            from .verify import run_all
            return 0 if run_all(fmt=args.format) else 1
        text = record_text(args.knot)
        digest = make_digest(command_echo, text, args.precision, repr(args.tolerance))
        cached = None if args.no_cache else cache_load(digest)
        if cached is not None:
            sys.stdout.write(cached)
            return 0
        from .cli import run
        return run(args, command_echo, text, digest)
    except ValueError as exc:
        print(f"error: {args.cmd}: {exc}", file=sys.stderr)
        return 2
