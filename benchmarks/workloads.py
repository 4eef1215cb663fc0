"""Inputs of the three workloads, drawn from a seed, and the in-process
runner shared by the benchmark and its child processes.

This module does not import torsionpoly, so a child process can time that
import itself.
"""

from __future__ import annotations

import io
import os
import random
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CACHE_ENV = "TORSIONPOLY_CACHE"
KNOTS = ("4_1", "5_2")
WORKLOADS = ("symbolic", "sweep", "cli-cached")

# The symbolic commands and the knots each is defined for. A draw picks a
# command uniformly and then one of its knots, so a pair of a two-knot
# command has half the weight of a one-knot command. Then 6 ops in 14 are
# the fast pairs (under about 110 ms), and the median op lands among the
# 4_1 change-curve and trace-relation ops (about 150 ms), not in the gap
# between two groups, which keeps op_p50_ms steady from seed to seed.
SYMBOLIC = (
    (("eliminate",), KNOTS),
    (("trace-relation",), ("4_1",)),
    (("change-curve",), ("4_1",)),
    (("transport",), ("4_1",)),
    (("rho0", "--curve", "lambda"), KNOTS),
    (("rho0", "--curve", "mu"), ("4_1",)),
    (("membership",), KNOTS),
)
FORMAT = ("--format", "json")

SWEEP_LO = (1.85, 1.95)
SWEEP_HI = (2.15, 2.25)
SWEEP_STEPS = 7


def symbolic_argv(command, knot):
    return (command[0], "--knot", knot) + tuple(command[1:])


def symbolic_pairs():
    """Every valid (command, knot) pair, as an argv without global flags."""
    return [symbolic_argv(c, k) for c, knots in SYMBOLIC for k in knots]


def symbolic_ops(seed):
    """Endless stream of symbolic argvs. Each block of 14 holds every
    command twice (a two-knot command once per knot) in a seeded order, so
    the mix is the same in every run and the seed moves only the order."""
    rng = random.Random(seed)
    block = [symbolic_argv(c, knots[i % len(knots)])
             for c, knots in SYMBOLIC for i in range(2)]
    while True:
        rng.shuffle(block)
        yield from list(block)


def sweep_ops(seed):
    """Endless stream of (knot, lo, hi) sweeps. Each block of three ops holds
    4_1 twice and 5_2 once in a seeded order: a 4_1 sweep also checks the
    change-of-curve factor at every point, and at about 1.8 s against 1.3 s
    per op this weight puts the median op inside the 4_1 group rather than
    in the gap between the two knots. lo and hi are drawn on a 0.001 grid
    inside [1.85, 2.25], so a range always straddles the parabolic trace 2."""
    rng = random.Random(seed)
    block = ["4_1", "4_1", "5_2"]
    while True:
        rng.shuffle(block)
        for knot in list(block):
            lo = round(rng.uniform(*SWEEP_LO), 3)
            hi = round(rng.uniform(*SWEEP_HI), 3)
            yield knot, f"{lo:.3f}", f"{hi:.3f}"


def sweep_argv(knot, lo, hi):
    return ("sweep", "--knot", knot, "--from", lo, "--to", hi,
            "--steps", str(SWEEP_STEPS), "--no-cache")


def run_cli(main, argv, cache_dir=None):
    """Run ``main(argv)`` in this process with captured output; returns
    (exit code or None when it raised, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    saved = os.environ.get(CACHE_ENV)
    if cache_dir is not None:
        os.environ[CACHE_ENV] = str(cache_dir)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            try:
                rc = main(list(argv))
            except Exception:           # the op failed; the run goes on
                traceback.print_exc(file=err)
                rc = None
    finally:
        if saved is None:
            os.environ.pop(CACHE_ENV, None)
        else:
            os.environ[CACHE_ENV] = saved
    return rc, out.getvalue(), err.getvalue()


def fill_cache(main, cache_dir):
    """Compute every symbolic report once into cache_dir; returns the argvs
    that did not exit cleanly."""
    bad = []
    for argv in symbolic_pairs():
        rc, _, _ = run_cli(main, FORMAT + argv, cache_dir)
        if rc != 0:
            bad.append(" ".join(argv))
    return bad


def child_env(cache_dir):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env[CACHE_ENV] = str(cache_dir)
    return env


def load_program():
    """Import torsionpoly.cli from this checkout's src/ and return it, or exit
    with status 2 when the checkout holds no program."""
    if not (SRC / "torsionpoly").is_dir():
        sys.exit(f"error: no program source under {SRC}")
    sys.path.insert(0, str(SRC))
    import torsionpoly.cli as cli
    if SRC.resolve() not in Path(cli.__file__).resolve().parents:
        sys.exit(f"error: torsionpoly was imported from {cli.__file__}, not {SRC}")
    return cli
