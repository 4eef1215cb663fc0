#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of torsionpoly.

    python3 benchmarks/run.py --workload {symbolic,sweep,cli-cached}
                              --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the program is imported from its src/.
One client runs ops in a closed loop for S seconds and every op's output is
checked (check.py). The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
are the end-to-end ones; with --trace 1 ops run in pairs, one traced and
one not, in alternating order, and the metrics are per-layer self times and
counts (tracing.py) plus the tracing overhead. The lines before it give the
machine facts, the input sizes and the error rate.

Workloads:
  symbolic    one symbolic CLI command per op, in-process through cli.main,
              each with a fresh empty report cache: every op misses and
              writes its report; nearly all time is in the exact kernel.
  sweep       one 7-point `sweep --no-cache` per op, in-process: many points
              share one record, so the same artifacts are derived again and
              again; the numeric engine does the rest.
  cli-cached  one fresh `python -m torsionpoly.cli` process per op, answered
              from a cache filled during set-up: interpreter start, imports
              and the cache path.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import check
import workloads as wl
from tracing import Tracer

CHILD = str(Path(__file__).resolve().parent / "child.py")
RUN_DIR = wl.ROOT / ".bench_run"
SETUP_PROBES = 7
FLOOR_RUNS = 5
OP_TIMEOUT_S = 60
P90_MIN_OPS = 100
# References of machine speed (class Reference): their nominal times are
# their typical medians on the machine where the baseline was recorded.
LOOP_ROUNDS = 1200
LOOP_MS = 15.0
START_MS = 80.0
REF_SHARE = 0.125
REF_WINDOW_S = 1.0

# (metric, unit, traced name or names, kind)
PER_LAYER = [
    ("polys.resultant.calls", "count", "polys.resultant", "calls"),
    ("polys.resultant.self_ms", "ms", "polys.resultant", "self"),
    ("polys.resultant.distinct_ratio", "ratio", None, "distinct"),
    ("polys.bareiss_det.self_ms", "ms", "polys.bareiss_det", "self"),
    ("polys.exact_div.calls", "count", "polys.exact_div", "calls"),
    ("polys.exact_div.self_ms", "ms", "polys.exact_div", "self"),
    ("polys.squarefree_primitive.self_ms", "ms", "polys.squarefree_primitive", "self"),
    ("polys.gcd_poly.self_ms", "ms", "polys.gcd_poly", "self"),
    ("polys.sylvester_dim", "count", None, "sylvester"),
]
for _fn in ("charvar.trace_relation", "charvar.geometric_branch",
            "charvar.change_curve_sq", "torsion_sym.eliminate_T",
            "torsion_sym.transport_T", "torsion_sym.rho0_value",
            "numfield.roots_numeric"):
    PER_LAYER += [(f"{_fn}.calls", "count", _fn, "calls"),
                  (f"{_fn}.self_ms", "ms", _fn, "self")]
PER_LAYER += [
    ("numfield.roots_numeric.escalations", "count", None, "escalations"),
    ("numfield.express_in_field.self_ms", "ms", "numfield.express_in_field", "self"),
    ("numfield.NumberField.create.self_ms", "ms", "numfield.NumberField.create", "self"),
]
for _fn in ("torsion_num.riley_solve", "torsion_num.boundaries",
            "torsion_num.invariant_vector", "torsion_num.basing",
            "torsion_num.torsion_numeric", "torsion_num.peripheral_torsions",
            "mplinalg.pivot_columns", "mplinalg.nullspace", "mplinalg.det",
            "pipelines.torsion_at", "pipelines.branch_and_factor",
            "pipelines.eliminated_T", "records.ingest_knot"):
    PER_LAYER += [(f"{_fn}.calls", "count", _fn, "calls"),
                  (f"{_fn}.self_ms", "ms", _fn, "self")]
PER_LAYER += [
    ("torsion_num.fox_derivative.calls", "count", "torsion_num.fox_derivative", "calls"),
    ("torsion_num.adjoint.calls", "count", "torsion_num.adjoint", "calls"),
    ("cli.make_digest.self_ms", "ms", "cli.make_digest", "self"),
    ("cli.cache_load.calls", "count", "cli.cache_load", "calls"),
    ("cli.cache_load.self_ms", "ms", "cli.cache_load", "self"),
    ("cli.cache_store.self_ms", "ms", "cli.cache_store", "self"),
    ("cli.cache.hit_ratio", "ratio", None, "hits"),
    ("cli.render.self_ms", "ms", ("cli.render_text", "cli.render_json"), "self"),
    ("op.self_ms", "ms", "op", "self"),
    ("setup.import_ms", "ms", None, "import"),
    ("trace.overhead_ratio", "ratio", None, "overhead"),
]

END_TO_END_UNITS = {"setup_s": "s", "op_p50_ms": "ms", "op_p90_ms": "ms",
                    "ops_per_s": "1/s", "points_per_s": "1/s",
                    "peak_rss_mb": "MB"}


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS + ("all",),
                    help="one workload, or all of them in turn")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def p90(values):
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def snapshot(directory):
    """File name -> (inode, mtime, size): unchanged means nothing was written."""
    out = {}
    for entry in os.scandir(directory):
        st = entry.stat()
        out[entry.name] = (st.st_ino, st.st_mtime_ns, st.st_size)
    return out


class Outcome:
    """What one op did: wall time, sweep points, and why it failed, if it did."""

    def __init__(self, seconds, points=1, problem=None):
        self.seconds, self.points, self.problem = seconds, points, problem
        self.end = perf_counter()
        self.scaled = seconds


# -- in-process workloads --------------------------------------------------

class InProcess:
    """symbolic and sweep: ops call cli.main in this process."""

    def __init__(self, workload, cli, tmp):
        self.workload, self.cli, self.tmp = workload, cli, tmp
        # sweep runs with --no-cache; this directory must stay empty
        self.unused_cache = Path(tempfile.mkdtemp(dir=tmp))

    def label(self, op):
        return f"sweep {op[0]}" if self.workload == "sweep" else " ".join(op)

    def run(self, op, tracer=None, op_id=None):
        if self.workload == "sweep":
            argv, cache = wl.FORMAT + wl.sweep_argv(*op), self.unused_cache
        else:
            argv, cache = wl.FORMAT + op, Path(tempfile.mkdtemp(dir=self.tmp))
        gc.collect()
        if tracer is not None:
            tracer.install()
        t0 = perf_counter()
        if tracer is not None:
            tracer.begin_op(op_id)
        rc, out, err = wl.run_cli(self.cli.main, argv, cache)
        if tracer is not None:
            tracer.end_op()
        seconds = perf_counter() - t0
        if tracer is not None:
            tracer.uninstall()
        written = os.listdir(cache)
        if self.workload == "sweep":
            points, problem = check.check_sweep(*op, wl.SWEEP_STEPS, rc, out, err)
            if problem is None and written:
                problem = f"--no-cache sweep wrote {written}"
            return Outcome(seconds, max(points, 1), problem)
        shutil.rmtree(cache)
        problem = check.check_symbolic(op, rc, out, err)
        if problem is None and len(written) != 1:
            problem = f"a miss should write one report, found {written}"
        return Outcome(seconds, 1, problem)


# -- cli-cached ------------------------------------------------------------

class CliCached:
    """cli-cached: each op is a fresh CLI process answered from the cache."""

    def __init__(self, cli, tmp):
        self.tmp = tmp
        self.cache = Path(tempfile.mkdtemp(dir=tmp))
        failed = wl.fill_cache(cli.main, self.cache)
        if failed:
            sys.exit(f"error: cache fill failed for {failed}")
        self.filled = snapshot(self.cache)
        self.env = wl.child_env(self.cache)
        self.children = {}          # op id -> what the traced child wrote

    def label(self, op):
        return " ".join(op)

    def run(self, op, tracer=None, op_id=None):
        argv = wl.FORMAT + op
        if tracer is None:
            cmd = [sys.executable, "-m", "torsionpoly.cli", *argv]
        else:
            out_path = self.tmp / f"trace-{op_id}.json"
            cmd = [sys.executable, CHILD, "traced", str(out_path), *argv]
        t0 = perf_counter()
        try:
            proc = subprocess.run(cmd, env=self.env, capture_output=True,
                                  text=True, timeout=OP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return Outcome(perf_counter() - t0, 1, f"timed out: {' '.join(op)}")
        seconds = perf_counter() - t0
        problem = check.check_symbolic(op, proc.returncode, proc.stdout, proc.stderr)
        if problem is None and snapshot(self.cache) != self.filled:
            problem = f"{' '.join(op)} wrote to the cache, so it was not a hit"
        if tracer is not None and out_path.exists():
            with open(out_path) as fh:
                self.children[op_id] = json.load(fh)
        return Outcome(seconds, 1, problem)


# -- the run ---------------------------------------------------------------

def loop_ms():
    """Time of a fixed pure-Python computation that does not touch the
    program: Fraction arithmetic and dict updates, like the exact kernel's
    inner loops."""
    t0 = perf_counter()
    terms = {}
    for i in range(LOOP_ROUNDS):
        if i % 40 == 0:
            acc = Fraction(1)
        acc = acc * Fraction(i + 1, i + 2) - Fraction(1, i * i + 1)
        key = (i % 7, i % 5, i % 3)
        terms[key] = terms.get(key, 0) + acc.numerator % 1009
    return (perf_counter() - t0) * 1e3


def python_start_ms():
    """Time of a fresh `python -c pass` process."""
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], check=True,
                   timeout=OP_TIMEOUT_S)
    return (perf_counter() - t0) * 1e3


class Reference:
    """Removes the drift of this machine's speed from op times.

    On a shared machine the speed of Python code and the cost of starting
    a process each drift by tens of percent within seconds, and apart from
    each other; no number of ops averages that away. So references that do
    not involve the program are timed between ops, taking REF_SHARE of the
    run: loop_ms always, and python_start_ms when ops are CLI processes.
    An op's scaled time is

        START_MS + (op - start) * LOOP_MS / loop

    where loop and start are the medians of the reference times taken
    within REF_WINDOW_S of the op, and both start terms are 0 for ops run
    in-process. So a CLI op is charged the nominal interpreter start plus
    the rest of its time at the nominal speed of Python code."""

    def __init__(self, processes):
        self.processes = processes
        self.cost = 0.0
        self.samples = []           # (time taken, loop ms, start ms or 0)
        self.sample()

    def sample(self):
        t0 = perf_counter()
        start = python_start_ms() if self.processes else 0.0
        self.samples.append((perf_counter(), loop_ms(), start))
        self.cost = perf_counter() - t0

    def after_op(self):
        if perf_counter() - self.samples[-1][0] >= self.cost / REF_SHARE:
            self.sample()

    def scale(self, outcomes):
        self.sample()
        for o in outcomes:
            lo, hi = o.end - o.seconds - REF_WINDOW_S, o.end + REF_WINDOW_S
            near = [s for s in self.samples if lo <= s[0] <= hi] or \
                [min(self.samples, key=lambda s: abs(s[0] - o.end))]
            loop = statistics.median(s[1] for s in near)
            start = statistics.median(s[2] for s in near) / 1e3
            nominal = START_MS / 1e3 if self.processes else 0.0
            o.scaled = nominal + (o.seconds - start) * LOOP_MS / loop


def measure(runner, ops, seconds, traced):
    """Closed loop for `seconds`. Traced runs do each op twice, traced and
    untraced, alternating which goes first."""
    plain, with_trace, outcomes = [], [], []
    tracer = Tracer() if traced else None
    labels = {}
    reference = Reference(isinstance(runner, CliCached))
    deadline = perf_counter() + seconds
    i = 0
    while True:
        op = next(ops)
        order = ((False, True) if i % 2 == 0 else (True, False)) if traced else (False,)
        for use_trace in order:
            if use_trace:
                labels[len(labels)] = runner.label(op)
                o = runner.run(op, tracer, len(labels) - 1)
                with_trace.append(o)
            else:
                o = runner.run(op)
                plain.append(o)
            outcomes.append(o)
            reference.after_op()
        i += 1
        if perf_counter() >= deadline:
            reference.scale(outcomes)
            return plain, with_trace, outcomes, reference, tracer, labels


def setup_probes(workload, tmp):
    """Set-up outcomes of fresh processes doing what the run did before its
    first op, scaled like CLI ops, and the import time of torsionpoly.cli
    inside each."""
    probes, imports, problems = [], [], []
    reference = Reference(processes=True)
    for _ in range(SETUP_PROBES):
        cache = Path(tempfile.mkdtemp(dir=tmp))
        t0 = perf_counter()
        proc = subprocess.run([sys.executable, CHILD, "setup", workload, str(cache)],
                              env=wl.child_env(cache), capture_output=True,
                              text=True, timeout=OP_TIMEOUT_S)
        probes.append(Outcome(perf_counter() - t0))
        reference.sample()
        shutil.rmtree(cache)
        if proc.returncode != 0:
            problems.append(f"set-up probe exited {proc.returncode}: "
                            f"{proc.stderr.strip()[-200:]}")
            continue
        out = json.loads(proc.stdout.strip().splitlines()[-1])
        imports.append(out["import_ms"])
        problems += [f"set-up cache fill failed: {c}" for c in out["failed"]]
    reference.scale(probes)
    return probes, imports, problems


def input_sizes(workload, cli):
    """Eliminant, Sylvester and chain-complex sizes of the workload's inputs,
    from one traced pass over each distinct input after the timed loop."""
    tracer = Tracer()
    if workload == "sweep":
        argvs = [("torsion", "--knot", k, "--trace", "2.05") for k in wl.KNOTS]
    else:
        argvs = wl.symbolic_pairs()
    tracer.install()
    try:
        for argv in argvs:
            wl.run_cli(cli.main, wl.FORMAT + ("--no-cache",) + argv)
    finally:
        tracer.uninstall()
    return tracer.sizes()


def machine_facts():
    import mpmath
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "nproc": os.cpu_count(),
        "pinned_cpu": min(os.sched_getaffinity(0)),
        "platform": platform.platform(),
    }


def peak_rss_mb(with_children):
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if with_children:
        kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kb / 1024


def end_to_end(plain, outcomes, setup, rss):
    """End-to-end metrics from the scaled times (see Reference), and the
    same metrics from raw times."""
    def metrics(scaled):
        def t(o):
            return o.scaled if scaled else o.seconds
        ms = [t(o) * 1e3 for o in plain]
        busy = sum(t(o) for o in outcomes)
        return {
            "setup_s": statistics.median(t(o) for o in setup),
            "op_p50_ms": statistics.median(ms),
            "op_p90_ms": p90(ms) if len(ms) > 1 else ms[0],
            "ops_per_s": len(outcomes) / busy,
            "points_per_s": sum(o.points for o in outcomes) / busy,
            "peak_rss_mb": rss,
        }
    return metrics(True), metrics(False)


def per_layer(records, sylvester_dims, import_ms, overhead):
    n = max(len(records), 1)
    recs = list(records.values())

    def total(key, names):
        names = (names,) if isinstance(names, str) else names
        return sum(r[key].get(name, 0) for r in recs for name in names)

    ratios = [r["resultant_distinct"] / r["calls"]["polys.resultant"]
              for r in recs if r["calls"].get("polys.resultant")]
    special = {
        "distinct": statistics.mean(ratios) if ratios else 0.0,
        "sylvester": max(sylvester_dims, default=0),
        "escalations": sum(r["escalations"] for r in recs) / n,
        "hits": sum(r["cache_hits"] for r in recs) / n,
        "import": statistics.median(import_ms) if import_ms else 0.0,
        "overhead": overhead,
    }
    out = {}
    for metric, unit, names, kind in PER_LAYER:
        if kind == "calls":
            value = total("calls", names) / n
        elif kind == "self":
            value = total("self_s", names) * 1e3 / n
        else:
            value = special[kind]
        out[metric] = {"value": value, "unit": unit}
    return out


def by_label(records, labels):
    """Resultant calls and distinct inputs per op, for each kind of op."""
    groups = {}
    for op, r in records.items():
        g = groups.setdefault(labels[op], [0, 0, 0])
        g[0] += 1
        g[1] += r["calls"].get("polys.resultant", 0)
        g[2] += r["resultant_distinct"]
    return {label: {"ops": n, "resultant_calls_per_op": c / n,
                    "resultant_distinct_per_op": d / n}
            for label, (n, c, d) in sorted(groups.items())}


def write_spans(path, tracer, runner, labels):
    """Spans grouped by op as [name, start_s, end_s, parent index]."""
    if isinstance(runner, CliCached):
        groups = {op: [[n, s, e, p] for n, _, s, e, p in child["spans"]]
                  for op, child in runner.children.items()}
    else:
        groups, local = {}, {}
        for i, (name, op, s, e, parent) in enumerate(tracer.span_rows()):
            spans = groups.setdefault(op, [])
            local[i] = len(spans)
            spans.append([name, s, e, local.get(parent)])
    path.parent.mkdir(exist_ok=True)
    with open(path, "w") as fh:
        json.dump({op: {"label": labels[op], "spans": spans}
                   for op, spans in groups.items()}, fh)


def run_all(args):
    """Every workload in turn, each in a fresh process; the last line sums
    their results, with each metric named <workload>.<metric>."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in wl.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)], capture_output=True, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            return proc.returncode or 1
        result = json.loads(lines[-1])
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        total["metrics"].update({f"{workload}.{name}": m
                                 for name, m in result["metrics"].items()})
    print(json.dumps(total))
    return 0


def main(argv=None):
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    cli = wl.load_program()
    # one client: it and its CLI processes share one CPU, so that the
    # reference times the same CPU as the ops
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    RUN_DIR.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=RUN_DIR, prefix="tmp-"))
    try:
        return run(args, cli, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            RUN_DIR.rmdir()
        except OSError:
            pass                    # spans of a traced run are kept there


def run(args, cli, tmp):
    if args.workload == "cli-cached":
        runner = CliCached(cli, tmp)
        ops = wl.symbolic_ops(args.seed)
    else:
        runner = InProcess(args.workload, cli, tmp)
        ops = wl.sweep_ops(args.seed) if args.workload == "sweep" \
            else wl.symbolic_ops(args.seed)
    plain, with_trace, outcomes, reference, tracer, labels = measure(
        runner, ops, args.seconds, bool(args.trace))
    rss = peak_rss_mb(args.workload == "cli-cached")
    setup, import_ms, setup_problems = setup_probes(args.workload, tmp)
    problems = [o.problem for o in outcomes if o.problem is not None]
    failed = len(problems) + len(setup_problems)
    attempted = len(outcomes) + SETUP_PROBES
    info = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine_facts(),
        "python_floor_ms": statistics.median(
            python_start_ms() for _ in range(FLOOR_RUNS)),
        "ops": len(outcomes), "setup_probes": SETUP_PROBES,
        "error_rate": failed / attempted,
        "problems": (problems + setup_problems)[:5],
        "input_sizes": input_sizes(args.workload, cli),
    }
    lines = [f"workload {args.workload}, seed {args.seed}, {len(outcomes)} ops "
             f"in {args.seconds:g} s, one client, closed loop"]
    if args.trace:
        if isinstance(runner, CliCached):
            children = runner.children
            records = {op: c["record"] for op, c in children.items()}
            dims = [d for c in children.values() for d in c["sizes"]["sylvester_dims"]]
            import_ms = [c["import_ms"] for c in children.values()]
        else:
            records = tracer.op_records()
            dims = tracer.sizes()["sylvester_dims"]
        overhead = statistics.median(o.scaled for o in with_trace) \
            / statistics.median(o.scaled for o in plain)
        metrics = per_layer(records, dims, import_ms, overhead)
        info["traced_ops"] = len(with_trace)
        info["resultant_by_op"] = by_label(records, labels)
        spans_path = RUN_DIR / f"spans-{args.workload}-seed{args.seed}.json"
        write_spans(spans_path, tracer, runner, labels)
        info["spans_file"] = str(spans_path.relative_to(wl.ROOT))
    else:
        scaled, raw = end_to_end(plain, outcomes, setup, rss)
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                   for k, v in scaled.items()}
        info["raw"] = raw
        info["reference_p50"] = {
            "loop_ms": statistics.median(r[1] for r in reference.samples),
            "python_start_ms": statistics.median(r[2] for r in reference.samples)}
        if len(plain) < P90_MIN_OPS:
            info["op_p90_ms_note"] = (
                f"only {len(plain)} ops, fewer than {P90_MIN_OPS}: fewer than "
                "ten samples lie beyond op_p90_ms, so it is close to the "
                "largest op time, not a tail estimate")
    for name, m in metrics.items():
        lines.append(f"  {name} = {m['value']:.6g} {m['unit']}")
    lines.append(f"  error_rate = {info['error_rate']:.6g} "
                 f"({failed} failed of {attempted} attempted)")
    print("\n".join(lines))
    print("info " + json.dumps(info))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
