"""Child processes of the benchmark.

    python child.py setup <workload> <cache_dir>
        One set-up probe: import torsionpoly.cli, ingest every bundled
        record and, for cli-cached, compute every symbolic report into
        cache_dir. Prints {"import_ms", "failed"} as JSON.
    python child.py traced <out.json> <cli argv...>
        One traced CLI op: like ``python -m torsionpoly.cli <argv>``, with
        spans at every module boundary, written to out.json.

PYTHONPATH must name the checkout's src/ directory.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter


def setup(workload, cache_dir):
    t0 = perf_counter()
    import torsionpoly.cli as cli
    import_ms = (perf_counter() - t0) * 1e3
    from torsionpoly.records import ingest_knot
    import workloads
    for knot in workloads.KNOTS:
        ingest_knot(knot)
    failed = workloads.fill_cache(cli.main, cache_dir) \
        if workload == "cli-cached" else []
    print(json.dumps({"import_ms": import_ms, "failed": failed}))
    return 0


def traced(out_path, argv):
    t0 = perf_counter()
    import torsionpoly.cli as cli
    import_ms = (perf_counter() - t0) * 1e3
    from tracing import Tracer
    tracer = Tracer()
    tracer.install()
    tracer.begin_op(0)
    try:
        rc = cli.main(argv)
    finally:
        tracer.end_op()
        tracer.uninstall()
        with open(out_path, "w") as fh:
            json.dump({"import_ms": import_ms,
                       "record": tracer.op_records()[0],
                       "sizes": tracer.sizes(),
                       "spans": tracer.span_rows()}, fh)
    return rc


if __name__ == "__main__":
    mode, first, rest = sys.argv[1], sys.argv[2], sys.argv[3:]
    if mode == "setup":
        sys.exit(setup(first, rest[0]))
    sys.exit(traced(first, rest))
