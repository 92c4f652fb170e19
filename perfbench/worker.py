"""One fresh, single-threaded process of the benchmark.

    python3 perfbench/worker.py --workload W --seed N --mode setup|pass|traced --outdir DIR [--oracle]

It imports sumprodlab from ./src of the current directory, builds every
field the workload names with its generator, and prints `ready` (a
CLOCK_MONOTONIC reading, comparable with the parent's perf_counter).  In
pass or traced mode it then runs one pass of the workload's ops and, with
--oracle, checks the sweep rows against the loop oracle.  The result is one
JSON object on the last line of stdout.  traced mode installs the tracer
before set-up.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "pass", "traced"), required=True)
    ap.add_argument("--outdir", required=True)
    ap.add_argument("--oracle", action="store_true", help="check sweep rows with the loop oracle")
    args = ap.parse_args()

    src = os.path.join(os.getcwd(), "src")
    sys.path.insert(0, src)
    import sumprodlab as lib

    if not os.path.abspath(lib.__file__).startswith(src + os.sep):
        print(f"sumprodlab imported from {lib.__file__}, not from {src}", file=sys.stderr)
        return 2

    import tracer as tracing
    import workloads

    tracer = None
    if args.mode == "traced":
        tracer = tracing.Tracer()
        tracing.install(tracer)
    for p, m in workloads.setup_fields(args.workload):
        lib.make_field(p, m).generator()
    ready = time.perf_counter()
    out = {"ready": ready}
    if args.mode != "setup":
        ops, wall, rows = workloads.run_pass(lib, args.workload, args.seed, args.outdir)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        trace = tracer.snapshot() if tracer is not None else None
        checks = workloads.oracle_check_rows(lib, args.seed, rows) if args.oracle and rows else {}
        import numpy

        out.update(ops=ops, wall_s=wall, rss_mb=rss_mb, trace=trace, oracle=checks,
                   numpy=numpy.__version__)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
