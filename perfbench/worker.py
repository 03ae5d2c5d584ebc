"""One pass of one workload in a fresh interpreter, reported as a JSON line.

``--mode setup`` stops after importing pentaperm and generating the
inputs; ``plain`` then runs and checks every cell; ``traced`` does the
same with the per-layer tracer installed and writes its spans to
``.perfbench/spans-<workload>.npz`` after the pass.  Caches (field
contexts, log/antilog tables, the lazy numpy import) start cold because
the process is new, so the pass pays them as every CLI invocation does.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", required=True)
    parser.add_argument("--mode", choices=("setup", "plain", "traced"), required=True)
    parser.add_argument("--corrupt", type=int, default=0)
    args = parser.parse_args()

    sys.path.insert(0, os.path.join(ROOT, "src"))
    import pentaperm

    if not os.path.abspath(pentaperm.__file__).startswith(os.path.join(ROOT, "src")):
        raise SystemExit(f"pentaperm imported from {pentaperm.__file__}, not this checkout")
    import workloads

    scratch = workloads.scratch_dir(ROOT)
    out_path = os.path.join(scratch, f"cli-out-{os.getpid()}.json")
    cells = workloads.build(args.workload, args.seed, args.size, bool(args.corrupt), out_path)
    setup_s = time.perf_counter() - T0
    report = {"setup_s": setup_s, "cells": len(cells)}
    if args.mode == "setup":
        print(json.dumps(report))
        return 0

    tracer = None
    if args.mode == "traced":
        import tracing

        tracer = tracing.Tracer()
    cpu0 = _cpu_s()
    t0 = time.perf_counter()
    try:
        if tracer is None:
            result = workloads.run_cells(cells)
        else:
            with tracer.installed():
                result = workloads.run_cells(cells, tracer)
    finally:
        if os.path.exists(out_path):
            os.remove(out_path)
    report["wall_s"] = time.perf_counter() - t0
    report["cpu_s"] = _cpu_s() - cpu0
    peak_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    report["peak_rss_mb"] = peak_kb / 1024
    report.update(result)
    if tracer is not None:
        report["layers"] = tracer.layer_metrics()
        tracer.save(os.path.join(scratch, f"spans-{args.workload}.npz"))
    import numpy

    report["numpy"] = numpy.__version__
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
