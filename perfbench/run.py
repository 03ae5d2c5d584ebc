"""The pentaperm benchmark: seeded workloads, checked answers, per-layer traces.

Run from the root of a checkout:

    python3 perfbench/run.py --workload crossval --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1

Workloads are ``crossval``, ``search`` and ``structure`` (``all`` runs the
three in turn); ``perfbench/workloads.py`` says why each exists.  Every
pass runs in a fresh interpreter (``perfbench/worker.py``), so field
contexts, log/antilog tables and the numpy import start cold each time.
Passes repeat until ``--seconds`` is used, with at least three; a run
reports medians over its passes and percentiles over all cells it timed.
Set-up (importing pentaperm and generating the inputs) is also measured in
ten extra processes that stop before the pass, after one discarded
process that fills the bytecode cache.

``--trace 0`` prints the end-to-end metrics named in BENCHMARK.json.
``--trace 1`` alternates untraced and traced passes, prints the per-layer
metrics, and gives ``trace.overhead_frac`` from the two.  Every cell of
every pass is checked against its reference; so are the exact counts of
traced passes (they must repeat, and match the recorded search counts) and
the answers (traced and untraced passes must agree).  Any failure makes
``correct`` false and the exit code 1.  Human-readable lines and one
``report`` JSON line with provenance come first; the last line is the
result object.  Exit code 2 means the benchmark could not run at all.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKER = os.path.join(ROOT, "perfbench", "worker.py")
WORKLOADS = ("crossval", "search", "structure")
MIN_PASSES = 3
MIN_TRACED_PAIRS = 2
SETUP_SAMPLES = 10
PASS_TIMEOUT_S = 170
# Exact counts of the full-size search, recorded when the benchmark was
# defined; a traced pass must reproduce them.
SEARCH_COUNTS = {
    "gf2poly.gcd.calls": 53130,
    "search.shapes": 53130,
    "search.brute_tests": 107232,
    "search.candidates": 24652,
    "families.sieve_pass_ratio": 35744 / 53130,
}
TIME_UNITS = ("s", "1/s")
OVERHEAD = "trace.overhead_frac"


def is_count(name: str, unit: str) -> bool:
    """Per-layer metrics that must repeat exactly between traced passes."""
    return unit not in TIME_UNITS and name != OVERHEAD


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def _spawn(workload: str, seed: int, size: str, mode: str, corrupt: bool) -> dict:
    cmd = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed),
           "--size", size, "--mode", mode, "--corrupt", str(int(corrupt))]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} {mode} pass exceeded {PASS_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        tail = "\n".join(proc.stderr.strip().splitlines()[-5:])
        raise BenchError(f"{workload} {mode} pass exited {proc.returncode}:\n{tail}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _run_passes(args, workload: str, modes: list[str]) -> tuple[list[float], list[dict]]:
    """Setup samples, then passes cycling through ``modes`` until time is up.

    At least ``MIN_PASSES`` passes run (whole cycles for a traced run); no
    cycle starts that the median cycle time says would end past the deadline.
    """
    deadline = time.perf_counter() + args.seconds
    _spawn(workload, args.seed, args.size, "setup", args.corrupt_reference)
    setups = [_spawn(workload, args.seed, args.size, "setup", args.corrupt_reference)["setup_s"]
              for _ in range(SETUP_SAMPLES)]
    passes, cycle_s = [], []
    while True:
        t0 = time.perf_counter()
        for mode in modes:
            report = _spawn(workload, args.seed, args.size, mode, args.corrupt_reference)
            report["mode"] = mode
            passes.append(report)
            setups.append(report["setup_s"])
        cycle_s.append(time.perf_counter() - t0)
        if (len(passes) >= max(MIN_PASSES, len(modes) * MIN_TRACED_PAIRS)
                and time.perf_counter() + statistics.median(cycle_s) > deadline):
            return setups, passes


def _percentile(values: list[float], k: int) -> float:
    """k-th percentile, interpolated between samples."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[k - 1]


def _metric(value, unit: str, samples: int) -> dict:
    return {"value": value, "unit": unit, "samples": samples}


def _end_to_end(setups: list[float], passes: list[dict]) -> dict:
    cells = [ms for p in passes for ms in p["cell_ms"]]
    n = len(passes)
    return {
        "setup_s": _metric(statistics.median(setups), "s", len(setups)),
        "wall_s": _metric(statistics.median(p["wall_s"] for p in passes), "s", n),
        "cpu_s": _metric(statistics.median(p["cpu_s"] for p in passes), "s", n),
        "cell_p50_ms": _metric(_percentile(cells, 50), "ms", len(cells)),
        "cell_p90_ms": _metric(_percentile(cells, 90), "ms", len(cells)),
        "peak_rss_mb": _metric(statistics.median(p["peak_rss_mb"] for p in passes), "MB", n),
    }


def _per_layer(args, workload: str, passes: list[dict], units: dict,
               failures: list[str]) -> dict:
    plain = [p for p in passes if p["mode"] == "plain"]
    traced = [p for p in passes if p["mode"] == "traced"]
    out = {}
    for name, unit in units.items():
        if name == OVERHEAD:
            base = statistics.median(p["wall_s"] for p in plain)
            value = (statistics.median(p["wall_s"] for p in traced) - base) / base
            out[name] = _metric(value, unit, len(plain) + len(traced))
            continue
        values = [p["layers"][name] for p in traced]
        if not is_count(name, unit):
            out[name] = _metric(statistics.median(values), unit, len(values))
            continue
        if len(set(values)) != 1:
            failures.append(f"count {name} drifted between traced passes: {values}")
        out[name] = _metric(values[0], unit, len(values))
    if workload == "search" and args.size == "full":
        for name, want in SEARCH_COUNTS.items():
            if out[name]["value"] != want:
                failures.append(f"{name} = {out[name]['value']}, recorded {want}")
    return out


def _git_sha() -> str | None:
    """HEAD of the checkout, read from .git without running git (None if absent)."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        with open(os.path.join(git, head[5:]), encoding="utf-8") as handle:
            return handle.read().strip()
    except OSError:
        return None


def _src_sha256() -> str:
    digest = hashlib.sha256()
    pkg = os.path.join(ROOT, "src", "pentaperm")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as handle:
                digest.update(name.encode() + b"\0" + handle.read())
    return digest.hexdigest()


def _provenance(args, passes: list[dict]) -> dict:
    return {
        "git_sha": _git_sha(),
        "src_sha256": _src_sha256(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": passes[0]["numpy"],
        "machine": platform.machine(),
        "seed": args.seed,
        "size": args.size,
        "seconds": args.seconds,
    }


def run_workload(args, workload: str, spec: dict) -> dict:
    modes = ["plain", "traced"] if args.trace else ["plain"]
    setups, passes = _run_passes(args, workload, modes)
    failures = [label for p in passes for label in p["failed"]]
    # run-level checks: the answers of every pass agree, and in a traced
    # run every count repeats (and matches the record for search)
    attempted = sum(len(p["cell_ms"]) for p in passes) + 1
    answers = {p["answers_sha256"] for p in passes}
    if len(answers) != 1:
        failures.append("answers differ between passes (traced vs untraced or run to run)")
    if args.trace:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        metrics = _per_layer(args, workload, passes, units, failures)
        attempted += sum(is_count(name, unit) for name, unit in units.items())
        if workload == "search" and args.size == "full":
            attempted += len(SEARCH_COUNTS)
    else:
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        metrics = {k: v for k, v in _end_to_end(setups, passes).items() if k in units}
    failed = len(failures)
    report = {
        "workload": workload,
        "trace": args.trace,
        "passes": {mode: sum(p["mode"] == mode for p in passes) for mode in modes},
        "cells_per_pass": passes[0]["cells"],
        "pass_wall_s": [[p["mode"], p["wall_s"]] for p in passes],
        "attempted": attempted,
        "failed": failed,
        "fail_rate": failed / attempted,
        "failures": failures[:20],
        "answers_sha256": sorted(answers),
        "metrics": metrics,
        "provenance": _provenance(args, passes),
    }
    return report


def _print_report(report: dict) -> None:
    print(f"== {report['workload']} (trace {report['trace']}, seed "
          f"{report['provenance']['seed']}, passes {report['passes']}, "
          f"{report['cells_per_pass']} cells per pass)")
    for name, m in report["metrics"].items():
        print(f"  {name:34s} {m['value']:>16.6g} {m['unit']:6s} (samples {m['samples']})")
    print(f"  {'fail_rate':34s} {report['fail_rate']:>16.6g} {'ratio':6s} "
          f"({report['failed']} of {report['attempted']} checks)")
    for failure in report["failures"]:
        print(f"  FAIL {failure}")
    print(json.dumps({"report": report}, sort_keys=True))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny inputs for the benchmark's self-test")
    parser.add_argument("--corrupt-reference", action="store_true",
                        help="flip one reference answer, to prove the gate fires")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be positive")
    try:
        if not os.path.isfile(os.path.join(ROOT, "src", "pentaperm", "__init__.py")):
            raise BenchError("no src/pentaperm in this checkout")
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
            spec = json.load(handle)
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        reports = [run_workload(args, name, spec) for name in names]
    except (BenchError, OSError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    for report in reports:
        _print_report(report)
    prefix = len(reports) > 1
    result = {
        "correct": all(r["failed"] == 0 for r in reports),
        "attempted": sum(r["attempted"] for r in reports),
        "failed": sum(r["failed"] for r in reports),
        "metrics": {
            (f"{r['workload']}.{name}" if prefix else name):
                {"value": m["value"], "unit": m["unit"]}
            for r in reports for name, m in r["metrics"].items()},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
