"""Self-test of the benchmark at tiny size; exits 1 on the first failed check.

    python3 perfbench/selftest.py

Checks that every workload runs and prints each metric of BENCHMARK.json
with its unit, in both trace modes; that a deliberately corrupted
reference is counted as a failure and makes the run exit nonzero; that
tracing changes no answer; that every count repeats exactly between two
traced runs; and that a directory holding only the benchmark (no
``src/``) makes it exit nonzero without printing a result.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

from run import ROOT, is_count


def _run(args: list[str], cwd: str = ROOT) -> tuple[int, list[str]]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--seconds", "1", "--seed", "7"] + args,
        cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc.returncode, proc.stdout.strip().splitlines()


def _check(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        raise SystemExit(1)


def _result_and_report(lines: list[str]) -> tuple[dict, dict]:
    result = json.loads(lines[-1])
    report = json.loads(next(line for line in lines if line.startswith('{"report"')))
    return result, report["report"]


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for workload in (w["name"] for w in spec["workloads"]):
        runs = {}
        for trace in (0, 1):
            code, lines = _run(["--workload", workload, "--trace", str(trace), "--size", "tiny"])
            result, report = _result_and_report(lines)
            _check(code == 0 and result["correct"] and result["failed"] == 0,
                   f"{workload} trace {trace}: exit 0, every check passes")
            _check(set(result) == {"correct", "attempted", "failed", "metrics"},
                   f"{workload} trace {trace}: result has exactly the four keys")
            units = {name: m["unit"] for name, m in result["metrics"].items()}
            _check(units == expected[trace],
                   f"{workload} trace {trace}: every metric printed with its unit")
            runs[trace] = report
        _check(runs[0]["answers_sha256"] == runs[1]["answers_sha256"],
               f"{workload}: tracing changes no answer")

        code, lines = _run(["--workload", workload, "--trace", "1", "--size", "tiny"])
        again = _result_and_report(lines)[1]["metrics"]
        counts = [name for name, unit in expected[1].items() if is_count(name, unit)]
        drift = [name for name in counts
                 if again[name]["value"] != runs[1]["metrics"][name]["value"]]
        _check(code == 0 and not drift, f"{workload}: counts repeat between traced runs {drift}")

        code, lines = _run(["--workload", workload, "--trace", "0", "--size", "tiny",
                            "--corrupt-reference"])
        result, report = _result_and_report(lines)
        _check(code == 1 and not result["correct"] and result["failed"] >= 1
               and report["fail_rate"] > 0,
               f"{workload}: a corrupted reference is counted in fail_rate")

    bare = os.path.join(ROOT, ".perfbench", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(os.path.join(ROOT, "perfbench"), os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        code, lines = _run(["--workload", "search", "--trace", "0"], cwd=bare)
        _check(code != 0 and not (lines and lines[-1].startswith('{"correct"')),
               "without src/ the benchmark exits nonzero and prints no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
