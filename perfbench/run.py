#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the repository root. The first run configures and builds the
benchmark (the pod library from src/ plus perfbench/src) under
$CARGO_TARGET_DIR, default .bench_build; later runs only rebuild what changed.
Build output goes to stderr. The benchmark's stdout is passed through, and
its last line, the JSON result, is checked against BENCHMARK.json: the
metric names and units must be exactly the ones declared for the mode.
--selftest builds and runs the benchmark's own tests instead.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build(target):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"library sources not found at {ROOT / 'src'}")
    build_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build_dir.is_absolute():
        build_dir = ROOT / build_dir
    build_dir = build_dir / "podbench"
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "--target", target,
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd), 1)
    return build_dir


def declared_units(trace):
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in doc[section]}


def metric_problems(metrics, trace):
    """Differences between the printed metrics and BENCHMARK.json's."""
    got = {k: v.get("unit") for k, v in metrics.items()}
    want = declared_units(trace)
    problems = [f"metric {k} not declared in BENCHMARK.json"
                for k in got.keys() - want.keys()]
    problems += [f"declared metric {k} missing from the output"
                 for k in want.keys() - got.keys()]
    problems += [f"metric {k} has unit {got[k]}, declared {want[k]}"
                 for k in got.keys() & want.keys() if got[k] != want[k]]
    return problems


def main(argv):
    if argv == ["--selftest"]:
        build_dir = build("podbench_test")
        return subprocess.run([str(build_dir / "podbench_test")]).returncode
    trace = "--trace" in argv and argv[argv.index("--trace") + 1:][:1] == ["1"]
    build_dir = build("podbench")
    proc = subprocess.run([str(build_dir / "podbench"), *argv],
                          stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines() or [""]
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        if lines[-1]:
            print(lines[-1])
        fail("the benchmark printed no result", proc.returncode or 1)
    problems = metric_problems(result["metrics"], trace)
    for p in problems:
        print(f"perfbench: CHECK FAILED: {p}", file=sys.stderr)
    if problems:
        result["correct"] = False
        print(json.dumps(result), flush=True)
        return 1
    print(lines[-1], flush=True)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
