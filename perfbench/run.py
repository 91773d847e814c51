#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload kv-read --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10

A single workload prints the benchmark binary's report; its last stdout line
is one JSON object with the keys correct, attempted, failed and metrics.
--trace 0 gives the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones (plus the tracing overhead) and writes the sampled spans to
.bench_out/<workload>.spans.tsv.

--workload all runs every workload of BENCHMARK.json untraced and traced,
prints each metric with its unit, and exits non-zero if any output check
failed.

The binary is built from this source tree into $CARGO_TARGET_DIR (default
.bench_build) with CMake, in Release mode.  Exit codes: 0 success, 1 a
check failed, 2 bad arguments or a tree without the library sources.
"""
import argparse
import fcntl
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
BUILD_TIMEOUT_S = 840


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def load_spec():
    try:
        with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, ValueError) as error:
        fail(f"cannot read BENCHMARK.json: {error}")


def build_dir():
    path = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return path if path.is_absolute() else ROOT / path


def build():
    """Configure (once) and build the benchmark binary; returns its path."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"{ROOT} holds no txconflict sources (CMakeLists.txt, src/)")
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    with open(out / ".perfbench.lock", "w", encoding="utf-8") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (out / "CMakeCache.txt").is_file():
            steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", str(out), "--target",
                      "txc_perfbench", "-j", "3"])
        for step in steps:
            try:
                # Build output goes to stderr: stdout ends with the result.
                done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                      timeout=BUILD_TIMEOUT_S, check=False)
            except (OSError, subprocess.TimeoutExpired) as error:
                fail(f"build step failed: {error}")
            if done.returncode != 0:
                fail(f"build step failed: {' '.join(step)}")
    binary = out / "txc_perfbench"
    if not binary.is_file():
        fail(f"build produced no {binary}")
    return binary


def run_one(binary, spec, workload, seed, seconds, trace, echo=True):
    """Run one workload; returns (exit code, parsed result or None)."""
    command = [str(binary), "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        spans = ROOT / ".bench_out"
        spans.mkdir(exist_ok=True)
        command += ["--spans-out", str(spans / f"{workload}.spans.tsv")]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=60 + 4 * seconds, check=False)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {workload} timed out", file=sys.stderr)
        return 1, None
    lines = done.stdout.rstrip("\n").split("\n")
    if echo:
        print("\n".join(lines[:-1]))
    try:
        result = json.loads(lines[-1])
    except ValueError:
        print(f"perfbench: {workload} printed no result line", file=sys.stderr)
        return done.returncode or 1, None
    # The reported metrics must be exactly the ones BENCHMARK.json declares.
    declared = {m["name"]: m["unit"]
                for m in spec["per_layer" if trace else "end_to_end"]}
    reported = {name: m["unit"] for name, m in result["metrics"].items()}
    if declared != reported:
        missing = sorted(set(declared) - set(reported))
        extra = sorted(set(reported) - set(declared))
        print(f"perfbench: metrics differ from BENCHMARK.json: missing "
              f"{missing}, undeclared {extra}, or units differ",
              file=sys.stderr)
        return 1, None
    return done.returncode, result


def run_all(binary, spec, seed, seconds):
    code = 0
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            print(f"\n=== {workload} (trace {trace})")
            status, result = run_one(binary, spec, workload, seed, seconds,
                                     trace, echo=False)
            if result is None or status != 0 or not result["correct"]:
                code = 1
                summary["correct"] = False
                print(f"perfbench: {workload} FAILED (exit {status})")
                if result is None:
                    continue
            summary["attempted"] += result["attempted"]
            summary["failed"] += result["failed"]
            print(f"  attempted {result['attempted']}, "
                  f"failed {result['failed']}, correct {result['correct']}")
            for name, metric in result["metrics"].items():
                if trace and not name.startswith("overhead.") and \
                        metric["value"] == 0:
                    continue  # a layer this workload does not run
                print(f"  {name:<42} {metric['value']:>16.6g} {metric['unit']}")
                summary["metrics"][f"{workload}:{name}"] = metric
    print(json.dumps(summary))
    return code


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        fail("--seed must be non-negative")

    spec = load_spec()
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    if not 1 <= seconds <= 3600:
        fail("--seconds must be in [1, 3600]")

    binary = build()
    if args.workload == "all":
        sys.exit(run_all(binary, spec, args.seed, seconds))
    status, result = run_one(binary, spec, args.workload, args.seed, seconds,
                             args.trace)
    if result is None:
        sys.exit(status or 1)
    print(json.dumps(result))
    sys.exit(status if status != 0 or result["correct"] else 1)


if __name__ == "__main__":
    main()
