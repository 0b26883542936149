#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload <tpch-sf0.05|wire-read|wire-htap> \
        --seed <n> --seconds <s> --trace <0|1> [--smoke]
    python3 perfbench/run.py --write-expected [--smoke]

The first run configures and builds the engine and the perfbench binary
with CMake into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench,
relative to the repository root); later runs only check the build is up to
date. The binary's report goes to standard output; its last line is one JSON
object with "correct", "attempted", "failed" and "metrics". The metric names
are checked against BENCHMARK.json (end_to_end untraced, per_layer traced).
Exits non-zero, without a result line, if the build or the run fails.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("tpch-sf0.05", "wire-read", "wire-htap")
RUN_TIMEOUT_S = 170


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build_directory():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configures (once) and builds; returns the binary path or None."""
    directory = build_directory()
    if not os.path.exists(os.path.join(directory, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", directory, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", directory, "-j", jobs], stdout=sys.stderr,
                      stderr=sys.stderr).returncode != 0:
        return None
    binary = os.path.join(directory, "perfbench")
    return binary if os.path.exists(binary) else None


def source_digest():
    """SHA-256 over the engine and benchmark sources: identifies the code
    measured even where no git metadata exists."""
    digest = hashlib.sha256()
    for top in (os.path.join(ROOT, "src"), HERE):
        for directory, subdirectories, files in os.walk(top):
            subdirectories.sort()
            for name in sorted(files):
                if name.endswith((".cpp", ".hpp", ".txt")):
                    path = os.path.join(directory, name)
                    digest.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as handle:
                        digest.update(handle.read())
    return digest.hexdigest()[:16]


def git_commit():
    try:
        result = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True,
                                timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return result.stdout.strip() if result.returncode == 0 else "unknown"


def expected_path(smoke):
    return os.path.join(HERE, "expected", "tpch_sf0.01.tsv" if smoke else "tpch_sf0.05.tsv")


def contract_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        contract = json.load(handle)
    return {metric["name"]: metric["unit"] for metric in contract["per_layer" if trace else "end_to_end"]}


def check_result(line, trace):
    """The last line must be the result object with exactly the metrics of
    BENCHMARK.json; returns an error message or None."""
    try:
        result = json.loads(line)
    except json.JSONDecodeError:
        return "last line is not JSON"
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return f"unexpected result keys {sorted(result)}"
    wanted = contract_metrics(trace)
    got = {name: metric["unit"] for name, metric in result["metrics"].items()}
    if got != wanted:
        return f"metrics {sorted(got.items())} differ from BENCHMARK.json {sorted(wanted.items())}"
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny scale factor and few operations")
    parser.add_argument("--write-expected", action="store_true",
                        help="regenerate the expected TPC-H answers with the reference engine")
    args = parser.parse_args()
    if not args.write_expected and not args.workload:
        parser.error("--workload is required")

    binary = build()
    if binary is None:
        log("build failed")
        return 2

    command = [binary, "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--meta", f"git_commit={git_commit()}", "--meta", f"source_sha256={source_digest()}"]
    if args.smoke:
        command.append("--smoke")
    if args.write_expected:
        command += ["--workload", "tpch-sf0.05", "--write-expected", expected_path(args.smoke)]
    else:
        command += ["--workload", args.workload, "--expected", expected_path(args.smoke)]
    if args.trace:
        traces = os.path.join(build_directory(), "traces")
        os.makedirs(traces, exist_ok=True)
        command += ["--trace-out", os.path.join(traces, f"{args.workload}_seed{args.seed}.jsonl")]

    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        return 1
    lines = run.stdout.rstrip("\n").split("\n")
    if run.returncode != 0 or not lines[-1].startswith("{"):
        sys.stderr.write(run.stdout)
        log(f"run failed with exit code {run.returncode}")
        return 1
    if not args.write_expected:
        error = check_result(lines[-1], args.trace == 1)
        if error:
            sys.stderr.write(run.stdout)
            log(error)
            return 1
    print("\n".join(lines), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
