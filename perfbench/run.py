#!/usr/bin/env python3
"""Repository benchmark: builds the driver from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first run configures and builds the
library and the driver (perfbench/driver.cmake) under .bench_build/; later
runs rebuild incrementally. The driver's output is passed through; its last
line, one JSON object with the keys correct, attempted, failed and metrics,
is checked and printed as the last line of stdout. Build output goes to
stderr. Traced runs also write a Chrome trace-event file under
.bench_build/traces/.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
BUILD = ROOT / ".bench_build" / "perfbench"
DRIVER = BUILD / "perfbench" / "perfbench_driver"
WORKLOADS = ("bulk-stripes", "small-requests", "object-store")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        sys.exit("perfbench: no library sources next to the benchmark")
    if not (BUILD / "CMakeCache.txt").is_file():
        subprocess.run(
            ["cmake", "-S", str(ROOT), "-B", str(BUILD),
             "-DCMAKE_BUILD_TYPE=Release",
             f"-DCMAKE_PROJECT_tvmec_INCLUDE={BENCH / 'driver.cmake'}"],
            stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)
    subprocess.run(
        ["cmake", "--build", str(BUILD), "--target", "perfbench_driver",
         "-j", str(os.cpu_count() or 1)],
        stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)


def commit_id():
    """The git commit when there is one, else a digest of the sources."""
    if (ROOT / ".git").exists():
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        if out.returncode == 0:
            return out.stdout.strip()
    digest = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    for top in ("src", "perfbench"):
        files += sorted(p for p in (ROOT / top).rglob("*") if p.is_file())
    for p in files:
        digest.update(str(p.relative_to(ROOT)).encode())
        digest.update(p.read_bytes())
    return "src-" + digest.hexdigest()[:16]


def checked_result(line):
    """Parses the driver's result line and checks its shape."""
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError("result keys differ from the contract")
    if not isinstance(result["correct"], bool):
        raise ValueError("correct is not a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or result[key] < 0:
            raise ValueError(f"{key} is not a whole number")
    if result["attempted"] < 1:
        raise ValueError("nothing attempted")
    for name, metric in result["metrics"].items():
        if set(metric) != {"value", "unit"}:
            raise ValueError(f"metric {name} has the wrong keys")
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    build()
    cmd = [str(DRIVER), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--commit", commit_id()]
    if args.trace:
        traces = ROOT / ".bench_build" / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-file",
                str(traces / f"{args.workload}-seed{args.seed}.json")]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.splitlines()
    if not lines:
        sys.exit(f"perfbench: driver printed nothing (exit {proc.returncode})")
    try:
        result = checked_result(lines[-1])
    except ValueError as e:
        sys.exit(f"perfbench: bad driver result: {e}")
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result), flush=True)
    if proc.returncode != 0 or not result["correct"]:
        sys.exit(1)


if __name__ == "__main__":
    main()
