#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --workload all --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Run from the repository root. The benchmark and the libraries it measures
are built from source (RelWithDebInfo, the repository default) into
.bench_build/perfbench; build output goes to stderr so that stdout carries
only the benchmark's report, whose last line is the JSON result.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ["explain_live_adult48k", "ingest_slide_mix", "wire_small_ctx"]


def build(target):
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD), "--target", target,
                  "-j", jobs])
    for step in steps:
        if subprocess.run(step, cwd=ROOT, stdout=sys.stderr).returncode != 0:
            print("perfbench: build failed: " + " ".join(step), file=sys.stderr)
            sys.exit(1)
    return BUILD / target


def run_all(binary, args):
    """Runs every workload with the same flags; prints one table."""
    rows, status = [], 0
    for workload in WORKLOADS:
        done = subprocess.run([str(binary), "--workload", workload] + args,
                              cwd=ROOT, stdout=subprocess.PIPE, text=True)
        status = status or done.returncode
        for line in done.stdout.splitlines():
            if line.startswith("# metric "):
                _, _, name, value, unit = line.split(" ")
                rows.append((workload, name, value, unit))
        if done.returncode != 0:
            print(f"perfbench: {workload} exited {done.returncode}",
                  file=sys.stderr)
    for workload, name, value, unit in rows:
        print(f"{workload:24} {name:34} {float(value):14.6g} {unit}")
    return status


def main(argv):
    if argv == ["--self-test"]:
        test = build("perfbench_stats_test")
        return subprocess.run([str(test)], cwd=ROOT).returncode
    binary = build("perfbench")
    if "--workload" in argv:
        at = argv.index("--workload")
        if at + 1 < len(argv) and argv[at + 1] == "all":
            return run_all(binary, argv[:at] + argv[at + 2:])
    sys.stdout.flush()
    return subprocess.run([str(binary)] + argv, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
