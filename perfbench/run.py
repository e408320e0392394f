#!/usr/bin/env python3
"""Repository benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds the simulator libraries and the
perfbench program from source (CMake, Release) into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), then runs one
workload and relays its output. The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics. The exit
code is non-zero when the build fails, an output check fails or the run
overruns its time limit; a failed build prints no result.

Workloads, metrics and bounds are declared in BENCHMARK.json; the
workloads themselves are in perfbench/perfbench.cpp.
"""
import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("cg_reorder", "ring_allreduce_np4096", "monitored_halo")
RUN_TIMEOUT_S = 170


def build_dir() -> Path:
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = HERE.parent / target
    return target / "perfbench"


def build() -> Path:
    out = build_dir()
    jobs = str(min(os.cpu_count() or 1, 4))
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("perfbench: build failed: " + " ".join(cmd))
    return out / "perfbench"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tamper-reference", action="store_true",
                    help="perturb the reference outputs (self-test only)")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 0:
        ap.error("--seed and --seconds must be non-negative")

    exe = build()
    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.tamper_reference:
        cmd.append("--tamper-reference")
    # perfbench clears every MPIM_* knob itself; dropping them here keeps
    # them out of the child's environment altogether.
    env = {k: v for k, v in os.environ.items() if not k.startswith("MPIM_")}
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # subprocess.run kills the child and waits for it before raising.
        sys.exit(f"perfbench: run exceeded {RUN_TIMEOUT_S} s")
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
    except (IndexError, ValueError, AssertionError):
        sys.exit("perfbench: the run printed no result line")
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
