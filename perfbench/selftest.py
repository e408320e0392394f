#!/usr/bin/env python3
"""Self-test of the repository benchmark.

    python3 perfbench/selftest.py [--workload <name>] [--no-traced]

Run from the repository root. Checks that BENCHMARK.json is well formed,
then, per workload, through perfbench/run.py:
  * a single quick untraced pass succeeds and prints exactly the
    end-to-end metrics with their units;
  * a tampered reference makes the output check fail, counted in
    failed / attempted (failed_frac > 0), with a non-zero exit;
  * two traced runs with the same seed print exactly the per-layer metrics
    and repeat every count exactly (messages, NIC bytes, critpath events,
    snapshot frames, gathers).
Exits non-zero on the first failed expectation.
"""
import argparse
import json
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
REPEATING_COUNTS = ("minimpi.messages", "netmodel.nic_tx_bytes",
                    "critpath.events", "introspect.frames", "mpimon.gathers")
SEED = 7


def expect(cond, what):
    if not cond:
        sys.exit("FAIL " + what)
    print("ok  ", what)


def check_spec(spec):
    expect(set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"},
           "BENCHMARK.json has exactly the contract keys")
    metrics = spec["end_to_end"] + spec["per_layer"]
    names = [w["name"] for w in spec["workloads"]] + [m["name"] for m in metrics]
    expect([n for n in names if not NAME_RE.match(n)] == [],
           "every workload and metric name matches [A-Za-z0-9_.-]+")
    expect(len(names) == len(set(names)), "every name is used once")
    expect(all(UNIT_RE.match(m["unit"]) and m["better"] in ("lower", "higher")
               for m in metrics), "every metric has a unit and a direction")
    expect(2 <= len(spec["workloads"]) <= 8 and all(
        set(w) == {"name", "why"} and "\n" not in w["why"]
        and len(w["why"]) <= 200 for w in spec["workloads"]),
        "2 to 8 workloads, each with a one-line why")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    expect(all(0 < b <= 0.25 for b in bounds.values()), "bounds within 0.25")
    expect(bounds.get("setup_s") == max(bounds.values()),
           "setup_s carries the largest bound")
    expect(all((ROOT / p).is_dir() for p in spec["paths"]),
           "every path is a directory")


def run(workload, trace, seconds=0, tamper=False):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
           workload, "--seed", str(SEED), "--seconds", str(seconds),
           "--trace", str(trace)]
    if tamper:
        cmd.append("--tamper-reference")
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          stderr=subprocess.DEVNULL)
    return proc.returncode, json.loads(proc.stdout.strip().splitlines()[-1])


def check_metrics(result, defs, what):
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    expect(got == {m["name"]: m["unit"] for m in defs},
           f"{what} prints exactly its metrics with their units")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--no-traced", action="store_true")
    args = ap.parse_args()
    check_spec(spec)
    workloads = [args.workload] if args.workload else [
        w["name"] for w in spec["workloads"]]
    for w in workloads:
        rc, res = run(w, trace=0)
        expect(rc == 0 and res["correct"] and res["failed"] == 0
               and res["attempted"] >= 1, f"{w}: quick pass is correct")
        check_metrics(res, spec["end_to_end"], f"{w} untraced")
        expect(all(v["value"] > 0 for v in res["metrics"].values()),
               f"{w}: end-to-end metrics are positive")

        rc, res = run(w, trace=0, tamper=True)
        expect(rc != 0 and not res["correct"]
               and res["failed"] / res["attempted"] > 0,
               f"{w}: a tampered reference fails and counts in failed_frac")

        if args.no_traced:
            continue
        runs = [run(w, trace=1) for _ in range(2)]
        for rc, res in runs:
            expect(rc == 0 and res["correct"], f"{w}: traced run is correct")
            check_metrics(res, spec["per_layer"], f"{w} traced")
        for key in REPEATING_COUNTS:
            a, b = (res["metrics"][key]["value"] for _, res in runs)
            expect(a == b, f"{w}: {key} repeats exactly ({a:.17g})")
    print("PASS")


if __name__ == "__main__":
    main()
