#!/usr/bin/env python3
"""Merge BENCH_*.json files into one trajectory table and gate regressions.

Usage: scripts/bench_trend.py [DIR]

DIR (default: results/) holds the fresh BENCH_<prog>.json files; each is
compared with the committed baseline HEAD:results/BENCH_<prog>.json, so a
check can write its runs outside the tracked results/ files.

Two producers feed the results/ directory:

  * google-benchmark binaries (bench_micro, bench_telemetry) write the stock
    ``{"context": ..., "benchmarks": [...]}`` layout; the interesting numbers
    live in per-benchmark user counters (ns_per_send, us_per_roundtrip, ...).
  * the Table-based figure benches write ``{"format": "mpim-bench-tables",
    "tables": [{"name", "header", "rows"}]}`` via bench_common.h; every cell
    is a string, numeric or not.

This script flattens both into ``program/benchmark.metric`` rows, compares
them against the committed baseline (``git show HEAD:results/<file>``) when
one exists, and exits non-zero when a *hot-path* metric regressed by more than
REGRESSION_LIMIT. Non-hot-path metrics are reported but never gate: figure
checks are pass/fail inside the bench binaries themselves, and host-side
table numbers are too noisy to gate on.
"""
import json
import math
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
RESULTS = REPO / "results"
REGRESSION_LIMIT = 0.10  # fraction; >10% slower on a hot-path metric fails
# Metrics where "bigger is slower" and the measurement is stable enough to
# gate on. Everything else is informational.
HOT_PATH_METRICS = ("ns_per_send", "us_per_roundtrip")
# Throughput metrics where "smaller is slower": these gate on a *drop*
# beyond REGRESSION_LIMIT (bench_record's recording fast path,
# bench_stream's plane ingest and bench_fabric's np=1024 hierarchical
# TreeMatch reorder rate).
HOT_PATH_INVERSE_METRICS = ("sends_per_sec", "events_per_sec",
                            "reorders_per_sec")


def flatten(doc):
    """Yield (key, value) pairs of the numeric metrics in one BENCH_*.json."""
    if doc.get("format") == "mpim-bench-tables":
        prog = doc.get("program", "?")
        for table in doc.get("tables", []):
            header = table.get("header", [])
            for row in table.get("rows", []):
                label = row[0] if row else "?"
                for col, cell in zip(header[1:], row[1:]):
                    try:
                        val = float(cell.split()[0])
                    except (ValueError, IndexError):
                        continue
                    yield f"{prog}/{table.get('name', '?')}[{label}].{col}", val
        return
    # google-benchmark layout: counters are the top-level keys that are not
    # part of the fixed schema.
    skip = {
        "name", "family_index", "per_family_instance_index", "run_name",
        "run_type", "repetitions", "repetition_index", "threads",
        "iterations", "real_time", "cpu_time", "time_unit",
    }
    prog = Path(doc.get("context", {}).get("executable", "?")).name
    if prog.startswith("bench_"):
        prog = prog[len("bench_"):]
    for bench in doc.get("benchmarks", []):
        for key, val in bench.items():
            if key in skip or not isinstance(val, (int, float)):
                continue
            yield f"{prog}/{bench['name']}.{key}", float(val)
        # TreeMatch-style benches carry no counters; fall back to real_time.
        if not any(k not in skip and isinstance(v, (int, float))
                   for k, v in bench.items()):
            yield (f"{prog}/{bench['name']}.real_{bench.get('time_unit', '?')}",
                   float(bench.get("real_time", math.nan)))


def baseline_for(path):
    """HEAD's results/ copy of `path`, or None when HEAD has no copy."""
    rel = (RESULTS / path.name).relative_to(REPO)
    proc = subprocess.run(
        ["git", "-C", str(REPO), "show", f"HEAD:{rel.as_posix()}"],
        capture_output=True, text=True)
    if proc.returncode != 0:
        return None
    try:
        return json.loads(proc.stdout)
    except json.JSONDecodeError:
        return None


def main(argv):
    runs = Path(argv[1]) if len(argv) > 1 else RESULTS
    files = sorted(runs.glob("BENCH_*.json"))
    if not files:
        print(f"bench_trend: no BENCH_*.json under {runs}", file=sys.stderr)
        return 2

    rows = []       # (key, current, baseline-or-None, delta-or-None, gated)
    regressions = []
    for path in files:
        try:
            current = dict(flatten(json.loads(path.read_text())))
        except (json.JSONDecodeError, OSError) as e:
            print(f"bench_trend: cannot parse {path.name}: {e}",
                  file=sys.stderr)
            return 2
        base_doc = baseline_for(path)
        base = dict(flatten(base_doc)) if base_doc else {}
        for key, val in sorted(current.items()):
            ref = base.get(key)
            delta = (val / ref - 1.0) if ref else None
            slower_when_up = key.endswith(HOT_PATH_METRICS)
            slower_when_down = key.endswith(HOT_PATH_INVERSE_METRICS)
            gated = slower_when_up or slower_when_down
            rows.append((key, val, ref, delta, gated))
            if delta is None:
                continue
            if (slower_when_up and delta > REGRESSION_LIMIT) or \
                    (slower_when_down and delta < -REGRESSION_LIMIT):
                regressions.append((key, ref, val, delta))

    width = max(len(r[0]) for r in rows)
    print(f"{'metric':<{width}}  {'current':>12}  {'baseline':>12}  "
          f"{'delta':>8}  gate")
    for key, val, ref, delta, gated in rows:
        ref_s = f"{ref:12.4g}" if ref is not None else f"{'-':>12}"
        delta_s = f"{delta:+8.1%}" if delta is not None else f"{'-':>8}"
        print(f"{key:<{width}}  {val:12.4g}  {ref_s}  {delta_s}  "
              f"{'hot' if gated else '-'}")

    if regressions:
        print(f"\nbench_trend: FAIL -- hot-path regression over "
              f"{REGRESSION_LIMIT:.0%}:")
        for key, ref, val, delta in regressions:
            print(f"  {key}: {ref:.4g} -> {val:.4g} ({delta:+.1%})")
        return 1
    n_base = sum(1 for r in rows if r[2] is not None)
    gates = ", ".join(HOT_PATH_METRICS + HOT_PATH_INVERSE_METRICS)
    print(f"\nbench_trend: OK ({len(rows)} metrics, {n_base} vs baseline, "
          f"limit {REGRESSION_LIMIT:.0%} on {gates})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
