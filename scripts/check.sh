#!/usr/bin/env bash
# Tier-1 gate, runnable locally and in CI:
#   1. default preset: configure, build, full ctest suite, then a focused
#      re-run of the "introspect" label (snapshot/phase-detection suite),
#      a stencil_reorder smoke run, the figure goldens (quick
#      bench_fig4_overhead, bench_fig5_collectives and bench_ablation
#      stdout, every MPIM_* variable unset, byte-identical to
#      tests/golden/<bench>.txt), and the bench trajectory gate
#      (bench_introspect --quick + scripts/bench_trend.py vs the committed
#      results/BENCH_*.json baselines)
#   2. asan preset:    configure, build, ctest filtered to label "sanitize",
#      which every test carries in that tree (tests/CMakeLists.txt)
#   3. tsan preset:    configure, build, ctest filtered to label
#      "sanitize-thread": the record_stress (rank threads hammer the
#      lock-free send path while the control plane churns RecordingPlans,
#      and fault-free mpimon gathers run ahead of slow readers), recovery,
#      sched and telemetry suites; then the record_stress suite again until
#      it has passed 10 times in a row, since its races show only in some
#      interleavings
#
# Every bench writes its --csv output under build/bench-results, not into
# the tracked results/ files, so a check run leaves the tree as it found
# it; scripts/bench_trend.py compares that directory with HEAD's results/.
#
# The --<lane>-only flags run one focused lane instead (the `lanes` table
# below): the tests labeled with the lane's suite label under BOTH sanitizer
# presets, then its end-to-end example and bench acceptance check on the
# default build.
#   --recovery-only  fault injection (FaultPlan draws, crashes, stalls,
#                    drops, and which plans select the failure-aware
#                    schedules), ULFM shrink/ack/agree, session rebind,
#                    degradation governor, failure-aware gathers and reorder
#                    (with NIC contention on, both backends; an empty or a
#                    never-firing plan beside the no-plan run), a late
#                    writer on a gather's exchange slot; faulty_reorder
#                    crash-shrink-recover, bench_recovery
#   --stream-only    streaming plane (ingest rings, sketches, correlation,
#                    exporter teardown); stream_monitor fault-injected run,
#                    monview --live render, bench_stream + trend gate
#   --critpath-only  critical-path profiler (blame identity, clock
#                    bit-identity, governor refusal, rings, reorder feed,
#                    CSV round trip, observer attach order); stencil_reorder
#                    late-sender run, profview --critical-path render,
#                    bench_critpath + trend gate
#   --fabric-only    network fabrics (MPIM_TOPO parsing, route and
#                    hop-distance properties, tree bit-identity, max-min fair
#                    flows, per-link-class mismatch, hierarchical TreeMatch);
#                    fabric_tour, monview --timeline render, bench_fabric +
#                    trend gate
#   --telemetry-only telemetry registry and exporters (catalog cell layout,
#                    spans, MPI_T read-through; tsan watches the sender
#                    thread recording into the destination rank's block);
#                    faulty_reorder exports rendered by monview, and
#                    MPIM_TELEMETRY=1 bench_fig4_overhead --quick
#                    byte-identical to the run without it
#   --scale-only     scheduler backends (thread-vs-fiber clock bit-identity,
#                    MPIM_SCHED parsing, fiber deadlock detection, np=512-1024
#                    fiber worlds, the next world on a thread reusing the
#                    last one's stack slab, min-clock gate tree vs its
#                    linear oracle;
#                    asan exercises the fiber stack-switch annotations, tsan
#                    the thread-mode halves of the parity sweep);
#                    bench_scale --quick: thread, fiber and contended fiber
#                    lanes (the >= 8x and np=65536 acceptances gate the full
#                    run only; the np=64 event count gates both), then the
#                    scale_setup table: a cold and a warm empty fiber world
#                    per fiber-lane np on a fresh thread, the warm one on
#                    the stack slab the cold one left
#
# Usage: scripts/check.sh [--default-only|--asan-only|--tsan-only|<lane flag>]
set -euo pipefail
cd "$(dirname "$0")/.."

# One row per focused lane: flag, ctest label selected in both sanitizer
# trees, the comma-separated default-preset targets its e2e function needs,
# and that function (run from the repo root).
lanes=(
  "--recovery-only recovery faulty_reorder,bench_recovery recovery_e2e"
  "--stream-only obsplane stream_monitor,monview,bench_stream stream_e2e"
  "--critpath-only critpath stencil_reorder,profview,bench_critpath critpath_e2e"
  "--fabric-only fabric fabric_tour,monview,bench_fabric fabric_e2e"
  "--telemetry-only telemetry faulty_reorder,monview,bench_fig4_overhead telemetry_e2e"
  "--scale-only sched bench_scale scale_e2e"
)

jobs="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)"
bench_out=build/bench-results
run_default=1
run_asan=1
run_tsan=1
lane=""
case "${1:-}" in
  --default-only) run_asan=0; run_tsan=0 ;;
  --asan-only) run_default=0; run_tsan=0 ;;
  --tsan-only) run_default=0; run_asan=0 ;;
  "") ;;
  *)
    for row in "${lanes[@]}"; do
      [ "${row%% *}" = "$1" ] && lane=$row
    done
    if [ -z "$lane" ]; then
      flags=(--default-only --asan-only --tsan-only)
      for row in "${lanes[@]}"; do flags+=("${row%% *}"); done
      echo "usage: $0 [$(IFS='|'; echo "${flags[*]}")]" >&2
      exit 2
    fi
    run_default=0; run_asan=0; run_tsan=0 ;;
esac

# Quick figure stdout is deterministic: it must match the committed copy
# byte for byte, with no MPIM_* knob inherited from the caller.
figure_goldens() {
  (
    for var in $(compgen -e); do
      case "$var" in MPIM_*) unset "$var" ;; esac
    done
    for bench in bench_fig4_overhead bench_fig5_collectives bench_ablation; do
      ./build/bench/"$bench" --quick | cmp - "tests/golden/$bench.txt"
    done
  )
}

trend_gate() {
  if command -v python3 >/dev/null 2>&1; then
    python3 scripts/bench_trend.py "$bench_out"
  else
    echo "bench_trend: python3 not found, skipping trajectory gate" >&2
  fi
}

recovery_e2e() {
  ./build/examples/faulty_reorder >/dev/null
  ./build/bench/bench_recovery --quick --csv "$bench_out"
}

stream_e2e() {
  ./build/examples/stream_monitor >/dev/null
  ./build/src/tools/monview --live results/stream_monitor.jsonl --once \
    >/dev/null
  ./build/bench/bench_stream --quick --csv "$bench_out"
  trend_gate
}

critpath_e2e() {
  ./build/examples/stencil_reorder >/dev/null
  ./build/src/tools/profview --critical-path results/stencil_critpath.csv \
    >/dev/null
  ./build/bench/bench_critpath --quick --csv "$bench_out"
  trend_gate
}

fabric_e2e() {
  ./build/examples/fabric_tour >/dev/null
  ./build/src/tools/monview --timeline results/fabric_frames.csv >/dev/null
  ./build/bench/bench_fabric --quick --csv "$bench_out"
  trend_gate
}

telemetry_e2e() {
  ./build/examples/faulty_reorder >/dev/null
  ./build/src/tools/monview results/faulty_reorder_metrics.csv \
    results/faulty_reorder_spans.csv >/dev/null
  # Telemetry is host-side only: enabling it must not move a figure.
  cmp <(./build/bench/bench_fig4_overhead --quick) \
    <(MPIM_TELEMETRY=1 ./build/bench/bench_fig4_overhead --quick)
}

scale_e2e() {
  ./build/bench/bench_scale --quick --csv "$bench_out"
  trend_gate
}

if [ "$run_default" = 1 ]; then
  echo "== tier-1: default preset =="
  cmake --preset default
  cmake --build --preset default -j "$jobs"
  ctest --preset default --output-on-failure -j "$jobs"

  echo "== tier-1: introspect label =="
  ctest --preset default --output-on-failure -j "$jobs" -L introspect

  echo "== smoke: stencil_reorder =="
  ./build/examples/stencil_reorder >/dev/null

  echo "== figure goldens =="
  figure_goldens

  echo "== bench trajectory =="
  mkdir -p "$bench_out"
  ./build/bench/bench_introspect --quick --csv "$bench_out"
  ./build/bench/bench_record --quick --csv "$bench_out"
  ./build/bench/bench_recovery --quick --csv "$bench_out"
  ./build/bench/bench_stream --quick --csv "$bench_out"
  ./build/bench/bench_critpath --quick --csv "$bench_out"
  trend_gate
fi

if [ "$run_asan" = 1 ]; then
  echo "== tier-1: asan preset (label: sanitize) =="
  cmake --preset asan
  cmake --build --preset asan -j "$jobs"
  ctest --preset asan --output-on-failure -j "$jobs"
fi

if [ "$run_tsan" = 1 ]; then
  echo "== tier-1: tsan preset (label: sanitize-thread) =="
  cmake --preset tsan
  cmake --build --preset tsan -j "$jobs"
  ctest --preset tsan --output-on-failure -j "$jobs"
  ctest --test-dir build-tsan --output-on-failure -j "$jobs" \
    -L '^record_stress$' --repeat until-fail:10
fi

# --test-dir instead of the ctest presets: the preset label filters
# (sanitize / sanitize-thread) would AND with the lane label.
if [ -n "$lane" ]; then
  read -r flag label targets e2e <<<"$lane"
  for preset in asan tsan; do
    echo "== $flag lane: $preset preset (-L $label) =="
    cmake --preset "$preset"
    cmake --build --preset "$preset" -j "$jobs"
    ctest --test-dir "build-$preset" --output-on-failure -j "$jobs" \
      -L "^$label\$"
  done
  echo "== $flag lane: e2e + bench acceptance =="
  cmake --preset default
  IFS=, read -r -a target_list <<<"$targets"
  cmake --build --preset default -j "$jobs" --target "${target_list[@]}"
  mkdir -p results "$bench_out"
  "$e2e"
fi

echo "check.sh: all green"
