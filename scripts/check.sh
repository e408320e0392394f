#!/usr/bin/env bash
# Tier-1 gate, runnable locally and in CI:
#   1. default preset: configure, build, full ctest suite, then a focused
#      re-run of the "introspect" label (snapshot/phase-detection suite),
#      a stencil_reorder smoke run, and the bench trajectory gate
#      (bench_introspect --quick + scripts/bench_trend.py vs the committed
#      results/BENCH_*.json baselines)
#   2. asan preset:    configure, build, ctest filtered to label "sanitize"
#      (the introspect suite carries both labels, so it runs under asan too)
#   3. tsan preset:    configure, build, ctest filtered to label
#      "sanitize-thread" (the concurrent-recording stress suite: rank
#      threads hammer the lock-free send path while the control plane
#      churns RecordingPlans)
#
# The --<lane>-only flags run one focused lane instead (focused_lane below):
# the lane's suite under BOTH sanitizer presets, then its end-to-end example
# and bench acceptance check on the default build.
#   --recovery-only  ULFM shrink/ack/agree, session rebind, degradation
#                    governor + the crash-under-churn stress suite;
#                    faulty_reorder crash-shrink-recover, bench_recovery
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
#   --scale-only     scheduler backends (thread-vs-fiber clock bit-identity,
#                    MPIM_SCHED parsing, fiber deadlock detection, np=512-1024
#                    fiber worlds; asan exercises the fiber stack-switch
#                    annotations, tsan the thread-mode halves of the parity
#                    sweep); bench_scale's >= 8x world-size acceptance
#
# Usage: scripts/check.sh [--default-only|--asan-only|--tsan-only|--recovery-only|--stream-only|--critpath-only|--fabric-only|--scale-only]
set -euo pipefail
cd "$(dirname "$0")/.."

jobs="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)"
run_default=1
run_asan=1
run_tsan=1
lane=""
case "${1:-}" in
  --default-only) run_asan=0; run_tsan=0 ;;
  --asan-only) run_default=0; run_tsan=0 ;;
  --tsan-only) run_default=0; run_asan=0 ;;
  --recovery-only|--stream-only|--critpath-only|--fabric-only|--scale-only)
    run_default=0; run_asan=0; run_tsan=0; lane="$1" ;;
  "") ;;
  *)
    echo "usage: $0 [--default-only|--asan-only|--tsan-only|--recovery-only|--stream-only|--critpath-only|--fabric-only|--scale-only]" >&2
    exit 2
    ;;
esac

trend_gate() {
  if command -v python3 >/dev/null 2>&1; then
    python3 scripts/bench_trend.py
  else
    echo "bench_trend: python3 not found, skipping trajectory gate" >&2
  fi
}

# focused_lane FLAG NAME ASAN_TESTS TSAN_TESTS TARGETS E2E_FN
#   Runs only when FLAG was given. ASAN_TESTS / TSAN_TESTS are ctest
#   selectors ("-L label" or "-R regex") for the sanitizer trees, TARGETS the
#   default-preset targets E2E_FN (run from the repo root) needs. --test-dir
#   instead of the ctest presets: the preset label filters (sanitize /
#   sanitize-thread) would AND with the selector and hide the suite.
focused_lane() {
  local flag=$1 name=$2 asan_tests=$3 tsan_tests=$4 targets=$5 e2e=$6
  [ "$lane" = "$flag" ] || return 0
  local preset tests selector
  for preset in asan tsan; do
    tests=$asan_tests
    [ "$preset" = tsan ] && tests=$tsan_tests
    read -r -a selector <<<"$tests"
    echo "== $name lane: $preset preset ($tests) =="
    cmake --preset "$preset"
    cmake --build --preset "$preset" -j "$jobs"
    ctest --test-dir "build-$preset" --output-on-failure -j "$jobs" \
      "${selector[@]}"
  done
  echo "== $name lane: e2e + bench acceptance =="
  read -r -a selector <<<"$targets"
  cmake --preset default
  cmake --build --preset default -j "$jobs" --target "${selector[@]}"
  mkdir -p results
  "$e2e"
}

recovery_e2e() {
  ./build/examples/faulty_reorder >/dev/null
  ./build/bench/bench_recovery --quick --csv results
}

stream_e2e() {
  ./build/examples/stream_monitor >/dev/null
  ./build/src/tools/monview --live results/stream_monitor.jsonl --once \
    >/dev/null
  ./build/bench/bench_stream --quick --csv results
  trend_gate
}

critpath_e2e() {
  ./build/examples/stencil_reorder >/dev/null
  ./build/src/tools/profview --critical-path results/stencil_critpath.csv \
    >/dev/null
  ./build/bench/bench_critpath --quick --csv results
  trend_gate
}

fabric_e2e() {
  ./build/examples/fabric_tour >/dev/null
  ./build/src/tools/monview --timeline results/fabric_frames.csv >/dev/null
  ./build/bench/bench_fabric --quick --csv results
  trend_gate
}

scale_e2e() {
  ./build/bench/bench_scale --quick --csv results
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

  echo "== bench trajectory =="
  mkdir -p results
  ./build/bench/bench_introspect --quick --csv results
  ./build/bench/bench_record --quick --csv results
  ./build/bench/bench_recovery --quick --csv results
  ./build/bench/bench_stream --quick --csv results
  ./build/bench/bench_critpath --quick --csv results
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
fi

# The sched suite's label is sanitize-thread under tsan (see
# tests/CMakeLists.txt), so the scale lane selects it by name there.
focused_lane --recovery-only recovery "-L fault|recovery|sanitize-thread" \
  "-L fault|recovery|sanitize-thread" "faulty_reorder bench_recovery" \
  recovery_e2e
focused_lane --stream-only stream "-L obsplane" "-L obsplane" \
  "stream_monitor monview bench_stream" stream_e2e
focused_lane --critpath-only critpath "-L critpath" "-L critpath" \
  "stencil_reorder profview bench_critpath" critpath_e2e
focused_lane --fabric-only fabric "-L fabric" "-L fabric" \
  "fabric_tour monview bench_fabric" fabric_e2e
focused_lane --scale-only scale "-L sched" "-R ^Sched" bench_scale scale_e2e

echo "check.sh: all green"
