// Telemetry hub: one per Engine. Owns the metrics registry, the per-rank
// span rings, and the enabled flag that gates every recording site.
//
// Disabled (the default) the entire subsystem costs one relaxed atomic
// load per instrumentation site; virtual time is never charged either way,
// so enabling telemetry cannot perturb simulated clocks or determinism.
//
// Spans use the rank's *virtual* clock, which is what makes the exported
// Chrome traces line up with the cost model rather than host scheduling.
// Collective spans nest via a small per-rank open-span stack (rank threads
// open/close their own spans, so no locking); non-nested intervals such as
// monitoring sessions are recorded as complete spans when they close.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "telemetry/registry.h"
#include "telemetry/ring.h"

namespace mpim::telemetry {

/// One closed span. `name` is a truncating copy so records stay POD and
/// ring-friendly; `a`/`b` carry site-specific arguments (e.g. dst/bytes
/// for a p2p child span). `depth` is the nesting level at record time.
struct SpanRec {
  static constexpr std::size_t kNameCap = 24;
  char name[kNameCap] = {0};
  char cat = '?';  ///< 'C' collective, 'M' message, 'S' session, 'R' reorder
  std::uint8_t depth = 0;
  double t0_s = 0.0;
  double t1_s = 0.0;
  std::int64_t a = 0;
  std::int64_t b = 0;
};

/// Ids of the standard metric catalog defined by the Hub constructor.
/// Names match the MPI_T pvar names in src/mpit/pvar.cpp exactly.
struct StdIds {
  // engine internals
  int engine_messages = -1;        ///< counter: p2p/coll/osc sends
  int engine_bytes = -1;           ///< counter: payload bytes sent
  int engine_inbox_depth = -1;     ///< histogram: pending-op queue depth
  int engine_match_s = -1;         ///< histogram: arrival->match latency (s)
  int engine_msg_bytes = -1;       ///< histogram: message size
  int engine_bytes_in_flight = -1; ///< gauge: delivered but unmatched bytes
  int engine_direct_deliveries = -1;  ///< counter: landed in a posted receive
  // fault-plan outcomes
  int fault_retransmits = -1;      ///< counter: extra attempts (attempts-1)
  int fault_drops = -1;            ///< counter: on-wire transmissions lost
  int fault_lost = -1;             ///< counter: messages lost for good
  int fault_backoff_ns = -1;       ///< counter: retransmit backoff, virtual ns
  int fault_stalls = -1;           ///< counter: stall faults taken
  int fault_crashes = -1;          ///< counter: crash faults taken
  // mpimon session lifecycle
  int mon_session_starts = -1;
  int mon_session_suspends = -1;
  int mon_session_resets = -1;
  int mon_gather_timeouts = -1;    ///< counter: ft receives timed out
  int mon_partial_data = -1;       ///< counter: MPI_M_PARTIAL_DATA returns
  // fault recovery (shrink/rebind) and the degradation governor
  int mon_rebinds = -1;            ///< counter: MPI_M_rebind successes
  int mon_dead_skips = -1;         ///< counter: ft receives, peer dead
  int gov_shed_steps = -1;         ///< counter: governor fidelity-shed steps
  int gov_refusals = -1;           ///< counter: reservations refused at max shed
  int gov_overhead_alarms = -1;    ///< counter: MPIM_OVERHEAD_PCT violations
  int gov_shed_level = -1;         ///< gauge: current shed level (0..4)
  int gov_mem_bytes = -1;          ///< gauge: accounted monitoring bytes
  // reorder decisions
  int reorder_treematch_ns = -1;   ///< counter: TreeMatch CPU time, ns
  int reorder_applied = -1;        ///< counter: TreeMatch decisions applied
  int reorder_identity = -1;       ///< counter: identity fallbacks
  // introspection snapshots (src/introspect)
  int introspect_starts = -1;      ///< counter: MPI_M_snapshot_start calls
  int introspect_frames = -1;      ///< counter: snapshot frames closed
  int introspect_frames_dropped = -1;  ///< counter: frames evicted from ring
  int introspect_boundaries = -1;  ///< counter: phase boundaries detected
  int introspect_imbalance_milli = -1;   ///< gauge: load imbalance x1000
  int introspect_neighbor_milli = -1;    ///< gauge: neighbor byte frac x1000
  int introspect_mismatch_hops = -1;     ///< gauge: bytes x hop distance
  int introspect_gain_milli = -1;        ///< gauge: est. TreeMatch gain x1000
  // streaming aggregation plane (src/obsplane)
  int obsplane_events = -1;        ///< counter: staged events drained
  int obsplane_drops = -1;         ///< counter: staged events dropped (full)
  int obsplane_epochs = -1;        ///< counter: epoch blocks emitted
  int obsplane_findings = -1;      ///< counter: correlation findings
  int obsplane_series = -1;        ///< gauge: live (rank, metric) series
  int obsplane_mem_bytes = -1;     ///< gauge: plane working-set bytes
  int obsplane_window_merge = -1;  ///< gauge: epochs merged per bucket
  // causal critical-path profiler (src/critpath)
  int critpath_events = -1;        ///< counter: happens-before events captured
  int critpath_dropped = -1;       ///< counter: ring evictions
  int critpath_wait_ns = -1;       ///< counter: classified wait, virtual ns
  int critpath_late_sender_ns = -1;      ///< counter: late-sender wait ns
  int critpath_late_receiver_ns = -1;    ///< counter: inbox dwell ns
  int critpath_wait_collective_ns = -1;  ///< counter: wait-at-collective ns
  int critpath_root_imbalance_ns = -1;   ///< counter: imbalance-at-root ns
  int critpath_extractions = -1;   ///< counter: backward path extractions
  int critpath_blame_only = -1;    ///< gauge: 1 when rings were refused
};

class Hub {
 public:
  explicit Hub(int nranks, std::size_t span_capacity = 1u << 14);
  ~Hub();

  Hub(const Hub&) = delete;
  Hub& operator=(const Hub&) = delete;

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }

  int nranks() const { return nranks_; }
  Registry& registry() { return registry_; }
  const Registry& registry() const { return registry_; }
  const StdIds& ids() const { return ids_; }

  // --- enabled-gated convenience recorders (cold-ish call sites) ---
  void add(int id, int rank, std::uint64_t v = 1) {
    if (enabled()) registry_.add(id, rank, v);
  }
  void observe(int id, int rank, double v) {
    if (enabled()) registry_.observe(id, rank, v);
  }
  void gauge_add(int id, int rank, std::int64_t delta) {
    if (enabled()) registry_.gauge_add(id, rank, delta);
  }
  void gauge_set(int id, int rank, std::int64_t v) {
    if (enabled()) registry_.gauge_set(id, rank, v);
  }

  // --- span tracing (rank thread only for its own rank) ---
  /// Opens a nested span; returns false (and records nothing) when
  /// disabled, in which case the matching span_end must be skipped.
  bool span_begin(int rank, const char* name, char cat, double t_s);
  /// Closes the innermost open span and records it.
  void span_end(int rank, double t_s, std::int64_t a = 0, std::int64_t b = 0);
  /// Records an already-closed interval (used for sites that do not nest
  /// LIFO with collectives, e.g. monitoring sessions).
  void span_complete(int rank, const char* name, char cat, double t0_s,
                     double t1_s, std::int64_t a = 0, std::int64_t b = 0);

  std::vector<SpanRec> spans(int rank) const;
  std::uint64_t spans_recorded() const;
  std::uint64_t spans_dropped() const;

  /// Optional tap on every recorded span, invoked on the recording rank's
  /// own thread right after the ring push (so sinks inherit the per-rank
  /// single-producer contract). Install while quiescent (before run());
  /// the streaming plane uses this to forward spans without snapshotting
  /// rings. Passing an empty function disarms the tap.
  using SpanSink = std::function<void(int rank, const SpanRec& rec)>;
  void set_span_sink(SpanSink sink) {
    span_sink_ = std::move(sink);
    span_sink_armed_.store(static_cast<bool>(span_sink_),
                           std::memory_order_release);
  }

  // --- degradation-governor hooks (src/mpimon/governor.h) ---
  /// Ring capacity the spans were allocated with (per rank).
  std::size_t span_capacity() const { return span_capacity_; }
  /// Effective live-record cap per rank ring. The backing store is never
  /// reallocated (push is lock-free on rank threads); lowering the cap
  /// sheds the accounted working set and tightens the wrap point.
  std::size_t span_soft_capacity() const {
    return span_soft_capacity_.load(std::memory_order_relaxed);
  }
  void set_span_soft_capacity(std::size_t cap);
  /// Final shedding step: drop span recording entirely (metrics stay).
  bool spans_suppressed() const {
    return spans_suppressed_.load(std::memory_order_relaxed);
  }
  void set_spans_suppressed(bool on) {
    spans_suppressed_.store(on, std::memory_order_relaxed);
  }

  /// Clears spans and zeroes all metrics (call between runs, not during).
  void reset();

 private:
  struct OpenSpan {
    char name[SpanRec::kNameCap] = {0};
    char cat = '?';
    double t0_s = 0.0;
  };
  static constexpr std::size_t kMaxOpenSpans = 32;

  struct RankSpans {
    Ring<SpanRec> ring;
    OpenSpan open[kMaxOpenSpans];
    std::size_t open_depth = 0;
    explicit RankSpans(std::size_t cap) : ring(cap) {}
  };

  /// A rank's ring is allocated on its first recorded span, not in the
  /// constructor: at the default capacity a ring is 1 MiB/rank, which at
  /// np=4096+ would dominate the whole engine's working set even with
  /// telemetry disabled (the default). The slot pointer transitions
  /// nullptr -> ring exactly once (creation serialized by spans_init_mutex_,
  /// published with a release store), so the post-creation record path
  /// stays lock-free on the rank's own thread.
  RankSpans& ensure_rank_spans(int rank);
  RankSpans* rank_spans(int rank) const {
    return spans_[static_cast<std::size_t>(rank)].load(
        std::memory_order_acquire);
  }

  int nranks_;
  std::size_t span_capacity_;
  std::atomic<bool> enabled_{false};
  std::atomic<std::size_t> span_soft_capacity_;
  std::atomic<bool> spans_suppressed_{false};
  SpanSink span_sink_;
  std::atomic<bool> span_sink_armed_{false};
  Registry registry_;
  StdIds ids_;
  mutable std::mutex spans_init_mutex_;
  std::vector<std::atomic<RankSpans*>> spans_;
};

}  // namespace mpim::telemetry
