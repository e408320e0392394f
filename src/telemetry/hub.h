// Telemetry hub: one per Engine. Owns the metrics registry (built from the
// standard catalog, telemetry/catalog.h), the per-rank span rings, and the
// enabled flag that gates every recording site.
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

#include "telemetry/catalog.h"
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

  // --- enabled-gated convenience recorders (cold-ish call sites) ---
  void add(Metric id, int rank, std::uint64_t v = 1) {
    if (enabled()) registry_.add(id, rank, v);
  }
  void observe(Metric id, int rank, double v) {
    if (enabled()) registry_.observe(id, rank, v);
  }
  void gauge_add(Metric id, int rank, std::int64_t delta) {
    if (enabled()) registry_.gauge_add(id, rank, delta);
  }
  void gauge_set(Metric id, int rank, std::int64_t v) {
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
  mutable std::mutex spans_init_mutex_;
  std::vector<std::atomic<RankSpans*>> spans_;
};

}  // namespace mpim::telemetry
