// Graceful-degradation governor: per-engine memory and overhead budgets
// for the monitoring plane.
//
// `MPIM_MEM_BUDGET_BYTES` caps the monitoring plane's accounted working
// set (telemetry span rings at their effective capacity + reserved
// snapshot-frame storage). Under pressure the governor sheds fidelity in a
// fixed order before it ever refuses data outright:
//
//   level 1  widen introspect snapshot windows (x2, new snapshots only)
//   level 2  halve the telemetry span-ring effective capacity
//   level 3  widen streaming-plane store windows (x2 epochs per bucket)
//   level 4  drop per-packet/collective span recording entirely
//
// and only past level 4 are frame reservations trimmed or refused. Every
// step is logged, counted in telemetry (mpim_governor_* metrics) and
// exported as pvars.
//
// `MPIM_OVERHEAD_PCT` bounds the *modeled* monitoring overhead (recorded
// events x mpi::kMonitorEventCostS, as a percentage of the session's virtual
// span). Violations raise an alarm and trigger the level-1 shed. The
// governor never un-charges virtual cost already modeled: all shedding is
// host-side, so an app's virtual clock is bit-identical with and without a
// budget -- monitoring degrades before it distorts the app.
//
// Concurrency: shed decisions serialize on one mutex; readers are
// lock-free atomics. Shedding is triggered by whichever rank thread hits
// the budget first, so under an active budget the *frame grids* of
// snapshots may vary across reruns -- virtual clocks never do.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>

namespace mpim::mpi {
class Engine;
}

namespace mpim::mon {

class Governor {
 public:
  /// The engine's governor, interned as a tool object (fresh per run()).
  static Governor& of(mpi::Engine& engine);

  explicit Governor(mpi::Engine& engine);
  Governor(const Governor&) = delete;
  Governor& operator=(const Governor&) = delete;

  bool mem_enabled() const { return mem_budget_ > 0; }
  std::uint64_t mem_budget() const { return mem_budget_; }
  /// Monitoring bytes currently accounted against the budget.
  std::uint64_t mem_level() const {
    return level_.load(std::memory_order_relaxed);
  }
  /// Overhead budget in percent; <= 0 when disabled.
  double overhead_budget_pct() const { return overhead_pct_; }

  int shed_level() const { return shed_level_.load(std::memory_order_relaxed); }
  std::uint64_t shed_steps() const {
    return shed_steps_.load(std::memory_order_relaxed);
  }
  std::uint64_t refusals() const {
    return refusals_.load(std::memory_order_relaxed);
  }
  std::uint64_t overhead_alarms() const {
    return overhead_alarms_.load(std::memory_order_relaxed);
  }

  /// Multiplier MPI_M_snapshot_start applies to requested window widths
  /// (level >= 1 widens by 2: fewer frames per virtual second).
  double window_scale() const { return shed_level() >= 1 ? 2.0 : 1.0; }

  /// Reserves frame storage for a snapshot sampler: `want_frames` frames
  /// of `frame_bytes` each. Sheds fidelity as needed, then grants as many
  /// frames as fit (possibly fewer than requested); 0 means the budget is
  /// exhausted even at maximum shedding (counted as a refusal). With no
  /// memory budget configured this is a no-op returning `want_frames`.
  int reserve_frames(int rank, int want_frames, std::uint64_t frame_bytes);

  /// Returns previously reserved bytes to the budget.
  void release(std::uint64_t bytes);

  /// Reports one session's modeled overhead (virtual seconds of monitoring
  /// cost over the session's virtual span). Above MPIM_OVERHEAD_PCT this
  /// raises an alarm and triggers the level-1 shed. Inputs are virtual
  /// times, so alarm decisions are deterministic per rank.
  void report_overhead(int rank, double overhead_s, double span_s);

 private:
  /// Requires mx_ held. Advances the shed ladder one level; false at max.
  bool shed_step_locked(int rank);
  void set_mem_gauge_locked();

  mpi::Engine& engine_;
  std::uint64_t mem_budget_ = 0;
  double overhead_pct_ = 0.0;

  std::mutex mx_;
  std::uint64_t span_accounted_ = 0;  ///< span-ring bytes currently charged
  std::atomic<std::uint64_t> level_{0};
  std::atomic<int> shed_level_{0};
  std::atomic<std::uint64_t> shed_steps_{0};
  std::atomic<std::uint64_t> refusals_{0};
  std::atomic<std::uint64_t> overhead_alarms_{0};
};

}  // namespace mpim::mon
