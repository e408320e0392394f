#pragma once
// The streaming aggregation plane: continuous, bounded-memory observability
// for one engine (job).
//
// Rank threads stream into the plane incrementally while the app runs:
//   * every virtual-time epoch boundary a rank crosses, the engine's epoch
//     event flushes that rank's metric deltas into its own SPSC staging ring
//     (the set of rings forms a lock-free MPSC layer: one producer per rank,
//     one draining consumer),
//   * closed snapshot frames and selected telemetry spans are forwarded from
//     their recording sites,
//   * whichever rank crossed the epoch then *tries* to drain (try-lock, so
//     the hot path never blocks on the consumer).
//
// The drain applies events to a bounded time-series store keyed by
// (rank, metric): a ring of per-epoch delta buckets plus mergeable sketches
// (log2 histogram + quantile sketch) per series, O(windows) memory however
// long the run. The PR-6 degradation governor widens the epoch merge factor
// as a shed rung, halving bucket resolution instead of dropping data.
//
// Nothing in here ever charges virtual time: clocks are bit-identical with
// the plane attached or not (the epoch gate itself is one double compare
// per engine call when disarmed). All plane work is host-side.
//
// Continuous export: when a stream path is configured, every completed epoch
// is appended to a JSONL file and flushed (crash-safe: a killed run keeps
// every epoch flushed so far, plus at most one torn final line, which the
// live viewer tolerates). At run end the plane correlates the timeline
// against the fault plan and NIC counters and emits findings through
// telemetry::log, the stream, and pvars 40+.

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <type_traits>
#include <vector>

#include "minimpi/engine.h"
#include "obsplane/correlate.h"
#include "obsplane/sketch.h"
#include "support/pages.h"

namespace mpim::introspect {
struct Frame;
}

namespace mpim::obsplane {

/// Number of registry-backed metric slots the plane tracks per rank, plus
/// one synthetic slot (collective spans counted at the sink). Slot order is
/// fixed; see kSlotMetrics in plane.cpp.
inline constexpr int kMetricSlots = 15;
inline constexpr int kSlotCollectives = kMetricSlots;  // synthetic
inline constexpr int kAllSlots = kMetricSlots + 1;

/// One staged record. POD so the SPSC rings stay memcpy-friendly.
struct StreamEvent {
  enum class Kind : std::uint8_t { metric, frame, span };
  static constexpr std::size_t kNameCap = 24;

  Kind kind = Kind::metric;
  std::uint8_t aux = 0;    ///< frame: boundary flag; span: cat
  std::int16_t id = -1;    ///< metric: slot; frame: top peer
  int rank = -1;
  long epoch = 0;
  std::uint64_t seq = 0;   ///< per-producer sequence number
  double t0_s = 0.0;
  double t1_s = 0.0;
  std::uint64_t a = 0;     ///< metric: delta; frame: bytes; span: SpanRec.a
  std::uint64_t b = 0;     ///< frame: msgs; span: SpanRec.b
  char name[kNameCap] = {0};  ///< span name
};
static_assert(std::is_trivially_copyable_v<StreamEvent>);

struct PlaneConfig {
  std::string job = "job0";
  /// Epoch width in virtual seconds (flush + drain cadence). Overridable
  /// with MPIM_STREAM_EPOCH_S (strict parse; invalid values are logged and
  /// ignored).
  double epoch_s = 1.0e-3;
  /// Per-producer staging ring capacity (events). Overflow drops the
  /// newest event and counts it; nothing blocks.
  std::size_t ring_capacity = 4096;
  /// JSONL stream file ("" = no continuous export).
  std::string stream_path;
  /// Prometheus-style text exposition written at finalize ("" = off).
  std::string prom_path;
};

class Plane final : public mpi::EngineObserver {
 public:
  Plane(mpi::Engine& engine, PlaneConfig cfg);
  ~Plane() override;

  Plane(const Plane&) = delete;
  Plane& operator=(const Plane&) = delete;

  /// Creates a plane, attaches it to the engine as an engine-owned epoch
  /// observer and installs the telemetry span sink. Returns nullptr when a
  /// plane is already attached. Call before Engine::run.
  static std::shared_ptr<Plane> attach(mpi::Engine& engine, PlaneConfig cfg);
  /// attach() driven by MPIM_STREAM_FILE / MPIM_STREAM_EPOCH_S /
  /// MPIM_PROM_FILE; returns nullptr (and attaches nothing) when
  /// MPIM_STREAM_FILE is unset or a plane is already attached.
  static std::shared_ptr<Plane> attach_from_env(mpi::Engine& engine);
  /// The plane attached to an engine, or nullptr.
  static Plane* attached(mpi::Engine& engine);

  // --- producer side (rank threads; rank == calling thread's rank) --------
  /// Flushes rank's metric deltas staged since the last flush, stamps the
  /// completed epoch, then tries to drain. `final_flush` marks the rank's
  /// last flush of the run (normal exit or crash teardown).
  void on_epoch(int rank, double now_s, bool final_flush) override;
  /// Snapshot-frame forwarding (mpimon session frame callback). May run on
  /// a foreign thread for RMA traffic, so frames stage through a small
  /// mutexed side queue rather than the rank's SPSC ring.
  void on_frame(int rank, const introspect::Frame& f);
  /// Telemetry span sink (rank's own thread per the Hub contract).
  void on_span(int rank, const telemetry::SpanRec& rec);

  // --- consumer side ------------------------------------------------------
  /// Non-blocking drain; no-op when another thread is already draining.
  void try_drain();
  /// Blocking drain + final epoch emission + correlation + run_end record.
  /// Idempotent; runs at the engine's run end even when run() is about to
  /// rethrow a rank failure. Folds in an attached critpath::Profiler's
  /// blame verdicts, pulling its lazy report, so the observers' attach
  /// order does not matter.
  void finalize();
  void on_run_end() override { finalize(); }
  /// After a finalize, re-arms per-run state so the same plane can observe
  /// another run() of its engine (clocks restart at 0; registry counters
  /// stay cumulative).
  void on_run_begin() override;

  /// Governor shed rung: double the store's epoch merge factor (halves
  /// bucket resolution, re-keys existing buckets in place).
  void widen_windows();
  int window_merge() const { return merge_.load(std::memory_order_relaxed); }

  /// Prometheus-style text exposition of the store (point-in-time).
  void write_prometheus(std::ostream& os);

  // --- introspection for tests / pvars ------------------------------------
  std::uint64_t events_attempted() const;  ///< sum of producer seq counters
  std::uint64_t events_ingested() const { return ingested_.load(std::memory_order_relaxed); }
  std::uint64_t events_dropped() const;
  std::uint64_t epochs_emitted() const { return epochs_emitted_.load(std::memory_order_relaxed); }
  std::size_t series_count() const;
  std::uint64_t store_bytes() const { return mem_bytes_.load(std::memory_order_relaxed); }
  bool finalized() const { return finalized_.load(std::memory_order_acquire); }

  const PlaneConfig& config() const { return cfg_; }
  double epoch_s() const override { return cfg_.epoch_s; }

  /// Per-(rank, slot-name) series snapshot: (merged epoch, delta) buckets.
  std::vector<std::pair<long, std::uint64_t>> series_buckets(
      int rank, const std::string& metric) const;
  /// Sketch quantile over a series' per-epoch deltas (0 when absent).
  std::uint64_t series_quantile(int rank, const std::string& metric,
                                double q) const;
  std::vector<Finding> findings() const;

  static const char* slot_name(int slot);

 private:
  struct Producer {
    Producer(std::size_t capacity, std::byte* storage)
        : cap(capacity), buf(storage) {}
    /// Address of the slot ring position `pos` maps to.
    std::byte* slot(std::uint64_t pos) {
      return buf + (pos % cap) * sizeof(StreamEvent);
    }
    // SPSC ring of StreamEvents: the rank thread pushes, the draining
    // consumer pops. Slots are raw bytes, memcpy'd in and out, in the
    // plane's ring mapping (rings_).
    std::size_t cap;
    std::byte* buf;
    std::atomic<std::uint64_t> head{0};  ///< producer-advanced
    std::atomic<std::uint64_t> tail{0};  ///< consumer-advanced
    std::atomic<std::uint64_t> dropped{0};
    std::uint64_t seq = 0;               ///< owner thread only
    // Last flushed cumulative value per slot (owner thread only).
    std::array<std::uint64_t, kMetricSlots> shadow{};
    std::uint64_t coll = 0;       ///< collective spans seen (owner thread)
    std::uint64_t coll_shadow = 0;
    std::atomic<long> reported{-1};      ///< last completed epoch flushed
    std::atomic<bool> final_flag{false};
  };

  struct Series {
    std::deque<std::pair<long, std::uint64_t>> buckets;  // (merged epoch, delta)
    Log2Hist hist;
    QuantileSketch sketch;
    std::uint64_t total = 0;
  };
  /// What one series adds to store_bytes().
  static std::uint64_t series_bytes(const Series& s);

  bool push(int rank, const StreamEvent& ev);
  void drain_locked();
  void apply_locked(const StreamEvent& ev);
  void add_event_locked(long epoch, int rank, double t_s, const char* what,
                        const char* name);
  void emit_upto_locked(long watermark);
  void emit_epoch_locked(long e);
  void stream_line_locked(const std::string& line);
  void write_run_start_locked();
  void write_prometheus_locked(std::ostream& os) const;
  void derive_crash_events_locked();
  void mirror_counters_locked();
  void update_mem_gauge_locked();
  long watermark_locked() const;
  CorrelateInput build_correlate_input_locked() const;

  mpi::Engine& engine_;
  PlaneConfig cfg_;
  int nranks_;

  // Every producer's ring in one page mapping (support/pages.h): attaching
  // maps it with one call, value-initializes none of its nranks x capacity
  // events, and the slots a run never writes are never resident.
  support::PageBytes rings_;
  std::vector<std::unique_ptr<Producer>> producers_;

  // Frame side queue (frames can arrive on foreign threads; see on_frame).
  mutable std::mutex frame_mx_;
  std::deque<StreamEvent> frame_q_;
  std::uint64_t frame_attempted_ = 0;
  std::atomic<std::uint64_t> frame_dropped_{0};

  // Consumer state, all guarded by drain_mx_.
  mutable std::mutex drain_mx_;
  std::map<std::pair<int, int>, Series> series_;      // (rank, slot)
  std::map<long, std::vector<StreamEvent>> pending_;  // raw epoch -> events
  // Running totals behind store_bytes(), so a drain does not walk the store:
  // series_bytes() summed over series_, and the events held in pending_.
  std::uint64_t series_bytes_ = 0;
  std::uint64_t pending_size_ = 0;
  std::map<long, std::vector<EventRec>> pending_events_;
  std::map<long, std::uint64_t> retransmits_by_epoch_;
  std::map<long, std::uint64_t> mismatch_by_epoch_;
  std::vector<EventRec> events_;                      // derived event lane
  std::set<int> dead_seen_;
  std::vector<std::uint64_t> node_tx_cum_;            // per node, last emit
  long emitted_upto_ = -1;
  std::uint64_t mirrored_ingested_ = 0;
  std::uint64_t mirrored_dropped_ = 0;
  std::uint64_t mirrored_epochs_ = 0;
  std::vector<Finding> findings_;
  std::FILE* stream_ = nullptr;
  bool wrote_run_start_ = false;
  bool finalize_done_ = false;

  std::atomic<int> merge_{1};
  std::atomic<std::uint64_t> ingested_{0};
  std::atomic<std::uint64_t> epochs_emitted_{0};
  std::atomic<std::uint64_t> mem_bytes_{0};
  std::atomic<bool> finalized_{false};
};

}  // namespace mpim::obsplane
