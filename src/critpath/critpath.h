// Causal critical-path and wait-state profiler.
//
// A happens-before event graph captured from the virtual-clock engine:
// send->recv edges (PktInfo::send_seq names the edge), collective
// decomposition children (CommKind::coll packets), and intra-rank program
// order (each rank's bounded event ring is chronological because its clock
// is monotone). On top of the graph:
//
//   * online wait-state classification at every receive completion --
//     late-sender, late-receiver, wait-at-collective, imbalance-at-root --
//     charged in virtual nanoseconds per (rank, peer, communicator, phase);
//   * backward critical-path extraction over the bounded rings at run end,
//     yielding per-rank / per-link / per-phase blame shares that sum to the
//     end-to-end communication time (the identity is exact by construction:
//     blame(r) = comm(r) - own_wait(r) + caused(r) and every charged wait
//     appears once on each side);
//   * per-phase folds online on each rank's own thread, so the phase table
//     is ready at every introspection window boundary without cross-rank
//     reads.
//
// Determinism contract: the capture hooks run on the acting rank's own
// thread, never charge virtual time (clocks are bit-identical profiler on
// or off), and never take locks -- lane state is owner-thread-only, and
// cross-rank aggregation happens exclusively after Engine::run joined the
// rank threads. Mid-run, a rank may read only its OWN lane (the reorder
// feed agrees on totals with a tool-kind collective, never by peeking at
// peers).
//
// Memory is governed: Config::reserve (wired to the mpimon degradation
// governor by mon::attach_critpath) is consulted at every run begin; a
// trimmed grant shrinks the per-rank rings, a refusal switches to
// blame-only mode (accumulators keep running, the path degenerates to the
// dominant rank's lane). Crash/shrink/rebind are survived by tombstoning:
// a backward walk that needs a dead rank's missing send edge falls back to
// program order and marks the segment.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "minimpi/engine.h"

namespace mpim::critpath {

/// Wait-state classes, the Scalasca taxonomy adapted to the engine.
enum class WaitClass : std::uint8_t {
  none = 0,
  late_sender,        ///< p2p receive blocked until the message arrived
  late_receiver,      ///< message dwelled in the inbox (informational)
  wait_at_collective, ///< blocked inside a collective's decomposition
  imbalance_at_root,  ///< 2nd+ consecutive wait inside one collective
};
const char* wait_class_name(WaitClass c);

/// Indices into the per-class accumulator arrays.
inline constexpr int kClassLateSender = 0;
inline constexpr int kClassLateReceiver = 1;
inline constexpr int kClassWaitCollective = 2;
inline constexpr int kClassRootImbalance = 3;
inline constexpr int kNumClasses = 4;

/// Phase grid (virtual seconds) for the per-phase blame table; matches the
/// introspection snapshot window default.
inline constexpr double kPhaseS = 1e-3;
/// Bounded per-lane phase table; later phases fold into the last cell.
inline constexpr std::size_t kMaxPhases = 512;
/// Backward-walk safety cap.
inline constexpr std::size_t kMaxPathSegments = 4096;

struct Config {
  /// Events kept per rank before the oldest is evicted (pre-governor).
  std::size_t ring_capacity = 8192;
  /// Memory grant, consulted at run begin with (want_frames, frame_bytes);
  /// returns granted frames (0 = refusal -> blame-only mode). Unset means
  /// ungoverned. mon::attach_critpath wires the degradation governor here.
  std::function<std::size_t(std::size_t, std::uint64_t)> reserve;
};

/// One happens-before event in a rank's bounded ring.
struct Event {
  enum class Kind : std::uint8_t { send, recv };
  Kind kind = Kind::send;
  WaitClass wait = WaitClass::none;
  mpi::CommKind comm_kind = mpi::CommKind::p2p;
  int peer = -1;  ///< world rank of the other side
  int context_id = -1;
  int tag = 0;
  std::uint64_t send_seq = 0;  ///< edge name (sender sequence number)
  std::uint64_t bytes = 0;
  double t0 = 0.0;       ///< op begin (send injection / recv wait baseline)
  double t1 = 0.0;       ///< op completion clock
  double arrival = 0.0;  ///< packet arrival; < 0 for a lost transmission
};

struct RankBlame {
  int rank = -1;
  std::uint64_t comm_ns = 0;      ///< sum of send+recv op durations
  std::uint64_t own_wait_ns = 0;  ///< waits this rank suffered (ls+wc+ri)
  std::uint64_t caused_ns = 0;    ///< peers' waits charged to this rank
  std::uint64_t blame_ns = 0;     ///< comm - own_wait + caused
  std::array<std::uint64_t, kNumClasses> class_ns{};
  WaitClass dominant_class = WaitClass::none;
  int dominant_peer = -1;  ///< peer this rank waited longest on
  std::uint64_t dominant_peer_ns = 0;
  bool dead = false;
};

/// Wait charged to the directed link src -> dst (src was late, dst waited).
struct LinkBlame {
  int src = -1;
  int dst = -1;
  std::uint64_t wait_ns = 0;
  std::uint64_t bytes = 0;  ///< bytes dst received from src
  bool cross_node = false;
};

/// One lane of the extracted critical path (forward time order).
struct PathSegment {
  int rank = -1;
  double t0 = 0.0;
  double t1 = 0.0;
  /// Peer whose send edge led into this segment's lower end; -1 when the
  /// walk continued in program order.
  int via_peer = -1;
  /// The walk needed a dead rank's missing edge here (crash/shrink).
  bool tombstoned = false;
};

struct PhaseBlame {
  int rank = -1;
  int phase = 0;  ///< floor(t / kPhaseS)
  std::uint64_t wait_ns = 0;
  WaitClass dominant_class = WaitClass::none;
};

struct BlameReport {
  bool valid = false;
  bool blame_only = false;
  std::uint64_t total_comm_ns = 0;
  std::uint64_t total_wait_ns = 0;
  std::vector<RankBlame> ranks;
  std::vector<LinkBlame> links;    ///< descending wait_ns
  std::vector<PathSegment> path;   ///< forward time order
  std::vector<PhaseBlame> phases;  ///< (rank, phase) ascending
  int dominant_rank = -1;          ///< argmax caused_ns
  WaitClass dominant_class = WaitClass::none;
  LinkBlame critical_link;
};

class Profiler final : public mpi::EngineObserver {
 public:
  /// Attaches an engine-owned profiler observing sends and receive
  /// completions (it survives across runs and replaces a previously
  /// attached one). Virtual clocks are bit-identical with and without it.
  static std::shared_ptr<Profiler> attach(mpi::Engine& engine,
                                          Config cfg = {});
  /// The profiler attached to `engine`, or nullptr.
  static Profiler* attached(mpi::Engine& engine);

  // --- rank-thread API: calling rank's own lane only ----------------------
  void arm(int rank, bool on);
  bool armed(int rank) const;

  struct LocalTotals {
    std::uint64_t events = 0;
    std::uint64_t dropped = 0;  ///< ring evictions (oldest overwritten)
    std::uint64_t comm_ns = 0;
    std::uint64_t wait_ns = 0;
    std::array<std::uint64_t, kNumClasses> class_ns{};
    std::uint64_t mismatch_wait_ns = 0;  ///< waits on inter-node messages
  };
  LocalTotals local_totals(int rank) const;
  /// Calling rank's wait charged to each world peer, virtual ns.
  std::vector<std::uint64_t> local_waits_by_peer(int rank) const;
  /// Calling rank's dominant causer (-1 when it never waited).
  void local_dominant(int rank, int* peer, std::uint64_t* wait_ns) const;

  /// Reorder feed: totals accumulated since the rank's last mark(). Each
  /// rank reads only its own lane; cross-rank agreement is the caller's
  /// job (reorder::reorder_on_phase sums them with a tool collective).
  std::uint64_t wait_since_mark(int rank) const;
  std::uint64_t mismatch_since_mark(int rank) const;
  void mark(int rank);

  // --- post-run API (after Engine::run returned) --------------------------
  /// Lazy, idempotent per run: classifies, aggregates blame and extracts
  /// the backward critical path over the joined lanes.
  const BlameReport& report();
  /// Writes the report as the sectioned CSV `profview --critical-path`
  /// renders. Finalizes first; false when the file cannot be opened.
  bool write_csv(const std::string& path);

  bool blame_only() const { return blame_only_; }
  const Config& config() const { return cfg_; }
  /// Host wall seconds the last finalize spent (classify + aggregate +
  /// backward walk); 0.0 until a run's report has been extracted. The work
  /// happens after Engine::run joined, so it is off the application's
  /// critical path -- this tracks that it stays cheap anyway.
  double extract_host_seconds() const { return extract_host_s_; }

  // --- EngineObserver ------------------------------------------------------
  void on_run_begin() override;
  /// Drains the batched telemetry mirror and extracts the report.
  void on_run_end() override;
  void on_send(int rank, const mpi::PktInfo& pkt, double t0, double tx_start,
               double arrival, double t1) override;
  void on_recv(int rank, const mpi::PktInfo& pkt, double pre, double arrival,
               double t1) override;

 private:
  struct PhaseCell {
    std::uint64_t wait_ns = 0;
    std::array<std::uint64_t, kNumClasses> class_ns{};
  };

  /// Per-rank capture lane. Owner-thread-only writes; cross-thread reads
  /// only after Engine::run joined (joins synchronize, so no atomics).
  /// Cache-line aligned: the recv hook runs under the rank mutex senders
  /// contend on, so a lane's hot fields must not false-share with its
  /// neighbours'.
  struct alignas(64) Lane {
    std::vector<Event> ring;
    std::size_t cap = 0;
    std::size_t head = 0;       ///< next slot; equals pushed % cap
    std::uint64_t pushed = 0;
    std::uint64_t dropped = 0;  ///< evictions
    bool armed = true;
    std::uint64_t events = 0;
    std::uint64_t comm_ns = 0;
    std::uint64_t wait_ns = 0;
    std::array<std::uint64_t, kNumClasses> class_ns{};
    std::uint64_t mismatch_wait_ns = 0;
    std::uint64_t mark_wait_ns = 0;      ///< snapshot at last mark()
    std::uint64_t mark_mismatch_ns = 0;
    // Telemetry mirror deltas, batched: per-event atomic adds on the shared
    // registry false-share across rank threads, so the hooks stage deltas
    // here (owner-thread-only) and flush every kTelemetryFlushBatch events
    // and at run end. Mid-run hub reads lag by at most one batch.
    std::uint64_t pend_events = 0;
    std::uint64_t pend_dropped = 0;
    std::uint64_t pend_wait = 0;
    std::array<std::uint64_t, kNumClasses> pend_class{};
    std::vector<std::uint64_t> wait_by_peer;
    std::vector<std::uint64_t> bytes_from_peer;
    std::map<int, std::uint64_t> wait_by_comm;  ///< context id -> ns
    std::map<int, PhaseCell> phases;
    int last_coll_ctx = -1;
    int last_coll_tag = 0;
    int coll_wait_streak = 0;
    // Hot-path caches for the two per-wait std::map cells: consecutive
    // waits overwhelmingly hit the same phase and communicator, and the
    // recv hook holds the rank mutex, so every map walk avoided is lock
    // hold time given back to senders. std::map nodes are pointer-stable;
    // begin_run clears the maps and must reset these.
    int cache_phase = -1;
    PhaseCell* cache_phase_cell = nullptr;
    int cache_ctx = -1;
    std::uint64_t* cache_ctx_cell = nullptr;
  };

  Profiler(mpi::Engine& engine, Config cfg);

  Lane& lane(int rank) { return lanes_[static_cast<std::size_t>(rank)]; }
  const Lane& lane(int rank) const {
    return lanes_[static_cast<std::size_t>(rank)];
  }
  /// Slot for the next event in `ln`'s ring (evicting the oldest once
  /// full), or nullptr in blame-only mode. Overwrite slots carry the
  /// evicted event's data: callers must assign every field.
  Event* next_slot(Lane& ln);
  void charge_phase(Lane& ln, double when_s, WaitClass cls, std::uint64_t ns);
  void flush_lane_telemetry(int rank, Lane& ln);
  void finalize_locked();
  void extract_path(std::vector<std::vector<Event>>& ordered);

  mpi::Engine& engine_;
  Config cfg_;
  std::vector<Lane> lanes_;
  std::vector<int> node_of_rank_;
  bool blame_only_ = false;
  bool finalized_ = true;  ///< no run captured yet
  double extract_host_s_ = 0.0;
  BlameReport report_;
};

}  // namespace mpim::critpath
