// The minimpi engine: a virtual-time MPI-subset runtime.
//
// Ranks execute inside one process, either as OS threads (the default) or
// as cooperatively scheduled stackful fibers of a single OS thread
// dispatched in (virtual clock, rank) order -- the SimGrid/SMPI execution
// model that makes np=1024-4096 worlds practical on a small host
// (EngineConfig::sched, MPIM_SCHED=threads|fibers). Either way, every rank
// owns a monotone virtual clock that only advances through engine calls:
//   - compute/sleep advance it directly,
//   - a send charges the sender a small overhead (LogP "o") and stamps the
//     message with arrival = sender_clock + alpha(link) + bytes/beta(link),
//   - a receive completes at max(receiver_clock, arrival) + recv_overhead.
// Timings are therefore deterministic functions of the program and the
// cost model, independent of host scheduling (the host has a single core).
//
// Every packet that leaves a rank is offered to the attached
// EngineObservers' send record carrying (src, dst, bytes, kind, tag,
// context) -- the moral equivalent of Open MPI's pml_monitoring component
// interposition point. Tool-kind traffic (the monitoring library's own
// gathers) bypasses the observers, and simulated NIC hardware counters
// record every transfer that crosses a node boundary.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "minimpi/comm.h"
#include "minimpi/min_clock_tree.h"
#include "minimpi/types.h"
#include "netmodel/cost_model.h"
#include "netmodel/nic_counters.h"
#include "topo/fabric.h"
#include "support/rng.h"
#include "telemetry/hub.h"
#include "topo/topology.h"

namespace mpim::fault {
class FaultPlan;
}

namespace mpim::mpi {

/// Everything the monitoring layer learns about one packet.
struct PktInfo {
  int src_world = -1;
  int dst_world = -1;
  std::size_t bytes = 0;
  CommKind kind = CommKind::p2p;
  int tag = 0;
  int context_id = -1;
  double send_time_s = 0.0;  ///< sender's virtual clock at injection
  /// Transmission attempts the fault plan charged for this message
  /// (1 = delivered first try; >1 means attempts-1 retransmissions).
  int attempts = 1;
  /// Per-sender monotone sequence number (1-based), stamped on every send
  /// regardless of observers. Together with src_world it names the
  /// happens-before edge this packet carries, so the critical-path profiler
  /// can join a receiver's completion back to the matching send event.
  std::uint64_t send_seq = 0;
};

/// The engine-tool boundary. Every tool that watches the engine -- mpit's
/// recording runtime, the critical-path profiler, the streaming plane --
/// derives from this class and registers with Engine::attach; each virtual
/// is one event and the defaults ignore it. The contract (DESIGN.md §3
/// tabulates it):
///   - The packet events (send record, send, recv) and epoch crossings reach
///     only the observers that armed them (Engine::attach / Engine::arm);
///     with nothing armed an event costs the engine one relaxed load (the
///     epoch grid: one double compare). Run begin and run end reach every
///     attached observer.
///   - Observers fire in attach order, and that is all the engine promises:
///     a tool that needs another tool's results pulls them from it through
///     the registry (Engine::find_observer).
///   - Tool-kind traffic (CommKind::tool) never reaches the packet events.
///   - "Rank's thread" means the rank's OS thread, or under SchedMode::fibers
///     the one thread running the rank's fiber. Times are virtual seconds.
///   - Only on_send_record may move virtual time, through its return value.
///     Every other event must leave the clocks bit-identical.
class EngineObserver {
 public:
  /// Armable events (bits for Engine::attach / Engine::arm).
  enum : unsigned {
    kSendRecord = 1u << 0,
    kSend = 1u << 1,
    kRecv = 1u << 2,
    kEpoch = 1u << 3,
  };

  EngineObserver() = default;
  EngineObserver(const EngineObserver&) = delete;
  EngineObserver& operator=(const EngineObserver&) = delete;
  virtual ~EngineObserver() = default;

  /// Before a send is costed: the pml_monitoring interposition point.
  /// Returns the monitoring records made; the engine charges the calling
  /// rank records x kMonitorEventCostS. Runs on the `caller_world` rank's
  /// thread with no engine lock held, concurrently across ranks.
  /// `caller_world` equals `pkt.src_world` except for RMA, whose traffic is
  /// attributed to the transmitting side from the origin's thread -- so an
  /// observer may update one rank's state from another rank's thread, and
  /// must be thread-safe without serializing the per-packet path (see
  /// mpit::Runtime's lock-free RecordingPlan).
  virtual int on_send_record(const PktInfo& /*pkt*/, int /*caller_world*/) {
    return 0;
  }
  /// After a send charged its costs, on the sender's thread, no engine lock
  /// held. `t0` is the sender's clock at injection, `tx_start` when the wire
  /// transfer began (>= t0 under NIC contention), `arrival` when the packet
  /// reaches the receiver (< 0 for a transmission the fault plan lost), `t1`
  /// the sender's clock after the send completed locally.
  virtual void on_send(int /*rank*/, const PktInfo& /*pkt*/, double /*t0*/,
                       double /*tx_start*/, double /*arrival*/,
                       double /*t1*/) {}
  /// At receive completion, on the receiver's thread WITH the receiver's
  /// inbox mutex held: never take a lock a clock-advancing path also takes.
  /// `pre` is the receiver's clock when it matched, `arrival` the packet
  /// arrival time, `t1` the completion clock (max(pre, arrival) +
  /// kRecvOverheadS).
  virtual void on_recv(int /*rank*/, const PktInfo& /*pkt*/, double /*pre*/,
                       double /*arrival*/, double /*t1*/) {}
  /// On the rank's thread, no engine lock held, whenever its clock crosses
  /// a boundary of the epoch grid, and once more at rank exit with
  /// final_flush = true (crash teardown included, so a crashed rank's last
  /// partial epoch is still flushed).
  virtual void on_epoch(int /*rank*/, double /*now_s*/,
                        bool /*final_flush*/) {}
  /// Epoch grid width this observer wants when armed for kEpoch (> 0). The
  /// engine reads it at run begin and uses the narrowest armed width.
  virtual double epoch_s() const { return 0.0; }
  /// On the thread calling Engine::run, after the per-run resets and before
  /// any rank context exists: a quiescent point, no packet event in flight.
  virtual void on_run_begin() {}
  /// On the thread calling Engine::run, after every rank context finished
  /// and BEFORE a recorded rank failure is rethrown, so exporters keep
  /// everything flushed up to the failure.
  virtual void on_run_end() {}

 private:
  friend class Engine;
  std::atomic<unsigned> armed_{0};  ///< Event bits, written by Engine::arm
};

/// Per-communicator error-handling mode, the MPI_ERRORS_ARE_FATAL /
/// MPI_ERRORS_RETURN analog. Under `fatal` (the default) an operation that
/// depends on a crashed rank records the error and tears the whole run
/// down; under `ret` it throws a typed RankFailedError/TimeoutError that
/// the calling layer may catch and turn into a degraded result.
enum class ErrMode { fatal, ret };

/// Rank execution backend. `threads` spawns one OS thread per rank;
/// `fibers` runs every rank as a stackful fiber of the calling thread,
/// switched cooperatively at the engine's blocking points (inbox
/// waits, timed receives, NIC-gate waits) and dispatched from a min-heap
/// ready queue keyed by virtual time. Virtual clocks are bit-identical
/// across the two backends; fibers exist so world size stops being bounded
/// by what the OS scheduler tolerates.
enum class SchedMode { threads, fibers };

const char* sched_mode_name(SchedMode mode);

enum class BcastAlgo { binomial, linear };
enum class ReduceAlgo { binary_tree, binomial, linear };
enum class AllreduceAlgo { recursive_doubling, reduce_bcast };
enum class AllgatherAlgo { ring, bruck };
enum class GatherAlgo { binomial, linear };
enum class BarrierAlgo { dissemination, tree };

/// Per-collective algorithm selection. Defaults match the paper's Fig. 5
/// captions: binomial-tree broadcast, binary-tree reduce. Alltoall has one
/// algorithm (pairwise exchange) and no selector.
struct CollAlgos {
  BcastAlgo bcast = BcastAlgo::binomial;
  ReduceAlgo reduce = ReduceAlgo::binary_tree;
  AllreduceAlgo allreduce = AllreduceAlgo::recursive_doubling;
  AllgatherAlgo allgather = AllgatherAlgo::ring;
  GatherAlgo gather = GatherAlgo::binomial;
  BarrierAlgo barrier = BarrierAlgo::dissemination;
};

/// Receiver-side per-message software overhead (virtual seconds).
inline constexpr double kRecvOverheadS = 2.0e-7;
/// Virtual cost charged to the sender per monitoring record made while at
/// least one session is active; reproduces the paper's Fig. 4 "monitoring
/// on vs off" contrast (< 5 us in the worst case there).
inline constexpr double kMonitorEventCostS = 4.0e-8;

/// Engine configuration. The fabric is chosen by cost_model (or the
/// strict-parsed MPIM_TOPO environment variable, see topo::parse_fabric_spec:
/// a valid spec replaces the cost model with CostModel::for_fabric sized to
/// hold the placement, keeping the placement when it still fits and falling
/// back to round-robin otherwise; garbage is rejected with a logged warning).
struct EngineConfig {
  net::CostModel cost_model;
  /// world rank -> processing unit; size defines the world size.
  topo::Placement placement;
  CollAlgos coll{};
  /// Virtual seconds per floating-point operation (Ctx::compute_flops).
  double flop_time_s = 5.0e-10;  // ~2 GFlop/s per core
  /// Optional OS-noise model: every send additionally costs a uniform
  /// 0..os_noise_s drawn from a per-rank deterministic stream seeded with
  /// (rank, run number). Default off: fully deterministic clocks. The
  /// Fig. 4 overhead experiment turns it on so its Welch confidence
  /// intervals have real spread to work against.
  double os_noise_s = 0.0;
  /// NIC contention model. When enabled, every inter-node message reserves
  /// busy time on the sending node's tx port and the receiving node's rx
  /// port (at the inter-node link bandwidth), so concurrent flows through
  /// one NIC serialize -- the effect that makes rank reordering pay off in
  /// the paper's Figures 5-7. To keep results deterministic, inter-node
  /// sends are globally ordered by (virtual clock, rank): a sender
  /// proceeds only when no other live, unblocked rank could still issue an
  /// earlier send (conservative min-clock gate). Off by default: without
  /// it the engine is embarrassingly parallel and clocks depend only on
  /// per-message costs.
  bool nic_contention = false;
  /// Ratio of the NIC port's wire rate to the single-flow effective
  /// bandwidth of the cost model (an Omni-Path port moves ~12.5 GB/s while
  /// one flow sustains ~6 GB/s end to end). Port busy periods are
  /// bytes / (beta * this); 1.0 means the port is no faster than a flow.
  double nic_port_beta_scale = 1.0;
  /// Wall-clock watchdog: if every live rank stays blocked this long with
  /// no delivery progress, declare a deadlock in the simulated program.
  /// The effective timeout is scaled with the world size (big worlds make
  /// slower wall-clock progress on an oversubscribed host) and can be
  /// overridden with the MPIM_WATCHDOG_S environment variable.
  double watchdog_wall_timeout_s = 20.0;
  /// Rank execution backend (see SchedMode). Overridable per run with the
  /// strict-parsed MPIM_SCHED=threads|fibers environment variable; invalid
  /// values are rejected with a logged warning and this field stands.
  /// Threads remain the default until fiber parity is proven on a
  /// workload-by-workload basis; every suite workload is already
  /// bit-identical across the two (tests/sched_test.cpp).
  SchedMode sched = SchedMode::threads;
  /// Optional deterministic fault plan (src/fault/fault_plan.h). When set,
  /// the engine consults it on every send and at every operation boundary:
  /// link jitter/drops/degradation shape message timing, rank crashes
  /// terminate rank threads at their virtual crash time, and peers blocked
  /// on a dead rank fail with RankFailedError instead of deadlocking.
  std::shared_ptr<fault::FaultPlan> fault_plan = nullptr;
};

class Ctx;
class FiberSched;

class Engine {
 public:
  explicit Engine(EngineConfig cfg);
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  int world_size() const { return static_cast<int>(cfg_.placement.size()); }
  const EngineConfig& config() const { return cfg_; }
  const net::CostModel& cost_model() const { return cfg_.cost_model; }
  const topo::Topology& topology() const {
    return cfg_.cost_model.topology();
  }
  const topo::Fabric& fabric() const { return cfg_.cost_model.fabric(); }
  net::NicCounters& nic() { return nic_; }
  Comm world_comm() const { return world_comm_; }

  /// Host-side telemetry (metrics + spans). Disabled by default; enabling
  /// it never charges virtual time, so simulated clocks are unaffected.
  telemetry::Hub& telemetry() { return hub_; }
  const telemetry::Hub& telemetry() const { return hub_; }

  // --- observer registry (see EngineObserver) -------------------------------
  // Attach and detach only between runs: rank threads walk the registry
  // without a lock. Arming may happen at any time, from any thread.

  /// Registers a caller-owned observer with `events` (EngineObserver event
  /// bits) armed. Detach it before destroying it.
  void attach(EngineObserver& obs, unsigned events);
  /// Registers an engine-owned observer: it stays alive until detach or
  /// engine destruction, across run() calls.
  void attach(std::shared_ptr<EngineObserver> obs, unsigned events);
  void detach(EngineObserver& obs);
  /// Replaces `obs`'s armed event set. Rank threads observe their own
  /// arm/disarm in program order, which is what clock determinism needs;
  /// other threads may act on a stale set for a while, so an observer must
  /// tolerate events it has just disarmed.
  void arm(EngineObserver& obs, unsigned events);
  /// True when any attached observer armed one of `events`.
  bool armed(unsigned events) const {
    return (armed_.load(std::memory_order_relaxed) & events) != 0;
  }
  /// The first attached observer of dynamic type T, or nullptr.
  template <typename T>
  T* find_observer() const {
    for (const Attached& a : observers_)
      if (auto* t = dynamic_cast<T*>(a.obs)) return t;
    return nullptr;
  }

  /// Runs `rank_main` once per rank -- on one OS thread per rank, or as
  /// cooperatively scheduled fibers of the calling thread, per the
  /// resolved SchedMode -- waits for every rank to finish, and rethrows
  /// the first exception any rank raised.
  void run(const std::function<void(Ctx&)>& rank_main);

  /// Backend the current/last run() resolved (config + MPIM_SCHED).
  SchedMode sched_mode() const { return run_sched_mode_; }

  /// Highest virtual clock reached by any rank during the last run().
  double max_virtual_time() const { return max_virtual_time_; }
  /// Per-rank final clocks of the last run().
  const std::vector<double>& final_clocks() const { return final_clocks_; }

  /// Error-handling mode of a communicator (default ErrMode::fatal).
  /// Collective by convention: every member should set the same mode.
  void set_errmode(const Comm& comm, ErrMode mode);
  ErrMode errmode(const Comm& comm) const;

  /// Rank-failure observation (FaultPlan crashes). Valid during and after
  /// run(); cleared when the next run starts.
  bool rank_dead(int world_rank) const;
  /// Virtual clock at which the rank crashed (meaningless unless dead).
  double dead_time(int world_rank) const;
  /// World ranks that crashed during the last/current run, ascending.
  std::vector<int> dead_ranks() const;

  /// The watchdog timeout actually used: MPIM_WATCHDOG_S when set in the
  /// environment (invalid values are rejected with a logged warning), else
  /// watchdog_wall_timeout_s scaled by world size.
  double effective_watchdog_s() const;

  /// ULFM-style revocation (see minimpi/ft.h). Marks the communicator
  /// unusable engine-wide: member ranks blocked in or entering non-tool
  /// operations on it raise CommRevokedError (honoring the communicator's
  /// errmode). Tool-kind traffic is exempt so the monitoring plane and the
  /// recovery protocols (shrink/agree) keep working on a revoked comm.
  /// Revocation observation is wall-clock racy by nature; clock
  /// determinism on a revoked communicator is deliberately given up (the
  /// escape hatch trades reproducibility for liveness) and resumes on the
  /// shrunk successor. State is cleared when the next run() starts.
  void revoke_comm(const Comm& comm);
  bool comm_revoked(const Comm& comm) const;

  /// Records `err` as the run's failure, tears every rank down and throws
  /// AbortError on the calling thread (run() rethrows `err`). The
  /// fatal-errmode failure path.
  [[noreturn]] void fail_run(std::exception_ptr err);

  /// Deterministic communicator interning: all ranks deriving a child
  /// communicator compute the same key and receive the same impl.
  Comm intern_comm(const std::string& key, std::vector<int> world_group);

  /// Interning for tool-layer shared state (e.g. RMA windows): the first
  /// rank to present `key` runs `factory`, everyone else gets the same
  /// object. The registry is cleared at the start of each run().
  std::shared_ptr<void> get_or_create_tool_object(
      const std::string& key,
      const std::function<std::shared_ptr<void>()>& factory);

 private:
  friend class Ctx;

  struct Attached {
    EngineObserver* obs;
    std::shared_ptr<EngineObserver> owned;  ///< null when caller-owned
  };

  /// Calls fn(observer) for every observer armed for `event`, in attach
  /// order. Disarmed engine-wide, this is one relaxed load.
  template <typename Fn>
  void notify(unsigned event, Fn&& fn) {
    if (!armed(event)) return;
    for (const Attached& a : observers_)
      if ((a.obs->armed_.load(std::memory_order_relaxed) & event) != 0)
        fn(*a.obs);
  }
  /// Requires observers_mx_ held: re-derives armed_ from the registry.
  void rearm_locked();

  struct InFlight {
    PktInfo info;
    double arrival_s = 0.0;
    /// Null for timing-only messages and for messages deliver() already
    /// copied into the posted receive's buffer.
    std::unique_ptr<std::byte[]> payload;
  };

  /// The receive a rank is blocked in, published for deliver(): the first
  /// delivery that matches it is exactly the message that receive takes
  /// next (its inbox held no match when it posted), so a payload that fits
  /// is copied straight into `buf` instead of into a fresh allocation.
  /// `buf` is null when nothing is posted.
  struct PostedRecv {
    void* buf = nullptr;
    std::size_t capacity = 0;
    int src_world = kAnySource;
    int tag = 0;
    int context_id = -1;
    CommKind kind = CommKind::p2p;
  };

  struct RankState {
    std::mutex mutex;
    std::condition_variable cv;
    std::deque<InFlight> inbox;
    PostedRecv posted;  ///< guarded by mutex, like the inbox
  };

  RankState& rank_state(int world_rank) {
    return *ranks_[static_cast<std::size_t>(world_rank)];
  }

 public:
  /// What a rank is blocked in, for the structured deadlock report. Kept in
  /// a table guarded by its own mutex (never held while sleeping) so any
  /// rank can snapshot all peers without lock-ordering hazards.
  struct PendingOp {
    enum class What : std::uint8_t { none, recv, exited, crashed };
    What what = What::none;
    int src_world = kAnySource;
    int tag = 0;
    CommKind kind = CommKind::p2p;
    int context_id = -1;
    double clock_s = 0.0;
  };
  void set_pending(int rank, const PendingOp& op);
  void clear_pending(int rank, PendingOp::What terminal = PendingOp::What::none);
  /// Multi-line report naming every rank, its pending operation and its
  /// virtual clock; `reporter` is the rank whose watchdog fired.
  std::string deadlock_report(int reporter) const;

 private:
  friend class Ctx;

  /// Enqueues `msg` in its destination's inbox. `buf` is the sender's
  /// payload (null for timing-only traffic): it lands in the destination's
  /// posted receive when that receive matches and has room, and is copied
  /// into msg.payload otherwise.
  void deliver(InFlight msg, const void* buf);
  void record_error(std::exception_ptr err);
  void abort_all();
  /// Per-rank prologue/workload/epilogue shared by both backends: runs on
  /// the rank's own thread in thread mode, inside the rank's fiber in
  /// fiber mode.
  void rank_body(int r, const std::function<void(Ctx&)>& rank_main);
  void run_threads(const std::function<void(Ctx&)>& rank_main);
  void run_fibers(const std::function<void(Ctx&)>& rank_main);
  /// cfg_.sched unless a valid MPIM_SCHED overrides it (strict-parsed;
  /// garbage is rejected with a logged warning).
  SchedMode resolve_sched_mode() const;
  /// Marks a rank dead at virtual time `when` and wakes every blocked rank
  /// (the failure notification broadcast).
  void mark_dead(int world_rank, double when_s);

  // --- deterministic NIC-contention scheduler (cfg_.nic_contention) ------
  struct Sched {
    // `pending` marks a blocked rank that already has an unexamined
    // delivery: it may wake and send as early as that delivery's arrival,
    // so it re-enters the min-clock computation with that bound until its
    // thread either matches (-> running) or rejects the message
    // (-> blocked again).
    enum class St : std::uint8_t { running, gate, blocked, pending, done };
    struct Entry {
      double clock = 0.0;  ///< lower bound of the rank's next send time
      St st = St::running;
    };
    std::mutex mx;
    std::vector<Entry> entries;
    std::vector<std::unique_ptr<std::condition_variable>> cvs;
    /// Arg-min (clock, rank) over the running/gate/pending entries; its
    /// root is the rank allowed to send next.
    MinClockTree tree;
  };

  /// Requires sched_.mx held: updates one entry, replays its path in the
  /// min-clock tree (O(log np)) and wakes the new minimum if it is waiting
  /// at the gate.
  void sched_update_locked(int rank, Sched::St st, double clock);

  Sched sched_;
  /// Per-fabric-link busy horizon (virtual seconds). On a tree fabric the
  /// links are per-node tx ports [0, N) and rx ports [N, 2N), reproducing
  /// the historical NIC-port reservations bit for bit; routed fabrics
  /// reserve every trunk/global link of the route.
  std::vector<double> link_busy_;

  EngineConfig cfg_;
  telemetry::Hub hub_;
  std::vector<Attached> observers_;  ///< attach order
  std::mutex observers_mx_;          ///< serializes registry writes and arm()
  std::atomic<unsigned> armed_{0};   ///< union of every observer's armed set
  double epoch_period_s_ = 0.0;      ///< resolved per run; 0 = no epoch grid
  net::NicCounters nic_;
  Comm world_comm_;
  std::vector<std::unique_ptr<RankState>> ranks_;

  std::mutex comm_mutex_;
  std::unordered_map<std::string, Comm> comm_registry_;
  int next_context_id_ = 1;  // 0 is the world communicator

  std::mutex tool_objects_mutex_;
  std::unordered_map<std::string, std::shared_ptr<void>> tool_objects_;

  mutable std::mutex errmode_mutex_;
  std::unordered_map<int, ErrMode> errmodes_;  ///< context id -> mode

  mutable std::mutex revoke_mutex_;
  std::unordered_set<int> revoked_;      ///< revoked context ids
  std::atomic<int> revoked_count_{0};    ///< fast path: 0 = nothing revoked

  mutable std::mutex fail_mutex_;
  std::vector<double> dead_at_;  ///< crash clock per rank; < 0 when alive
  std::atomic<int> dead_count_{0};

  mutable std::mutex pending_mutex_;
  std::vector<PendingOp> pending_;

  double watchdog_s_ = 20.0;  ///< resolved once per run()

  std::atomic<bool> abort_{false};
  std::atomic<int> blocked_{0};
  std::atomic<int> alive_{0};
  std::atomic<std::uint64_t> deliveries_{0};

  std::mutex error_mutex_;
  std::exception_ptr first_error_;

  double max_virtual_time_ = 0.0;
  std::vector<double> final_clocks_;
  std::uint64_t run_count_ = 0;

  SchedMode run_sched_mode_ = SchedMode::threads;
  /// Non-null exactly while a fiber-mode run() is inside the scheduler;
  /// wake paths (deliver, crash/revoke broadcast, NIC-gate hand-off,
  /// abort) consult it instead of the condition variables.
  std::unique_ptr<FiberSched> fiber_;
  /// Per-rank live Ctx registry for the scheduler-owned current-context
  /// pointer: the fiber dispatcher repoints the executing-context slot
  /// from it at every switch (thread mode writes each slot from the
  /// owning rank thread only).
  std::vector<Ctx*> run_ctx_;
};

/// Thrown inside rank threads when another rank failed and the run is being
/// torn down; run() reports the original error instead.
class AbortError : public Error {
 public:
  AbortError() : Error("engine run aborted") {}
};

/// Internal control-flow exception: a FaultPlan crash terminates the rank
/// thread without aborting the run. Deliberately not derived from Error so
/// application catch(Error&) handlers cannot keep a dead rank alive.
struct RankCrashExit {
  double crash_time_s = 0.0;
};

/// Per-rank execution context. Created by Engine::run for each rank thread;
/// also reachable as Ctx::current() for the MPI-style free functions.
class Ctx {
 public:
  int world_rank() const { return world_rank_; }
  double now() const { return clock_; }
  Engine& engine() { return *engine_; }
  const Engine& engine() const { return *engine_; }
  Comm world() const { return engine_->world_comm(); }

  /// Advances the virtual clock (models computation or sleeping).
  void advance(double seconds);
  /// Advances the clock by flops * flop_time.
  void compute_flops(double flops);

  /// Transport used by api.cpp and the collective algorithms. `src_world`
  /// may be kAnySource. Buffers may be null for timing-only traffic.
  void send_bytes(int dst_world, const Comm& comm, int tag, CommKind kind,
                  const void* buf, std::size_t bytes);
  Status recv_bytes(int src_world, const Comm& comm, int tag, CommKind kind,
                    void* buf, std::size_t capacity);
  /// Non-blocking matching attempt; on success behaves exactly like
  /// recv_bytes. No clock charge on failure.
  bool try_recv_bytes(int src_world, const Comm& comm, int tag, CommKind kind,
                      void* buf, std::size_t capacity, Status* status);
  /// Failure-aware bounded receive: gives up after `wall_timeout_s` of host
  /// time with no match (RecvWait::timeout; +inf never does) and returns
  /// promptly when a specific source rank is dead (RecvWait::peer_dead,
  /// clock advanced to the crash time). Never throws typed failures itself
  /// -- callers choose between degrading and raising, as recv_bytes does.
  enum class RecvWait { ok, timeout, peer_dead };
  RecvWait recv_bytes_wait(int src_world, const Comm& comm, int tag,
                           CommKind kind, void* buf, std::size_t capacity,
                           Status* status, double wall_timeout_s);
  /// Non-consuming, non-blocking probe.
  bool iprobe_bytes(int src_world, const Comm& comm, int tag, CommKind kind,
                    Status* status);

  /// One-sided transfer: charges the calling rank the modeled transfer
  /// time, offers the traffic to the send-record observers attributed to
  /// `from_world` (for a get, the target transmits), and feeds the NIC
  /// counters. No mailbox delivery: RMA moves data via shared memory.
  void rma_transfer(int from_world, int to_world, const Comm& comm,
                    std::size_t bytes);

  // --- ULFM-style failure acknowledgement (see minimpi/ft.h) -------------
  /// Snapshots the engine's currently-detected failures among `comm`'s
  /// members into this rank's acked set; returns how many members are now
  /// acked. Deterministic when called after an operation that observed the
  /// failure (a recv that raised RankFailedError, comm_shrink, comm_agree):
  /// the observing operation happens-after the crash mark.
  int ack_failures(const Comm& comm);
  /// Group ranks acked as failed for `comm`, ascending.
  std::vector<int> acked_failures(const Comm& comm) const;
  /// True when world rank `world_rank` has been acked as failed for `comm`.
  bool failure_acked(const Comm& comm, int world_rank) const;
  /// Merges a group-rank failure bitmap into the acked set (comm_shrink's
  /// agreed dead set, which may run ahead of local detection).
  void ack_failure_bitmap(const Comm& comm,
                          const std::vector<std::uint8_t>& dead_by_group);

  /// Collective sequence number for a communicator: identical across all
  /// member ranks because collectives execute in the same order on each.
  std::uint32_t next_coll_seq(const Comm& comm);
  /// Sequence for communicator-management epochs (split/dup).
  std::uint32_t next_mgmt_seq(const Comm& comm);

  /// The context of the calling rank thread; fails outside Engine::run.
  static Ctx& current();

 private:
  friend class Engine;
  Ctx(Engine* engine, int world_rank)
      : engine_(engine), world_rank_(world_rank) {}

  /// The one blocking wait on this rank's inbox, outside the min-clock gate:
  /// true once `ready()` holds, false if the wall `deadline` passes first.
  /// Only an untimed wait counts in Engine::blocked_ for the watchdog.
  template <typename Pred>
  bool wait_on_inbox(std::unique_lock<std::mutex>& lock, Pred&& ready,
                     std::chrono::steady_clock::time_point deadline);

  /// Consults the fault plan at an operation boundary: applies one-shot
  /// stalls and terminates the rank (RankCrashExit) past its crash time.
  void fault_check();

  /// Epoch gate: one double compare when the clock has not crossed the
  /// next epoch boundary (or no observer armed kEpoch:
  /// next_epoch_s_ = +inf). Called at clock-advancing sites; never charges
  /// virtual time itself.
  void epoch_check() {
    if (clock_ >= next_epoch_s_) epoch_cross();
  }
  /// Slow path of epoch_check: notifies the observers and re-arms the
  /// boundary.
  void epoch_cross();
  /// Offers `info` to the send-record observers and charges the records
  /// they made as monitoring overhead.
  void record_send(const PktInfo& info);
  /// Raises the failure for an operation whose peer rank is dead: fatal
  /// errmode tears the run down, ret mode throws RankFailedError. `op`
  /// names the operation for the message ("recv", "send", ...).
  [[noreturn]] void raise_peer_dead(int peer_world, const Comm& comm, int tag,
                                    const char* op = "recv");
  /// Raises CommRevokedError for an operation on a revoked communicator,
  /// honoring the communicator's errmode like raise_peer_dead.
  [[noreturn]] void raise_revoked(const Comm& comm, const char* op);

  /// NIC-contention path of an inter-node transfer: waits at the min-clock
  /// gate, reserves the tx/rx ports and returns the arrival time (out
  /// param: actual transmission start >= current clock).
  double contended_transfer(int leaf_src, int leaf_dst, double tx_s,
                            double alpha_s, double* tx_start);

  bool match_and_complete(int src_world, const Comm& comm, int tag,
                          CommKind kind, void* buf, std::size_t capacity,
                          Status* status);

  Engine* engine_;
  int world_rank_;
  double clock_ = 0.0;
  /// Next epoch boundary the clock has not crossed yet; +inf when no
  /// observer armed kEpoch (set up by Engine::run per rank thread).
  double next_epoch_s_ = std::numeric_limits<double>::infinity();
  Rng noise_rng_{0};
  /// Monotone per-sender packet counter backing PktInfo::send_seq. Host
  /// bookkeeping only: stamping it charges no virtual time.
  std::uint64_t send_seq_ = 0;
  std::unordered_map<int, std::uint32_t> coll_seq_;
  std::unordered_map<int, std::uint32_t> mgmt_seq_;
  /// context id -> group-rank bitmap of acked failures (rank-local state,
  /// touched only by this rank's thread).
  std::unordered_map<int, std::vector<std::uint8_t>> ft_acked_;
};

}  // namespace mpim::mpi
