// MPI_T-like tool runtime: pvar sessions and handles.
//
// One Runtime attaches to one Engine as its send-record observer (the
// pml_monitoring interposition point) and owns, per rank, the pvar
// sessions and the handles bound to communicators. A started handle
// accumulates, per peer of its communicator, the count or cumulated size of
// every message of its traffic class whose *sender* is the owning rank --
// including messages that travelled over a different communicator, as long
// as both endpoints belong to the bound one (the paper's Section 4.1
// even/odd example).
//
// Recording fast path (see docs/PERF.md). The per-packet side is lock-free:
// control-plane operations compile, per rank, an immutable RecordingPlan --
// flat per-traffic-class entry arrays of {dense world->group table, slot
// pointers, record weight} plus the attached packet observers -- and publish
// it RCU-style with a release store into an atomic pointer. on_send_record
// does one acquire load, returns on an empty (null) plan, and otherwise
// walks only the entries of the packet's traffic class: one indexed table
// load, two slot increments, no locks, no hash lookups, no virtual calls.
// Handles that bind the same (communicator, class) pair share one
// accumulator block, so a packet costs the same whether one or sixteen
// overlapping sessions watch it; each handle keeps its private view via a
// bias vector updated at start/stop/reset (value = bias + shared
// accumulator while started).
// Accumulator slots are split into a plain array written only by the owning
// rank's thread and an atomic array for RMA traffic attributed from peer
// threads (the on_send_record contract in minimpi/engine.h). Writers rebuild
// and swap under the per-rank control mutex and retire the old plan to a
// graveyard reclaimed at engine-quiescent points (run begin, Runtime
// destruction), the grace period that keeps readers safe without per-packet
// fences.
#pragma once

#include <array>
#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "minimpi/comm.h"
#include "minimpi/engine.h"
#include "mpit/pvar.h"

namespace mpim::mpit {

class Runtime final : public mpi::EngineObserver {
 public:
  /// Attaches to `engine`; must be constructed before Engine::run.
  explicit Runtime(mpi::Engine& engine);
  ~Runtime() override;

  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  /// The runtime attached to an engine; throws MpitError when absent.
  static Runtime& of(mpi::Engine& engine);

  mpi::Engine& engine() { return engine_; }

  // All calls below act on the state of the *calling rank* (Ctx::current())
  // like MPI_T, which is process-local.

  /// MPI_T_pvar_session_create.
  int session_create();
  void session_free(int session);

  /// MPI_T_pvar_handle_alloc: binds pvar `pvar_index` to `comm`; the
  /// value is an array with one slot per communicator peer.
  int handle_alloc(int session, int pvar_index, const mpi::Comm& comm);
  void handle_free(int session, int handle);

  void handle_start(int session, int handle);
  void handle_stop(int session, int handle);
  /// Copies the per-peer values; `capacity` is the element count of `out`.
  /// Returns the number of values written (= comm size).
  int handle_read(int session, int handle, unsigned long* out, int capacity);
  void handle_reset(int session, int handle);
  /// Overwrites a *stopped* peer-monitoring handle's per-peer values.
  /// The session-rebind seeding primitive: history accumulated on a dying
  /// communicator is carried onto a fresh handle bound to its successor
  /// before the first start. `count` must equal the handle's value count.
  void handle_write(int session, int handle, const unsigned long* values,
                    int count);

  /// Number of values of a handle (= size of the bound communicator).
  int handle_count(int session, int handle);

  /// Per-event listeners (trace tools): called on the sending thread for
  /// every monitored packet, before the pvar accounting and without any
  /// lock (a listener must be thread-safe; RMA attribution may invoke it
  /// from a peer's thread). Install before Engine::run; listeners cannot
  /// be removed (disable inside instead). When none are registered the
  /// per-packet path pays no indirect call at all.
  using EventListener = std::function<void(const mpi::PktInfo&)>;
  void add_event_listener(EventListener listener);

  /// Per-session packet observer (the snapshot sampler's hook): called on
  /// the sending thread for every monitored packet of the calling rank
  /// while `session` lives, serialized under the observer's own mutex (not
  /// the control mutex). Unlike the pvar handles, an observation is NOT
  /// counted in the send record's count, so it never charges the monitoring
  /// overhead cost model -- virtual clocks stay bit-identical with or
  /// without an observer. Pass nullptr to detach; a peer thread mid-call
  /// through a retired plan may deliver one final observation after the
  /// detach returns (the closure must tolerate that, and the closure's
  /// captures stay alive until the next grace period).
  using PktObserver = std::function<void(const mpi::PktInfo&)>;
  void set_session_observer(int session, PktObserver observer);

 private:
  /// Shared accumulation storage for every handle binding one
  /// (communicator, traffic class) pair of one rank: `group_size` message
  /// counters and as many byte counters, carved out of a single
  /// cache-line-aligned allocation so no two ranks' slots share a line.
  /// The `own_*` half is written only by the owning rank's thread (plain
  /// stores); the `foreign_*` half takes relaxed fetch_adds from peer
  /// threads recording RMA traffic attributed to this rank. A slot's
  /// logical value is the sum of both halves.
  struct AccBlock {
    explicit AccBlock(int group_size);
    ~AccBlock();
    AccBlock(const AccBlock&) = delete;
    AccBlock& operator=(const AccBlock&) = delete;

    unsigned long read(bool is_size, int slot) const {
      const unsigned long own = is_size ? own_sizes[slot] : own_counts[slot];
      const auto& foreign = is_size ? foreign_sizes[slot] : foreign_counts[slot];
      return own + foreign.load(std::memory_order_relaxed);
    }

    int n = 0;
    unsigned long* own_counts = nullptr;
    unsigned long* own_sizes = nullptr;
    std::atomic<unsigned long>* foreign_counts = nullptr;
    std::atomic<unsigned long>* foreign_sizes = nullptr;

   private:
    void* raw_ = nullptr;
  };

  /// An attached packet observer. The slot (not the Runtime) carries the
  /// mutex so a retired plan can still deliver safely from a peer thread
  /// while the control plane swaps in a replacement.
  struct ObserverSlot {
    std::mutex mutex;
    PktObserver fn;
  };

  /// Immutable compiled form of one rank's recording state. Published via
  /// RankState::plan (release store / acquire load); never mutated after
  /// publication. Holds shared_ptr keepalives for everything its raw
  /// pointers reference, so a reader that loaded the plan before a swap
  /// stays safe until the grace-period reclamation.
  struct RecordingPlan {
    struct Entry {
      const int* world_to_group;  ///< dense, world-sized, -1 = non-member
      unsigned long* own_counts;
      unsigned long* own_sizes;
      std::atomic<unsigned long>* foreign_counts;
      std::atomic<unsigned long>* foreign_sizes;
      /// Started handles fused into this entry: the per-packet record
      /// count (and thus the engine's monitoring-overhead charge) is
      /// identical to scanning those handles one by one.
      int weight;
    };
    /// Indexed by CommKind p2p/coll/osc.
    std::array<std::vector<Entry>, 3> by_kind;
    std::vector<std::shared_ptr<ObserverSlot>> observers;
    std::vector<std::shared_ptr<AccBlock>> acc_refs;
    std::vector<mpi::Comm> comm_refs;
  };

  struct Handle {
    mpi::Comm comm;
    mpi::CommKind kind = mpi::CommKind::p2p;
    bool is_size = false;
    bool started = false;
    bool freed = false;
    /// Telemetry-class pvar: id of the backing registry metric (-1 for the
    /// peer-monitoring pvars). Such a handle has exactly one value -- the
    /// calling rank's merged scalar -- and values[0] holds the reset
    /// baseline subtracted on read.
    int telemetry_metric = -1;
    /// Accumulator shared with every other handle on the same
    /// (communicator, class); null for telemetry handles.
    std::shared_ptr<AccBlock> acc;
    /// Telemetry: the reset baseline. Peer-monitoring: the per-peer bias
    /// making the shared accumulator private to this handle -- the value
    /// read out is values[i] (+ acc while started); start subtracts the
    /// accumulator level, stop adds it back, so only traffic inside this
    /// handle's started windows is visible.
    std::vector<unsigned long> values;
  };
  struct Session {
    bool freed = false;
    std::vector<Handle> handles;
    std::shared_ptr<ObserverSlot> observer;  ///< null when none attached
  };
  /// Interning table for accumulator blocks, keyed by communicator
  /// identity + traffic class. Expired entries are pruned on allocation.
  struct AccKey {
    int context_id;
    mpi::CommKind kind;
    std::weak_ptr<AccBlock> block;
  };
  struct RankState {
    int rank = -1;
    std::mutex mutex;  ///< control plane only: the fast path never locks
    std::vector<Session> sessions;
    std::vector<AccKey> acc_registry;
    /// The published plan; null when this rank records nothing. Storage is
    /// owned by plan_owner / retired below, never by readers.
    std::atomic<const RecordingPlan*> plan{nullptr};
    std::unique_ptr<const RecordingPlan> plan_owner;
    /// Retired plans awaiting the grace period (engine quiescence). Plans
    /// are small -- slot storage is shared across versions -- so the
    /// graveyard grows O(control-plane ops) within a run.
    std::vector<std::unique_ptr<const RecordingPlan>> retired;
  };

  /// Returns the number of records made (overhead model).
  int on_send_record(const mpi::PktInfo& pkt, int caller_world) override;
  /// Engine quiescence: the grace period that reclaims retired plans.
  void on_run_begin() override { reclaim_retired(); }

  /// Recompiles and publishes rs's plan. Caller holds rs.mutex.
  void rebuild_plan(RankState& rs);
  /// Re-arms the send record from the nonempty-plan count and the listener
  /// list (serialized so the final state always reflects the latest
  /// transitions).
  void update_armed();
  /// Frees every retired plan; only called when no rank threads run.
  void reclaim_retired();

  std::shared_ptr<AccBlock> intern_acc(RankState& rs, const mpi::Comm& comm,
                                       mpi::CommKind kind);

  Handle& resolve(RankState& rs, int session, int handle);
  RankState& my_rank_state();

  mpi::Engine& engine_;
  std::vector<std::unique_ptr<RankState>> ranks_;
  std::vector<EventListener> listeners_;
  std::atomic<int> nonempty_plans_{0};
  std::mutex armed_mutex_;
};

}  // namespace mpim::mpit
