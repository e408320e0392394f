// Concurrent-recording stress: rank threads hammer the send path (including
// cross-thread RMA attribution into a peer's accumulators) while other
// ranks churn the control plane -- session create/free, snapshot observer
// attach/detach -- forcing constant RecordingPlan rebuilds under live
// readers. Built for the tsan preset (label "sanitize-thread"): any missing
// synchronization between a rank's in-place plan rebuilds and a peer
// thread's RMA-attribution read, in the foreign slot fetch_adds, or in the
// observer slots shows up as a data race. The final phases make
// deterministic correctness checks: after a barrier quiesces all cross-rank
// attribution, a fresh session must count this rank's own traffic exactly,
// and a detached observer is never called again.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <memory>
#include <thread>

#include "fault/fault_plan.h"
#include "minimpi/api.h"
#include "minimpi/engine.h"
#include "minimpi/ft.h"
#include "mpimon/mpi_monitoring.h"
#include "mpit/runtime.h"

namespace mpim {
namespace {

using mpi::Comm;
using mpi::Ctx;

TEST(RecordStress, PlanChurnUnderConcurrentTrafficStaysExact) {
  constexpr int kRanks = 8;
  // Sized so the full test stays in the low seconds under TSan on one core
  // while still overlapping thousands of plan reads with rebuilds.
  constexpr int kHammerIters = 1500;
  constexpr int kChurnCycles = 100;
  constexpr unsigned long kFinalIters = 64;

  topo::Topology t({2, 2, 2}, {"node", "socket", "core"});
  std::vector<net::LinkParams> params = {
      {1e-5, 1e8}, {1e-6, 1e9}, {1e-7, 1e10}, {0.0, 1e12}};
  net::CostModel cost(t, params, 1e-7);
  mpi::EngineConfig cfg{.cost_model = cost,
                        .placement = topo::round_robin_placement(kRanks, t)};
  cfg.watchdog_wall_timeout_s = 120.0;
  mpi::Engine engine(std::move(cfg));

  mpit::Runtime tool(engine);
  std::atomic<long> observed{0};
  tool.add_event_listener(
      [&](const mpi::PktInfo&) { observed.fetch_add(1); });

  engine.run([&](Ctx& ctx) {
    const Comm world = ctx.world();
    const int me = ctx.world_rank();
    char buf[8] = {0};
    ASSERT_EQ(MPI_M_init(), MPI_M_SUCCESS);

    if (me % 2 == 0) {
      // Hammer: reads the plan on every send; the rma_transfer attributes
      // traffic to the odd neighbour, writing that rank's foreign slots
      // from this thread while it is rebuilding its plan.
      for (int i = 0; i < kHammerIters; ++i) {
        ctx.send_bytes(me, world, 3, mpi::CommKind::p2p, buf, sizeof buf);
        ctx.recv_bytes(me, world, 3, mpi::CommKind::p2p, buf, sizeof buf);
        ctx.rma_transfer(me + 1, me, world, sizeof buf);
      }
    } else {
      // Churner: every cycle publishes several plans (starts, snapshot
      // observer attach/detach, suspends, frees) while the neighbour's
      // thread races through them.
      for (int c = 0; c < kChurnCycles; ++c) {
        MPI_M_msid a = -1, b = -1;
        ASSERT_EQ(MPI_M_start(world, &a), MPI_M_SUCCESS);
        ASSERT_EQ(MPI_M_start(world, &b), MPI_M_SUCCESS);
        ASSERT_EQ(MPI_M_snapshot_start(a, 1e-3, 4, MPI_M_ALL_COMM),
                  MPI_M_SUCCESS);
        ctx.send_bytes(me, world, 3, mpi::CommKind::p2p, buf, sizeof buf);
        ctx.recv_bytes(me, world, 3, mpi::CommKind::p2p, buf, sizeof buf);
        ASSERT_EQ(MPI_M_snapshot_stop(a), MPI_M_SUCCESS);
        ASSERT_EQ(MPI_M_suspend(a), MPI_M_SUCCESS);
        ASSERT_EQ(MPI_M_free(a), MPI_M_SUCCESS);
        ASSERT_EQ(MPI_M_suspend(b), MPI_M_SUCCESS);
        ASSERT_EQ(MPI_M_free(b), MPI_M_SUCCESS);
      }
    }

    // Quiesce cross-rank attribution, then check exactness: only this
    // rank's own traffic can land in its row from here on.
    mpi::barrier(world);
    MPI_M_msid id = -1;
    ASSERT_EQ(MPI_M_start(world, &id), MPI_M_SUCCESS);
    for (unsigned long i = 0; i < kFinalIters; ++i) {
      ctx.send_bytes(me, world, 5, mpi::CommKind::p2p, buf, sizeof buf);
      ctx.recv_bytes(me, world, 5, mpi::CommKind::p2p, buf, sizeof buf);
      ctx.rma_transfer(me, me, world, sizeof buf);
    }
    ASSERT_EQ(MPI_M_suspend(id), MPI_M_SUCCESS);
    unsigned long counts[kRanks] = {0}, sizes[kRanks] = {0};
    ASSERT_EQ(MPI_M_get_data(id, counts, sizes, MPI_M_ALL_COMM),
              MPI_M_SUCCESS);
    EXPECT_EQ(counts[me], 2 * kFinalIters);
    EXPECT_EQ(sizes[me], 2 * kFinalIters * sizeof buf);
    for (int peer = 0; peer < kRanks; ++peer) {
      if (peer == me) continue;
      EXPECT_EQ(counts[peer], 0u) << "peer " << peer;
    }
    ASSERT_EQ(MPI_M_free(id), MPI_M_SUCCESS);
    MPI_M_finalize();
  });

  // The listener ran concurrently on every rank thread.
  EXPECT_GT(observed.load(), static_cast<long>(kRanks) * kHammerIters / 2);
}

TEST(RecordStress, CrashShrinkAndRebindUnderPlanChurnStaysExact) {
  // Same shape as above -- hammers racing churners -- but rank 7 (an odd
  // churner) crashes mid-run, so the control plane churns right through a
  // failure: the crash must unwind rank 7 out of whatever MPI_M_* call it
  // is in (not zombify it behind an error code), the survivors shrink,
  // rebind a pre-crash session onto the shrunk communicator, and the
  // post-rebind deltas must still count exactly. One run only: under TSan
  // the value is the interleavings, determinism is covered elsewhere.
  constexpr int kRanks = 8;
  constexpr int kHammerIters = 1000;
  constexpr int kChurnCycles = 60;
  constexpr unsigned long kFinalIters = 64;

  topo::Topology t({2, 2, 2}, {"node", "socket", "core"});
  std::vector<net::LinkParams> params = {
      {1e-5, 1e8}, {1e-6, 1e9}, {1e-7, 1e10}, {0.0, 1e12}};
  net::CostModel cost(t, params, 1e-7);
  auto plan = std::make_shared<fault::FaultPlan>(1);
  fault::RankFault crash;
  crash.rank = 7;
  crash.crash_at_s = 1e-4;  // early: dies within its first churn cycles
  plan->add(crash);
  mpi::EngineConfig cfg{.cost_model = cost,
                        .placement = topo::round_robin_placement(kRanks, t)};
  cfg.watchdog_wall_timeout_s = 120.0;
  cfg.fault_plan = std::move(plan);
  mpi::Engine engine(std::move(cfg));
  mpit::Runtime tool(engine);

  engine.run([&](Ctx& ctx) {
    const Comm world = ctx.world();
    mpi::comm_set_errhandler(world, mpi::ErrMode::ret);
    const int me = ctx.world_rank();
    char buf[8] = {0};
    ASSERT_EQ(MPI_M_init(), MPI_M_SUCCESS);
    ASSERT_EQ(MPI_M_set_gather_timeout(0.5), MPI_M_SUCCESS);

    // The session that survives the crash: opened on world before it.
    MPI_M_msid keep = -1;
    ASSERT_EQ(MPI_M_start(world, &keep), MPI_M_SUCCESS);

    if (me % 2 == 0) {
      for (int i = 0; i < kHammerIters; ++i) {
        ctx.send_bytes(me, world, 3, mpi::CommKind::p2p, buf, sizeof buf);
        ctx.recv_bytes(me, world, 3, mpi::CommKind::p2p, buf, sizeof buf);
        // Rank 6 keeps attributing RMA traffic to rank 7 after its death:
        // foreign-slot stores into a dead rank's accumulators must stay
        // race-free, and the undelivered packets are simply never read.
        ctx.rma_transfer(me + 1, me, world, sizeof buf);
      }
    } else {
      // Rank 7 dies inside one of these MPI_M_* calls or self-sends; the
      // RankCrashExit must unwind through the library, so none of the
      // ASSERTs below fire on a crashed rank.
      for (int c = 0; c < kChurnCycles; ++c) {
        MPI_M_msid a = -1;
        ASSERT_EQ(MPI_M_start(world, &a), MPI_M_SUCCESS);
        ASSERT_EQ(MPI_M_snapshot_start(a, 1e-3, 4, MPI_M_ALL_COMM),
                  MPI_M_SUCCESS);
        ctx.send_bytes(me, world, 3, mpi::CommKind::p2p, buf, sizeof buf);
        ctx.recv_bytes(me, world, 3, mpi::CommKind::p2p, buf, sizeof buf);
        ASSERT_EQ(MPI_M_snapshot_stop(a), MPI_M_SUCCESS);
        ASSERT_EQ(MPI_M_suspend(a), MPI_M_SUCCESS);
        ASSERT_EQ(MPI_M_free(a), MPI_M_SUCCESS);
      }
    }

    // No world barrier after the crash -- the shrink IS the sync point
    // (failure-aware exchange instead of a collective over a dead member).
    const Comm alive = comm_shrink(world);
    ASSERT_EQ(alive.size(), kRanks - 1);
    ASSERT_EQ(MPI_M_suspend(keep), MPI_M_SUCCESS);
    ASSERT_EQ(MPI_M_rebind(keep, alive), MPI_M_SUCCESS);

    // Delta-exactness across the rebind: whatever the churn recorded, the
    // carried history plus a deterministic tail must add up exactly.
    unsigned long before[kRanks] = {0};
    ASSERT_EQ(MPI_M_get_data(keep, before, MPI_M_DATA_IGNORE, MPI_M_ALL_COMM),
              MPI_M_SUCCESS);
    ASSERT_EQ(MPI_M_continue(keep), MPI_M_SUCCESS);
    for (unsigned long i = 0; i < kFinalIters; ++i) {
      ctx.send_bytes(me, world, 5, mpi::CommKind::p2p, buf, sizeof buf);
      ctx.recv_bytes(me, world, 5, mpi::CommKind::p2p, buf, sizeof buf);
    }
    ASSERT_EQ(MPI_M_suspend(keep), MPI_M_SUCCESS);
    unsigned long after[kRanks] = {0};
    ASSERT_EQ(MPI_M_get_data(keep, after, MPI_M_DATA_IGNORE, MPI_M_ALL_COMM),
              MPI_M_SUCCESS);
    const int new_me = mpi::comm_rank(alive);
    EXPECT_EQ(after[new_me] - before[new_me], kFinalIters);
    for (int peer = 0; peer < kRanks - 1; ++peer) {
      if (peer == new_me) continue;
      EXPECT_EQ(after[peer], before[peer]) << "peer " << peer;
    }

    // And a full post-rebind gather sees every survivor, no sentinels.
    std::vector<unsigned long> counts(static_cast<std::size_t>(kRanks - 1) *
                                      (kRanks - 1));
    EXPECT_EQ(MPI_M_allgather_data(keep, counts.data(), MPI_M_DATA_IGNORE,
                                   MPI_M_ALL_COMM),
              MPI_M_SUCCESS);
    for (unsigned long v : counts) EXPECT_NE(v, MPI_M_DATA_MISSING);

    ASSERT_EQ(MPI_M_free(keep), MPI_M_SUCCESS);
    MPI_M_finalize();
  });
  EXPECT_TRUE(engine.rank_dead(7));
}

TEST(RecordStress, DetachedObserverIsNeverCalledAgain) {
  // Even ranks attribute RMA traffic to their odd neighbour from their own
  // threads while the neighbour attaches and detaches session observers.
  // Each closure carries its epoch, and the neighbour publishes "detached
  // up to epoch k" only after epoch k's detach returned, so a closure that
  // reads its own epoch there was called after its detach. Odd epochs
  // detach with set_session_observer(nullptr), even ones by session_free.
  constexpr int kRanks = 4;
  constexpr long kEpochs = 200;
  // Bounds that keep the run finite without true concurrency (fibers).
  constexpr long kMaxHammerIters = 200000;
  constexpr int kMaxSpins = 20000;

  topo::Topology t({2, 2, 2}, {"node", "socket", "core"});
  std::vector<net::LinkParams> params = {
      {1e-5, 1e8}, {1e-6, 1e9}, {1e-7, 1e10}, {0.0, 1e12}};
  net::CostModel cost(t, params, 1e-7);
  mpi::EngineConfig cfg{.cost_model = cost,
                        .placement = topo::round_robin_placement(kRanks, t)};
  cfg.watchdog_wall_timeout_s = 120.0;
  mpi::Engine engine(std::move(cfg));
  mpit::Runtime tool(engine);

  std::array<std::atomic<long>, kRanks> detached_upto{};
  std::array<std::atomic<long>, kRanks> calls{};
  std::array<std::atomic<bool>, kRanks> done{};
  std::atomic<long> late_calls{0};

  engine.run([&](Ctx& ctx) {
    const Comm world = ctx.world();
    const int me = ctx.world_rank();
    if (me % 2 == 0) {
      for (long i = 0; i < kMaxHammerIters && !done[me + 1].load(); ++i)
        ctx.rma_transfer(me + 1, me, world, 8);
      return;
    }
    std::atomic<long>* upto = &detached_upto[me];
    std::atomic<long>* seen = &calls[me];
    int sid = tool.session_create();
    for (long epoch = 1; epoch <= kEpochs; ++epoch) {
      const long before = seen->load();
      tool.set_session_observer(
          sid, [upto, seen, epoch, &late_calls](const mpi::PktInfo&) {
            if (upto->load() >= epoch) late_calls.fetch_add(1);
            seen->fetch_add(1);
          });
      // Let the neighbour's attribution reach this epoch's closure, so the
      // detach below races a live caller.
      for (int s = 0; s < kMaxSpins && seen->load() == before; ++s)
        std::this_thread::yield();
      if (epoch % 2 == 1) {
        tool.set_session_observer(sid, nullptr);
      } else {
        tool.session_free(sid);
        sid = tool.session_create();
      }
      upto->store(epoch);
    }
    tool.session_free(sid);
    done[me].store(true);
  });

  EXPECT_EQ(late_calls.load(), 0);
  if (engine.sched_mode() == mpi::SchedMode::threads) {
    for (int r = 1; r < kRanks; r += 2)
      EXPECT_GT(calls[r].load(), 0) << "rank " << r;
  }
}

}  // namespace
}  // namespace mpim
