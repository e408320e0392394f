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
// and a detached observer is never called again. Another races fault-free
// mpimon gathers whose fast ranks run ahead of a slow reader through their
// per-call exchange slots, and the last cycles a running snapshot's local
// calls while a peer attributes RMA traffic into its sampler.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

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
  // Bounds that keep the run finite without true concurrency (fibers). On
  // threads the even rank hammers until its neighbour is done, so a
  // starved neighbour still meets a live caller and calls[r] > 0 holds.
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
      const bool bounded = engine.sched_mode() == mpi::SchedMode::fibers;
      for (long i = 0; (!bounded || i < kMaxHammerIters) &&
                       !done[me + 1].load();
           ++i)
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

TEST(RecordStress, GathersRunningAheadReadOnlyTheirOwnCall) {
  // Fault-free mpimon gathers meet in one exchange slot per call. A
  // rootgather leaf returns after its one send, so with rank-skewed
  // compute under the NIC gate fast ranks publish the rows of the next
  // calls while a slow root still reads this one; a slot reused two calls
  // later (per-rank double buffering) hands that root rows from the wrong
  // call. Every received matrix must hold exactly the rows each
  // contributor read with MPI_M_get_data just before the call, and TSan
  // must see every slot write ordered before its reads.
  constexpr int kRanks = 16;
  constexpr int kRounds = 100;
  constexpr std::size_t n = kRanks;
  constexpr std::size_t nn = n * n;

  auto cost = net::CostModel::plafrim_like(2);
  mpi::EngineConfig cfg{
      .cost_model = cost,
      .placement = topo::round_robin_placement(kRanks, cost.topology())};
  cfg.nic_contention = true;
  cfg.sched = mpi::SchedMode::threads;
  cfg.watchdog_wall_timeout_s = 120.0;
  mpi::Engine engine(std::move(cfg));
  mpit::Runtime tool(engine);

  // rows[k][r]: rank r's [counts | sizes] row before round k's gathers;
  // allgathered[k][r] and rootgathered[k]: [counts | sizes] matrices.
  std::vector<std::vector<std::vector<unsigned long>>> rows(
      kRounds, std::vector<std::vector<unsigned long>>(kRanks)),
      allgathered = rows;
  std::vector<std::vector<unsigned long>> rootgathered(kRounds);

  engine.run([&](Ctx& ctx) {
    const Comm world = ctx.world();
    const int me = ctx.world_rank();
    std::vector<std::byte> buf(4096);
    ASSERT_EQ(MPI_M_init(), MPI_M_SUCCESS);
    MPI_M_msid id = -1;
    ASSERT_EQ(MPI_M_start(world, &id), MPI_M_SUCCESS);
    for (int k = 0; k < kRounds; ++k) {
      // Self traffic of a size that differs per rank and round, so no two
      // calls gather the same rows; only the gathers synchronize ranks.
      const std::size_t bytes = 1 + (static_cast<std::size_t>(me) * 131 +
                                     static_cast<std::size_t>(k) * 17) %
                                        buf.size();
      ctx.send_bytes(me, world, 1, mpi::CommKind::p2p, buf.data(), bytes);
      ctx.recv_bytes(me, world, 1, mpi::CommKind::p2p, buf.data(), bytes);
      mpi::compute(1e-6 * (me % 4));
      ASSERT_EQ(MPI_M_suspend(id), MPI_M_SUCCESS);
      std::vector<unsigned long>& mine = rows[k][me];
      mine.assign(2 * n, 0);
      ASSERT_EQ(MPI_M_get_data(id, mine.data(), mine.data() + n,
                               MPI_M_ALL_COMM),
                MPI_M_SUCCESS);
      const int root = k % kRanks;
      unsigned long* at_root = MPI_M_DATA_IGNORE;
      if (me == root) {
        rootgathered[k].assign(2 * nn, 0);
        at_root = rootgathered[k].data();
      }
      ASSERT_EQ(MPI_M_rootgather_data(id, root, at_root,
                                      me == root ? at_root + nn
                                                 : MPI_M_DATA_IGNORE,
                                      MPI_M_ALL_COMM),
                MPI_M_SUCCESS);
      if (k % 3 == 2) {
        std::vector<unsigned long>& all = allgathered[k][me];
        all.assign(2 * nn, 0);
        ASSERT_EQ(MPI_M_allgather_data(id, all.data(), all.data() + nn,
                                       MPI_M_ALL_COMM),
                  MPI_M_SUCCESS);
      }
      ASSERT_EQ(MPI_M_continue(id), MPI_M_SUCCESS);
    }
    ASSERT_EQ(MPI_M_suspend(id), MPI_M_SUCCESS);
    ASSERT_EQ(MPI_M_free(id), MPI_M_SUCCESS);
    MPI_M_finalize();
  });

  const auto expect_rows = [&](const std::vector<unsigned long>& got, int k,
                               const std::string& what) {
    ASSERT_EQ(got.size(), 2 * nn) << what;
    for (std::size_t r = 0; r < n; ++r) {
      const std::vector<unsigned long>& want = rows[k][r];
      EXPECT_TRUE(std::equal(want.begin(), want.begin() + n,
                             got.begin() + r * n) &&
                  std::equal(want.begin() + n, want.end(),
                             got.begin() + nn + r * n))
          << what << ": row " << r;
    }
  };
  for (int k = 0; k < kRounds; ++k) {
    const std::string round = "round " + std::to_string(k);
    expect_rows(rootgathered[k], k, round + " rootgather");
    if (k % 3 == 2)
      for (int r = 0; r < kRanks; ++r)
        expect_rows(allgathered[k][r], k,
                    round + " allgather at rank " + std::to_string(r));
  }
}

TEST(RecordStress, SnapshotLocalCallsUnderRmaAttributionStayExact) {
  // Odd ranks keep a snapshot running and cycle its local calls --
  // suspend, snapshot_info, reset, continue -- while the even neighbour
  // attributes RMA traffic to them from its own thread. The sampler's
  // observer is attached only while the session is active, so the owner's
  // flush, clear and reads never overlap an observer call (TSan watches).
  // Then, after a barrier and a reset, with only each rank's own traffic,
  // the snapshot frames carry exactly the bytes MPI_M_get_data reports.
  constexpr int kRanks = 4;
  constexpr int kCycles = 100;
  constexpr unsigned long kFinalIters = 64;
  // Bounds the hammer when ranks do not run concurrently (fibers).
  constexpr long kMaxHammerIters = 200000;
  // One window holds every virtual second of the run, so no frame drops.
  constexpr double kWindowS = 1e3;
  constexpr int kFrames = 4;
  constexpr std::size_t n = kRanks;

  topo::Topology t({2, 2, 2}, {"node", "socket", "core"});
  std::vector<net::LinkParams> params = {
      {1e-5, 1e8}, {1e-6, 1e9}, {1e-7, 1e10}, {0.0, 1e12}};
  net::CostModel cost(t, params, 1e-7);
  mpi::EngineConfig cfg{.cost_model = cost,
                        .placement = topo::round_robin_placement(kRanks, t)};
  cfg.watchdog_wall_timeout_s = 120.0;
  mpi::Engine engine(std::move(cfg));
  mpit::Runtime tool(engine);
  std::array<std::atomic<bool>, kRanks> done{};

  engine.run([&](Ctx& ctx) {
    const Comm world = ctx.world();
    const int me = ctx.world_rank();
    char buf[8] = {0};
    ASSERT_EQ(MPI_M_init(), MPI_M_SUCCESS);
    MPI_M_msid id = -1;
    ASSERT_EQ(MPI_M_start(world, &id), MPI_M_SUCCESS);
    ASSERT_EQ(MPI_M_snapshot_start(id, kWindowS, kFrames, MPI_M_ALL_COMM),
              MPI_M_SUCCESS);
    if (me % 2 == 0) {
      for (long i = 0; i < kMaxHammerIters && !done[me + 1].load(); ++i)
        ctx.rma_transfer(me + 1, me, world, sizeof buf);
    } else {
      for (int c = 0; c < kCycles; ++c) {
        ctx.send_bytes(me, world, 3, mpi::CommKind::p2p, buf, sizeof buf);
        ctx.recv_bytes(me, world, 3, mpi::CommKind::p2p, buf, sizeof buf);
        ASSERT_EQ(MPI_M_suspend(id), MPI_M_SUCCESS);
        int nframes = -1;
        ASSERT_EQ(MPI_M_snapshot_info(id, &nframes, MPI_M_INT_IGNORE,
                                      MPI_M_INT_IGNORE),
                  MPI_M_SUCCESS);
        EXPECT_GE(nframes, 0);
        ASSERT_EQ(MPI_M_reset(id), MPI_M_SUCCESS);
        ASSERT_EQ(MPI_M_continue(id), MPI_M_SUCCESS);
      }
      done[me].store(true);
    }

    // Quiesce cross-rank attribution and start from empty matrices.
    mpi::barrier(world);
    ASSERT_EQ(MPI_M_suspend(id), MPI_M_SUCCESS);
    ASSERT_EQ(MPI_M_reset(id), MPI_M_SUCCESS);
    ASSERT_EQ(MPI_M_continue(id), MPI_M_SUCCESS);
    for (unsigned long i = 0; i < kFinalIters; ++i) {
      ctx.send_bytes(me, world, 5, mpi::CommKind::p2p, buf, sizeof buf);
      ctx.recv_bytes(me, world, 5, mpi::CommKind::p2p, buf, sizeof buf);
      ctx.rma_transfer(me, me, world, sizeof buf);
    }
    ASSERT_EQ(MPI_M_suspend(id), MPI_M_SUCCESS);
    unsigned long counts[kRanks] = {0}, sizes[kRanks] = {0};
    ASSERT_EQ(MPI_M_get_data(id, counts, sizes, MPI_M_ALL_COMM),
              MPI_M_SUCCESS);
    EXPECT_EQ(sizes[me], 2 * kFinalIters * sizeof buf);

    int nframes = 0;
    std::vector<double> t0(kFrames), t1(kFrames);
    std::vector<unsigned long> fcounts(kFrames * n * n),
        fsizes(kFrames * n * n);
    ASSERT_EQ(MPI_M_get_frames(id, kFrames, &nframes, t0.data(), t1.data(),
                               fcounts.data(), fsizes.data(), MPI_M_ALL_COMM),
              MPI_M_SUCCESS);
    for (std::size_t peer = 0; peer < n; ++peer) {
      unsigned long framed = 0;
      for (int f = 0; f < nframes; ++f)
        framed += fsizes[static_cast<std::size_t>(f) * n * n +
                         static_cast<std::size_t>(me) * n + peer];
      EXPECT_EQ(framed, sizes[peer]) << "peer " << peer;
    }
    ASSERT_EQ(MPI_M_snapshot_stop(id), MPI_M_SUCCESS);
    ASSERT_EQ(MPI_M_free(id), MPI_M_SUCCESS);
    MPI_M_finalize();
  });
}

}  // namespace
}  // namespace mpim
