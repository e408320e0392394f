// Fault recovery: the ULFM-style primitives (ack / get_failed / revoke /
// shrink / agree), monitoring-session rebind onto a shrunk communicator,
// the failure-aware tool collectives under NIC contention and the gathers
// and reorder steps built on them, the degradation governor, and the
// strict environment parsing backing them. Each ctest case runs in its own
// process, so setenv/unsetenv inside a test cannot leak across cases.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "fault/fault_plan.h"
#include "minimpi/api.h"
#include "minimpi/engine.h"
#include "minimpi/ft.h"
#include "mpimon/critpath_attach.h"
#include "mpimon/governor.h"
#include "mpimon/mpi_monitoring.h"
#include "mpit/runtime.h"
#include "reorder/reorder.h"
#include "support/env.h"
#include "telemetry/hub.h"

namespace mpim::mpi {
namespace {

using telemetry::Metric;

bool contains(const std::string& haystack, const std::string& needle) {
  return haystack.find(needle) != std::string::npos;
}

EngineConfig recovery_cfg(int nranks,
                          std::shared_ptr<fault::FaultPlan> plan = nullptr) {
  topo::Topology t({2, 1, 4}, {"node", "socket", "core"});
  std::vector<net::LinkParams> params = {
      {1e-5, 1e8}, {1e-6, 1e9}, {1e-7, 1e10}, {0.0, 1e12}};
  net::CostModel cost(t, params, /*send_overhead=*/1e-7);
  EngineConfig cfg{.cost_model = cost,
                   .placement = topo::round_robin_placement(nranks, t)};
  cfg.watchdog_wall_timeout_s = 5.0;
  cfg.fault_plan = std::move(plan);
  return cfg;
}

std::shared_ptr<fault::FaultPlan> crash_plan(
    std::vector<std::pair<int, double>> crashes) {
  auto plan = std::make_shared<fault::FaultPlan>(1);
  for (const auto& [rank, at_s] : crashes) {
    fault::RankFault crash;
    crash.rank = rank;
    crash.crash_at_s = at_s;
    plan->add(crash);
  }
  return plan;
}

// --- strict environment parsing (satellite a) --------------------------------

TEST(RecoveryEnv, PositiveDoubleParsesWholeStringOnly) {
  ::unsetenv("MPIM_TEST_ENV_D");
  EXPECT_EQ(support::env_positive_double("MPIM_TEST_ENV_D").status,
            support::EnvValue<double>::Status::unset);

  const auto expect_ok = [](const char* text, double want) {
    ::setenv("MPIM_TEST_ENV_D", text, 1);
    const auto v = support::env_positive_double("MPIM_TEST_ENV_D");
    EXPECT_TRUE(v.ok()) << "text=\"" << text << "\"";
    EXPECT_DOUBLE_EQ(v.value, want);
  };
  const auto expect_invalid = [](const char* text) {
    ::setenv("MPIM_TEST_ENV_D", text, 1);
    const auto v = support::env_positive_double("MPIM_TEST_ENV_D");
    EXPECT_TRUE(v.invalid()) << "text=\"" << text << "\"";
    EXPECT_EQ(v.raw, text);
  };
  expect_ok("0.5", 0.5);
  expect_ok("1e3", 1000.0);
  expect_ok("2.5 ", 2.5);  // trailing whitespace tolerated
  expect_invalid("5s");    // units are not numbers
  expect_invalid("-3");
  expect_invalid("0");
  expect_invalid("nan");
  expect_invalid("inf");
  expect_invalid("");
  expect_invalid("1e999");  // overflow
  ::unsetenv("MPIM_TEST_ENV_D");
}

TEST(RecoveryEnv, PositiveU64RejectsSignsPartialParsesAndOverflow) {
  const auto expect_ok = [](const char* text, std::uint64_t want) {
    ::setenv("MPIM_TEST_ENV_U", text, 1);
    const auto v = support::env_positive_u64("MPIM_TEST_ENV_U");
    EXPECT_TRUE(v.ok()) << "text=\"" << text << "\"";
    EXPECT_EQ(v.value, want);
  };
  const auto expect_invalid = [](const char* text) {
    ::setenv("MPIM_TEST_ENV_U", text, 1);
    EXPECT_TRUE(support::env_positive_u64("MPIM_TEST_ENV_U").invalid())
        << "text=\"" << text << "\"";
  };
  expect_ok("123", 123u);
  expect_ok("18446744073709551615", ~0ull);  // UINT64_MAX is still > 0
  expect_invalid("12x");
  expect_invalid("-1");
  expect_invalid("+5");  // explicit signs rejected: digits only
  expect_invalid("0");
  expect_invalid("18446744073709551616");  // overflow
  ::unsetenv("MPIM_TEST_ENV_U");
}

TEST(RecoveryEnv, GatherTimeoutFallsBackToDefaultOnGarbage) {
  // Callable outside any engine: resolves from the environment directly.
  ::setenv("MPIM_GATHER_TIMEOUT_S", "banana", 1);
  EXPECT_DOUBLE_EQ(MPI_M_get_gather_timeout(), 5.0);
  ::setenv("MPIM_GATHER_TIMEOUT_S", "-2", 1);
  EXPECT_DOUBLE_EQ(MPI_M_get_gather_timeout(), 5.0);
  ::setenv("MPIM_GATHER_TIMEOUT_S", "0.75", 1);
  EXPECT_DOUBLE_EQ(MPI_M_get_gather_timeout(), 0.75);
  ::unsetenv("MPIM_GATHER_TIMEOUT_S");
  EXPECT_DOUBLE_EQ(MPI_M_get_gather_timeout(), 5.0);
}

TEST(RecoveryEnv, WatchdogOverrideIgnoresInvalidValues) {
  auto cfg = recovery_cfg(2);
  cfg.watchdog_wall_timeout_s = 2.0;
  ::setenv("MPIM_WATCHDOG_S", "soon", 1);
  {
    Engine eng(cfg);
    EXPECT_DOUBLE_EQ(eng.effective_watchdog_s(), 2.0);  // fell back
  }
  ::setenv("MPIM_WATCHDOG_S", "-1", 1);
  {
    Engine eng(cfg);
    EXPECT_DOUBLE_EQ(eng.effective_watchdog_s(), 2.0);
  }
  ::setenv("MPIM_WATCHDOG_S", "0.5", 1);
  {
    Engine eng(cfg);
    EXPECT_DOUBLE_EQ(eng.effective_watchdog_s(), 0.5);
  }
  ::unsetenv("MPIM_WATCHDOG_S");
}

// --- ack / get_failed / agree ------------------------------------------------

TEST(RecoveryUlfm, AckedFailuresShortCircuitWithoutTimeout) {
  Engine eng(recovery_cfg(3, crash_plan({{2, 1e-3}})));
  std::atomic<int> immediate_failures{0};
  eng.run([&](Ctx& ctx) {
    const Comm world = ctx.world();
    comm_set_errhandler(world, ErrMode::ret);
    if (ctx.world_rank() == 2) {
      compute(1.0);  // dies at t = 1e-3
      return;
    }
    // Observe the failure the slow way once...
    int v = 0;
    EXPECT_THROW(recv(&v, 1, Type::Int, 2, 0, world), RankFailedError);
    // ...ack it, and every later operation on the dead peer fails fast.
    EXPECT_EQ(comm_failure_ack(world), 1);
    EXPECT_EQ(comm_get_failed(world), std::vector<int>{2});
    try {
      send(&v, 1, Type::Int, 2, 1, world);
    } catch (const RankFailedError& e) {
      EXPECT_EQ(e.world_rank(), 2);
      immediate_failures.fetch_add(1);
    }
    try {
      recv(&v, 1, Type::Int, 2, 1, world);
    } catch (const RankFailedError&) {
      immediate_failures.fetch_add(1);
    }
  });
  EXPECT_EQ(immediate_failures.load(), 4);  // send + recv on both survivors
}

TEST(RecoveryUlfm, AgreeFoldsFlagsAndFlagsUnackedFailures) {
  Engine eng(recovery_cfg(4, crash_plan({{3, 1e-3}})));
  eng.run([&](Ctx& ctx) {
    const Comm world = ctx.world();
    comm_set_errhandler(world, ErrMode::ret);
    if (ctx.world_rank() == 3) {
      compute(1.0);
      return;
    }
    int flag = ctx.world_rank() == 0 ? 0b0110 : 0b0111;
    // First agreement runs into the unacked crash of rank 3.
    EXPECT_FALSE(comm_agree(world, &flag));
    EXPECT_EQ(flag, 0b0110);  // the surviving contributions still folded
    // Ack what the agreement taught us, then agree cleanly.
    EXPECT_GE(comm_failure_ack(world), 1);
    int flag2 = 0b1100 | ctx.world_rank();
    EXPECT_TRUE(comm_agree(world, &flag2));
    EXPECT_EQ(flag2, 0b1100);
  });
}

// --- shrink ------------------------------------------------------------------

TEST(RecoveryShrink, SurvivorsGetSameRenumberedCommAndFinishTheRing) {
  Engine eng(recovery_cfg(4, crash_plan({{2, 1e-3}})));
  std::array<std::atomic<int>, 4> ctx_ids{};
  std::array<std::atomic<int>, 4> new_ranks{};
  for (auto& a : ctx_ids) a.store(-1);
  auto workload = [&](Ctx& ctx) {
    const Comm world = ctx.world();
    comm_set_errhandler(world, ErrMode::ret);
    if (ctx.world_rank() == 2) {
      compute(1.0);
      return;
    }
    const Comm alive = comm_shrink(world);
    ASSERT_FALSE(alive.is_null());
    ASSERT_EQ(alive.size(), 3);
    // Deterministic renumbering: parent order with the dead removed.
    const int me = comm_rank(alive);
    ctx_ids[static_cast<std::size_t>(ctx.world_rank())].store(
        alive.context_id());
    new_ranks[static_cast<std::size_t>(ctx.world_rank())].store(me);
    // The shrink acked the agreed dead set on the parent.
    EXPECT_EQ(comm_get_failed(world), std::vector<int>{2});
    // Errmode carried from the parent.
    EXPECT_EQ(comm_get_errhandler(alive), ErrMode::ret);
    // A full ring on the shrunk communicator completes: nobody is dead.
    int token = me;
    const int n = comm_size(alive);
    send(&token, 1, Type::Int, (me + 1) % n, 9, alive);
    recv(&token, 1, Type::Int, (me + n - 1) % n, 9, alive);
    EXPECT_EQ(token, (me + n - 1) % n);
  };
  eng.run(workload);
  EXPECT_EQ(ctx_ids[0].load(), ctx_ids[1].load());
  EXPECT_EQ(ctx_ids[0].load(), ctx_ids[3].load());
  EXPECT_EQ(new_ranks[0].load(), 0);
  EXPECT_EQ(new_ranks[1].load(), 1);
  EXPECT_EQ(new_ranks[3].load(), 2);

  // Bit-identical virtual clocks across reruns of the whole recovery.
  const auto first = eng.final_clocks();
  eng.run(workload);
  EXPECT_EQ(first, eng.final_clocks());
}

TEST(RecoveryShrink, DoubleCrashShrinksToFourSurvivors) {
  Engine eng(recovery_cfg(6, crash_plan({{1, 5e-4}, {4, 2e-3}})));
  auto workload = [&](Ctx& ctx) {
    const Comm world = ctx.world();
    comm_set_errhandler(world, ErrMode::ret);
    const int r = ctx.world_rank();
    if (r == 1 || r == 4) {
      compute(1.0);
      return;
    }
    compute(3e-3);  // both crashes are in the past before anyone shrinks
    const Comm alive = comm_shrink(world);
    ASSERT_EQ(alive.size(), 4);
    const int me = comm_rank(alive);
    // Parent order 0,2,3,5 -> 0,1,2,3.
    const std::array<int, 6> want{0, -1, 1, 2, -1, 3};
    EXPECT_EQ(me, want[static_cast<std::size_t>(r)]);
    int token = me;
    send(&token, 1, Type::Int, (me + 1) % 4, 3, alive);
    recv(&token, 1, Type::Int, (me + 3) % 4, 3, alive);
  };
  eng.run(workload);
  const auto first = eng.final_clocks();
  eng.run(workload);
  EXPECT_EQ(first, eng.final_clocks());
}

TEST(RecoveryShrink, CrashBeforeAnyTrafficStillYieldsWorkingComm) {
  Engine eng(recovery_cfg(3, crash_plan({{0, 0.0}})));
  mpit::Runtime tool(eng);
  eng.run([&](Ctx& ctx) {
    const Comm world = ctx.world();
    comm_set_errhandler(world, ErrMode::ret);
    if (ctx.world_rank() == 0) {
      compute(0.0);
      return;
    }
    const Comm alive = comm_shrink(world);
    ASSERT_EQ(alive.size(), 2);
    // Monitoring started directly on the shrunk comm never sees the hole.
    ASSERT_EQ(MPI_M_init(), MPI_M_SUCCESS);
    MPI_M_msid id = -1;
    ASSERT_EQ(MPI_M_start(alive, &id), MPI_M_SUCCESS);
    const int me = comm_rank(alive);
    std::vector<std::byte> buf(400);
    send(buf.data(), buf.size(), Type::Byte, 1 - me, 0, alive);
    recv(buf.data(), buf.size(), Type::Byte, 1 - me, 0, alive);
    ASSERT_EQ(MPI_M_suspend(id), MPI_M_SUCCESS);
    std::vector<unsigned long> sizes(4);
    EXPECT_EQ(MPI_M_allgather_data(id, MPI_M_DATA_IGNORE, sizes.data(),
                                   MPI_M_ALL_COMM),
              MPI_M_SUCCESS);
    EXPECT_EQ(sizes[1], 400ul);
    EXPECT_EQ(sizes[2], 400ul);
    EXPECT_EQ(MPI_M_free(id), MPI_M_SUCCESS);
    EXPECT_EQ(MPI_M_finalize(), MPI_M_SUCCESS);
  });
}

// --- revoke ------------------------------------------------------------------

TEST(RecoveryRevoke, WakesBlockedReceiversOntoTheRecoveryPath) {
  Engine eng(recovery_cfg(4, crash_plan({{3, 1e-3}})));
  std::atomic<int> revoked_seen{0};
  eng.run([&](Ctx& ctx) {
    const Comm world = ctx.world();
    comm_set_errhandler(world, ErrMode::ret);
    const int r = ctx.world_rank();
    if (r == 3) {
      compute(1.0);
      return;
    }
    if (r == 0) {
      // Rank 0 notices the failure and revokes so ranks 1/2 -- blocked on
      // receives that can never complete -- converge onto the shrink.
      int v = 0;
      EXPECT_THROW(recv(&v, 1, Type::Int, 3, 0, world), RankFailedError);
      comm_revoke(world);
      EXPECT_TRUE(comm_is_revoked(world));
    } else {
      try {
        int v = 0;
        recv(&v, 1, Type::Int, 3 - r, 77, world);  // 1<->2, nobody sends
        ADD_FAILURE() << "recv on a revoked comm must not complete";
      } catch (const CommRevokedError& e) {
        EXPECT_EQ(e.context_id(), world.context_id());
        revoked_seen.fetch_add(1);
      } catch (const RankFailedError&) {
        // Acceptable alternate wake-up; the shrink below still runs.
      }
    }
    const Comm alive = comm_shrink(world);
    ASSERT_EQ(alive.size(), 3);
    const int me = comm_rank(alive);
    int token = me;
    send(&token, 1, Type::Int, (me + 1) % 3, 1, alive);
    recv(&token, 1, Type::Int, (me + 2) % 3, 1, alive);
  });
  EXPECT_EQ(revoked_seen.load(), 2);
}

// --- session rebind ----------------------------------------------------------

TEST(RecoveryRebind, CarriesSurvivorHistoryAndTombstonesTheDead) {
  Engine eng(recovery_cfg(4, crash_plan({{3, 5e-3}})));
  mpit::Runtime tool(eng);
  eng.telemetry().set_enabled(true);
  eng.run([&](Ctx& ctx) {
    const Comm world = ctx.world();
    comm_set_errhandler(world, ErrMode::ret);
    const int r = ctx.world_rank();
    if (r == 3) {
      compute(1.0);  // dies mid-run, after the session started
      return;
    }
    ASSERT_EQ(MPI_M_init(), MPI_M_SUCCESS);
    ASSERT_EQ(MPI_M_set_gather_timeout(0.2), MPI_M_SUCCESS);
    MPI_M_msid id = -1;
    ASSERT_EQ(MPI_M_start(world, &id), MPI_M_SUCCESS);
    // Pre-crash traffic among the survivors: 0 -> 1 -> 2 -> 0, 1000 B.
    std::vector<std::byte> buf(1000);
    send(buf.data(), buf.size(), Type::Byte, (r + 1) % 3, 0, world);
    recv(buf.data(), buf.size(), Type::Byte, (r + 2) % 3, 0, world);
    ASSERT_EQ(MPI_M_suspend(id), MPI_M_SUCCESS);

    // On the original binding the gather sees the hole.
    std::vector<unsigned long> sizes4(16);
    EXPECT_EQ(MPI_M_allgather_data(id, MPI_M_DATA_IGNORE, sizes4.data(),
                                   MPI_M_ALL_COMM),
              MPI_M_PARTIAL_DATA);
    EXPECT_EQ(sizes4[3 * 4 + 0], MPI_M_DATA_MISSING);

    // Shrink and rebind: history carried, dead rank tombstoned.
    const Comm alive = comm_shrink(world);
    ASSERT_EQ(alive.size(), 3);
    ASSERT_EQ(MPI_M_rebind(id, alive), MPI_M_SUCCESS);
    int ntomb = -1;
    int tomb = -1;
    ASSERT_EQ(MPI_M_session_tombstones(id, &tomb, 1, &ntomb), MPI_M_SUCCESS);
    EXPECT_EQ(ntomb, 1);
    EXPECT_EQ(tomb, 3);

    // Post-rebind gather: complete survivor matrix, zero stalls.
    std::vector<unsigned long> sizes3(9);
    EXPECT_EQ(MPI_M_allgather_data(id, MPI_M_DATA_IGNORE, sizes3.data(),
                                   MPI_M_ALL_COMM),
              MPI_M_SUCCESS);
    for (int i = 0; i < 3; ++i)
      EXPECT_EQ(sizes3[static_cast<std::size_t>(i * 3 + (i + 1) % 3)],
                1000ul)
          << "row " << i;

    // The rebound session keeps recording: continue, more traffic, and the
    // totals accumulate on top of the carried history.
    ASSERT_EQ(MPI_M_continue(id), MPI_M_SUCCESS);
    const int me = comm_rank(alive);
    send(buf.data(), 500, Type::Byte, (me + 1) % 3, 1, alive);
    recv(buf.data(), 500, Type::Byte, (me + 2) % 3, 1, alive);
    ASSERT_EQ(MPI_M_suspend(id), MPI_M_SUCCESS);
    EXPECT_EQ(MPI_M_allgather_data(id, MPI_M_DATA_IGNORE, sizes3.data(),
                                   MPI_M_ALL_COMM),
              MPI_M_SUCCESS);
    for (int i = 0; i < 3; ++i)
      EXPECT_EQ(sizes3[static_cast<std::size_t>(i * 3 + (i + 1) % 3)],
                1500ul)
          << "row " << i;
    EXPECT_EQ(MPI_M_free(id), MPI_M_SUCCESS);
    EXPECT_EQ(MPI_M_finalize(), MPI_M_SUCCESS);
  });
  // The post-rebind gathers never waited out a timeout; the pre-rebind one
  // skipped the known-dead row immediately (dead-skip, not timeout) or, if
  // the root's recv raced the crash mark, timed out at most once per rank.
  const auto& hub = eng.telemetry();
  std::uint64_t rebinds = 0;
  for (int r = 0; r < 4; ++r)
    rebinds += hub.registry().scalar_value(Metric::mon_rebinds, r);
  EXPECT_EQ(rebinds, 3u);
}

TEST(RecoveryRebind, RootRankCrashRecoversViaShrinkAndRebind) {
  Engine eng(recovery_cfg(4, crash_plan({{0, 5e-3}})));
  mpit::Runtime tool(eng);
  eng.telemetry().set_enabled(true);
  eng.run([&](Ctx& ctx) {
    const Comm world = ctx.world();
    comm_set_errhandler(world, ErrMode::ret);
    const int r = ctx.world_rank();
    if (r == 0) {
      compute(1.0);  // the gathering rank itself dies
      return;
    }
    ASSERT_EQ(MPI_M_init(), MPI_M_SUCCESS);
    ASSERT_EQ(MPI_M_set_gather_timeout(0.2), MPI_M_SUCCESS);
    MPI_M_msid id = -1;
    ASSERT_EQ(MPI_M_start(world, &id), MPI_M_SUCCESS);
    std::vector<std::byte> buf(800);
    const int peers[3] = {1, 2, 3};
    const int me = r - 1;
    send(buf.data(), buf.size(), Type::Byte, peers[(me + 1) % 3], 0, world);
    recv(buf.data(), buf.size(), Type::Byte, peers[(me + 2) % 3], 0, world);
    ASSERT_EQ(MPI_M_suspend(id), MPI_M_SUCCESS);

    // The allgather funnels through group rank 0 -- the dead one. Every
    // survivor gets the degraded result instead of hanging.
    std::vector<unsigned long> sizes4(16);
    EXPECT_EQ(MPI_M_allgather_data(id, MPI_M_DATA_IGNORE, sizes4.data(),
                                   MPI_M_ALL_COMM),
              MPI_M_PARTIAL_DATA);

    const Comm alive = comm_shrink(world);
    ASSERT_EQ(alive.size(), 3);
    ASSERT_EQ(MPI_M_rebind(id, alive), MPI_M_SUCCESS);
    std::vector<unsigned long> sizes3(9);
    EXPECT_EQ(MPI_M_allgather_data(id, MPI_M_DATA_IGNORE, sizes3.data(),
                                   MPI_M_ALL_COMM),
              MPI_M_SUCCESS);
    // Survivor traffic fully preserved: old world rank r sent 800 B to
    // peers[(r-1+1)%3]; in the shrunk comm both moved down one rank.
    for (int i = 0; i < 3; ++i)
      EXPECT_EQ(sizes3[static_cast<std::size_t>(i * 3 + (i + 1) % 3)], 800ul);
    EXPECT_EQ(MPI_M_free(id), MPI_M_SUCCESS);
    EXPECT_EQ(MPI_M_finalize(), MPI_M_SUCCESS);
  });
}

TEST(RecoveryRebind, RejectsActiveSessionsAndForeignComms) {
  Engine eng(recovery_cfg(2));
  mpit::Runtime tool(eng);
  eng.run([&](Ctx& ctx) {
    ASSERT_EQ(MPI_M_init(), MPI_M_SUCCESS);
    MPI_M_msid id = -1;
    ASSERT_EQ(MPI_M_start(ctx.world(), &id), MPI_M_SUCCESS);
    EXPECT_EQ(MPI_M_rebind(id, ctx.world()), MPI_M_SESSION_NOT_SUSPENDED);
    ASSERT_EQ(MPI_M_suspend(id), MPI_M_SUCCESS);
    EXPECT_EQ(MPI_M_rebind(id, Comm()), MPI_M_INTERNAL_FAIL);
    EXPECT_EQ(MPI_M_rebind(99, ctx.world()), MPI_M_INVALID_MSID);
    // Rebinding onto the same communicator is a (useless) no-op that keeps
    // every row: world ranks all survive the identity "shrink".
    EXPECT_EQ(MPI_M_rebind(id, ctx.world()), MPI_M_SUCCESS);
    int ntomb = -1;
    ASSERT_EQ(
        MPI_M_session_tombstones(id, MPI_M_INT_IGNORE, 0, &ntomb),
        MPI_M_SUCCESS);
    EXPECT_EQ(ntomb, 0);
    EXPECT_EQ(MPI_M_free(id), MPI_M_SUCCESS);
    EXPECT_EQ(MPI_M_finalize(), MPI_M_SUCCESS);
  });
}

// --- failure-aware tool collectives under NIC contention --------------------

/// Wall seconds `fn` takes.
double wall_s(const std::function<void()>& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// 8 ranks by node on two PlaFRIM-like nodes with NIC contention on, as
/// every paper figure runs: odd ranks sit across the network from rank 0,
/// so their tool traffic to and from it crosses the min-clock gate. The
/// 1 s watchdog bounds comm_shrink's exchange waits.
EngineConfig contended_cfg(SchedMode sched,
                           std::shared_ptr<fault::FaultPlan> plan) {
  auto cost = net::CostModel::plafrim_like(2);
  EngineConfig cfg{.cost_model = cost,
                   .placement = topo::bynode_placement(8, cost.topology())};
  cfg.nic_contention = true;
  cfg.watchdog_wall_timeout_s = 1.0;
  cfg.sched = sched;
  cfg.fault_plan = std::move(plan);
  return cfg;
}

/// A plan that can fail a receive but never does: it selects the
/// failure-aware schedules and changes nothing else.
std::shared_ptr<fault::FaultPlan> never_firing_plan() {
  return crash_plan({{0, 1e9}});
}

/// An allgather of a ring's sizes matrix under contention, run without a
/// plan and then twice per backend under `plan`: every run must return
/// MPI_M_SUCCESS and the no-plan matrix on every rank, each rank well
/// within the gather timeout. Returns the no-plan clocks, then each run's.
std::vector<std::vector<double>> contended_allgather_runs(
    const std::function<std::shared_ptr<fault::FaultPlan>()>& plan) {
  constexpr int kNp = 8;
  constexpr double kGatherTimeoutS = 0.25;
  std::array<int, kNp> rcs{};
  std::array<double, kNp> walls{};
  std::array<std::vector<unsigned long>, kNp> sizes;
  auto workload = [&](Ctx& ctx) {
    const Comm world = ctx.world();
    const int r = ctx.world_rank();
    ASSERT_EQ(MPI_M_init(), MPI_M_SUCCESS);
    ASSERT_EQ(MPI_M_set_gather_timeout(kGatherTimeoutS), MPI_M_SUCCESS);
    MPI_M_msid id = -1;
    ASSERT_EQ(MPI_M_start(world, &id), MPI_M_SUCCESS);
    // A ring with per-rank message sizes, so every row differs.
    std::vector<std::byte> buf(100 * kNp);
    const int from = (r + kNp - 1) % kNp;
    send(buf.data(), 100 * static_cast<std::size_t>(r + 1), Type::Byte,
         (r + 1) % kNp, 0, world);
    recv(buf.data(), 100 * static_cast<std::size_t>(from + 1), Type::Byte,
         from, 0, world);
    // The root lags: it waits for the rows at a lower virtual clock than
    // any contributor sends them, so it would stay the gate's minimum if
    // its timed waits (on the failure-aware schedule) did not leave the
    // gate.
    if (r != 0) compute(1e-3);
    ASSERT_EQ(MPI_M_suspend(id), MPI_M_SUCCESS);
    auto& mine = sizes[static_cast<std::size_t>(r)];
    mine.assign(kNp * kNp, 0);
    walls[static_cast<std::size_t>(r)] = wall_s([&] {
      rcs[static_cast<std::size_t>(r)] = MPI_M_allgather_data(
          id, MPI_M_DATA_IGNORE, mine.data(), MPI_M_ALL_COMM);
    });
    EXPECT_EQ(MPI_M_free(id), MPI_M_SUCCESS);
    EXPECT_EQ(MPI_M_finalize(), MPI_M_SUCCESS);
  };

  // Without a plan the tree allgather runs: the reference matrix.
  Engine plain(contended_cfg(SchedMode::threads, nullptr));
  mpit::Runtime plain_tool(plain);
  plain.run(workload);
  const std::vector<unsigned long> want = sizes[0];
  EXPECT_EQ(want[0 * kNp + 1], 100ul);
  EXPECT_EQ(want[7 * kNp + 0], 800ul);

  std::vector<std::vector<double>> clocks{plain.final_clocks()};
  for (SchedMode sched : {SchedMode::threads, SchedMode::fibers}) {
    Engine eng(contended_cfg(sched, plan()));
    mpit::Runtime tool(eng);
    for (int rep = 0; rep < 2; ++rep) {
      eng.run(workload);
      clocks.push_back(eng.final_clocks());
      for (int r = 0; r < kNp; ++r) {
        const auto i = static_cast<std::size_t>(r);
        EXPECT_EQ(rcs[i], MPI_M_SUCCESS)
            << sched_mode_name(sched) << " rank " << r;
        EXPECT_EQ(sizes[i], want) << sched_mode_name(sched) << " rank " << r;
        EXPECT_LT(walls[i], kGatherTimeoutS)
            << sched_mode_name(sched) << " rank " << r;
      }
      if (::testing::Test::HasFailure()) return clocks;
    }
  }
  return clocks;
}

TEST(RecoveryContention, EmptyPlanAllgatherMatchesNoPlanRunPromptly) {
  // An empty plan cannot fail a receive: the tree allgather runs, exactly
  // as without a plan.
  const auto clocks = contended_allgather_runs(
      [] { return std::make_shared<fault::FaultPlan>(1); });
  ASSERT_FALSE(HasFailure());
  for (const auto& c : clocks) EXPECT_EQ(c, clocks[0]);
}

TEST(RecoveryContention, NeverFiringPlanAllgatherMatchesNoPlanRunPromptly) {
  // A plan that can fail a receive runs the failure-aware linear gather and
  // broadcast, whose timed waits must leave the NIC gate. It costs other
  // clocks than the tree, the same ones on every run and backend.
  const auto clocks = contended_allgather_runs(never_firing_plan);
  ASSERT_FALSE(HasFailure());
  EXPECT_NE(clocks[1], clocks[0]);
  for (std::size_t i = 2; i < clocks.size(); ++i)
    EXPECT_EQ(clocks[i], clocks[1]);
}

TEST(RecoveryContention, ShrinkAfterCrashKeepsEverySurvivor) {
  constexpr int kNp = 8;
  constexpr int kVictim = 3;
  std::array<int, kNp> shrunk{};
  auto workload = [&](Ctx& ctx) {
    const Comm world = ctx.world();
    comm_set_errhandler(world, ErrMode::ret);
    const int r = ctx.world_rank();
    if (r == kVictim) {
      compute(1.0);  // dies at t = 1e-3
      return;
    }
    compute(2e-4 * r);  // survivors enter the shrink at skewed clocks
    shrunk[static_cast<std::size_t>(r)] = comm_size(comm_shrink(world));
  };
  std::vector<std::vector<double>> clocks;
  for (SchedMode sched : {SchedMode::threads, SchedMode::fibers}) {
    Engine eng(contended_cfg(sched, crash_plan({{kVictim, 1e-3}})));
    for (int rep = 0; rep < 2; ++rep) {
      shrunk.fill(-1);
      eng.run(workload);
      clocks.push_back(eng.final_clocks());
      for (int r = 0; r < kNp; ++r) {
        if (r == kVictim) continue;
        EXPECT_EQ(shrunk[static_cast<std::size_t>(r)], kNp - 1)
            << sched_mode_name(sched) << " rank " << r;
      }
      ASSERT_FALSE(HasFailure()) << "stopping after the first failed run";
    }
  }
  for (const auto& c : clocks) EXPECT_EQ(c, clocks[0]);
}

TEST(RecoveryGatherCounters, ContributorDyingMidWaitIsADeadSkipNotATimeout) {
  // Fibers make the order certain: rank 0 runs first, enters the gather
  // and waits on row 1 while rank 1 is still alive; rank 1 then crashes in
  // its compute and wakes the root with peer_dead.
  auto cfg = recovery_cfg(4, crash_plan({{1, 1e-3}}));
  cfg.sched = SchedMode::fibers;
  Engine eng(cfg);
  mpit::Runtime tool(eng);
  eng.telemetry().set_enabled(true);
  eng.run([](Ctx& ctx) {
    if (ctx.world_rank() == 1) {
      compute(1.0);
      return;
    }
    ASSERT_EQ(MPI_M_init(), MPI_M_SUCCESS);
    ASSERT_EQ(MPI_M_set_gather_timeout(0.25), MPI_M_SUCCESS);
    MPI_M_msid id = -1;
    ASSERT_EQ(MPI_M_start(ctx.world(), &id), MPI_M_SUCCESS);
    ASSERT_EQ(MPI_M_suspend(id), MPI_M_SUCCESS);
    std::vector<unsigned long> sizes(16);
    EXPECT_EQ(MPI_M_allgather_data(id, MPI_M_DATA_IGNORE, sizes.data(),
                                   MPI_M_ALL_COMM),
              MPI_M_PARTIAL_DATA);
    for (int j = 0; j < 4; ++j)
      EXPECT_EQ(sizes[static_cast<std::size_t>(4 + j)], MPI_M_DATA_MISSING);
    EXPECT_EQ(MPI_M_free(id), MPI_M_SUCCESS);
    EXPECT_EQ(MPI_M_finalize(), MPI_M_SUCCESS);
  });
  const auto& hub = eng.telemetry();
  EXPECT_EQ(hub.registry().counter_total(Metric::mon_dead_skips), 1u);
  EXPECT_EQ(hub.registry().counter_total(Metric::mon_gather_timeouts), 0u);
}

// --- exchange-slot lifetime on the failure-aware schedules -------------------

TEST(RecoveryGatherSlot, LateWriterStillFindsTheSlotEveryReceiverLeft) {
  // Rank 2 stalls on the wall clock right before an allgather, past the
  // gather timeout: the root gives up on its rows, and every other rank
  // leaves with them missing. Rank 2 then enters the call's exchange slot,
  // writes its rows into it and reads the others' rows out of it. The
  // slot must still be there (the last member to leave frees it,
  // contributors included) and no rank may write into another's rows.
  // Under TSan and ASan this is a race and use-after-free check as much as
  // a result check.
  constexpr int kNp = 4;
  constexpr int kLate = 2;
  constexpr double kGatherTimeoutS = 0.2;
  auto plan = std::make_shared<fault::FaultPlan>(1);
  plan->add(fault::RankFault{
      .rank = kLate, .stall_at_s = 1e-3, .stall_wall_s = 1.0});
  Engine eng(recovery_cfg(kNp, plan));
  mpit::Runtime tool(eng);
  eng.telemetry().set_enabled(true);
  std::array<int, kNp> rcs{};
  std::array<std::vector<unsigned long>, kNp> sizes;
  eng.run([&](Ctx& ctx) {
    const Comm world = ctx.world();
    const int r = ctx.world_rank();
    ASSERT_EQ(MPI_M_init(), MPI_M_SUCCESS);
    ASSERT_EQ(MPI_M_set_gather_timeout(kGatherTimeoutS), MPI_M_SUCCESS);
    MPI_M_msid id = -1;
    ASSERT_EQ(MPI_M_start(world, &id), MPI_M_SUCCESS);
    std::vector<std::byte> buf(100 * kNp);
    const int from = (r + kNp - 1) % kNp;
    send(buf.data(), 100 * static_cast<std::size_t>(r + 1), Type::Byte,
         (r + 1) % kNp, 0, world);
    recv(buf.data(), 100 * static_cast<std::size_t>(from + 1), Type::Byte,
         from, 0, world);
    ASSERT_EQ(MPI_M_suspend(id), MPI_M_SUCCESS);
    compute(2e-3);  // crosses kLate's stall
    auto& mine = sizes[static_cast<std::size_t>(r)];
    mine.assign(kNp * kNp, 0);
    rcs[static_cast<std::size_t>(r)] = MPI_M_allgather_data(
        id, MPI_M_DATA_IGNORE, mine.data(), MPI_M_ALL_COMM);
    EXPECT_EQ(MPI_M_free(id), MPI_M_SUCCESS);
    EXPECT_EQ(MPI_M_finalize(), MPI_M_SUCCESS);
  });
  for (int r = 0; r < kNp; ++r) {
    // The late rank hears the root's broadcast too: its own rows are
    // missing from its matrix as well.
    EXPECT_EQ(rcs[static_cast<std::size_t>(r)], MPI_M_PARTIAL_DATA)
        << "rank " << r;
    for (int row = 0; row < kNp; ++row) {
      for (int col = 0; col < kNp; ++col) {
        const unsigned long want =
            row == kLate                 ? MPI_M_DATA_MISSING
            : col == (row + 1) % kNp ? 100ul * static_cast<unsigned long>(row + 1)
                                     : 0ul;
        EXPECT_EQ(sizes[static_cast<std::size_t>(r)]
                       [static_cast<std::size_t>(row * kNp + col)],
                  want)
            << "rank " << r << " entry (" << row << "," << col << ")";
      }
    }
  }
  EXPECT_EQ(eng.telemetry().registry().counter_total(Metric::mon_gather_timeouts),
            1u);
}

// --- reorder under a fault plan ----------------------------------------------

TEST(RecoveryReorder, PhaseHookFiresAlikeOnEverySurvivorOfACrash) {
  constexpr int kVictim = 2;
  constexpr double kGatherTimeoutS = 1.0;
  std::array<int, 4> fired{};
  std::array<double, 4> walls{};
  auto workload = [&](Ctx& ctx) {
    const Comm world = ctx.world();
    const int r = ctx.world_rank();
    if (r == kVictim) {
      compute(1.0);  // dies at t = 1e-3, never joins the hook
      return;
    }
    ASSERT_EQ(MPI_M_init(), MPI_M_SUCCESS);
    ASSERT_EQ(MPI_M_set_gather_timeout(kGatherTimeoutS), MPI_M_SUCCESS);
    MPI_M_msid id = -1;
    ASSERT_EQ(MPI_M_start(world, &id), MPI_M_SUCCESS);
    ASSERT_EQ(MPI_M_snapshot_start(id, 1e-3, 256, MPI_M_ALL_COMM),
              MPI_M_SUCCESS);
    // Two bursts of a survivor ring around a lull: a phase boundary.
    const std::array<int, 3> ring{0, 1, 3};
    const int me = r == 3 ? 2 : r;
    std::vector<std::byte> buf(1000);
    for (int burst = 0; burst < 2; ++burst) {
      if (burst == 1) compute(0.01);
      for (int it = 0; it < 2; ++it) {
        send(buf.data(), buf.size(), Type::Byte, ring[(me + 1) % 3], it,
             world);
        recv(buf.data(), buf.size(), Type::Byte, ring[(me + 2) % 3], it,
             world);
      }
    }
    int seen = 0;
    bool fire = false;
    reorder::ReorderResult res;
    walls[static_cast<std::size_t>(r)] = wall_s(
        [&] { res = reorder::reorder_on_phase(id, world, &seen, &fire); });
    fired[static_cast<std::size_t>(r)] = fire ? 1 : 0;
    // A dead member makes any firing fall back, on the input comm.
    EXPECT_EQ(res.k, reorder::identity_k(4));
    EXPECT_EQ(res.opt_comm.context_id(), world.context_id());
    ASSERT_EQ(MPI_M_suspend(id), MPI_M_SUCCESS);
    EXPECT_EQ(MPI_M_free(id), MPI_M_SUCCESS);
    EXPECT_EQ(MPI_M_finalize(), MPI_M_SUCCESS);
  };
  Engine eng(recovery_cfg(4, crash_plan({{kVictim, 1e-3}})));
  mpit::Runtime tool(eng);
  std::vector<double> first;
  for (int rep = 0; rep < 2; ++rep) {
    fired.fill(-1);
    eng.run(workload);
    EXPECT_EQ(fired[0], 1) << "the lull is a boundary on every survivor";
    for (int r : {1, 3})
      EXPECT_EQ(fired[static_cast<std::size_t>(r)], fired[0]) << "rank " << r;
    for (int r : {0, 1, 3})
      EXPECT_LT(walls[static_cast<std::size_t>(r)], kGatherTimeoutS)
          << "rank " << r;
    if (rep == 0) first = eng.final_clocks();
  }
  EXPECT_EQ(first, eng.final_clocks());
}

TEST(RecoveryReorder, DeadRankZeroMakesEverySurvivorFallBack) {
  Engine eng(recovery_cfg(4, crash_plan({{0, 1e-3}})));
  mpit::Runtime tool(eng);
  std::atomic<int> checked{0};
  eng.run([&](Ctx& ctx) {
    const Comm world = ctx.world();
    const int r = ctx.world_rank();
    if (r == 0) {
      compute(1.0);  // the gathering rank dies at t = 1e-3
      return;
    }
    ASSERT_EQ(MPI_M_init(), MPI_M_SUCCESS);
    ASSERT_EQ(MPI_M_set_gather_timeout(0.25), MPI_M_SUCCESS);
    MPI_M_msid id = -1;
    ASSERT_EQ(MPI_M_start(world, &id), MPI_M_SUCCESS);
    std::vector<std::byte> buf(800);
    send(buf.data(), buf.size(), Type::Byte, r % 3 + 1, 0, world);
    recv(buf.data(), buf.size(), Type::Byte, (r + 1) % 3 + 1, 0, world);
    ASSERT_EQ(MPI_M_suspend(id), MPI_M_SUCCESS);

    const reorder::ReorderResult res = reorder::reorder_ranks(id, world);
    EXPECT_TRUE(res.fell_back);
    EXPECT_EQ(res.fallback_reason, "rank 0 unreachable during reordering");
    EXPECT_EQ(res.k, reorder::identity_k(4));
    EXPECT_EQ(res.opt_comm.context_id(), world.context_id());
    checked.fetch_add(1);
    EXPECT_EQ(MPI_M_free(id), MPI_M_SUCCESS);
    EXPECT_EQ(MPI_M_finalize(), MPI_M_SUCCESS);
  });
  EXPECT_EQ(checked.load(), 3);
}

TEST(RecoveryReorder, FiringReorderUnderAnEmptyPlanDecidesAsWithoutOne) {
  // reorder_ranks charges TreeMatch's host CPU time to rank 0's clock, so
  // only the decision is compared: k, the fallback flag and the members of
  // opt_comm, on every rank.
  constexpr int kNp = 8;
  for (SchedMode sched : {SchedMode::threads, SchedMode::fibers}) {
    std::array<std::vector<int>, kNp> k[2], members[2];
    std::array<bool, kNp> fell_back[2];
    for (int plan = 0; plan < 2; ++plan) {
      Engine eng(contended_cfg(
          sched, plan ? std::make_shared<fault::FaultPlan>(1) : nullptr));
      mpit::Runtime tool(eng);
      eng.run([&](Ctx& ctx) {
        const Comm world = ctx.world();
        const auto r = static_cast<std::size_t>(ctx.world_rank());
        ASSERT_EQ(MPI_M_init(), MPI_M_SUCCESS);
        MPI_M_msid id = -1;
        ASSERT_EQ(MPI_M_start(world, &id), MPI_M_SUCCESS);
        // Ranks 2i and 2i+1 sit on different nodes and talk the most.
        std::vector<std::byte> out(1 << 16), in(1 << 16);
        const int peer = ctx.world_rank() ^ 1;
        sendrecv(out.data(), out.size(), Type::Byte, peer, 0, in.data(),
                 in.size(), peer, 0, world);
        ASSERT_EQ(MPI_M_suspend(id), MPI_M_SUCCESS);
        const reorder::ReorderResult res = reorder::reorder_ranks(id, world);
        k[plan][r] = res.k;
        fell_back[plan][r] = res.fell_back;
        for (int g = 0; g < res.opt_comm.size(); ++g)
          members[plan][r].push_back(res.opt_comm.world_rank_of(g));
        EXPECT_EQ(MPI_M_free(id), MPI_M_SUCCESS);
        EXPECT_EQ(MPI_M_finalize(), MPI_M_SUCCESS);
      });
    }
    EXPECT_FALSE(fell_back[0][0]) << sched_mode_name(sched);
    EXPECT_NE(k[0][0], reorder::identity_k(kNp))
        << sched_mode_name(sched) << ": TreeMatch should pair the talkers";
    for (std::size_t r = 0; r < kNp; ++r) {
      EXPECT_EQ(k[1][r], k[0][r]) << sched_mode_name(sched) << " rank " << r;
      EXPECT_EQ(fell_back[1][r], fell_back[0][r])
          << sched_mode_name(sched) << " rank " << r;
      EXPECT_EQ(members[1][r], members[0][r])
          << sched_mode_name(sched) << " rank " << r;
    }
  }
}

/// The phase hook's critpath trigger under contended_cfg: ranks alternate
/// between the two nodes and each round rank r computes longer than r + 1,
/// then trades a message with both ring neighbours, so every rank but 0
/// waits, and only on cross-node messages. A snapshot with one long window
/// and an unreachable boundary count leave the critpath trigger the only
/// one that can fire (min_wait_ns 0). Returns the hook's result.
reorder::ReorderResult critpath_phase_hook(Ctx& ctx, bool* fired) {
  const Comm world = ctx.world();
  const int n = comm_size(world);
  const int r = comm_rank(world);
  EXPECT_EQ(MPI_M_init(), MPI_M_SUCCESS);
  EXPECT_EQ(MPI_M_set_gather_timeout(5.0), MPI_M_SUCCESS);
  MPI_M_msid id = -1;
  EXPECT_EQ(MPI_M_start(world, &id), MPI_M_SUCCESS);
  EXPECT_EQ(MPI_M_snapshot_start(id, 10.0, 4, MPI_M_ALL_COMM), MPI_M_SUCCESS);
  std::vector<std::byte> out(4096), in(4096);
  for (int round = 0; round < 4; ++round) {
    compute(1e-5 * (n - r));
    sendrecv(out.data(), out.size(), Type::Byte, (r + 1) % n, round,
             in.data(), in.size(), (r + n - 1) % n, round, world);
  }
  if (r == 0) compute(1.0);  // a plan may crash rank 0 in here
  int seen = std::numeric_limits<int>::max();
  reorder::ReorderResult res = reorder::reorder_on_phase(
      id, world, &seen, fired,
      {.use_critpath_mismatch = true, .min_wait_ns = 0});
  EXPECT_EQ(MPI_M_suspend(id), MPI_M_SUCCESS);
  EXPECT_EQ(MPI_M_free(id), MPI_M_SUCCESS);
  EXPECT_EQ(MPI_M_finalize(), MPI_M_SUCCESS);
  return res;
}

TEST(RecoveryReorder, CritpathTriggerDecidesAlikeUnderANeverFiringPlan) {
  // The critpath agreement runs under every plan: a plan that can fail a
  // receive but never does fires the same reorder as no plan. Only the
  // decision is compared (TreeMatch's host time reaches rank 0's clock).
  constexpr int kNp = 8;
  for (SchedMode sched : {SchedMode::threads, SchedMode::fibers}) {
    std::array<bool, kNp> fired[2];
    std::array<std::vector<int>, kNp> k[2], members[2];
    for (int plan = 0; plan < 2; ++plan) {
      Engine eng(contended_cfg(sched, plan ? never_firing_plan() : nullptr));
      mpit::Runtime tool(eng);
      mon::attach_critpath(eng);
      eng.run([&](Ctx& ctx) {
        const auto r = static_cast<std::size_t>(ctx.world_rank());
        bool t = false;
        const reorder::ReorderResult res = critpath_phase_hook(ctx, &t);
        fired[plan][r] = t;
        k[plan][r] = res.k;
        for (int g = 0; g < res.opt_comm.size(); ++g)
          members[plan][r].push_back(res.opt_comm.world_rank_of(g));
      });
    }
    for (std::size_t r = 0; r < kNp; ++r) {
      const std::string who =
          std::string(sched_mode_name(sched)) + " rank " + std::to_string(r);
      EXPECT_TRUE(fired[0][r]) << who << ": the trigger should fire";
      EXPECT_EQ(fired[1][r], fired[0][r]) << who;
      EXPECT_EQ(k[1][r], k[0][r]) << who;
      EXPECT_EQ(members[1][r], members[0][r]) << who;
    }
  }
}

TEST(RecoveryReorder, SurvivorsOfADeadRankZeroNeverFireOnTheirOwnSums) {
  // Rank 0 crashes before the hook, so no survivor hears the critpath
  // agreement. Each returns promptly, unfired, with comm and the identity,
  // although its own sums alone would have tripped the trigger.
  constexpr int kNp = 8;
  for (SchedMode sched : {SchedMode::threads, SchedMode::fibers}) {
    Engine eng(contended_cfg(sched, crash_plan({{0, 0.5}})));
    mpit::Runtime tool(eng);
    auto prof = mon::attach_critpath(eng);
    std::array<int, kNp> fired{};
    std::array<int, kNp> own_sums_trip{};
    const auto t0 = std::chrono::steady_clock::now();
    eng.run([&](Ctx& ctx) {
      const auto r = static_cast<std::size_t>(ctx.world_rank());
      bool t = true;
      const reorder::ReorderResult res = critpath_phase_hook(ctx, &t);
      fired[r] = t ? 1 : 0;
      EXPECT_EQ(res.opt_comm, ctx.world());
      EXPECT_EQ(res.k, reorder::identity_k(kNp));
      const auto mismatch = prof->mismatch_since_mark(ctx.world_rank());
      const auto wait = prof->wait_since_mark(ctx.world_rank());
      own_sums_trip[r] = wait > 0 && 2 * mismatch > wait ? 1 : 0;
    });
    const double wall_s = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - t0)
                              .count();
    EXPECT_LT(wall_s, 5.0) << sched_mode_name(sched);
    EXPECT_TRUE(eng.rank_dead(0)) << sched_mode_name(sched);
    for (std::size_t r = 1; r < kNp; ++r) {
      EXPECT_EQ(fired[r], 0) << sched_mode_name(sched) << " rank " << r;
      EXPECT_EQ(own_sums_trip[r], 1) << sched_mode_name(sched) << " rank " << r;
    }
  }
}

TEST(RecoveryReorder, FaultFreeKBroadcastIsABinomialUserBcastOfNInts) {
  // Without a fault plan rank 0 sends k as it always did: a coll-kind
  // binomial bcast of n ints inside the distribute step, recorded as a
  // "bcast" collective span whose p2p.send children carry the bytes.
  constexpr int kNp = 8;
  Engine eng(recovery_cfg(kNp));
  mpit::Runtime tool(eng);
  telemetry::Hub& hub = eng.telemetry();
  hub.set_enabled(true);
  eng.run([](Ctx& ctx) {
    ASSERT_EQ(MPI_M_init(), MPI_M_SUCCESS);
    reorder::monitor_and_reorder(ctx.world(), [](const Comm& comm) {
      std::vector<std::byte> buf(4096);
      const int peer = comm_rank(comm) ^ 1;
      sendrecv(buf.data(), buf.size(), Type::Byte, peer, 0, buf.data(),
               buf.size(), peer, 0, comm);
    });
    EXPECT_EQ(MPI_M_finalize(), MPI_M_SUCCESS);
  });
  std::vector<std::pair<std::int64_t, std::int64_t>> root_sends;
  for (int r = 0; r < kNp; ++r) {
    const auto spans = hub.spans(r);
    const auto named = [&](const char* name) {
      return std::find_if(spans.begin(), spans.end(), [&](const auto& sp) {
        return std::string(sp.name) == name;
      });
    };
    const auto dist = named("reorder.distribute");
    const auto bcast = named("bcast");
    ASSERT_NE(dist, spans.end()) << "rank " << r;
    ASSERT_NE(bcast, spans.end()) << "rank " << r;
    EXPECT_EQ(bcast->cat, 'C');
    EXPECT_EQ(bcast->t0_s, dist->t0_s) << "rank " << r;
    EXPECT_EQ(bcast->t1_s, dist->t1_s) << "rank " << r;
    for (const auto& sp : spans)
      if (r == 0 && std::string(sp.name) == "p2p.send" &&
          sp.t0_s >= bcast->t0_s && sp.t1_s <= bcast->t1_s)
        root_sends.emplace_back(sp.a, sp.b);
  }
  const std::int64_t k_bytes = kNp * sizeof(int);
  const std::vector<std::pair<std::int64_t, std::int64_t>> binomial = {
      {4, k_bytes}, {2, k_bytes}, {1, k_bytes}};
  EXPECT_EQ(root_sends, binomial);
}

// --- deadlock report names the failed ranks (satellite b) --------------------

TEST(RecoveryReport, DeadlockReportListsFailedRanksWithCrashTimes) {
  auto cfg = recovery_cfg(3, crash_plan({{2, 1e-3}}));
  cfg.watchdog_wall_timeout_s = 0.5;
  Engine eng(cfg);
  std::string report;
  try {
    eng.run([](Ctx& ctx) {
      const Comm world = ctx.world();
      if (ctx.world_rank() == 2) {
        compute(1.0);
        return;
      }
      // Survivors deadlock against each other (mismatched tags), with the
      // crash already on the books: the report must surface it.
      int v = 0;
      if (ctx.world_rank() == 0)
        recv(&v, 1, Type::Int, 1, 5, world);
      else
        recv(&v, 1, Type::Int, 0, 7, world);
    });
    FAIL() << "expected DeadlockError";
  } catch (const DeadlockError& e) {
    report = e.what();
  }
  EXPECT_TRUE(contains(report, "failed ranks:")) << report;
  EXPECT_TRUE(contains(report, "2 (crashed at t=")) << report;
  EXPECT_TRUE(contains(report, "docs/FAULTS.md")) << report;
}

TEST(RecoveryReport, LogicDeadlockReportsNoFailedRanks) {
  auto cfg = recovery_cfg(2);
  cfg.watchdog_wall_timeout_s = 0.5;
  Engine eng(cfg);
  std::string report;
  try {
    eng.run([](Ctx& ctx) {
      int v = 0;
      recv(&v, 1, Type::Int, 1 - ctx.world_rank(), 5 + ctx.world_rank(),
           ctx.world());
    });
    FAIL() << "expected DeadlockError";
  } catch (const DeadlockError& e) {
    report = e.what();
  }
  EXPECT_TRUE(contains(report, "failed ranks: none")) << report;
}

// --- degradation governor ----------------------------------------------------

TEST(RecoveryGovernor, ShedsFidelityUnderMemoryBudgetWithoutClockDrift) {
  auto workload = [](Ctx& ctx) {
    const Comm world = ctx.world();
    ASSERT_EQ(MPI_M_init(), MPI_M_SUCCESS);
    MPI_M_msid id = -1;
    ASSERT_EQ(MPI_M_start(world, &id), MPI_M_SUCCESS);
    // Small enough that all four ranks' reservations fit the shared
    // budget (the pool is first-come, so an oversized ask by one rank
    // would legitimately starve the rest into SESSION_OVERFLOW).
    ASSERT_EQ(MPI_M_snapshot_start(id, 1e-4, 16, MPI_M_ALL_COMM),
              MPI_M_SUCCESS);
    const int r = ctx.world_rank();
    const int n = comm_size(world);
    std::vector<std::byte> buf(2000);
    for (int it = 0; it < 20; ++it) {
      send(buf.data(), buf.size(), Type::Byte, (r + 1) % n, it, world);
      recv(buf.data(), buf.size(), Type::Byte, (r + n - 1) % n, it, world);
    }
    ASSERT_EQ(MPI_M_suspend(id), MPI_M_SUCCESS);
    std::vector<unsigned long> sizes(
        static_cast<std::size_t>(n) * static_cast<std::size_t>(n));
    EXPECT_EQ(MPI_M_allgather_data(id, MPI_M_DATA_IGNORE, sizes.data(),
                                   MPI_M_ALL_COMM),
              MPI_M_SUCCESS);
    EXPECT_EQ(MPI_M_free(id), MPI_M_SUCCESS);
    EXPECT_EQ(MPI_M_finalize(), MPI_M_SUCCESS);
  };

  ::unsetenv("MPIM_MEM_BUDGET_BYTES");
  Engine plain(recovery_cfg(4));
  mpit::Runtime plain_tool(plain);
  plain.run(workload);
  const auto plain_clocks = plain.final_clocks();

  // A budget far below the standing span rings: the ctor already walks the
  // whole shed ladder before any snapshot reservation is granted.
  ::setenv("MPIM_MEM_BUDGET_BYTES", "20000", 1);
  Engine budgeted(recovery_cfg(4));
  mpit::Runtime budgeted_tool(budgeted);
  budgeted.telemetry().set_enabled(true);
  budgeted.run(workload);
  ::unsetenv("MPIM_MEM_BUDGET_BYTES");

  auto& gov = mon::Governor::of(budgeted);
  EXPECT_TRUE(gov.mem_enabled());
  EXPECT_EQ(gov.mem_budget(), 20000u);
  // The full ladder: widen snapshots, halve rings, widen plane, drop spans.
  EXPECT_GE(gov.shed_steps(), 4u);
  EXPECT_EQ(gov.shed_level(), 4);
  EXPECT_LE(gov.mem_level(), gov.mem_budget());
  // Shedding is visible in telemetry...
  const auto& hub = budgeted.telemetry();
  std::uint64_t steps = 0;
  for (int r = 0; r < 4; ++r)
    steps += hub.registry().scalar_value(Metric::gov_shed_steps, r);
  EXPECT_GE(steps, 3u);
  // ...and the virtual clocks never moved: all shedding is host-side.
  EXPECT_EQ(plain_clocks, budgeted.final_clocks());
}

TEST(RecoveryGovernor, OverheadBudgetRaisesAlarmAndLevelOneShed) {
  // Any monitored traffic exceeds a microscopic overhead budget.
  ::setenv("MPIM_OVERHEAD_PCT", "1e-9", 1);
  Engine eng(recovery_cfg(2));
  mpit::Runtime tool(eng);
  eng.run([](Ctx& ctx) {
    const Comm world = ctx.world();
    ASSERT_EQ(MPI_M_init(), MPI_M_SUCCESS);
    MPI_M_msid id = -1;
    ASSERT_EQ(MPI_M_start(world, &id), MPI_M_SUCCESS);
    std::vector<std::byte> buf(1000);
    const int peer = 1 - ctx.world_rank();
    send(buf.data(), buf.size(), Type::Byte, peer, 0, world);
    recv(buf.data(), buf.size(), Type::Byte, peer, 0, world);
    ASSERT_EQ(MPI_M_suspend(id), MPI_M_SUCCESS);
    ASSERT_EQ(MPI_M_free(id), MPI_M_SUCCESS);
    ASSERT_EQ(MPI_M_finalize(), MPI_M_SUCCESS);
  });
  ::unsetenv("MPIM_OVERHEAD_PCT");
  auto& gov = mon::Governor::of(eng);
  EXPECT_GT(gov.overhead_budget_pct(), 0.0);
  EXPECT_GE(gov.overhead_alarms(), 1u);
  EXPECT_GE(gov.shed_level(), 1);  // alarm triggers the level-1 shed
}

TEST(RecoveryGovernor, InvalidBudgetEnvDisablesTheBudget) {
  ::setenv("MPIM_MEM_BUDGET_BYTES", "lots", 1);
  ::setenv("MPIM_OVERHEAD_PCT", "-5", 1);
  Engine eng(recovery_cfg(2));
  eng.run([](Ctx& ctx) {
    auto& gov = mon::Governor::of(ctx.engine());
    EXPECT_FALSE(gov.mem_enabled());
    EXPECT_DOUBLE_EQ(gov.overhead_budget_pct(), 0.0);
    EXPECT_EQ(gov.shed_level(), 0);
  });
  ::unsetenv("MPIM_MEM_BUDGET_BYTES");
  ::unsetenv("MPIM_OVERHEAD_PCT");
}

}  // namespace
}  // namespace mpim::mpi
