// Deterministic fault injection and failure-aware behavior: the FaultPlan
// draws, the engine's crash/stall/drop handling, typed failure errors,
// per-communicator error modes, the structured deadlock report, and the
// degraded (partial) monitoring gathers with the reorder identity fallback.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "fault/fault_plan.h"
#include "minimpi/api.h"
#include "minimpi/engine.h"
#include "minimpi/ft.h"
#include "mpimon/mpi_monitoring.h"
#include "mpit/runtime.h"
#include "reorder/reorder.h"
#include "telemetry/hub.h"

namespace mpim::mpi {
namespace {

bool contains(const std::string& haystack, const std::string& needle) {
  return haystack.find(needle) != std::string::npos;
}

/// 2 nodes x 4 cores, round-robin placement: ranks 0 and 1 land on the same
/// socket, so the 0 -> 1 link runs at beta = 1e10 (tx of 1e6 bytes = 1e-4 s).
EngineConfig fault_cfg(int nranks,
                       std::shared_ptr<fault::FaultPlan> plan = nullptr) {
  topo::Topology t({2, 1, 4}, {"node", "socket", "core"});
  std::vector<net::LinkParams> params = {
      {1e-5, 1e8},   // inter-node
      {1e-6, 1e9},   // inter-socket
      {1e-7, 1e10},  // intra-socket
      {0.0, 1e12},   // same PU
  };
  net::CostModel cost(t, params, /*send_overhead=*/1e-7);
  EngineConfig cfg{.cost_model = cost,
                   .placement = topo::round_robin_placement(nranks, t)};
  cfg.watchdog_wall_timeout_s = 5.0;
  cfg.fault_plan = std::move(plan);
  return cfg;
}

// --- FaultPlan unit behavior -------------------------------------------------

TEST(FaultPlan, ValidatesFaultParameters) {
  fault::FaultPlan plan(1);
  fault::LinkFault bad_drop;
  bad_drop.drop_prob = 1.0;  // certain loss forever is not a distribution
  EXPECT_THROW(plan.add(bad_drop), Error);
  fault::LinkFault bad_degrade;
  bad_degrade.degrade_factor = 0.5;  // a speed-up is not a fault
  EXPECT_THROW(plan.add(bad_degrade), Error);
  fault::RankFault bad_slow;
  bad_slow.slowdown = 0.25;
  EXPECT_THROW(plan.add(bad_slow), Error);
}

TEST(FaultPlan, DrawsAreReproducibleAcrossInstancesAndRuns) {
  fault::LinkFault jitter;
  jitter.delay_jitter_s = 1e-3;
  jitter.drop_prob = 0.3;

  auto sequence = [&](std::uint64_t seed) {
    fault::FaultPlan plan(seed);
    plan.add(jitter);
    plan.begin_run(4);
    std::vector<fault::SendFaults> out;
    for (int i = 0; i < 20; ++i) out.push_back(plan.on_send(0, 1, 100, 0.0));
    return out;
  };
  const auto a = sequence(42);
  const auto b = sequence(42);
  ASSERT_EQ(a.size(), b.size());
  bool any_jitter = false;
  bool any_retransmit = false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].latency_extra_s, b[i].latency_extra_s);
    EXPECT_EQ(a[i].sender_extra_s, b[i].sender_extra_s);
    EXPECT_EQ(a[i].attempts, b[i].attempts);
    EXPECT_EQ(a[i].lost, b[i].lost);
    any_jitter |= a[i].latency_extra_s > 0.0;
    any_retransmit |= a[i].attempts > 1;
  }
  EXPECT_TRUE(any_jitter);
  EXPECT_TRUE(any_retransmit);  // drop_prob 0.3 over 20 messages
}

TEST(FaultPlan, OnlyCrashesWallStallsAndDropsCanFailAReceive) {
  // What selects the failure-aware tool collectives: a plan that only
  // moves virtual time must run exactly the program a run without a plan
  // runs. At np 5 ft_allgather's ring sends n(n-1) tool messages, its
  // linear gather-and-broadcast 2(n-1).
  struct Case {
    const char* what;
    std::vector<fault::LinkFault> links;
    std::vector<fault::RankFault> ranks;
    bool can_fail;
  };
  const Case cases[] = {
      {"empty plan", {}, {}, false},
      {"jitter", {{.delay_jitter_s = 1e-6}}, {}, false},
      {"degradation window",
       {{.degrade_from_s = 0.0, .degrade_until_s = 1.0, .degrade_factor = 4.0}},
       {},
       false},
      {"slowdown", {}, {{.rank = 1, .slowdown = 2.0}}, false},
      {"virtual-only stall",
       {},
       {{.rank = 1, .stall_at_s = 1e-3, .stall_virtual_s = 1e-3}},
       false},
      {"wall stall that never starts", {}, {{.rank = 1, .stall_wall_s = 0.1}},
       false},
      {"finite crash", {}, {{.rank = 1, .crash_at_s = 1e9}}, true},
      {"wall stall",
       {},
       {{.rank = 1, .stall_at_s = 1e-3, .stall_wall_s = 0.1}},
       true},
      {"drops", {{.drop_prob = 0.1}}, {}, true},
      {"jitter and a crash",
       {{.delay_jitter_s = 1e-6}},
       {{.rank = 0, .crash_at_s = 1.0}},
       true},
  };
  constexpr int kNp = 5;
  constexpr std::uint64_t kRing = kNp * (kNp - 1), kLinear = 2 * (kNp - 1);
  const auto allgather_messages = [](std::shared_ptr<fault::FaultPlan> plan) {
    Engine eng(fault_cfg(kNp, std::move(plan)));
    eng.telemetry().set_enabled(true);
    eng.run([](Ctx& ctx) {
      for (const Ctx::RecvWait w : ft_allgather(ctx.world(), 16, 5.0))
        EXPECT_EQ(w, Ctx::RecvWait::ok);
    });
    return eng.telemetry().registry().counter_total(
        telemetry::Metric::engine_messages);
  };
  for (const Case& c : cases) {
    auto plan = std::make_shared<fault::FaultPlan>(1);
    for (const fault::LinkFault& f : c.links) plan->add(f);
    for (const fault::RankFault& f : c.ranks) plan->add(f);
    EXPECT_EQ(plan->can_fail_receives(), c.can_fail) << c.what;
    EXPECT_EQ(allgather_messages(plan), c.can_fail ? kLinear : kRing)
        << c.what;
  }
  EXPECT_EQ(allgather_messages(nullptr), kRing) << "no plan";
}

// --- deterministic virtual clocks under faults -------------------------------

TEST(Fault, FinalClocksBitIdenticalAcrossRuns) {
  auto plan = std::make_shared<fault::FaultPlan>(7);
  fault::LinkFault link;
  link.delay_jitter_s = 5e-5;
  link.drop_prob = 0.05;
  link.degrade_from_s = 0.0;
  link.degrade_until_s = 1e-3;
  link.degrade_factor = 3.0;
  plan->add(link);
  fault::RankFault slow;
  slow.rank = 2;
  slow.slowdown = 2.0;
  plan->add(slow);

  Engine eng(fault_cfg(6, plan));
  auto workload = [](Ctx& ctx) {
    const Comm world = ctx.world();
    const int r = comm_rank(world);
    const int n = comm_size(world);
    std::vector<double> buf(200);
    for (int it = 0; it < 8; ++it) {
      compute(1e-6 * (r + 1));
      send(buf.data(), buf.size(), Type::Double, (r + 1) % n, it, world);
      recv(buf.data(), buf.size(), Type::Double, (r + n - 1) % n, it, world);
    }
  };
  eng.run(workload);
  const auto first = eng.final_clocks();
  eng.run(workload);
  EXPECT_EQ(first, eng.final_clocks());
  eng.run(workload);
  EXPECT_EQ(first, eng.final_clocks());
}

// --- per-fault mechanics -----------------------------------------------------

TEST(Fault, JitterDelaysOnlyTheReceiver) {
  double plain_sender = 0.0, plain_receiver = 0.0;
  double fault_sender = 0.0, fault_receiver = 0.0;
  auto workload = [](Ctx& ctx, double* sender, double* receiver) {
    const Comm world = ctx.world();
    std::vector<std::byte> b(1000);
    if (ctx.world_rank() == 0) {
      send(b.data(), b.size(), Type::Byte, 1, 0, world);
      *sender = ctx.now();
    } else {
      recv(b.data(), b.size(), Type::Byte, 0, 0, world);
      *receiver = ctx.now();
    }
  };
  {
    Engine eng(fault_cfg(2));
    eng.run([&](Ctx& c) { workload(c, &plain_sender, &plain_receiver); });
  }
  {
    auto plan = std::make_shared<fault::FaultPlan>(11);
    fault::LinkFault jitter;
    jitter.delay_jitter_s = 1e-3;
    plan->add(jitter);
    Engine eng(fault_cfg(2, plan));
    eng.run([&](Ctx& c) { workload(c, &fault_sender, &fault_receiver); });
  }
  EXPECT_DOUBLE_EQ(fault_sender, plain_sender);  // jitter rides the wire
  EXPECT_GT(fault_receiver, plain_receiver);
  EXPECT_LT(fault_receiver, plain_receiver + 1e-3);
}

TEST(Fault, BandwidthDegradationWindowScalesSerialization) {
  auto plan = std::make_shared<fault::FaultPlan>(3);
  fault::LinkFault degrade;
  degrade.degrade_from_s = 0.0;
  degrade.degrade_until_s = 1.0;
  degrade.degrade_factor = 10.0;
  plan->add(degrade);
  Engine eng(fault_cfg(2, plan));
  eng.run([](Ctx& ctx) {
    const Comm world = ctx.world();
    std::vector<std::byte> b(1'000'000);
    if (ctx.world_rank() == 0) {
      send(b.data(), b.size(), Type::Byte, 1, 0, world);
      // Intra-socket tx = 1e6 / 1e10 = 1e-4 s, degraded x10.
      EXPECT_NEAR(ctx.now(), 1e-3 + 1e-7, 1e-9);
    } else {
      recv(b.data(), b.size(), Type::Byte, 0, 0, world);
    }
  });
}

TEST(Fault, DroppedMessageChargesSenderAndIsNeverDelivered) {
  auto plan = std::make_shared<fault::FaultPlan>(5);
  fault::LinkFault drop;
  drop.src = 0;
  drop.dst = 1;
  drop.drop_prob = 0.999999;  // every attempt is (deterministically) lost
  drop.max_retransmits = 2;
  drop.retransmit_backoff_s = 1e-3;
  plan->add(drop);
  Engine eng(fault_cfg(2, plan));
  std::atomic<bool> timed_out{false};
  eng.run([&](Ctx& ctx) {
    const Comm world = ctx.world();
    comm_set_errhandler(world, ErrMode::ret);
    std::vector<std::byte> b(1'000'000);
    if (ctx.world_rank() == 0) {
      send(b.data(), b.size(), Type::Byte, 1, 0, world);
      // 3 attempts x 1e-4 s serialization + backoffs 1e-3 + 2e-3.
      EXPECT_NEAR(ctx.now(), 3 * 1e-4 + 3e-3 + 1e-7, 1e-9);
    } else {
      try {
        recv_timeout(b.data(), b.size(), Type::Byte, 0, 0, world, 0.3);
      } catch (const TimeoutError& e) {
        timed_out = true;
        EXPECT_DOUBLE_EQ(e.timeout_s(), 0.3);
      }
    }
  });
  EXPECT_TRUE(timed_out.load());
}

TEST(Fault, SlowdownScalesComputeTime) {
  auto plan = std::make_shared<fault::FaultPlan>(1);
  fault::RankFault slow;
  slow.rank = 0;
  slow.slowdown = 3.0;
  plan->add(slow);
  Engine eng(fault_cfg(2, plan));
  eng.run([](Ctx& ctx) {
    compute(1e-3);
    if (ctx.world_rank() == 0)
      EXPECT_DOUBLE_EQ(ctx.now(), 3e-3);
    else
      EXPECT_DOUBLE_EQ(ctx.now(), 1e-3);
  });
}

TEST(Fault, StallAddsVirtualTimeExactlyOnce) {
  auto plan = std::make_shared<fault::FaultPlan>(1);
  fault::RankFault stall;
  stall.rank = 0;
  stall.stall_at_s = 1e-3;
  stall.stall_virtual_s = 0.5;
  plan->add(stall);
  Engine eng(fault_cfg(1, plan));
  auto workload = [](Ctx& ctx) {
    compute(2e-3);  // crosses 1e-3: the one-shot stall fires here
    compute(2e-3);  // must NOT stall again
    EXPECT_NEAR(ctx.now(), 0.5 + 4e-3, 1e-12);
  };
  eng.run(workload);
  const auto first = eng.final_clocks();
  eng.run(workload);  // begin_run re-arms the one-shot deterministically
  EXPECT_EQ(first, eng.final_clocks());
}

// --- rank death --------------------------------------------------------------

TEST(Fault, CrashTruncatesClockAndMarksRankDead) {
  auto plan = std::make_shared<fault::FaultPlan>(1);
  fault::RankFault crash;
  crash.rank = 1;
  crash.crash_at_s = 1e-3;
  plan->add(crash);
  Engine eng(fault_cfg(2, plan));
  std::atomic<bool> survived_past_crash{false};
  eng.run([&](Ctx& ctx) {
    if (ctx.world_rank() != 1) return;
    compute(5e-4);
    try {
      compute(1e-2);  // crosses the crash time
      survived_past_crash = true;
    } catch (const Error&) {
      // RankCrashExit is not an Error: application-level handlers must not
      // be able to keep a crashed rank alive.
      survived_past_crash = true;
    }
  });
  EXPECT_FALSE(survived_past_crash.load());
  EXPECT_TRUE(eng.rank_dead(1));
  EXPECT_FALSE(eng.rank_dead(0));
  EXPECT_DOUBLE_EQ(eng.dead_time(1), 1e-3);
  EXPECT_DOUBLE_EQ(eng.final_clocks()[1], 1e-3);
  EXPECT_EQ(eng.dead_ranks(), std::vector<int>{1});
}

TEST(Fault, RecvFromDeadRankIsFatalByDefault) {
  auto plan = std::make_shared<fault::FaultPlan>(1);
  fault::RankFault crash;
  crash.rank = 1;
  crash.crash_at_s = 0.0;
  plan->add(crash);
  Engine eng(fault_cfg(2, plan));
  EXPECT_THROW(eng.run([](Ctx& ctx) {
    if (ctx.world_rank() == 1) {
      compute(0.0);  // first fault check kills the rank
      return;
    }
    int v = 0;
    recv(&v, 1, Type::Int, 1, 0, ctx.world());
  }),
               RankFailedError);
}

TEST(Fault, RecvFromDeadRankReturnsTypedErrorUnderErrmodeReturn) {
  auto plan = std::make_shared<fault::FaultPlan>(1);
  fault::RankFault crash;
  crash.rank = 1;
  crash.crash_at_s = 2e-3;
  plan->add(crash);
  Engine eng(fault_cfg(2, plan));
  std::atomic<bool> caught{false};
  eng.run([&](Ctx& ctx) {
    const Comm world = ctx.world();
    comm_set_errhandler(world, ErrMode::ret);
    EXPECT_EQ(comm_get_errhandler(world), ErrMode::ret);
    if (ctx.world_rank() == 1) {
      compute(1e-2);  // dies at t = 2e-3
      return;
    }
    int v = 0;
    try {
      recv(&v, 1, Type::Int, 1, 0, world);
    } catch (const RankFailedError& e) {
      caught = true;
      EXPECT_EQ(e.world_rank(), 1);
      EXPECT_DOUBLE_EQ(e.crash_time_s(), 2e-3);
      // The survivor's clock advanced to the failure notification.
      EXPECT_GE(ctx.now(), 2e-3);
    }
  });
  EXPECT_TRUE(caught.load());
}

TEST(Fault, RecvTimeoutRaisesTypedTimeout) {
  Engine eng(fault_cfg(2));  // no fault plan needed for timeouts
  std::atomic<bool> timed_out{false};
  eng.run([&](Ctx& ctx) {
    const Comm world = ctx.world();
    comm_set_errhandler(world, ErrMode::ret);
    if (ctx.world_rank() == 1) return;  // never sends
    int v = 0;
    try {
      recv_timeout(&v, 1, Type::Int, 1, 0, world, 0.2);
    } catch (const TimeoutError&) {
      timed_out = true;
    }
  });
  EXPECT_TRUE(timed_out.load());
}

// --- structured deadlock report ----------------------------------------------

TEST(Fault, DeadlockReportNamesEveryBlockedRankAndOperation) {
  auto cfg = fault_cfg(2);
  cfg.watchdog_wall_timeout_s = 0.5;
  Engine eng(cfg);
  std::string report;
  try {
    eng.run([](Ctx& ctx) {
      int v = 0;
      if (ctx.world_rank() == 0)
        recv(&v, 1, Type::Int, 1, 5, ctx.world());
      else
        recv(&v, 1, Type::Int, 0, 7, ctx.world());
    });
    FAIL() << "expected DeadlockError";
  } catch (const DeadlockError& e) {
    report = e.what();
  }
  EXPECT_TRUE(contains(report, "deadlock")) << report;
  EXPECT_TRUE(contains(report, "rank 0: blocked in recv(src=1, tag=5"))
      << report;
  EXPECT_TRUE(contains(report, "rank 1: blocked in recv(src=0, tag=7"))
      << report;
  EXPECT_TRUE(contains(report, "kind=p2p")) << report;
  EXPECT_TRUE(contains(report, "comm=")) << report;
  EXPECT_TRUE(contains(report, "at t=")) << report;
}

TEST(Fault, WatchdogScalesWithWorldSizeAndHonorsEnvOverride) {
  auto cfg = fault_cfg(8);
  cfg.watchdog_wall_timeout_s = 2.0;
  {
    Engine eng(cfg);
    EXPECT_DOUBLE_EQ(eng.effective_watchdog_s(), 2.0);  // 8/32 < 1: floor
  }
  {
    topo::Topology t({16, 1, 4}, {"node", "socket", "core"});
    std::vector<net::LinkParams> params = {
        {1e-5, 1e8}, {1e-6, 1e9}, {1e-7, 1e10}, {0.0, 1e12}};
    net::CostModel cost(t, params, 1e-7);
    EngineConfig big{.cost_model = cost,
                     .placement = topo::round_robin_placement(64, t)};
    big.watchdog_wall_timeout_s = 2.0;
    Engine eng(big);
    EXPECT_DOUBLE_EQ(eng.effective_watchdog_s(), 4.0);  // x(64/32)
  }
  {
    ::setenv("MPIM_WATCHDOG_S", "0.25", 1);
    Engine eng(cfg);
    EXPECT_DOUBLE_EQ(eng.effective_watchdog_s(), 0.25);
    ::unsetenv("MPIM_WATCHDOG_S");
  }
}

TEST(Fault, WatchdogScalingIsCappedAtLargeWorlds) {
  // An uncapped np/32 multiplier would mean 4096/32 = 128x the base --
  // tens of minutes of silence before a deadlock report. The multiplier
  // must stop at 4x and the scaled result at two minutes.
  topo::Topology t({256, 1, 16}, {"node", "socket", "core"});
  std::vector<net::LinkParams> params = {
      {1e-5, 1e8}, {1e-6, 1e9}, {1e-7, 1e10}, {0.0, 1e12}};
  net::CostModel cost(t, params, 1e-7);
  EngineConfig huge{.cost_model = cost,
                    .placement = topo::round_robin_placement(4096, t)};
  huge.watchdog_wall_timeout_s = 2.0;
  {
    Engine eng(huge);
    EXPECT_DOUBLE_EQ(eng.effective_watchdog_s(), 8.0);  // 4x cap, not 128x
  }
  huge.watchdog_wall_timeout_s = 60.0;
  {
    Engine eng(huge);
    EXPECT_DOUBLE_EQ(eng.effective_watchdog_s(), 120.0);  // 2-minute ceiling
  }
  // A base above the ceiling is the user's explicit choice: honored as-is.
  huge.watchdog_wall_timeout_s = 300.0;
  {
    Engine eng(huge);
    EXPECT_DOUBLE_EQ(eng.effective_watchdog_s(), 300.0);
  }
}

// --- failure-aware monitoring gathers ----------------------------------------

/// Ranks 0..2 exchange a ring among themselves; rank 3 dies on entry.
void alive_ring(Ctx& ctx, std::size_t bytes) {
  const Comm world = ctx.world();
  const int r = ctx.world_rank();
  std::vector<std::byte> buf(bytes);
  send(buf.data(), bytes, Type::Byte, (r + 1) % 3, 0, world);
  recv(buf.data(), bytes, Type::Byte, (r + 2) % 3, 0, world);
}

TEST(Fault, RootgatherReturnsPartialDataWithSentinelRows) {
  auto plan = std::make_shared<fault::FaultPlan>(1);
  fault::RankFault crash;
  crash.rank = 3;
  crash.crash_at_s = 0.0;
  plan->add(crash);
  auto cfg = fault_cfg(4, plan);
  Engine eng(cfg);
  mpit::Runtime tool(eng);
  eng.run([](Ctx& ctx) {
    if (ctx.world_rank() == 3) {
      compute(0.0);
      return;
    }
    ASSERT_EQ(MPI_M_init(), MPI_M_SUCCESS);
    ASSERT_EQ(MPI_M_set_gather_timeout(0.2), MPI_M_SUCCESS);
    EXPECT_DOUBLE_EQ(MPI_M_get_gather_timeout(), 0.2);
    MPI_M_msid id = -1;
    ASSERT_EQ(MPI_M_start(ctx.world(), &id), MPI_M_SUCCESS);
    alive_ring(ctx, 1000);
    ASSERT_EQ(MPI_M_suspend(id), MPI_M_SUCCESS);

    const int n = 4;
    std::vector<unsigned long> sizes(
        ctx.world_rank() == 0 ? static_cast<std::size_t>(n * n) : 0);
    const int rc = MPI_M_rootgather_data(
        id, 0, MPI_M_DATA_IGNORE,
        ctx.world_rank() == 0 ? sizes.data() : nullptr, MPI_M_ALL_COMM);
    if (ctx.world_rank() == 0) {
      EXPECT_EQ(rc, MPI_M_PARTIAL_DATA);
      for (int j = 0; j < n; ++j)
        EXPECT_EQ(sizes[static_cast<std::size_t>(3 * n + j)],
                  MPI_M_DATA_MISSING);
      EXPECT_EQ(sizes[1], 1000ul);  // rank 0 -> rank 1, still measured
    } else {
      EXPECT_EQ(rc, MPI_M_SUCCESS);  // contributors cannot see the hole
    }
    EXPECT_EQ(MPI_M_free(id), MPI_M_SUCCESS);
    EXPECT_EQ(MPI_M_finalize(), MPI_M_SUCCESS);
  });
  EXPECT_TRUE(eng.rank_dead(3));
}

TEST(Fault, AllgatherDistributesPartialMatrixToEveryAliveRank) {
  auto plan = std::make_shared<fault::FaultPlan>(1);
  fault::RankFault crash;
  crash.rank = 3;
  crash.crash_at_s = 0.0;
  plan->add(crash);
  Engine eng(fault_cfg(4, plan));
  mpit::Runtime tool(eng);
  eng.run([](Ctx& ctx) {
    if (ctx.world_rank() == 3) {
      compute(0.0);
      return;
    }
    ASSERT_EQ(MPI_M_init(), MPI_M_SUCCESS);
    ASSERT_EQ(MPI_M_set_gather_timeout(0.2), MPI_M_SUCCESS);
    MPI_M_msid id = -1;
    ASSERT_EQ(MPI_M_start(ctx.world(), &id), MPI_M_SUCCESS);
    alive_ring(ctx, 500);
    ASSERT_EQ(MPI_M_suspend(id), MPI_M_SUCCESS);

    const int n = 4;
    std::vector<unsigned long> sizes(static_cast<std::size_t>(n * n));
    EXPECT_EQ(MPI_M_allgather_data(id, MPI_M_DATA_IGNORE, sizes.data(),
                                   MPI_M_ALL_COMM),
              MPI_M_PARTIAL_DATA);
    for (int j = 0; j < n; ++j)
      EXPECT_EQ(sizes[static_cast<std::size_t>(3 * n + j)],
                MPI_M_DATA_MISSING);
    EXPECT_EQ(MPI_M_free(id), MPI_M_SUCCESS);
    EXPECT_EQ(MPI_M_finalize(), MPI_M_SUCCESS);
  });
}

// --- reorder identity fallback -----------------------------------------------

TEST(Fault, ReorderFallsBackToIdentityOnPartialData) {
  auto plan = std::make_shared<fault::FaultPlan>(1);
  fault::RankFault crash;
  crash.rank = 3;
  crash.crash_at_s = 0.0;
  plan->add(crash);
  Engine eng(fault_cfg(4, plan));
  mpit::Runtime tool(eng);
  eng.run([](Ctx& ctx) {
    if (ctx.world_rank() == 3) {
      compute(0.0);
      return;
    }
    const Comm world = ctx.world();
    ASSERT_EQ(MPI_M_init(), MPI_M_SUCCESS);
    ASSERT_EQ(MPI_M_set_gather_timeout(0.2), MPI_M_SUCCESS);
    MPI_M_msid id = -1;
    ASSERT_EQ(MPI_M_start(world, &id), MPI_M_SUCCESS);
    alive_ring(ctx, 2000);
    ASSERT_EQ(MPI_M_suspend(id), MPI_M_SUCCESS);

    const reorder::ReorderResult res = reorder::reorder_ranks(id, world);
    EXPECT_TRUE(res.fell_back);
    EXPECT_FALSE(res.fallback_reason.empty());
    EXPECT_EQ(res.k, reorder::identity_k(4));
    // No split on fallback: the optimized communicator IS the input one.
    EXPECT_EQ(res.opt_comm.context_id(), world.context_id());

    EXPECT_EQ(MPI_M_free(id), MPI_M_SUCCESS);
    EXPECT_EQ(MPI_M_finalize(), MPI_M_SUCCESS);
  });
}

TEST(Fault, ValidateGatheredMatrixRejectsSentinelAndGarbage) {
  std::string reason;
  std::vector<unsigned long> good(9, 10ul);
  EXPECT_TRUE(reorder::validate_gathered_matrix(good.data(), 3, &reason));

  std::vector<unsigned long> holed = good;
  holed[4] = MPI_M_DATA_MISSING;
  EXPECT_FALSE(reorder::validate_gathered_matrix(holed.data(), 3, &reason));
  EXPECT_TRUE(contains(reason, "MPI_M_DATA_MISSING")) << reason;

  std::vector<unsigned long> corrupt = good;
  corrupt[2] = (1ul << 62) + 1ul;
  EXPECT_FALSE(reorder::validate_gathered_matrix(corrupt.data(), 3, &reason));
  EXPECT_TRUE(contains(reason, "implausibly large")) << reason;

  EXPECT_FALSE(reorder::validate_gathered_matrix(nullptr, 3, &reason));
  EXPECT_FALSE(reorder::validate_gathered_matrix(good.data(), 0, &reason));
}

}  // namespace
}  // namespace mpim::mpi
