// Scheduler-backend parity: every workload must produce bit-identical
// virtual clocks whether ranks run as OS threads or as cooperatively
// scheduled fibers of one thread (EngineConfig::sched / MPIM_SCHED). The
// sweep covers plain p2p + collectives, NIC contention, NAS CG's in-place
// reduce-scatter receives (clocks and residual), fault plans,
// crash + shrink + rebind recovery, and the critical-path profiler's
// labels; three golden-clock cases pin the tree fabric, every
// collective family plus a monitored session, and a np=1000 contended
// world deep in the min-clock gate's tree. The gate's tree is also checked
// against the linear arg-min it replaced. The delivery cases check that a
// message landing in a waiting receive's buffer and one copied through the
// inbox arrive byte-identical, in order and at the same clocks, and that
// a receive that timed out leaves no stale post. Fiber-only cases check the
// structural deadlock detector, timed receives, rerun determinism, that a
// switch keeps each fiber's FP rounding mode and stack alignment (the
// register-only switch saves MXCSR and the x87 control word, nothing
// else), a stack slab larger than the host's memory, the next world on a
// thread reusing the last one's stack slab (page faults, disjoint stacks,
// golden clocks on a reused slab), and a np=512 recovery world no thread
// backend could drive on a small host.
#include <gtest/gtest.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cfenv>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <limits>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "apps/nas_cg.h"
#include "critpath/critpath.h"
#include "fault/fault_plan.h"
#include "minimpi/api.h"
#include "minimpi/engine.h"
#include "minimpi/fiber_sched.h"
#include "minimpi/ft.h"
#include "minimpi/min_clock_tree.h"
#include "mpimon/mpi_monitoring.h"
#include "mpit/runtime.h"

#if defined(__SANITIZE_THREAD__)
#define MPIM_TEST_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define MPIM_TEST_TSAN 1
#endif
#endif

namespace mpim::mpi {
namespace {

using telemetry::Metric;

bool contains(const std::string& haystack, const std::string& needle) {
  return haystack.find(needle) != std::string::npos;
}

EngineConfig sched_cfg(int nranks, int nodes = 2, int cores = 4,
                       std::shared_ptr<fault::FaultPlan> plan = nullptr) {
  topo::Topology t({nodes, 1, cores}, {"node", "socket", "core"});
  std::vector<net::LinkParams> params = {
      {1e-5, 1e8}, {1e-6, 1e9}, {1e-7, 1e10}, {0.0, 1e12}};
  net::CostModel cost(t, params, /*send_overhead=*/1e-7);
  EngineConfig cfg{.cost_model = cost,
                   .placement = topo::round_robin_placement(nranks, t)};
  cfg.watchdog_wall_timeout_s = 5.0;
  cfg.fault_plan = std::move(plan);
  return cfg;
}

/// Runs `workload` once under each backend on otherwise identical engines
/// and requires every rank's final virtual clock to match bit for bit.
void expect_clock_parity(const EngineConfig& cfg,
                         const std::function<void(Ctx&)>& workload) {
  EngineConfig tcfg = cfg;
  tcfg.sched = SchedMode::threads;
  Engine threads(tcfg);
  threads.run(workload);

  EngineConfig fcfg = cfg;
  fcfg.sched = SchedMode::fibers;
  Engine fibers(fcfg);
  fibers.run(workload);
  EXPECT_EQ(threads.final_clocks(), fibers.final_clocks());
  EXPECT_EQ(fibers.sched_mode(), SchedMode::fibers);
}

/// Ring p2p with per-rank compute skew plus one of each collective family,
/// so both backends exercise the tree/dissemination join patterns.
void mixed_workload(Ctx& ctx) {
  const Comm world = ctx.world();
  const int n = comm_size(world);
  const int me = comm_rank(world);
  std::vector<double> buf(64, static_cast<double>(me));
  for (int it = 0; it < 4; ++it) {
    compute(1e-5 * (me % 3 + 1));
    send(buf.data(), buf.size(), Type::Double, (me + 1) % n, it, world);
    recv(buf.data(), buf.size(), Type::Double, (me + n - 1) % n, it, world);
  }
  long v = me, sum = 0;
  allreduce(&v, &sum, 1, Type::Long, Op::Sum, world);
  EXPECT_EQ(sum, static_cast<long>(n) * (n - 1) / 2);
  int root_val = me == 0 ? 42 : 0;
  bcast(&root_val, 1, Type::Int, 0, world);
  EXPECT_EQ(root_val, 42);
  barrier(world);
}

// --- strict MPIM_SCHED parsing ----------------------------------------------

TEST(SchedEnv, StrictParseOverridesAndRejectsGarbage) {
  auto cfg = sched_cfg(2);
  const auto run_and_mode = [&](const EngineConfig& c) {
    Engine eng(c);
    eng.run([](Ctx&) {});
    return eng.sched_mode();
  };
  ::unsetenv("MPIM_SCHED");
  EXPECT_EQ(run_and_mode(cfg), SchedMode::threads);  // config default

  ::setenv("MPIM_SCHED", "fibers", 1);
  EXPECT_EQ(run_and_mode(cfg), SchedMode::fibers);
  ::setenv("MPIM_SCHED", " THREADS ", 1);  // case + whitespace tolerated
  cfg.sched = SchedMode::fibers;
  EXPECT_EQ(run_and_mode(cfg), SchedMode::threads);

  // Garbage must not half-apply: the configured backend stands.
  for (const char* bad : {"fiber", "fibres", "2", "", "threads,fibers"}) {
    ::setenv("MPIM_SCHED", bad, 1);
    EXPECT_EQ(run_and_mode(cfg), SchedMode::fibers) << "value \"" << bad
                                                    << "\"";
  }
  ::unsetenv("MPIM_SCHED");
}

// --- thread-vs-fiber clock bit-identity sweep --------------------------------

TEST(SchedParity, MixedP2pAndCollectives) {
  for (int np : {2, 4, 8, 16}) {
    SCOPED_TRACE("np=" + std::to_string(np));
    expect_clock_parity(sched_cfg(np, /*nodes=*/std::max(2, np / 4)),
                        mixed_workload);
  }
}

TEST(SchedParity, NicContentionGateOrdersSendsIdentically) {
  // The min-clock gate serializes inter-node sends by (clock, rank); the
  // fiber backend must reproduce the exact same port reservations.
  auto cfg = sched_cfg(8, /*nodes=*/4, /*cores=*/2);
  cfg.nic_contention = true;
  cfg.nic_port_beta_scale = 2.0;
  expect_clock_parity(cfg, [](Ctx& ctx) {
    const Comm world = ctx.world();
    const int n = comm_size(world);
    const int me = comm_rank(world);
    std::vector<char> big(1 << 15, 'x');
    for (int it = 0; it < 3; ++it) {
      compute(2e-6 * (me + 1));
      send(big.data(), big.size(), Type::Char, (me + n / 2) % n, it, world);
      recv(big.data(), big.size(), Type::Char, (me + n / 2) % n, it, world);
    }
    barrier(world);
  });
}

TEST(SchedParity, NasCgInPlaceReduceScatterUnderContention) {
  // NAS CG's reduce-scatter receives each round after the first into the
  // half of the running sum it has just sent; on threads the partner's
  // payload lands there from the partner's thread (TSan watches). A 4 x 4
  // grid runs two rounds; the column partners sit on other nodes.
  auto cfg = sched_cfg(16, /*nodes=*/4, /*cores=*/4);
  cfg.nic_contention = true;
  cfg.nic_port_beta_scale = 2.0;
  std::vector<double> residuals;  // rank 0's, threads run first
  expect_clock_parity(cfg, [&](Ctx& ctx) {
    apps::NasCgSolver solver(ctx.world(), apps::CgConfig{48, 6, 5});
    const double residual = solver.solve().residual_norm2;
    if (ctx.world_rank() == 0) residuals.push_back(residual);
  });
  ASSERT_EQ(residuals.size(), 2u);
  EXPECT_GT(residuals[0], 0.0);
  EXPECT_EQ(residuals[0], residuals[1]) << std::hexfloat << residuals[0]
                                        << " vs " << residuals[1];
}

TEST(SchedParity, FaultPlanCrashAndSlowdown) {
  auto plan = std::make_shared<fault::FaultPlan>(1);
  fault::RankFault crash;
  crash.rank = 2;
  crash.crash_at_s = 2e-3;
  plan->add(crash);
  fault::RankFault slow;
  slow.rank = 1;
  slow.slowdown = 1.5;
  plan->add(slow);
  auto cfg = sched_cfg(6, 2, 4, plan);
  // Star pattern on the victim: every survivor depends only on rank 2 (no
  // survivor-to-survivor edges that would dangle once a peer stops early),
  // so the failure is observed at a deterministic clock on every rank.
  expect_clock_parity(cfg, [](Ctx& ctx) {
    const Comm world = ctx.world();
    comm_set_errhandler(world, ErrMode::ret);
    const int me = ctx.world_rank();
    if (me == 2) {
      compute(1.0);  // dies on the way
      return;
    }
    compute(5e-4 * (me + 1));  // rank 1's slowdown shapes this
    int v = me;
    try {
      recv(&v, 1, Type::Int, 2, 0, world);
      ADD_FAILURE() << "rank 2 never sends";
    } catch (const RankFailedError&) {
      // The failure already moved this rank's clock to the crash time.
    }
    compute(1e-4);
  });
}

TEST(SchedParity, CrashShrinkAgreeRecovery) {
  const auto plan = [] {
    auto p = std::make_shared<fault::FaultPlan>(1);
    fault::RankFault crash;
    crash.rank = 3;
    crash.crash_at_s = 1e-3;
    p->add(crash);
    return p;
  };
  const auto workload = [](Ctx& ctx) {
    const Comm world = ctx.world();
    comm_set_errhandler(world, ErrMode::ret);
    if (ctx.world_rank() == 3) {
      compute(1.0);
      return;
    }
    const Comm alive = comm_shrink(world);
    ASSERT_FALSE(alive.is_null());
    ASSERT_EQ(comm_size(alive), 5);
    const int me = comm_rank(alive);
    int token = me;
    send(&token, 1, Type::Int, (me + 1) % 5, 9, alive);
    recv(&token, 1, Type::Int, (me + 4) % 5, 9, alive);
    int flag = 1;
    EXPECT_TRUE(comm_agree(alive, &flag));
    EXPECT_EQ(flag, 1);
  };
  expect_clock_parity(sched_cfg(6, 2, 4, plan()), workload);
}

TEST(SchedParity, CritpathLabelsMatchAcrossBackends) {
  const auto workload = [](Ctx& ctx) {
    const Comm world = ctx.world();
    const int n = comm_size(world);
    const int me = comm_rank(world);
    std::vector<char> buf(2048, 7);
    for (int it = 0; it < 6; ++it) {
      compute(1e-4);
      if (me == 3) compute(5e-4);  // the straggler
      sendrecv(buf.data(), buf.size(), Type::Char, (me + 1) % n, 0,
               buf.data(), buf.size(), (me + n - 1) % n, 0, world);
    }
    long v = me, sum = 0;
    allreduce(&v, &sum, 1, Type::Long, Op::Sum, world);
  };
  const auto profiled_run = [&](SchedMode mode) {
    auto cfg = sched_cfg(8);
    cfg.sched = mode;
    Engine eng(cfg);
    auto prof = critpath::Profiler::attach(eng);
    eng.run(workload);
    const critpath::BlameReport& rep = prof->report();
    EXPECT_TRUE(rep.valid);
    return std::make_tuple(eng.final_clocks(), rep.dominant_rank,
                           rep.dominant_class, rep.total_comm_ns,
                           rep.total_wait_ns);
  };
  const auto threads = profiled_run(SchedMode::threads);
  const auto fibers = profiled_run(SchedMode::fibers);
  EXPECT_EQ(std::get<0>(threads), std::get<0>(fibers));  // clocks
  EXPECT_EQ(std::get<1>(threads), std::get<1>(fibers));  // dominant rank
  EXPECT_EQ(std::get<1>(fibers), 3);
  EXPECT_EQ(std::get<2>(threads), std::get<2>(fibers));  // dominant class
  EXPECT_EQ(std::get<3>(threads), std::get<3>(fibers));  // total comm ns
  EXPECT_EQ(std::get<4>(threads), std::get<4>(fibers));  // total wait ns
}

// --- fabric backends ---------------------------------------------------------

TEST(SchedParity, AllFabricKindsKeepClockParity) {
  // The per-link contention gate walks real multi-hop routes on fat-tree
  // and dragonfly; both backends must replay the exact same reservations.
  for (const char* spec :
       {"fattree:2,2,1", "fattree:2,2,2", "dragonfly:2,3,2",
        "dragonfly:3,4,2,valiant"}) {
    SCOPED_TRACE(spec);
    constexpr int kNp = 12;
    auto fab = topo::make_fabric(*topo::parse_fabric_spec(spec), kNp);
    EngineConfig cfg{.cost_model = net::CostModel::for_fabric(fab),
                     .placement =
                         topo::bynode_placement(kNp, fab->hierarchy())};
    cfg.watchdog_wall_timeout_s = 5.0;
    cfg.nic_contention = true;
    cfg.nic_port_beta_scale = 2.0;
    expect_clock_parity(cfg, mixed_workload);
  }
}

TEST(SchedParity, TreeFabricReproducesPreFabricClocks) {
  // Golden clocks captured on the depth-indexed pre-fabric engine (18
  // ranks by-node on plafrim_like(3), hexfloat-exact): the TreeFabric path
  // must reproduce them bit for bit, contention on and off, under both
  // backends.
  const std::vector<double> want_plain = {
      0x1.2d037f77959f9p-13, 0x1.2d037f77959f9p-13, 0x1.2f520e50e1d6ap-13,
      0x1.2ab4f09e49688p-13, 0x1.2d037f77959f9p-13, 0x1.2d037f77959f9p-13,
      0x1.2f520e50e1d6ap-13, 0x1.2d037f77959f9p-13, 0x1.2f520e50e1d6ap-13,
      0x1.2f520e50e1d6ap-13, 0x1.31a09d2a2e0dbp-13, 0x1.2d037f77959f9p-13,
      0x1.2f520e50e1d6ap-13, 0x1.286661c4fd317p-13, 0x1.2ab4f09e49688p-13,
      0x1.2ab4f09e49688p-13, 0x1.2d037f77959f9p-13, 0x1.2ab4f09e49688p-13};
  const std::vector<double> want_contended = {
      0x1.2d5f1fb7166ebp-13, 0x1.2d5f1fb7166ebp-13, 0x1.2fadae9062a5cp-13,
      0x1.2b1090ddca37ap-13, 0x1.2d5f1fb7166ebp-13, 0x1.2d5f1fb7166ebp-13,
      0x1.2fadae9062a5cp-13, 0x1.2d5f1fb7166ebp-13, 0x1.2fadae9062a5cp-13,
      0x1.2fadae9062a5cp-13, 0x1.31fc3d69aedcdp-13, 0x1.2d5f1fb7166ebp-13,
      0x1.2fadae9062a5cp-13, 0x1.28c202047e009p-13, 0x1.2b1090ddca37ap-13,
      0x1.2b1090ddca37ap-13, 0x1.2d5f1fb7166ebp-13, 0x1.2b1090ddca37ap-13};
  const auto workload = [](Ctx& ctx) {
    const Comm world = ctx.world();
    const int n = comm_size(world);
    const int me = comm_rank(world);
    std::vector<double> buf(256, static_cast<double>(me));
    for (int it = 0; it < 3; ++it) {
      compute(1e-5 * (me % 4 + 1));
      send(buf.data(), buf.size(), Type::Double, (me + 1) % n, it, world);
      recv(buf.data(), buf.size(), Type::Double, (me + n - 1) % n, it, world);
    }
    long v = me, sum = 0;
    allreduce(&v, &sum, 1, Type::Long, Op::Sum, world);
    int root_val = me == 0 ? 7 : 0;
    bcast(&root_val, 1, Type::Int, 0, world);
    barrier(world);
  };
  for (const bool contention : {false, true}) {
    for (const SchedMode mode : {SchedMode::threads, SchedMode::fibers}) {
      auto cost = net::CostModel::plafrim_like(/*nodes=*/3);
      EngineConfig cfg{.cost_model = cost,
                       .placement =
                           topo::bynode_placement(18, cost.topology())};
      cfg.nic_contention = contention;
      cfg.nic_port_beta_scale = 2.0;
      cfg.sched = mode;
      Engine eng(cfg);
      eng.run(workload);
      EXPECT_EQ(eng.final_clocks(), contention ? want_contended : want_plain)
          << "contention=" << contention << " mode=" << sched_mode_name(mode);
    }
  }
}

TEST(SchedParity, CollectivesAndMonitoredSessionKeepGoldenClocks) {
  // Golden clocks (hexfloat-exact) of every collective family on 10 ranks
  // by-node over plafrim_like(3) with NIC contention: ring and Bruck
  // allgather, then one monitored session whose charged records and OS
  // noise move the clocks. Both backends must reproduce them bit for bit.
  const std::vector<double> want_ring = {
      0x1.8e2cd96ae882cp-14, 0x1.89fb1b82bb076p-14, 0x1.925e975315fe2p-14,
      0x1.933556e7ebe3ap-14, 0x1.92c9f71d80f0ep-14, 0x1.8e98393553758p-14,
      0x1.8e4c5880bccap-14,  0x1.89fb1b82bb076p-14, 0x1.8dc179a07d9p-14,
      0x1.8e98393553758p-14};
  const std::vector<double> want_bruck = {
      0x1.759b5340ec0f7p-14, 0x1.71699558be941p-14, 0x1.79cd1129198adp-14,
      0x1.7aa3d0bdef705p-14, 0x1.7a3870f3847d9p-14, 0x1.7606b30b57023p-14,
      0x1.75bad256c056bp-14, 0x1.71699558be941p-14, 0x1.752ff376811cbp-14,
      0x1.7606b30b57023p-14};
  const std::vector<double> want_monitored = {
      0x1.b520a8040de78p-14, 0x1.b18baca4b912dp-14, 0x1.b94ce1e786208p-14,
      0x1.ba984c1b16be4p-14, 0x1.b9d83de437172p-14, 0x1.b5fb2e687e502p-14,
      0x1.b53b20319ea9p-14,  0x1.b0dddf5059e5p-14,  0x1.b518a935c137fp-14,
      0x1.b628ca575180fp-14};
  const auto workload = [](Ctx& ctx, bool monitored) {
    const Comm world = ctx.world();
    const int n = comm_size(world);
    const int me = comm_rank(world);
    MPI_M_msid id = -1;
    if (monitored) {
      ASSERT_EQ(MPI_M_init(), MPI_M_SUCCESS);
      ASSERT_EQ(MPI_M_start(world, &id), MPI_M_SUCCESS);
    }
    compute(1e-5 * (me % 3 + 1));
    std::vector<long> mine(64, me), out(64 * static_cast<std::size_t>(n));
    reduce(mine.data(), out.data(), 64, Type::Long, Op::Sum, n - 1, world);
    gather(mine.data(), 64, Type::Long, out.data(), 1, world);
    scatter(out.data(), 64, Type::Long, mine.data(), 1, world);
    allgather(mine.data(), 64, Type::Long, out.data(), world);
    alltoall(out.data(), 64 / n, Type::Long, mine.data(), world);
    scan(mine.data(), out.data(), 64, Type::Long, Op::Sum, world);
    exscan(mine.data(), out.data(), 64, Type::Long, Op::Max, world);
    allreduce(mine.data(), out.data(), 64, Type::Long, Op::Sum, world);
    bcast(out.data(), 64, Type::Long, 2, world);
    barrier(world);
    if (monitored) {
      ASSERT_EQ(MPI_M_suspend(id), MPI_M_SUCCESS);
      ASSERT_EQ(MPI_M_free(id), MPI_M_SUCCESS);
      ASSERT_EQ(MPI_M_finalize(), MPI_M_SUCCESS);
    }
  };
  for (const SchedMode mode : {SchedMode::threads, SchedMode::fibers}) {
    for (const auto* want : {&want_ring, &want_bruck, &want_monitored}) {
      const bool monitored = want == &want_monitored;
      auto cost = net::CostModel::plafrim_like(/*nodes=*/3);
      EngineConfig cfg{.cost_model = cost,
                       .placement = topo::bynode_placement(10, cost.topology())};
      cfg.nic_contention = true;
      cfg.nic_port_beta_scale = 2.0;
      cfg.sched = mode;
      if (want == &want_bruck) cfg.coll.allgather = AllgatherAlgo::bruck;
      if (monitored) cfg.os_noise_s = 2e-7;
      Engine eng(cfg);
      mpit::Runtime tool(eng);
      eng.run([&](Ctx& ctx) { workload(ctx, monitored); });
      EXPECT_EQ(eng.final_clocks(), *want)
          << "monitored=" << monitored << " mode=" << sched_mode_name(mode);
    }
  }
}

/// FNV-1a (64-bit) over the bit patterns of every clock, low byte first:
/// one number that pins a whole world's final clocks.
std::uint64_t clock_bits_hash(const std::vector<double>& clocks) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const double c : clocks) {
    const auto bits = std::bit_cast<std::uint64_t>(c);
    for (int shift = 0; shift < 64; shift += 8) {
      h ^= (bits >> shift) & 0xffu;
      h *= 0x100000001b3ull;
    }
  }
  return h;
}

// Golden clocks captured on the linear-scan gate: a contended world deep
// enough that the min-clock tree has 10 levels (np=1000), on plafrim_like
// with a seeded random placement. Ring sendrecv with per-rank compute skew,
// a gather to rank 0 and an allreduce; no MPI_ANY_SOURCE, so thread-mode
// matching stays deterministic. The max final clock is pinned as a
// hexfloat, every clock by its hash.
struct DeepGateGolden {
  int np;
  SchedMode mode;
  double max_clock;
  std::uint64_t hash;
};
constexpr DeepGateGolden kDeepGateGoldens[] = {
    {1000, SchedMode::fibers, 0x1.3d4986d6ee894p-14, 0x0ea3e2436fdfd0c7ull},
    {96, SchedMode::threads, 0x1.86d607634cf73p-15, 0x487904626193e309ull},
    {96, SchedMode::fibers, 0x1.86d607634cf73p-15, 0x487904626193e309ull},
};

/// Runs the deep-gate world of `g` on a fresh engine and checks its final
/// clocks against the golden.
void expect_deep_gate_golden(const DeepGateGolden& g) {
  const auto workload = [](Ctx& ctx) {
    const Comm world = ctx.world();
    const int n = comm_size(world);
    const int me = comm_rank(world);
    std::vector<double> buf(128, static_cast<double>(me));
    for (int it = 0; it < 3; ++it) {
      compute(1e-6 * (me % 7 + 1));
      sendrecv(buf.data(), buf.size(), Type::Double, (me + 1) % n, it,
               buf.data(), buf.size(), (me + n - 1) % n, it, world);
    }
    std::vector<long> mine(16, me);
    std::vector<long> all(me == 0 ? 16 * static_cast<std::size_t>(n) : 0);
    gather(mine.data(), mine.size(), Type::Long, all.data(), 0, world);
    if (me == 0) {
      EXPECT_EQ(all.back(), n - 1);
    }
    long v = me, sum = 0;
    allreduce(&v, &sum, 1, Type::Long, Op::Sum, world);
    EXPECT_EQ(sum, static_cast<long>(n) * (n - 1) / 2);
  };
  // 24 ranks per node, like the figure benches.
  auto cost = net::CostModel::plafrim_like((g.np + 23) / 24);
  EngineConfig cfg{
      .cost_model = cost,
      .placement = topo::random_placement(g.np, cost.topology(), 11)};
  cfg.nic_contention = true;
  cfg.nic_port_beta_scale = 2.0;
  cfg.sched = g.mode;
  Engine eng(cfg);
  eng.run(workload);
  const auto& clocks = eng.final_clocks();
  const double max_clock = *std::max_element(clocks.begin(), clocks.end());
  const std::string where =
      "np=" + std::to_string(g.np) + " mode=" + sched_mode_name(g.mode);
  EXPECT_EQ(max_clock, g.max_clock)
      << where << ": " << std::hexfloat << max_clock;
  EXPECT_EQ(clock_bits_hash(clocks), g.hash)
      << where << ": 0x" << std::hex << clock_bits_hash(clocks);
}

TEST(SchedParity, DeepGateTreeKeepsGoldenClocks) {
  for (const DeepGateGolden& g : kDeepGateGoldens) expect_deep_gate_golden(g);
}

// --- min-clock gate: tournament tree vs the linear arg-min --------------------

TEST(SchedGate, MinClockTreeMatchesLinearArgMin) {
  // The gate's five entry states; blocked and done ranks sit out.
  enum class St { running, gate, blocked, pending, done };
  struct Entry {
    double clock = 0.0;
    St st = St::running;
  };
  // The linear scan the tree replaced, kept as the reference: the first
  // rank holding the strictly smallest clock among the ranks taking part.
  const auto linear_min_rank = [](const std::vector<Entry>& entries) {
    int best = -1;
    for (int r = 0; r < static_cast<int>(entries.size()); ++r) {
      const Entry& e = entries[static_cast<std::size_t>(r)];
      if (e.st == St::blocked || e.st == St::done) continue;
      if (best < 0 || e.clock < entries[static_cast<std::size_t>(best)].clock)
        best = r;
    }
    return best;
  };
  // Few distinct clocks, so ties are the common case; +inf checks that a
  // present rank at +inf still beats an absent one.
  const double kClocks[] = {0.0, 1e-6, 2.5e-6, 3e-6,
                            std::numeric_limits<double>::infinity()};
  std::mt19937_64 rng(20201020);
  const auto pick = [&rng](std::size_t n) {
    return static_cast<std::size_t>(rng() % n);
  };
  for (const int np : {1, 2, 3, 10, 37, 4096}) {
    SCOPED_TRACE("np=" + std::to_string(np));
    std::vector<Entry> entries(static_cast<std::size_t>(np));
    MinClockTree tree;
    tree.reset(np);
    EXPECT_EQ(tree.min_rank(), 0);
    int updates = 0, mismatches = 0;
    const auto set = [&](int r, St st, double clock) {
      entries[static_cast<std::size_t>(r)] = {clock, st};
      tree.update(r, clock, st != St::blocked && st != St::done);
      ++updates;
      const int want = linear_min_rank(entries);
      if (tree.min_rank() != want && mismatches++ == 0)
        ADD_FAILURE() << "update " << updates << ": tree says "
                      << tree.min_rank() << ", the scan " << want;
    };
    std::vector<int> order(static_cast<std::size_t>(np));
    for (int r = 0; r < np; ++r) order[static_cast<std::size_t>(r)] = r;
    // Random updates over all five states.
    for (int i = 0; i < 4000; ++i)
      set(static_cast<int>(pick(static_cast<std::size_t>(np))),
          static_cast<St>(pick(5)), kClocks[pick(std::size(kClocks))]);
    // Drain: every rank blocks or finishes; then nobody may send.
    std::shuffle(order.begin(), order.end(), rng);
    for (const int r : order)
      set(r, pick(2) == 0 ? St::blocked : St::done,
          entries[static_cast<std::size_t>(r)].clock);
    EXPECT_EQ(tree.min_rank(), -1);
    // Refill in random order with the states that take part.
    std::shuffle(order.begin(), order.end(), rng);
    const St live[] = {St::running, St::gate, St::pending};
    for (const int r : order)
      set(r, live[pick(3)], kClocks[pick(std::size(kClocks))]);
    EXPECT_EQ(mismatches, 0) << "over " << updates << " updates";
  }
}

TEST(SchedEnv, StrictTopoParseSelectsFabricAndRejectsGarbage) {
  auto cfg = sched_cfg(4);
  const auto fabric_kind_after_run = [&] {
    Engine eng(cfg);
    eng.run([](Ctx&) {});
    return eng.fabric().kind();
  };
  ::unsetenv("MPIM_TOPO");
  EXPECT_EQ(fabric_kind_after_run(), topo::FabricKind::tree);

  ::setenv("MPIM_TOPO", "fattree:2,2,1", 1);
  EXPECT_EQ(fabric_kind_after_run(), topo::FabricKind::fattree);
  ::setenv("MPIM_TOPO", " DragonFly:2,3,2 ", 1);  // case + blanks tolerated
  EXPECT_EQ(fabric_kind_after_run(), topo::FabricKind::dragonfly);

  // Garbage must not half-apply: the configured tree fabric stands, and
  // "tree" itself keeps the caller's custom tree cost model.
  for (const char* bad :
       {"", "fattree", "fattree:2,2", "fattree:2,2,zz", "fattree:2,2,2,9",
        "dragonfly:2,3", "dragonfly:2,3,2,fastest", "torus:4", "tree:3"}) {
    ::setenv("MPIM_TOPO", bad, 1);
    EXPECT_EQ(fabric_kind_after_run(), topo::FabricKind::tree)
        << "value \"" << bad << "\"";
  }
  ::setenv("MPIM_TOPO", "tree", 1);
  EXPECT_EQ(fabric_kind_after_run(), topo::FabricKind::tree);
  ::unsetenv("MPIM_TOPO");
}

// --- single-copy delivery ---------------------------------------------------
// A message that reaches a rank already blocked in a matching receive is
// copied straight into that receive's buffer; any other message is copied
// into the inbox and out again at the match. Fibers make the two orders
// certain (mpim_engine_direct_deliveries_total counts the landings); under
// threads the order is racy, so there only bytes and clocks are checked.

/// Deterministic payload for message `seq` of rank `src`.
std::vector<std::uint8_t> payload(int src, int seq, std::size_t bytes) {
  std::vector<std::uint8_t> out(bytes);
  const auto salt = static_cast<std::size_t>(src * 17 + seq * 7 + 1);
  for (std::size_t i = 0; i < bytes; ++i)
    out[i] = static_cast<std::uint8_t>(i * 131 + salt);
  return out;
}

struct DeliveryRun {
  std::vector<double> clocks;
  std::uint64_t landed = 0;  ///< direct deliveries, summed over senders
};

DeliveryRun run_delivery(EngineConfig cfg, SchedMode sched,
                         const std::function<void(Ctx&)>& program) {
  cfg.sched = sched;
  Engine eng(cfg);
  eng.telemetry().set_enabled(true);
  eng.run(program);
  DeliveryRun out{eng.final_clocks(), 0};
  const telemetry::Hub& hub = eng.telemetry();
  for (int r = 0; r < eng.world_size(); ++r)
    out.landed += hub.registry().counter_value(
        Metric::engine_direct_deliveries, r);
  return out;
}

/// Runs `program` on both backends, requires bit-identical clocks, and
/// returns the fiber run's landing count.
std::uint64_t landed_with_clock_parity(
    const EngineConfig& cfg, const std::function<void(Ctx&)>& program) {
  const DeliveryRun threads = run_delivery(cfg, SchedMode::threads, program);
  const DeliveryRun fibers = run_delivery(cfg, SchedMode::fibers, program);
  EXPECT_EQ(threads.clocks, fibers.clocks);
  return fibers.landed;
}

TEST(SchedDelivery, ReceiverFirstLandsAndSenderFirstCopies) {
  static constexpr std::size_t kBytes = 64 * 1024;
  static constexpr int kData = 3, kGo = 4;
  // Sender first: rank 0 leads the fiber queue and sends before rank 1
  // ever receives, so the message waits in the inbox.
  const auto sender_first = [](Ctx& ctx) {
    const Comm world = ctx.world();
    if (ctx.world_rank() == 0) {
      const auto data = payload(0, 0, kBytes);
      send(data.data(), kBytes, Type::Byte, 1, kData, world);
    } else {
      std::vector<std::uint8_t> got(kBytes, 0xee);
      const Status st = recv(got.data(), kBytes, Type::Byte, 0, kData, world);
      EXPECT_EQ(st.bytes, kBytes);
      EXPECT_EQ(got, payload(0, 0, kBytes));
    }
  };
  // Receiver first: rank 0 waits for a timing-only go (a null buffer is
  // never posted), so rank 1 is blocked in its receive when the data
  // arrives.
  const auto receiver_first = [](Ctx& ctx) {
    const Comm world = ctx.world();
    if (ctx.world_rank() == 0) {
      recv(nullptr, 0, Type::Byte, 1, kGo, world);
      const auto data = payload(0, 1, kBytes);
      send(data.data(), kBytes, Type::Byte, 1, kData, world);
    } else {
      send(nullptr, 0, Type::Byte, 0, kGo, world);
      std::vector<std::uint8_t> got(kBytes + 8, 0xee);
      const Status st =
          recv(got.data(), got.size(), Type::Byte, 0, kData, world);
      EXPECT_EQ(st.bytes, kBytes);
      EXPECT_TRUE(std::equal(got.begin(), got.begin() + kBytes,
                             payload(0, 1, kBytes).begin()));
      // Only the message's bytes were written, not the whole capacity.
      EXPECT_TRUE(std::all_of(got.begin() + kBytes, got.end(),
                              [](std::uint8_t b) { return b == 0xee; }));
    }
  };
  EXPECT_EQ(landed_with_clock_parity(sched_cfg(2), sender_first), 0u);
  EXPECT_EQ(landed_with_clock_parity(sched_cfg(2), receiver_first), 1u);
}

TEST(SchedDelivery, MessageThatCannotLandStillSpendsThePost) {
  // Rank 1 is blocked in a receive when rank 0 sends a timing-only message
  // and then a real one, both matching it. The first cannot land (it has
  // no payload) but is the one that receive takes, so it must retire the
  // post: the second may not land in the first receive's buffer, and must
  // reach the second receive intact.
  static constexpr std::size_t kBytes = 512;
  const auto program = [](Ctx& ctx) {
    const Comm world = ctx.world();
    if (ctx.world_rank() == 0) {
      recv(nullptr, 0, Type::Byte, 1, 1, world);
      send(nullptr, kBytes, Type::Byte, 1, 0, world);
      const auto data = payload(0, 0, kBytes);
      send(data.data(), kBytes, Type::Byte, 1, 0, world);
    } else {
      send(nullptr, 0, Type::Byte, 0, 1, world);
      std::vector<std::uint8_t> first(kBytes, 0xee), second(kBytes, 0xee);
      EXPECT_EQ(recv(first.data(), kBytes, Type::Byte, 0, 0, world).bytes,
                kBytes);
      EXPECT_EQ(first, std::vector<std::uint8_t>(kBytes, 0xee));
      recv(second.data(), kBytes, Type::Byte, 0, 0, world);
      EXPECT_EQ(second, payload(0, 0, kBytes));
    }
  };
  EXPECT_EQ(landed_with_clock_parity(sched_cfg(2), program), 0u);
}

TEST(SchedDelivery, AnySourceFromSeveralSendersArrivesIntactAndInOrder) {
  // Four senders interleave on one receiver posted for any source: under
  // fibers some messages land and some wait in the inbox, under threads
  // the mix is up to the host. Sizes vary per message, and the contended
  // gate makes senders yield mid-stream.
  static constexpr int kSenders = 4, kPerSender = 12;
  static constexpr std::size_t kMaxBytes = 4096;
  auto cfg = sched_cfg(kSenders + 1);
  cfg.nic_contention = true;
  const auto bytes_of = [](int src, int seq) {
    return static_cast<std::size_t>(256 * ((src + seq) % 16 + 1));
  };
  const auto program = [&](Ctx& ctx) {
    const Comm world = ctx.world();
    const int me = ctx.world_rank();
    if (me != 0) {
      for (int seq = 0; seq < kPerSender; ++seq) {
        compute(1e-6 * me * (seq % 3 + 1));
        const auto data = payload(me, seq, bytes_of(me, seq));
        send(data.data(), data.size(), Type::Byte, 0, 9, world);
      }
      return;
    }
    std::vector<int> next(kSenders + 1, 0);
    std::vector<std::uint8_t> got(kMaxBytes);
    for (int m = 0; m < kSenders * kPerSender; ++m) {
      std::fill(got.begin(), got.end(), 0xee);
      const Status st =
          recv(got.data(), got.size(), Type::Byte, kAnySource, 9, world);
      ASSERT_GE(st.source, 1);
      const int seq = next[static_cast<std::size_t>(st.source)]++;
      const std::size_t bytes = bytes_of(st.source, seq);
      ASSERT_EQ(st.bytes, bytes) << "from " << st.source << " seq " << seq;
      EXPECT_TRUE(std::equal(got.begin(), got.begin() + bytes,
                             payload(st.source, seq, bytes).begin()))
          << "from " << st.source << " seq " << seq;
    }
    for (int src = 1; src <= kSenders; ++src)
      EXPECT_EQ(next[static_cast<std::size_t>(src)], kPerSender);
  };
  run_delivery(cfg, SchedMode::threads, program);
  const DeliveryRun fibers = run_delivery(cfg, SchedMode::fibers, program);
  EXPECT_GT(fibers.landed, 0u);
  EXPECT_LT(fibers.landed, static_cast<std::uint64_t>(kSenders * kPerSender));
  const DeliveryRun again = run_delivery(cfg, SchedMode::fibers, program);
  EXPECT_EQ(again.clocks, fibers.clocks);
  EXPECT_EQ(again.landed, fibers.landed);
}

TEST(SchedDelivery, TimedOutReceiveLeavesNoStalePost) {
  // The timed-out receive posted `stale`. The late message arrives while
  // rank 0 waits in a timing-only receive, which posts nothing: if the old
  // post had outlived its receive, the message would land in `stale` and
  // never reach `fresh`.
  static constexpr std::uint32_t kSentinel = 0xdeadbeef;
  const auto program = [](Ctx& ctx) {
    const Comm world = ctx.world();
    if (ctx.world_rank() == 0) {
      std::array<std::uint32_t, 16> stale;
      stale.fill(kSentinel);
      Status st;
      EXPECT_EQ(ctx.recv_bytes_wait(1, world, 7, CommKind::p2p, stale.data(),
                                    sizeof stale, &st, 0.05),
                Ctx::RecvWait::timeout);
      send(nullptr, 0, Type::Byte, 1, 8, world);  // now let rank 1 send
      recv(nullptr, 0, Type::Byte, 1, 9, world);  // it has sent
      std::array<std::uint32_t, 16> fresh{};
      recv(fresh.data(), sizeof fresh, Type::Byte, 1, 7, world);
      for (std::size_t i = 0; i < fresh.size(); ++i) {
        EXPECT_EQ(fresh[i], 1000 + i);
        EXPECT_EQ(stale[i], kSentinel);
      }
    } else {
      recv(nullptr, 0, Type::Byte, 0, 8, world);
      std::array<std::uint32_t, 16> late;
      for (std::size_t i = 0; i < late.size(); ++i)
        late[i] = static_cast<std::uint32_t>(1000 + i);
      send(late.data(), sizeof late, Type::Byte, 0, 7, world);
      send(nullptr, 0, Type::Byte, 0, 9, world);
    }
  };
  EXPECT_EQ(landed_with_clock_parity(sched_cfg(2), program), 0u);
}

TEST(SchedDelivery, OnlyAMatchingMessageLands) {
  // Rank 1 is blocked in a receive for (rank 0, tag kData, world) when
  // messages that differ from it in source, tag or communicator arrive:
  // each must wait in the inbox, and only the matching one lands.
  static constexpr std::size_t kBytes = 256;
  static constexpr int kData = 3, kOther = 4, kGo = 5;
  const auto program = [](Ctx& ctx) {
    const Comm world = ctx.world();
    const Comm dup = comm_dup(world);
    const int me = ctx.world_rank();
    if (me == 0) {
      recv(nullptr, 0, Type::Byte, 1, kGo, world);
      const auto other_tag = payload(0, 1, kBytes);
      send(other_tag.data(), kBytes, Type::Byte, 1, kOther, world);
      const auto other_comm = payload(0, 2, kBytes);
      send(other_comm.data(), kBytes, Type::Byte, 1, kData, dup);
      const auto data = payload(0, 0, kBytes);
      send(data.data(), kBytes, Type::Byte, 1, kData, world);
    } else if (me == 2) {
      recv(nullptr, 0, Type::Byte, 1, kGo, world);
      const auto other_src = payload(2, 0, kBytes);
      send(other_src.data(), kBytes, Type::Byte, 1, kData, world);
    } else {
      send(nullptr, 0, Type::Byte, 0, kGo, world);
      send(nullptr, 0, Type::Byte, 2, kGo, world);
      std::vector<std::uint8_t> got(kBytes);
      recv(got.data(), kBytes, Type::Byte, 0, kData, world);
      EXPECT_EQ(got, payload(0, 0, kBytes));
      recv(got.data(), kBytes, Type::Byte, 2, kData, world);
      EXPECT_EQ(got, payload(2, 0, kBytes));
      recv(got.data(), kBytes, Type::Byte, 0, kOther, world);
      EXPECT_EQ(got, payload(0, 1, kBytes));
      recv(got.data(), kBytes, Type::Byte, 0, kData, dup);
      EXPECT_EQ(got, payload(0, 2, kBytes));
    }
  };
  EXPECT_EQ(landed_with_clock_parity(sched_cfg(3), program), 1u);
}

TEST(SchedDelivery, SendBufferMayOverlapThePostedBuffer) {
  // Ranks of one process may share memory. Rank 1 receives into bytes
  // [128, 384) of an array while rank 0 sends bytes [0, 256) of the same
  // array: whether the message lands or is copied through the inbox, the
  // receive sees the bytes as they were at the send.
  static constexpr std::size_t kBytes = 256, kShift = 128;
  const auto program = [](Ctx& ctx) {
    static std::vector<std::uint8_t> shared;
    const Comm world = ctx.world();
    if (ctx.world_rank() == 0) {
      recv(nullptr, 0, Type::Byte, 1, 1, world);
      send(shared.data(), kBytes, Type::Byte, 1, 0, world);
    } else {
      shared = payload(0, 0, kBytes + kShift);
      send(nullptr, 0, Type::Byte, 0, 1, world);
      recv(shared.data() + kShift, kBytes, Type::Byte, 0, 0, world);
      const auto want = payload(0, 0, kBytes + kShift);
      EXPECT_TRUE(std::equal(shared.begin() + kShift, shared.end(),
                             want.begin()));
    }
  };
  EXPECT_EQ(landed_with_clock_parity(sched_cfg(2), program), 1u);
}

TEST(SchedDelivery, PingPongLandsEveryMessageButTheFirst) {
  // Rank 0 sends first, before rank 1 has run; from then on each message
  // finds its receiver blocked in the matching receive.
  static constexpr int kRounds = 50;
  static constexpr std::size_t kBytes = 1024;
  const auto program = [](Ctx& ctx) {
    const Comm world = ctx.world();
    const int me = ctx.world_rank();
    std::vector<std::uint8_t> buf(kBytes);
    for (int i = 0; i < kRounds; ++i) {
      if (me == 0) {
        const auto out = payload(0, i, kBytes);
        send(out.data(), kBytes, Type::Byte, 1, 0, world);
        recv(buf.data(), kBytes, Type::Byte, 1, 0, world);
        EXPECT_EQ(buf, payload(1, i, kBytes)) << "round " << i;
      } else {
        recv(buf.data(), kBytes, Type::Byte, 0, 0, world);
        EXPECT_EQ(buf, payload(0, i, kBytes)) << "round " << i;
        const auto out = payload(1, i, kBytes);
        send(out.data(), kBytes, Type::Byte, 0, 0, world);
      }
    }
  };
  EXPECT_EQ(landed_with_clock_parity(sched_cfg(2), program),
            static_cast<std::uint64_t>(2 * kRounds - 1));
}

// --- fiber-only behaviors ----------------------------------------------------

TEST(SchedFibers, RerunsAreDeterministic) {
  auto cfg = sched_cfg(8);
  cfg.sched = SchedMode::fibers;
  Engine eng(cfg);
  eng.run(mixed_workload);
  const auto first = eng.final_clocks();
  eng.run(mixed_workload);
  EXPECT_EQ(first, eng.final_clocks());
}

/// 1/10 and -1/10 as bits, from volatile operands so the division runs
/// under the current rounding mode; the pair differs in all four modes.
[[gnu::noinline]] std::array<std::uint64_t, 2> tenth_bits() {
  volatile double one = 1.0;
  volatile double ten = 10.0;
  return {std::bit_cast<std::uint64_t>(one / ten),
          std::bit_cast<std::uint64_t>(-one / ten)};
}

/// Over-aligned locals in a fresh frame; reading their addresses through
/// volatiles keeps the compiler from folding the checks to true.
[[gnu::noinline]] void expect_aligned_locals() {
  alignas(16) char a16[16] = {};
  alignas(32) char a32[32] = {};
  volatile std::uintptr_t p16 = reinterpret_cast<std::uintptr_t>(a16);
  volatile std::uintptr_t p32 = reinterpret_cast<std::uintptr_t>(a32);
  EXPECT_EQ(p16 % 16, 0u);
  EXPECT_EQ(p32 % 32, 0u);
}

TEST(SchedFibers, SwitchKeepsFpControlStateAndStackAlignment) {
  // The rounding mode lives in MXCSR (SSE arithmetic) and the x87 control
  // word (what fegetround reads): a fiber switch must carry both, and must
  // hand each fiber a 16-byte-aligned first frame.
  constexpr std::array<int, 4> kModes = {FE_TONEAREST, FE_UPWARD, FE_DOWNWARD,
                                         FE_TOWARDZERO};
  std::array<std::array<std::uint64_t, 2>, 4> want{};
  for (std::size_t m = 0; m < kModes.size(); ++m) {
    ASSERT_EQ(std::fesetround(kModes[m]), 0);
    want[m] = tenth_bits();
  }
  ASSERT_EQ(std::fesetround(FE_TONEAREST), 0);
  for (std::size_t m = 1; m < want.size(); ++m)
    for (std::size_t k = 0; k < m; ++k) ASSERT_NE(want[m], want[k]);

  // One token circulates, so every receive but rank 1's first blocks while
  // the fibers of the other modes run.
  constexpr int kNp = 8;
  constexpr int kLaps = 64;
  auto cfg = sched_cfg(kNp);
  cfg.sched = SchedMode::fibers;
  Engine eng(cfg);
  eng.run([&](Ctx& ctx) {
    const Comm world = ctx.world();
    const int me = ctx.world_rank();
    const auto m = static_cast<std::size_t>(me) % kModes.size();
    const auto expect_own_state = [&](int lap) {
      EXPECT_EQ(std::fegetround(), kModes[m]) << "rank " << me << " lap "
                                              << lap;
      EXPECT_EQ(tenth_bits(), want[m]) << "rank " << me << " lap " << lap;
      expect_aligned_locals();
    };
    ASSERT_EQ(std::fesetround(kModes[m]), 0);
    expect_own_state(-1);
    int token = 0;
    for (int lap = 0; lap < kLaps; ++lap) {
      if (me == 0) send(&token, 1, Type::Int, 1, lap, world);
      recv(&token, 1, Type::Int, (me + kNp - 1) % kNp, lap, world);
      expect_own_state(lap);
      if (me != 0) send(&token, 1, Type::Int, (me + 1) % kNp, lap, world);
    }
  });
  EXPECT_EQ(std::fegetround(), FE_TONEAREST);
  EXPECT_EQ(tenth_bits(), want[0]);
}

TEST(SchedFibers, StructuralDeadlockIsReportedWithoutWallTimeout) {
  auto cfg = sched_cfg(2);
  cfg.sched = SchedMode::fibers;
  // A wall watchdog would need this long to fire; the fiber scheduler must
  // report the moment its ready queue drains, so the test finishes in
  // milliseconds, not minutes.
  cfg.watchdog_wall_timeout_s = 3600.0;
  Engine eng(cfg);
  std::string report;
  try {
    eng.run([](Ctx& ctx) {
      const Comm world = ctx.world();
      int v = 0;
      // Both ranks receive first: a classic circular wait.
      recv(&v, 1, Type::Int, 1 - ctx.world_rank(), 5, world);
      send(&v, 1, Type::Int, 1 - ctx.world_rank(), 5, world);
    });
    FAIL() << "expected DeadlockError";
  } catch (const DeadlockError& e) {
    report = e.what();
  }
  EXPECT_TRUE(contains(report, "deadlock")) << report;
  EXPECT_TRUE(contains(report, "rank 0: blocked in recv(src=1, tag=5"))
      << report;
  EXPECT_TRUE(contains(report, "rank 1: blocked in recv(src=0, tag=5"))
      << report;
}

TEST(SchedFibers, StackSlabLargerThanMemoryStillMaps) {
  // The fiber stacks are one lazy mapping. Under the default heuristic
  // overcommit (vm.overcommit_memory=0) Linux refuses a single mapping
  // larger than RAM + swap unless it is MAP_NORESERVE; strict accounting
  // (2) ignores that flag, so the case says nothing there.
  std::string overcommit;
  std::ifstream("/proc/sys/vm/overcommit_memory") >> overcommit;
  if (overcommit == "2")
    GTEST_SKIP() << "strict overcommit accounting ignores MAP_NORESERVE";
  std::size_t swap_kib = 0;
  std::ifstream meminfo("/proc/meminfo");
  for (std::string token; meminfo >> token;)
    if (token == "SwapTotal:") {
      meminfo >> swap_kib;
      break;
    }
  const std::size_t memory =
      static_cast<std::size_t>(::sysconf(_SC_PHYS_PAGES)) *
          static_cast<std::size_t>(::sysconf(_SC_PAGESIZE)) +
      swap_kib * 1024;
  // Four stacks of half of RAM + swap each: twice what the host can back.
  // Trivial bodies touch a few pages of each.
  FiberSched sched(4, memory / 2, [](int) {});
  std::vector<int> ran;
  sched.run([&ran](int r) { ran.push_back(r); },
            [](int reporter) { ADD_FAILURE() << "stall at " << reporter; });
  EXPECT_EQ(ran, (std::vector<int>{0, 1, 2, 3}));
}

/// Minor page faults the calling thread has taken so far.
long thread_minor_faults() {
  rusage ru{};
  ::getrusage(RUSAGE_THREAD, &ru);
  return ru.ru_minflt;
}

/// Runs `n` fibers of `body` on `sched`; returns the minor faults the
/// calling thread took during the run.
long faults_of_run(FiberSched& sched, int n,
                   const std::function<void(int)>& body = [](int) {}) {
  int ran = 0;
  const long before = thread_minor_faults();
  sched.run(
      [&](int r) {
        body(r);
        ++ran;
      },
      [](int reporter) { ADD_FAILURE() << "stall at " << reporter; });
  const long faults = thread_minor_faults() - before;
  EXPECT_EQ(ran, n);
  return faults;
}

long faults_of_world(int n, std::size_t stack_bytes) {
  FiberSched sched(n, stack_bytes, [](int) {});
  return faults_of_run(sched, n);
}

TEST(SchedFibers, NextWorldOnTheThreadReusesItsStackSlab) {
  // A stack size no other case uses, so no spare slab an earlier case left
  // on this thread fits the first world. A trivial fiber touches the top
  // page of its stack, so a world on a fresh slab takes a fault per fiber
  // and one on a reused slab takes almost none.
  constexpr std::size_t kStack = 72 * 1024;
  // Under TSan every new fiber also gets sanitizer state that faults in on
  // first use, so a world on a reused slab still takes faults per fiber:
  // there only the fresh mappings' lower bounds are checked.
#if defined(MPIM_TEST_TSAN)
  constexpr bool kReuseShowsInFaults = false;
#else
  constexpr bool kReuseShowsInFaults = true;
#endif
  const auto expect_reused = [&](long faults, long below) {
    if (kReuseShowsInFaults) {
      EXPECT_LT(faults, below);
    }
  };
  EXPECT_GE(faults_of_world(256, kStack), 256);
  expect_reused(faults_of_world(256, kStack), 64);
  // A smaller world runs on the bigger slab, which stays the spare.
  expect_reused(faults_of_world(128, kStack), 32);
  // A bigger one needs a fresh mapping: every stack faults again.
  EXPECT_GE(faults_of_world(512, kStack), 512);

  {
    // Two schedulers alive at once: `big` takes the spare, `small` maps
    // its own, and their stacks must not overlap.
    FiberSched big(512, kStack, [](int) {});
    FiberSched small(64, kStack, [](int) {});
    std::vector<std::uintptr_t> big_sp(512), small_sp(64);
    const auto record = [](std::vector<std::uintptr_t>& sp) {
      return [&sp](int r) {
        sp[static_cast<std::size_t>(r)] =
            reinterpret_cast<std::uintptr_t>(__builtin_frame_address(0));
      };
    };
    expect_reused(faults_of_run(big, 512, record(big_sp)), 128);
    EXPECT_GE(faults_of_run(small, 64, record(small_sp)), 64);
    const auto [big_lo, big_hi] =
        std::minmax_element(big_sp.begin(), big_sp.end());
    const auto [small_lo, small_hi] =
        std::minmax_element(small_sp.begin(), small_sp.end());
    EXPECT_TRUE(*small_hi < *big_lo || *small_lo > *big_hi);
  }
  // Both gave their slabs back; the thread kept the larger.
  expect_reused(faults_of_world(512, kStack), 128);

  // Another thread has its own spare: its first world maps afresh.
  long other_thread_faults = 0;
  std::thread([&] {
    other_thread_faults = faults_of_world(256, kStack);
  }).join();
  EXPECT_GE(other_thread_faults, 256);
}

TEST(SchedFibers, GoldenWorldKeepsItsClocksOnAReusedStackSlab) {
  // Two fresh engines on one thread: the second world runs on the stack
  // slab the first left behind, whose stacks still hold the first's data.
  const DeepGateGolden& g = kDeepGateGoldens[0];
  ASSERT_EQ(g.mode, SchedMode::fibers);
  expect_deep_gate_golden(g);
  expect_deep_gate_golden(g);
}

TEST(SchedFibers, TimedReceiveTimesOutAndDeliversLate) {
  auto cfg = sched_cfg(2);
  cfg.sched = SchedMode::fibers;
  Engine eng(cfg);
  eng.run([](Ctx& ctx) {
    const Comm world = ctx.world();
    if (ctx.world_rank() == 0) {
      int v = 0;
      Status st;
      // Nothing in flight yet: the bounded wait must give up on wall time
      // even though every other fiber is blocked too.
      EXPECT_EQ(ctx.recv_bytes_wait(1, world, 7, CommKind::p2p, &v, sizeof v,
                                    &st, 0.05),
                Ctx::RecvWait::timeout);
      // Unblock rank 1, then the real message arrives.
      int go = 1;
      send(&go, 1, Type::Int, 1, 8, world);
      EXPECT_EQ(ctx.recv_bytes_wait(1, world, 7, CommKind::p2p, &v, sizeof v,
                                    &st, 30.0),
                Ctx::RecvWait::ok);
      EXPECT_EQ(v, 99);
    } else {
      int go = 0;
      recv(&go, 1, Type::Int, 0, 8, world);
      int v = 99;
      send(&v, 1, Type::Int, 0, 7, world);
    }
  });
}

TEST(SchedFibers, CrashShrinkRebindAtNp512) {
  // A world no thread backend drives on this host: 512 rank fibers, one
  // mid-run crash, ULFM shrink, monitoring-session rebind onto the
  // survivor communicator, and a post-rebind gather.
  constexpr int kNp = 512;
  constexpr int kDead = 300;
  auto plan = std::make_shared<fault::FaultPlan>(1);
  fault::RankFault crash;
  crash.rank = kDead;
  crash.crash_at_s = 1e-3;
  plan->add(crash);
  auto cfg = sched_cfg(kNp, /*nodes=*/32, /*cores=*/16, plan);
  cfg.sched = SchedMode::fibers;
  Engine eng(cfg);
  mpit::Runtime tool(eng);
  eng.run([&](Ctx& ctx) {
    const Comm world = ctx.world();
    comm_set_errhandler(world, ErrMode::ret);
    const int r = ctx.world_rank();
    if (r == kDead) {
      compute(1.0);
      return;
    }
    ASSERT_EQ(MPI_M_init(), MPI_M_SUCCESS);
    ASSERT_EQ(MPI_M_set_gather_timeout(0.5), MPI_M_SUCCESS);
    MPI_M_msid id = -1;
    ASSERT_EQ(MPI_M_start(world, &id), MPI_M_SUCCESS);
    const Comm alive = comm_shrink(world);
    ASSERT_FALSE(alive.is_null());
    ASSERT_EQ(comm_size(alive), kNp - 1);
    ASSERT_EQ(MPI_M_suspend(id), MPI_M_SUCCESS);
    ASSERT_EQ(MPI_M_rebind(id, alive), MPI_M_SUCCESS);
    ASSERT_EQ(MPI_M_continue(id), MPI_M_SUCCESS);
    int ntomb = -1;
    int tomb = -1;
    ASSERT_EQ(MPI_M_session_tombstones(id, &tomb, 1, &ntomb), MPI_M_SUCCESS);
    EXPECT_EQ(ntomb, 1);
    EXPECT_EQ(tomb, kDead);
    // Survivor ring on the shrunk communicator, recorded by the session.
    const int me = comm_rank(alive);
    const int n = comm_size(alive);
    std::vector<char> buf(256, 1);
    send(buf.data(), buf.size(), Type::Char, (me + 1) % n, 0, alive);
    recv(buf.data(), buf.size(), Type::Char, (me + n - 1) % n, 0, alive);
    ASSERT_EQ(MPI_M_suspend(id), MPI_M_SUCCESS);
    std::vector<unsigned long> sizes(static_cast<std::size_t>(n), 0);
    ASSERT_EQ(MPI_M_get_data(id, MPI_M_DATA_IGNORE, sizes.data(),
                             MPI_M_ALL_COMM),
              MPI_M_SUCCESS);
    EXPECT_EQ(sizes[static_cast<std::size_t>((me + 1) % n)], 256ul);
    EXPECT_EQ(MPI_M_free(id), MPI_M_SUCCESS);
    EXPECT_EQ(MPI_M_finalize(), MPI_M_SUCCESS);
  });
  EXPECT_EQ(eng.dead_ranks(), std::vector<int>{kDead});
}

TEST(SchedFibers, LargeWorldCompletesWherePthreadsCouldNot) {
  // np=1024 fibers on one OS thread: completion alone is the assertion (a
  // thread backend would need 1024 kernel threads). Kept lightweight: two
  // ring iterations plus an allreduce.
  constexpr int kNp = 1024;
  auto cfg = sched_cfg(kNp, /*nodes=*/64, /*cores=*/16);
  cfg.sched = SchedMode::fibers;
  Engine eng(cfg);
  eng.run([](Ctx& ctx) {
    const Comm world = ctx.world();
    const int n = comm_size(world);
    const int me = comm_rank(world);
    int token = me;
    for (int it = 0; it < 2; ++it) {
      send(&token, 1, Type::Int, (me + 1) % n, it, world);
      recv(&token, 1, Type::Int, (me + n - 1) % n, it, world);
    }
    long v = 1, sum = 0;
    allreduce(&v, &sum, 1, Type::Long, Op::Sum, world);
    EXPECT_EQ(sum, n);
  });
  const auto clocks = eng.final_clocks();
  EXPECT_EQ(clocks.size(), static_cast<std::size_t>(kNp));
  for (double c : clocks) EXPECT_GT(c, 0.0);
}

}  // namespace
}  // namespace mpim::mpi
