// Causal critical-path profiler: happens-before capture, wait-state
// classification, the exact blame-sum identity, backward path extraction,
// clock bit-identity with the profiler on/off (including under crash +
// shrink + rebind), the governor's blame-only refusal rung, bounded-ring
// eviction, the MPI_M_critpath_* / Fortran surface, the reorder mismatch
// feed, the CSV -> profview round trip, and attach-order independence next
// to the streaming plane.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "apps/halo.h"
#include "critpath/critpath.h"
#include "fault/fault_plan.h"
#include "minimpi/api.h"
#include "minimpi/engine.h"
#include "minimpi/ft.h"
#include "mpimon/critpath_attach.h"
#include "mpimon/fortran.h"
#include "mpimon/mpi_monitoring.h"
#include "mpimon/session.hpp"
#include "mpit/runtime.h"
#include "obsplane/plane.h"
#include "reorder/reorder.h"
#include "telemetry/hub.h"
#include "tools/report.h"

namespace mpim::critpath {
namespace {

namespace fs = std::filesystem;
using mpi::Comm;
using mpi::Ctx;
using mpi::Engine;
using mpi::Type;
using telemetry::Metric;

std::string temp_path(const std::string& name) {
  return (fs::temp_directory_path() / name).string();
}

mpi::EngineConfig small_cfg(int nranks,
                            std::shared_ptr<fault::FaultPlan> plan = nullptr) {
  topo::Topology t({2, 1, 4}, {"node", "socket", "core"});
  std::vector<net::LinkParams> params = {
      {1e-5, 1e8}, {1e-6, 1e9}, {1e-7, 1e10}, {0.0, 1e12}};
  net::CostModel cost(t, params, /*send_overhead=*/1e-7);
  mpi::EngineConfig cfg{.cost_model = cost,
                       .placement = topo::round_robin_placement(nranks, t)};
  cfg.watchdog_wall_timeout_s = 10.0;
  cfg.fault_plan = std::move(plan);
  return cfg;
}

/// Ring sendrecv iterations with one artificially slow rank: its neighbors
/// become late-sender waiters, its own inbox collects late-receiver dwell.
void slow_ring(Ctx& ctx, int slow_rank, double extra_s, int iters = 8) {
  const Comm world = ctx.world();
  const int n = mpi::comm_size(world);
  const int me = mpi::comm_rank(world);
  std::vector<char> buf(2048, 5);
  for (int it = 0; it < iters; ++it) {
    mpi::compute(1e-4);
    if (me == slow_rank) mpi::compute(extra_s);
    mpi::sendrecv(buf.data(), buf.size(), Type::Char, (me + 1) % n, 0,
                  buf.data(), buf.size(), (me + n - 1) % n, 0, world);
  }
  long v = me, sum = 0;
  mpi::allreduce(&v, &sum, 1, Type::Long, mpi::Op::Sum, world);
}

// --- blame identity and dominance --------------------------------------------

TEST(CritpathBlame, SumsExactlyToCommTimeAndNamesTheStraggler) {
  Engine eng(small_cfg(8));
  auto prof = Profiler::attach(eng);
  ASSERT_NE(prof, nullptr);
  EXPECT_EQ(Profiler::attached(eng), prof.get());
  eng.run([](Ctx& ctx) { slow_ring(ctx, /*slow_rank=*/3, /*extra_s=*/5e-4); });

  const BlameReport& rep = prof->report();
  ASSERT_TRUE(rep.valid);
  EXPECT_FALSE(rep.blame_only);
  EXPECT_GT(rep.total_comm_ns, 0u);
  EXPECT_GT(rep.total_wait_ns, 0u);

  // The identity is exact by construction, not approximate: every charged
  // wait appears once as its sufferer's own_wait and once as caused.
  std::uint64_t blame_sum = 0, caused_sum = 0, own_sum = 0;
  for (const RankBlame& r : rep.ranks) {
    blame_sum += r.blame_ns;
    caused_sum += r.caused_ns;
    own_sum += r.own_wait_ns;
  }
  EXPECT_EQ(blame_sum, rep.total_comm_ns);
  EXPECT_EQ(caused_sum, own_sum);
  EXPECT_EQ(own_sum, rep.total_wait_ns);

  // The injected straggler is the dominant cause, as a late sender.
  EXPECT_EQ(rep.dominant_rank, 3);
  EXPECT_EQ(rep.dominant_class, WaitClass::late_sender);
  for (const RankBlame& r : rep.ranks)
    if (r.rank != 3) EXPECT_GT(rep.ranks[3].caused_ns, r.caused_ns);

  // Links are sorted by descending charged wait; the critical link leaves
  // the straggler.
  ASSERT_FALSE(rep.links.empty());
  for (std::size_t i = 1; i < rep.links.size(); ++i)
    EXPECT_GE(rep.links[i - 1].wait_ns, rep.links[i].wait_ns);
  EXPECT_EQ(rep.critical_link.src, 3);
  EXPECT_GT(rep.critical_link.wait_ns, 0u);
  EXPECT_GT(rep.critical_link.bytes, 0u);

  // The extracted path is in forward time order with sane segments, and
  // the straggler owns time on it.
  ASSERT_FALSE(rep.path.empty());
  bool straggler_on_path = false;
  for (std::size_t i = 0; i < rep.path.size(); ++i) {
    EXPECT_LE(rep.path[i].t0, rep.path[i].t1);
    if (i > 0) EXPECT_LE(rep.path[i - 1].t1, rep.path[i].t0 + 1e-12);
    if (rep.path[i].rank == 3) straggler_on_path = true;
    EXPECT_FALSE(rep.path[i].tombstoned);  // nobody died
  }
  EXPECT_TRUE(straggler_on_path);

  // Phase cells fold the same charged waits.
  std::uint64_t phase_sum = 0;
  for (const PhaseBlame& p : rep.phases) phase_sum += p.wait_ns;
  EXPECT_EQ(phase_sum, rep.total_wait_ns);

  // report() is idempotent per run.
  EXPECT_EQ(&rep, &prof->report());
}

TEST(CritpathBlame, CollectiveWaitsAreClassified) {
  Engine eng(small_cfg(4));
  auto prof = Profiler::attach(eng);
  eng.run([](Ctx& ctx) {
    const Comm world = ctx.world();
    for (int it = 0; it < 6; ++it) {
      if (mpi::comm_rank(world) == 1) mpi::compute(4e-4);
      long v = it, sum = 0;
      mpi::allreduce(&v, &sum, 1, Type::Long, mpi::Op::Sum, world);
    }
  });
  const BlameReport& rep = prof->report();
  ASSERT_TRUE(rep.valid);
  std::array<std::uint64_t, kNumClasses> cls{};
  for (const RankBlame& r : rep.ranks)
    for (int c = 0; c < kNumClasses; ++c) cls[static_cast<std::size_t>(c)] +=
        r.class_ns[static_cast<std::size_t>(c)];
  EXPECT_GT(cls[kClassWaitCollective] + cls[kClassRootImbalance], 0u);
  // Charged classes (everything but the informational late-receiver dwell)
  // add up to the total classified wait.
  EXPECT_EQ(cls[kClassLateSender] + cls[kClassWaitCollective] +
                cls[kClassRootImbalance],
            rep.total_wait_ns);
  EXPECT_EQ(rep.dominant_rank, 1);
}

// --- determinism -------------------------------------------------------------

TEST(CritpathClocks, BitIdenticalProfilerOnAndOff) {
  Engine bare(small_cfg(6));
  bare.run([](Ctx& ctx) { slow_ring(ctx, 2, 3e-4); });
  const std::vector<double> base = bare.final_clocks();

  Engine profiled(small_cfg(6));
  auto prof = Profiler::attach(profiled);
  profiled.run([](Ctx& ctx) { slow_ring(ctx, 2, 3e-4); });
  ASSERT_GT(prof->report().total_wait_ns, 0u);  // it actually observed

  const std::vector<double> observed = profiled.final_clocks();
  ASSERT_EQ(base.size(), observed.size());
  for (std::size_t r = 0; r < base.size(); ++r)
    EXPECT_EQ(base[r], observed[r]) << "rank " << r;
}

TEST(CritpathClocks, BitIdenticalUnderCrashAndShrinkWithDeadRankFlagged) {
  auto plan = [] {
    auto p = std::make_shared<fault::FaultPlan>(1);
    fault::RankFault crash;
    crash.rank = 2;
    crash.crash_at_s = 1e-3;
    p->add(crash);
    return p;
  };
  const auto workload = [](Ctx& ctx) {
    const Comm world = ctx.world();
    mpi::comm_set_errhandler(world, mpi::ErrMode::ret);
    if (ctx.world_rank() == 2) {
      mpi::compute(1.0);
      return;
    }
    const Comm alive = mpi::comm_shrink(world);
    ASSERT_FALSE(alive.is_null());
    const int me = mpi::comm_rank(alive);
    const int n = mpi::comm_size(alive);
    if (me == 0) mpi::compute(3e-4);  // some post-shrink waiting to classify
    int token = me;
    mpi::send(&token, 1, Type::Int, (me + 1) % n, 9, alive);
    mpi::recv(&token, 1, Type::Int, (me + n - 1) % n, 9, alive);
  };

  Engine bare(small_cfg(4, plan()));
  bare.run(workload);
  const std::vector<double> base = bare.final_clocks();

  Engine profiled(small_cfg(4, plan()));
  auto prof = Profiler::attach(profiled);
  profiled.run(workload);
  EXPECT_EQ(base, profiled.final_clocks());

  const BlameReport& rep = prof->report();
  ASSERT_TRUE(rep.valid);
  ASSERT_EQ(rep.ranks.size(), 4u);
  EXPECT_TRUE(rep.ranks[2].dead);
  EXPECT_FALSE(rep.ranks[0].dead);
  // Blame identity holds with a tombstoned rank in the report.
  std::uint64_t blame_sum = 0;
  for (const RankBlame& r : rep.ranks) blame_sum += r.blame_ns;
  EXPECT_EQ(blame_sum, rep.total_comm_ns);
}

TEST(CritpathClocks, RerunResetsLanesAndStaysDeterministic) {
  Engine eng(small_cfg(4));
  auto prof = Profiler::attach(eng);
  eng.run([](Ctx& ctx) { slow_ring(ctx, 1, 2e-4, /*iters=*/4); });
  const std::vector<double> first = eng.final_clocks();
  const std::uint64_t first_wait = prof->report().total_wait_ns;
  ASSERT_GT(first_wait, 0u);

  eng.run([](Ctx& ctx) { slow_ring(ctx, 1, 2e-4, /*iters=*/4); });
  EXPECT_EQ(first, eng.final_clocks());
  // The rerun re-captured from scratch: same workload, same totals.
  EXPECT_EQ(prof->report().total_wait_ns, first_wait);
}

// --- memory governance -------------------------------------------------------

TEST(CritpathGovernor, RefusalDegradesToBlameOnlyMode) {
  ::setenv("MPIM_MEM_BUDGET_BYTES", "64", 1);
  Engine eng(small_cfg(4));
  eng.telemetry().set_enabled(true);  // the mirror gauge is enabled-gated
  mpit::Runtime tool(eng);
  auto prof = mon::attach_critpath(eng);
  eng.run([](Ctx& ctx) { slow_ring(ctx, 1, 3e-4, /*iters=*/4); });
  ::unsetenv("MPIM_MEM_BUDGET_BYTES");

  EXPECT_TRUE(prof->blame_only());
  const BlameReport& rep = prof->report();
  ASSERT_TRUE(rep.valid);
  EXPECT_TRUE(rep.blame_only);
  // Accumulators keep the full story: identity, dominance, classes.
  std::uint64_t blame_sum = 0;
  for (const RankBlame& r : rep.ranks) blame_sum += r.blame_ns;
  EXPECT_EQ(blame_sum, rep.total_comm_ns);
  EXPECT_GT(rep.total_wait_ns, 0u);
  EXPECT_EQ(rep.dominant_rank, 1);
  // No rings: the path degenerates to the dominant rank's whole lane.
  ASSERT_EQ(rep.path.size(), 1u);
  EXPECT_EQ(rep.path[0].rank, 1);
  // The refusal is visible as a gauge.
  const telemetry::Hub& hub = eng.telemetry();
  EXPECT_EQ(hub.registry().scalar_value(Metric::critpath_blame_only, 0), 1u);
}

TEST(CritpathGovernor, UngovernedRunsKeepTheirRings) {
  Engine eng(small_cfg(4));
  auto prof = mon::attach_critpath(eng);  // no budget set -> full grant
  eng.run([](Ctx& ctx) { slow_ring(ctx, 0, 2e-4, /*iters=*/4); });
  EXPECT_FALSE(prof->blame_only());
  EXPECT_FALSE(prof->report().blame_only);
  for (int r = 0; r < 4; ++r) EXPECT_GT(prof->local_totals(r).events, 0u);
  ASSERT_FALSE(prof->report().path.empty());
}

TEST(CritpathRings, TinyRingEvictsOldestButAccumulatorsStayExact) {
  Engine eng(small_cfg(4));
  Config cfg;
  cfg.ring_capacity = 16;  // the floor: one step smaller means blame-only
  auto prof = Profiler::attach(eng, cfg);
  eng.run([](Ctx& ctx) { slow_ring(ctx, 1, 2e-4, /*iters=*/32); });

  bool dropped = false;
  for (int r = 0; r < 4; ++r)
    if (prof->local_totals(r).dropped > 0) dropped = true;
  EXPECT_TRUE(dropped);

  const BlameReport& rep = prof->report();
  ASSERT_TRUE(rep.valid);
  EXPECT_FALSE(rep.blame_only);
  std::uint64_t blame_sum = 0;
  for (const RankBlame& r : rep.ranks) blame_sum += r.blame_ns;
  EXPECT_EQ(blame_sum, rep.total_comm_ns);  // eviction never loses blame
  EXPECT_EQ(rep.dominant_rank, 1);
  ASSERT_FALSE(rep.path.empty());  // the bounded ring still yields a path
}

// --- MPI_M surface -----------------------------------------------------------

TEST(CritpathApi, MonitoringCallsReadTheCallersOwnLane) {
  Engine eng(small_cfg(4));
  mpit::Runtime tool(eng);
  auto prof = mon::attach_critpath(eng);
  std::atomic<bool> saw_wait{false};
  eng.run([&](Ctx& ctx) {
    slow_ring(ctx, 1, 4e-4, /*iters=*/6);

    int events = -1, dropped = -1, blame_only = -1;
    ASSERT_EQ(MPI_M_critpath_info(&events, &dropped, &blame_only),
              MPI_M_SUCCESS);
    EXPECT_GT(events, 0);
    EXPECT_EQ(blame_only, 0);

    unsigned long ls = 0, lr = 0, wc = 0, ri = 0;
    ASSERT_EQ(MPI_M_critpath_classes(&ls, &lr, &wc, &ri), MPI_M_SUCCESS);

    std::array<unsigned long, 8> waits{};
    int count = 0;
    ASSERT_EQ(MPI_M_critpath_waits(waits.data(),
                                   static_cast<int>(waits.size()), &count),
              MPI_M_SUCCESS);
    EXPECT_EQ(count, 4);

    int peer = -2;
    unsigned long peer_ns = 0;
    ASSERT_EQ(MPI_M_critpath_dominant(&peer, &peer_ns), MPI_M_SUCCESS);
    if (ctx.world_rank() == 2) {
      // Rank 2 receives its ring predecessor 1 late every iteration.
      EXPECT_EQ(peer, 1);
      EXPECT_GT(peer_ns, 0ul);
      EXPECT_EQ(waits[1], peer_ns);
      if (ls > 0) saw_wait.store(true);
    }

    // Disarm: the lane freezes while traffic continues.
    ASSERT_EQ(MPI_M_critpath_stop(), MPI_M_SUCCESS);
    int frozen = -1;
    ASSERT_EQ(MPI_M_critpath_info(&frozen, nullptr, nullptr), MPI_M_SUCCESS);
    slow_ring(ctx, 1, 1e-4, /*iters=*/2);
    int still = -1;
    ASSERT_EQ(MPI_M_critpath_info(&still, nullptr, nullptr), MPI_M_SUCCESS);
    EXPECT_EQ(still, frozen);
    // Re-arm: capture resumes.
    ASSERT_EQ(MPI_M_critpath_start(), MPI_M_SUCCESS);
    slow_ring(ctx, 1, 1e-4, /*iters=*/2);
    int resumed = -1;
    ASSERT_EQ(MPI_M_critpath_info(&resumed, nullptr, nullptr), MPI_M_SUCCESS);
    EXPECT_GT(resumed, still);
  });
  EXPECT_TRUE(saw_wait.load());
}

TEST(CritpathApi, NoProfilerMeansNoCritpathError) {
  Engine eng(small_cfg(2));
  mpit::Runtime tool(eng);
  eng.run([](Ctx&) {
    EXPECT_EQ(MPI_M_critpath_info(nullptr, nullptr, nullptr),
              MPI_M_NO_CRITPATH);
    EXPECT_EQ(MPI_M_critpath_start(), MPI_M_NO_CRITPATH);
    EXPECT_EQ(MPI_M_critpath_stop(), MPI_M_NO_CRITPATH);
    EXPECT_EQ(MPI_M_critpath_dominant(nullptr, nullptr), MPI_M_NO_CRITPATH);
  });
  EXPECT_NE(
      std::string(MPI_M_error_string(MPI_M_NO_CRITPATH)).find("CRITPATH"),
      std::string::npos);
}

TEST(CritpathApi, FortranShimsForwardToTheCApi) {
  Engine eng(small_cfg(4));
  mpit::Runtime tool(eng);
  auto prof = mon::attach_critpath(eng);
  eng.run([](Ctx& ctx) {
    slow_ring(ctx, 1, 3e-4, /*iters=*/4);

    int events = -1, dropped = -1, blame_only = -1, ierr = -1;
    mpi_m_critpath_info_(&events, &dropped, &blame_only, &ierr);
    ASSERT_EQ(ierr, MPI_M_SUCCESS);
    EXPECT_GT(events, 0);

    unsigned long ls = 0, lr = 0, wc = 0, ri = 0;
    mpi_m_critpath_classes_(&ls, &lr, &wc, &ri, &ierr);
    ASSERT_EQ(ierr, MPI_M_SUCCESS);

    std::array<unsigned long, 4> waits{};
    const int capacity = 4;
    int count = 0;
    mpi_m_critpath_waits_(waits.data(), &capacity, &count, &ierr);
    ASSERT_EQ(ierr, MPI_M_SUCCESS);
    EXPECT_EQ(count, 4);

    int peer = -2;
    unsigned long peer_ns = 0;
    mpi_m_critpath_dominant_(&peer, &peer_ns, &ierr);
    ASSERT_EQ(ierr, MPI_M_SUCCESS);

    mpi_m_critpath_stop_(&ierr);
    ASSERT_EQ(ierr, MPI_M_SUCCESS);
    mpi_m_critpath_start_(&ierr);
    ASSERT_EQ(ierr, MPI_M_SUCCESS);
  });
  EXPECT_GT(prof->report().total_wait_ns, 0u);
}

// --- reorder feed ------------------------------------------------------------

TEST(CritpathReorder, MismatchDominanceFiresThePhaseHookAndAdvancesMarks) {
  Engine eng(small_cfg(8));
  mpit::Runtime tool(eng);
  auto prof = mon::attach_critpath(eng);
  std::atomic<bool> fired{false};
  std::atomic<unsigned long> wait_after_mark{~0ul};
  eng.run([&](Ctx& ctx) {
    const Comm world = ctx.world();
    mon::Environment env;
    MPI_M_msid id;
    ASSERT_EQ(MPI_M_start(world, &id), MPI_M_SUCCESS);
    ASSERT_EQ(MPI_M_snapshot_start(id, 1e-3, 64, MPI_M_ALL_COMM),
              MPI_M_SUCCESS);
    int seen = 0;

    // Steady traffic; absorb whatever boundary the startup edge flagged.
    slow_ring(ctx, 3, 4e-4, /*iters=*/6);
    reorder::reorder_on_phase(id, world, &seen, nullptr);

    // More of the same steady pattern: no new boundary, but the straggler
    // keeps charging cross-node waits -- the mismatch trigger must fire.
    slow_ring(ctx, 3, 4e-4, /*iters=*/6);
    bool t = false;
    reorder::PhaseReorderOptions opts;
    opts.use_critpath_mismatch = true;
    opts.min_wait_ns = 0;
    reorder::reorder_on_phase(id, world, &seen, &t, opts);
    if (ctx.world_rank() == 0) {
      fired.store(t);
      wait_after_mark.store(static_cast<unsigned long>(
          Profiler::attached(ctx.engine())->wait_since_mark(0)));
    }

    ASSERT_EQ(MPI_M_suspend(id), MPI_M_SUCCESS);
    ASSERT_EQ(MPI_M_snapshot_stop(id), MPI_M_SUCCESS);
    ASSERT_EQ(MPI_M_free(id), MPI_M_SUCCESS);
  });
  EXPECT_TRUE(fired.load());
  // The firing advanced the mark, so the next window starts near zero.
  EXPECT_EQ(wait_after_mark.load(), 0ul);
  EXPECT_GT(prof->report().total_wait_ns, 0u);
}

TEST(CritpathReorder, FeedCollectiveRunsWithoutAProfilerAndClocksMatch) {
  // A fired reorder charges rank 0's *measured host* TreeMatch CPU time to
  // the virtual clock (the paper's t2), which is nondeterministic across
  // runs profiler or not -- so this test pins both hooks to "no fire": a
  // one-window snapshot never flags a boundary, and a wait floor no real
  // wait reaches mutes the mismatch trigger. What remains is exactly the
  // machinery under test: the agreement collectives (including the
  // unconditional critpath consult) plus capture, which must cost zero
  // virtual time.
  const auto workload = [](Ctx& ctx) {
    const Comm world = ctx.world();
    mon::Environment env;
    MPI_M_msid id;
    ASSERT_EQ(MPI_M_start(world, &id), MPI_M_SUCCESS);
    ASSERT_EQ(MPI_M_snapshot_start(id, /*window_s=*/10.0, 64, MPI_M_ALL_COMM),
              MPI_M_SUCCESS);
    int seen = 0;
    slow_ring(ctx, 1, 2e-4, /*iters=*/4);
    bool t1 = false;
    reorder::reorder_on_phase(id, world, &seen, &t1);
    EXPECT_FALSE(t1);
    slow_ring(ctx, 1, 2e-4, /*iters=*/4);
    bool t = false;
    reorder::PhaseReorderOptions opts;
    opts.use_critpath_mismatch = true;
    opts.min_wait_ns = ~0ull >> 1;
    reorder::reorder_on_phase(id, world, &seen, &t, opts);
    EXPECT_FALSE(t);
    ASSERT_EQ(MPI_M_suspend(id), MPI_M_SUCCESS);
    ASSERT_EQ(MPI_M_snapshot_stop(id), MPI_M_SUCCESS);
    ASSERT_EQ(MPI_M_free(id), MPI_M_SUCCESS);
  };

  Engine bare(small_cfg(4));
  mpit::Runtime bare_tool(bare);
  bare.run(workload);
  const std::vector<double> base = bare.final_clocks();

  Engine profiled(small_cfg(4));
  mpit::Runtime prof_tool(profiled);
  auto prof = mon::attach_critpath(profiled);
  profiled.run(workload);
  ASSERT_GT(prof->report().total_wait_ns, 0u);
  EXPECT_EQ(base, profiled.final_clocks());
}

// --- CSV round trip ----------------------------------------------------------

TEST(CritpathTools, CsvRoundTripRendersBlameTableAndLanes) {
  Engine eng(small_cfg(6));
  auto prof = Profiler::attach(eng);
  eng.run([](Ctx& ctx) { slow_ring(ctx, 2, 4e-4); });

  const std::string path = temp_path("critpath_roundtrip.csv");
  std::remove(path.c_str());
  ASSERT_TRUE(prof->write_csv(path));

  std::ostringstream os;
  tools::report_critpath(path, os);
  const std::string out = os.str();
  EXPECT_NE(out.find("critical path / wait states"), std::string::npos);
  EXPECT_NE(out.find("dominant cause     : rank 2"), std::string::npos);
  EXPECT_NE(out.find("blame shares"), std::string::npos);
  EXPECT_NE(out.find("hottest links"), std::string::npos);
  EXPECT_NE(out.find("late_sender"), std::string::npos);
  EXPECT_NE(out.find("per-phase blame"), std::string::npos);
  EXPECT_NE(out.find("critical path ("), std::string::npos);
  EXPECT_NE(out.find("rank 2\t|"), std::string::npos);  // a lane rendered
  std::remove(path.c_str());
}

// --- observer attach order ---------------------------------------------------

std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream f(path);
  std::vector<std::string> out;
  for (std::string line; std::getline(f, line);) out.push_back(line);
  return out;
}

/// Everything the critpath + obsplane stencil scenario produces.
struct ObservedStencil {
  std::vector<double> clocks;
  std::vector<std::string> findings;
  std::vector<std::string> stream;
  std::vector<std::string> blame_csv;
};

enum class PlaneAttach { before_profiler, after_profiler, from_env };

ObservedStencil run_observed_stencil(PlaneAttach how, const std::string& tag) {
  const std::string stream = temp_path("critpath_order_" + tag + ".jsonl");
  const std::string csv = temp_path("critpath_order_" + tag + ".csv");
  // Fibers: one OS thread drains the plane, so the stream's line order is
  // deterministic and comparable across runs.
  auto cfg = small_cfg(8);
  cfg.sched = mpi::SchedMode::fibers;
  Engine eng(cfg);
  obsplane::PlaneConfig pcfg;
  pcfg.stream_path = stream;
  if (how == PlaneAttach::from_env)
    ::setenv("MPIM_STREAM_FILE", stream.c_str(), 1);
  mpit::Runtime tool(eng);  // attaches the MPIM_STREAM_FILE plane
  ::unsetenv("MPIM_STREAM_FILE");
  if (how == PlaneAttach::before_profiler) obsplane::Plane::attach(eng, pcfg);
  auto prof = mon::attach_critpath(eng);
  if (how == PlaneAttach::after_profiler) obsplane::Plane::attach(eng, pcfg);
  obsplane::Plane* plane = obsplane::Plane::attached(eng);
  EXPECT_NE(plane, nullptr);

  eng.run([](Ctx& ctx) {
    apps::HaloConfig halo{/*local_n=*/16, /*iters=*/16, /*seed=*/3};
    halo.slow_rank = 5;
    halo.slow_extra_s = 3e-4;
    apps::run_halo(ctx.world(), halo);
  });

  ObservedStencil out;
  out.clocks = eng.final_clocks();
  if (plane != nullptr)
    for (const obsplane::Finding& f : plane->findings())
      out.findings.push_back(f.kind + "|" + f.subject + "|" + f.text);
  out.stream = read_lines(stream);
  EXPECT_TRUE(prof->write_csv(csv));
  out.blame_csv = read_lines(csv);
  std::remove(stream.c_str());
  std::remove(csv.c_str());
  return out;
}

TEST(CritpathObserverOrder, PlaneBeforeAfterOrFromEnvGivesIdenticalOutputs) {
  const ObservedStencil before =
      run_observed_stencil(PlaneAttach::before_profiler, "before");
  const ObservedStencil after =
      run_observed_stencil(PlaneAttach::after_profiler, "after");
  const ObservedStencil env =
      run_observed_stencil(PlaneAttach::from_env, "env");

  // The plane folded the profiler's verdicts in even when its run end
  // fired first.
  bool blamed = false;
  for (const std::string& f : before.findings)
    if (f.rfind("wait_state_dominant|", 0) == 0) blamed = true;
  EXPECT_TRUE(blamed);
  ASSERT_FALSE(before.stream.empty());
  ASSERT_FALSE(before.blame_csv.empty());

  for (const ObservedStencil* other : {&after, &env}) {
    EXPECT_EQ(before.clocks, other->clocks);
    EXPECT_EQ(before.findings, other->findings);
    EXPECT_EQ(before.stream, other->stream);
    EXPECT_EQ(before.blame_csv, other->blame_csv);
  }
}

TEST(CritpathTools, RendererRejectsMissingOrForeignFilesWithClearErrors) {
  try {
    std::ostringstream os;
    tools::report_critpath(temp_path("critpath_nope.csv"), os);
    FAIL() << "missing file should be rejected";
  } catch (const std::exception& e) {
    EXPECT_NE(std::string(e.what()).find("cannot open"), std::string::npos);
  }

  const std::string path = temp_path("critpath_foreign.csv");
  {
    std::ofstream f(path);
    f << "this,is,not,a,critpath,file\n";
  }
  try {
    std::ostringstream os;
    tools::report_critpath(path, os);
    FAIL() << "foreign file should be rejected";
  } catch (const std::exception& e) {
    EXPECT_NE(std::string(e.what()).find("not a critpath csv"),
              std::string::npos);
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace mpim::critpath
