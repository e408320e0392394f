#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "apps/cg.h"
#include "apps/nas_cg.h"
#include "apps/group_allgather.h"
#include "apps/halo.h"
#include "apps/traffic.h"
#include "mpimon/mpi_monitoring.h"
#include "mpimon/session.hpp"
#include "mpimon/sim.h"

namespace mpim::apps {
namespace {

using mpi::Comm;
using mpi::Ctx;

Sim make_sim(int nranks, int nodes = 2, int cores = 4) {
  auto cost = net::CostModel::plafrim_like(nodes, 1, cores);
  mpi::EngineConfig cfg{
      .cost_model = cost,
      .placement = topo::round_robin_placement(nranks, cost.topology())};
  cfg.watchdog_wall_timeout_s = 10.0;
  return Sim(std::move(cfg));
}

// --- process grid ----------------------------------------------------------------

TEST(CgGrid, FactorizesBalanced) {
  int pr = 0, pc = 0;
  cg_process_grid(64, &pr, &pc);
  EXPECT_EQ(pr * pc, 64);
  EXPECT_EQ(pr, 8);
  cg_process_grid(128, &pr, &pc);
  EXPECT_EQ(pr, 8);
  EXPECT_EQ(pc, 16);
  cg_process_grid(1, &pr, &pc);
  EXPECT_EQ(pr * pc, 1);
  cg_process_grid(6, &pr, &pc);
  EXPECT_EQ(pr, 2);
  EXPECT_EQ(pc, 3);
}

// --- conjugate gradient ------------------------------------------------------------

TEST(Cg, ResidualDecreasesMonotonically) {
  Sim sim = make_sim(4);
  sim.run([](Ctx& ctx) {
    CgSolver solver(ctx.world(), CgConfig{48, 12, 1});
    double prev = std::numeric_limits<double>::max();
    for (int it = 0; it < 12; ++it) {
      const double rho = solver.iteration();
      EXPECT_LT(rho, prev) << "CG residual must shrink each iteration";
      prev = rho;
    }
  });
}

TEST(Cg, SolveConvergesTowardsSolution) {
  Sim sim = make_sim(4);
  sim.run([](Ctx& ctx) {
    CgSolver solver(ctx.world(), CgConfig{48, 130, 1});
    const CgResult res = solver.solve();
    EXPECT_EQ(res.iterations, 130);
    EXPECT_LT(res.residual_norm2, 1e-10);
    EXPECT_GT(res.total_time_s, 0.0);
    EXPECT_GT(res.comm_time_s, 0.0);
    EXPECT_LT(res.comm_time_s, res.total_time_s);
  });
}

TEST(Cg, ResidualIndependentOfRankCount) {
  // The operator and rhs are global objects: the residual after k
  // iterations must not depend on the partitioning.
  auto run_with = [](int nranks) {
    double rho = 0.0;
    Sim sim = make_sim(nranks);
    sim.run([&](Ctx& ctx) {
      CgSolver solver(ctx.world(), CgConfig{48, 8, 7});
      for (int i = 0; i < 8; ++i) rho = solver.iteration();
    });
    return rho;
  };
  const double rho1 = run_with(1);
  const double rho4 = run_with(4);
  const double rho8 = run_with(8);
  EXPECT_NEAR(rho1, rho4, 1e-9 * std::abs(rho1));
  EXPECT_NEAR(rho1, rho8, 1e-9 * std::abs(rho1));
}

TEST(Cg, ClassesGrowInSize) {
  EXPECT_LT(cg_class('A').grid_n, cg_class('B').grid_n);
  EXPECT_LT(cg_class('B').grid_n, cg_class('C').grid_n);
  EXPECT_LT(cg_class('C').grid_n, cg_class('D').grid_n);
  EXPECT_THROW(cg_class('Z'), Error);
}

TEST(Cg, DeterministicVirtualTimes) {
  auto run_once = [] {
    Sim sim = make_sim(8);
    double t = 0.0;
    sim.run([&](Ctx& ctx) {
      CgSolver solver(ctx.world(), CgConfig{48, 5, 3});
      const auto res = solver.solve();
      if (ctx.world_rank() == 0) t = res.total_time_s;
    });
    return t;
  };
  EXPECT_DOUBLE_EQ(run_once(), run_once());
}

// --- NAS-distribution CG -----------------------------------------------------------

TEST(NasCg, GridIsNasShaped) {
  int pr = 0, pc = 0;
  nas_process_grid(64, &pr, &pc);
  EXPECT_EQ(pr, 8);
  EXPECT_EQ(pc, 8);
  nas_process_grid(128, &pr, &pc);
  EXPECT_EQ(pr, 8);
  EXPECT_EQ(pc, 16);
  nas_process_grid(2, &pr, &pc);
  EXPECT_EQ(pr, 1);
  EXPECT_EQ(pc, 2);
  EXPECT_THROW(nas_process_grid(48, &pr, &pc), Error);  // not a power of 2
}

TEST(NasCg, PiecesPartitionTheVector) {
  Sim sim = make_sim(8);
  sim.run([](Ctx& ctx) {
    NasCgSolver solver(ctx.world(), CgConfig{48, 2, 1});
    const auto [begin, end] = solver.piece_range();
    const long len = end - begin;
    EXPECT_EQ(len, 48l * 48 / 8);
    // The union of all pieces covers [0, n) without overlap.
    long mine[2] = {begin, end};
    std::vector<long> all(16);
    mpi::allgather(mine, 2, mpi::Type::Long, all.data(), ctx.world());
    std::vector<std::pair<long, long>> ranges;
    for (int r = 0; r < 8; ++r)
      ranges.emplace_back(all[static_cast<std::size_t>(2 * r)],
                          all[static_cast<std::size_t>(2 * r + 1)]);
    std::sort(ranges.begin(), ranges.end());
    long cursor = 0;
    for (const auto& [b, e] : ranges) {
      EXPECT_EQ(b, cursor);
      cursor = e;
    }
    EXPECT_EQ(cursor, 48l * 48);
  });
}

TEST(NasCg, MatchesHaloCgResiduals) {
  // Same operator, same rhs, radically different data distribution and
  // communication pattern: the residual sequences must agree.
  std::vector<double> rho_halo, rho_nas;
  {
    Sim sim = make_sim(4);
    sim.run([&](Ctx& ctx) {
      CgSolver s(ctx.world(), CgConfig{48, 6, 9});
      for (int i = 0; i < 6; ++i) {
        const double rho = s.iteration();
        if (ctx.world_rank() == 0) rho_halo.push_back(rho);
      }
    });
  }
  {
    Sim sim = make_sim(4);
    sim.run([&](Ctx& ctx) {
      NasCgSolver s(ctx.world(), CgConfig{48, 6, 9});
      for (int i = 0; i < 6; ++i) {
        const double rho = s.iteration();
        if (ctx.world_rank() == 0) rho_nas.push_back(rho);
      }
    });
  }
  ASSERT_EQ(rho_halo.size(), rho_nas.size());
  for (std::size_t i = 0; i < rho_halo.size(); ++i)
    EXPECT_NEAR(rho_halo[i], rho_nas[i], 1e-9 * std::abs(rho_halo[i]))
        << "iteration " << i;
}

TEST(NasCg, ResidualIndependentOfRankCount) {
  auto run_with = [](int nranks) {
    double rho = 0.0;
    Sim sim = make_sim(nranks, 2, std::max(8, nranks / 2));
    sim.run([&](Ctx& ctx) {
      NasCgSolver s(ctx.world(), CgConfig{48, 5, 7});
      for (int i = 0; i < 5; ++i) rho = s.iteration();
    });
    return rho;
  };
  const double rho1 = run_with(1);
  const double rho4 = run_with(4);
  const double rho16 = run_with(16);
  // An 8 x 8 grid: 42 of its 64 blocks hold no entry.
  const double rho64 = run_with(64);
  EXPECT_NEAR(rho1, rho4, 1e-9 * std::abs(rho1));
  EXPECT_NEAR(rho1, rho16, 1e-9 * std::abs(rho1));
  EXPECT_NEAR(rho1, rho64, 1e-9 * std::abs(rho1));
}

TEST(NasCg, RectangularGridWorks) {
  // 8 ranks -> 2 x 4 grid (pc = 2 pr): exercises the asymmetric
  // transpose partner mapping.
  Sim sim = make_sim(8);
  double rho8 = 0, rho1 = 0;
  sim.run([&](Ctx& ctx) {
    NasCgSolver s(ctx.world(), CgConfig{48, 4, 5});
    for (int i = 0; i < 4; ++i) rho8 = s.iteration();
  });
  Sim sim1 = make_sim(1);
  sim1.run([&](Ctx& ctx) {
    NasCgSolver s(ctx.world(), CgConfig{48, 4, 5});
    for (int i = 0; i < 4; ++i) rho1 = s.iteration();
  });
  EXPECT_NEAR(rho8, rho1, 1e-9 * std::abs(rho1));
}

TEST(NasCg, CommunicatesLongDistancePartners) {
  // The NAS pattern must include partners beyond grid neighbors -- the
  // property the Fig. 7 reordering relies on.
  Sim sim = make_sim(16, 2, 8);
  CommMatrix counts;
  sim.run([&](Ctx& ctx) {
    mon::Environment env;
    mon::Session s(ctx.world());
    NasCgSolver solver(ctx.world(), CgConfig{48, 1, 3});
    solver.iteration();
    s.suspend();
    const CommMatrix m = s.gather_counts(MPI_M_P2P_ONLY);
    if (ctx.world_rank() == 0) counts = m;
  });
  // Rank 0 (grid position (0,0) of a 4x4 grid) exchanges with column
  // partners at distance 4 and 8 and row partners at distance 1 and 2.
  EXPECT_GT(counts(0, 4) + counts(0, 8), 0u);
  EXPECT_GT(counts(0, 1) + counts(0, 2), 0u);
}

// --- halo -----------------------------------------------------------------------

TEST(Halo, ChecksumDeterministicAndTimed) {
  auto run_once = [] {
    Sim sim = make_sim(4);
    HaloResult res;
    sim.run([&](Ctx& ctx) {
      res = run_halo(ctx.world(), HaloConfig{16, 5, 3});
    });
    return res;
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_DOUBLE_EQ(a.checksum, b.checksum);
  EXPECT_DOUBLE_EQ(a.total_time_s, b.total_time_s);
  EXPECT_GT(a.comm_time_s, 0.0);
}

TEST(Halo, SmoothingContractsTowardsMean) {
  // Repeated averaging with zero boundary shrinks the field.
  Sim sim = make_sim(4);
  HaloResult early, late;
  sim.run([&](Ctx& ctx) {
    early = run_halo(ctx.world(), HaloConfig{16, 2, 3});
    late = run_halo(ctx.world(), HaloConfig{16, 50, 3});
  });
  EXPECT_LT(std::abs(late.checksum), std::abs(early.checksum));
}

// --- goldens: clocks and numerics bit for bit ---------------------------------------

/// Two PlaFRIM-like nodes with the figure benches' contention model (port
/// wire rate twice the single-flow bandwidth) and a seeded random mapping,
/// so halo, allgather and transpose traffic crosses the NIC gate.
Sim golden_sim(int nranks, mpi::SchedMode sched) {
  auto cost = net::CostModel::plafrim_like(2);
  mpi::EngineConfig cfg{
      .cost_model = cost,
      .placement = topo::random_placement(nranks, cost.topology(), 11)};
  cfg.nic_contention = true;
  cfg.nic_port_beta_scale = 2.0;
  cfg.sched = sched;
  cfg.watchdog_wall_timeout_s = 10.0;
  return Sim(std::move(cfg));
}

double max_final_clock(Sim& sim) {
  const std::vector<double>& clocks = sim.engine().final_clocks();
  return *std::max_element(clocks.begin(), clocks.end());
}

struct CgGolden {
  int np;
  double clock;     ///< latest final virtual clock over all ranks
  double residual;  ///< rank 0's CgResult, after one iteration() and solve()
  double comm;
  double total;
};

template <typename Solver>
void expect_cg_goldens(const std::vector<CgGolden>& goldens) {
  for (const CgGolden& g : goldens) {
    for (const mpi::SchedMode sched :
         {mpi::SchedMode::threads, mpi::SchedMode::fibers}) {
      SCOPED_TRACE("np=" + std::to_string(g.np) + " " +
                   mpi::sched_mode_name(sched));
      Sim sim = golden_sim(g.np, sched);
      CgResult res;
      sim.run([&](Ctx& ctx) {
        Solver solver(ctx.world(), CgConfig{48, 12, 5});
        solver.iteration();
        const CgResult mine = solver.solve();
        if (ctx.world_rank() == 0) res = mine;
      });
      EXPECT_EQ(max_final_clock(sim), g.clock)
          << std::hexfloat << max_final_clock(sim);
      EXPECT_EQ(res.iterations, 12);
      EXPECT_EQ(res.residual_norm2, g.residual)
          << std::hexfloat << res.residual_norm2;
      EXPECT_EQ(res.comm_time_s, g.comm) << std::hexfloat << res.comm_time_s;
      EXPECT_EQ(res.total_time_s, g.total)
          << std::hexfloat << res.total_time_s;
    }
  }
}

TEST(AppsGolden, CgSolverClocksAndResiduals) {
  expect_cg_goldens<CgSolver>({
      {4, 0x1.28dc3fddf3c1ap-13, 0x1.9c062ab4cadfp+1, 0x1.e749c36806287p-15,
       0x1.12066256b99f2p-13},
      {9, 0x1.60a7bfb7f4722p-13, 0x1.9c062ab4cadccp+1, 0x1.01e1d83ddc68ep-13,
       0x1.4587271ff555ep-13},
      {16, 0x1.5c916332c0f2fp-13, 0x1.9c062ab4cadc1p+1, 0x1.1b1cd74d4d999p-13,
       0x1.4129d3ac7b9ebp-13},
  });
}

TEST(AppsGolden, NasCgSolverClocksAndResiduals) {
  // np=1 runs no reduce-scatter round, so the sum is read from the SpMV
  // output; np=2 runs one round and no column allgather; np=32 is a 4 x 8
  // grid in which most blocks hold no entry at all.
  expect_cg_goldens<NasCgSolver>({
      {1, 0x1.669a82918410dp-12, 0x1.9c062ab4cae11p+1, 0x1.353cd652c8p-25,
       0x1.4b04c74b3ed48p-12},
      {2, 0x1.cea39a2c1942dp-13, 0x1.9c062ab4cadf8p+1, 0x1.464cd1a60bae3p-15,
       0x1.ab0d2bd9efefp-13},
      {4, 0x1.b76eafb3b8e44p-13, 0x1.9c062ab4cade4p+1, 0x1.4545d98ce1739p-14,
       0x1.956fb10d659dfp-13},
      {8, 0x1.7cca68b7e60d1p-13, 0x1.9c062ab4cadd6p+1, 0x1.bdb3e7ecfa6edp-14,
       0x1.5f7fc31fe80c5p-13},
      {16, 0x1.edeab0b3bfa51p-13, 0x1.9c062ab4cadc6p+1, 0x1.64e4ca173c6a2p-13,
       0x1.c757a85292f98p-13},
      {32, 0x1.d2d49774d8835p-12, 0x1.9c062ab4cadc6p+1, 0x1.93248abb8d654p-12,
       0x1.ad911d8bdf216p-12},
  });
}

TEST(AppsGolden, HaloWithSlowRankClocksAndChecksum) {
  struct Golden {
    int np;
    double clock, checksum, comm;  ///< comm is rank 0's comm_time_s
  };
  const Golden goldens[] = {
      {4, 0x1.cad679931bbdep-16, 0x1.b9f2a8c8ecb7fp+8, 0x1.75827769e005ep-16},
      {9, 0x1.16c64015c4b87p-15, 0x1.06f44a4f4e5fcp+10, 0x1.b314372d227c2p-16},
  };
  for (const Golden& g : goldens) {
    for (const mpi::SchedMode sched :
         {mpi::SchedMode::threads, mpi::SchedMode::fibers}) {
      SCOPED_TRACE("np=" + std::to_string(g.np) + " " +
                   mpi::sched_mode_name(sched));
      Sim sim = golden_sim(g.np, sched);
      HaloResult res;
      sim.run([&](Ctx& ctx) {
        const HaloResult mine = run_halo(
            ctx.world(), HaloConfig{16, 7, 3, /*slow_rank=*/1, 2e-6});
        if (ctx.world_rank() == 0) res = mine;
      });
      EXPECT_EQ(max_final_clock(sim), g.clock)
          << std::hexfloat << max_final_clock(sim);
      EXPECT_EQ(res.checksum, g.checksum) << std::hexfloat << res.checksum;
      EXPECT_EQ(res.comm_time_s, g.comm) << std::hexfloat << res.comm_time_s;
    }
  }
}

// --- group allgather ---------------------------------------------------------------

TEST(GroupAllgather, CyclicGroupsSpanNodes) {
  Sim sim = make_sim(8, 2, 4);
  sim.run([](Ctx& ctx) {
    const Comm world = ctx.world();
    const Comm group = make_group_comm(world, 4);
    EXPECT_EQ(mpi::comm_size(group), 2);
    // Group members are rank and rank+4: one per node under round robin.
    const int r = mpi::comm_rank(world);
    EXPECT_EQ(group.world_rank_of(0), r % 4);
    EXPECT_EQ(group.world_rank_of(1), r % 4 + 4);
  });
}

TEST(GroupAllgather, TimeGrowsWithBufferSize) {
  Sim sim = make_sim(8, 2, 4);
  double t_small = 0, t_big = 0;
  sim.run([&](Ctx& ctx) {
    const Comm group = make_group_comm(ctx.world(), 4);
    t_small = run_group_allgather(group, {4, 100, 5});
    t_big = run_group_allgather(group, {4, 100000, 5});
  });
  EXPECT_GT(t_big, t_small);
}

// --- traffic generator --------------------------------------------------------------

TEST(Traffic, IntrospectionMatchesNicCounters) {
  Sim sim = make_sim(2, 2, 1);  // one rank per node
  TrafficSeries series;
  TrafficConfig cfg;
  cfg.duration_s = 5.0;
  sim.run([&](Ctx& ctx) {
    mon::check_rc(MPI_M_init(), "init");
    auto s = run_traffic_generator(ctx.world(), cfg);
    if (ctx.world_rank() == 0) series = std::move(s);
    mon::check_rc(MPI_M_finalize(), "finalize");
  });
  ASSERT_FALSE(series.introspection.empty());
  EXPECT_GT(series.total_sent_bytes, 0u);

  // Sum over the introspection samples equals the bytes actually sent.
  std::uint64_t mon_total = 0;
  for (const auto& s : series.introspection) mon_total += s.bytes;
  EXPECT_EQ(mon_total, series.total_sent_bytes);

  // And the NIC of node 0 saw exactly the same volume (stop marker is
  // zero bytes, so it does not perturb the total).
  const auto hw =
      sample_nic_series(sim.engine().nic().log(0), cfg.sample_period_s,
                        cfg.duration_s);
  std::uint64_t hw_total = 0;
  for (const auto& s : hw) hw_total += s.bytes;
  EXPECT_EQ(hw_total, series.total_sent_bytes);

  // Bin-by-bin agreement (same grid, same virtual timestamps).
  ASSERT_EQ(hw.size(), series.introspection.size());
  for (std::size_t i = 0; i < hw.size(); ++i)
    EXPECT_EQ(hw[i].bytes, series.introspection[i].bytes) << "bin " << i;
}

TEST(Traffic, RespectsBurstAndSleepBounds) {
  Sim sim = make_sim(2, 2, 1);
  TrafficConfig cfg;
  cfg.duration_s = 3.0;
  TrafficSeries series;
  sim.run([&](Ctx& ctx) {
    mon::check_rc(MPI_M_init(), "init");
    auto s = run_traffic_generator(ctx.world(), cfg);
    if (ctx.world_rank() == 0) series = std::move(s);
    MPI_M_finalize();
  });
  // With sleeps of 50..1000 ms over 3 s there are between 3 and 60 bursts.
  const auto log = sim.engine().nic().log(0);
  std::size_t bursts = 0;
  for (const auto& rec : log)
    if (rec.bytes > 0) {
      ++bursts;
      EXPECT_GE(rec.bytes, cfg.min_bytes);
      EXPECT_LE(rec.bytes, cfg.max_bytes);
    }
  EXPECT_GE(bursts, 3u);
  EXPECT_LE(bursts, 61u);
}

}  // namespace
}  // namespace mpim::apps
