#include <gtest/gtest.h>

#include <atomic>

#include "minimpi/api.h"
#include "minimpi/engine.h"
#include "minimpi/osc.h"

namespace mpim::mpi {
namespace {

EngineConfig cfg4() {
  topo::Topology t({2, 1, 2}, {"node", "socket", "core"});
  std::vector<net::LinkParams> params = {
      {1e-5, 1e8}, {1e-6, 1e9}, {1e-7, 1e10}, {0.0, 1e12}};
  net::CostModel cost(t, params, 1e-7);
  EngineConfig cfg{.cost_model = cost,
                   .placement = topo::round_robin_placement(4, t)};
  cfg.watchdog_wall_timeout_s = 3.0;
  return cfg;
}

TEST(Osc, PutWritesIntoTargetWindow) {
  Engine eng(cfg4());
  eng.run([](Ctx& ctx) {
    const Comm world = ctx.world();
    const int r = comm_rank(world);
    std::vector<int> window(4, -1);
    Win win = Win::create(window.data(), window.size() * sizeof(int), world);
    win.fence();
    if (r != 0) {
      const int v = 100 + r;
      win.put(&v, 1, Type::Int, 0, static_cast<std::size_t>(r) * sizeof(int));
    }
    win.fence();
    if (r == 0) {
      EXPECT_EQ(window[1], 101);
      EXPECT_EQ(window[2], 102);
      EXPECT_EQ(window[3], 103);
      EXPECT_EQ(window[0], -1);
    }
  });
}

TEST(Osc, GetReadsRemoteWindow) {
  Engine eng(cfg4());
  eng.run([](Ctx& ctx) {
    const Comm world = ctx.world();
    const int r = comm_rank(world);
    std::vector<double> window(2);
    window[0] = 10.0 * r;
    window[1] = 10.0 * r + 1;
    Win win =
        Win::create(window.data(), window.size() * sizeof(double), world);
    win.fence();
    double got[2] = {-1, -1};
    const int target = (r + 1) % comm_size(world);
    win.get(got, 2, Type::Double, target, 0);
    win.fence();
    EXPECT_DOUBLE_EQ(got[0], 10.0 * target);
    EXPECT_DOUBLE_EQ(got[1], 10.0 * target + 1);
  });
}

TEST(Osc, AccumulateSumsConcurrently) {
  Engine eng(cfg4());
  eng.run([](Ctx& ctx) {
    const Comm world = ctx.world();
    const int r = comm_rank(world);
    long cell = 0;
    Win win = Win::create(&cell, sizeof cell, world);
    win.fence();
    const long v = r + 1;
    win.accumulate(&v, 1, Type::Long, Op::Sum, 0, 0);
    win.fence();
    if (r == 0) {
      EXPECT_EQ(cell, 1 + 2 + 3 + 4);
    }
  });
}

TEST(Osc, OutOfWindowAccessThrows) {
  Engine eng(cfg4());
  EXPECT_THROW(eng.run([](Ctx& ctx) {
    const Comm world = ctx.world();
    int cell = 0;
    Win win = Win::create(&cell, sizeof cell, world);
    win.fence();
    const int v = 1;
    win.put(&v, 1, Type::Int, 0, /*disp=*/4);  // one past the end
    win.fence();
  }),
               Error);
}

TEST(Osc, TrafficReportedAsOscKindWithGetAttributedToTarget) {
  struct Recorder : EngineObserver {
    std::atomic<int> puts{0}, gets_from_target{0};
    int on_send_record(const PktInfo& pkt, int caller_world) override {
      if (pkt.kind != CommKind::osc) return 0;
      // A get's traffic is attributed to the target rank but reported from
      // the origin's thread: caller may differ from src (on_send_record
      // contract).
      if (pkt.src_world == 2 && pkt.dst_world == 3) {
        EXPECT_EQ(caller_world, 3);
      }
      if (pkt.dst_world == 0) puts.fetch_add(1);          // put 1 -> 0
      if (pkt.src_world == 2 && pkt.dst_world == 3)
        gets_from_target.fetch_add(1);                    // get by 3 from 2
      return 1;
    }
  } rec;
  Engine eng(cfg4());
  eng.attach(rec, EngineObserver::kSendRecord);
  eng.run([](Ctx& ctx) {
    const Comm world = ctx.world();
    const int r = comm_rank(world);
    int cell = r;
    Win win = Win::create(&cell, sizeof cell, world);
    win.fence();
    if (r == 1) {
      const int v = 9;
      win.put(&v, 1, Type::Int, 0, 0);
    }
    if (r == 3) {
      int got = 0;
      win.get(&got, 1, Type::Int, 2, 0);
      EXPECT_EQ(got, 2);
    }
    win.fence();
  });
  EXPECT_EQ(rec.puts.load(), 1);
  EXPECT_EQ(rec.gets_from_target.load(), 1);
}

TEST(Osc, SeparateWindowsCoexist) {
  Engine eng(cfg4());
  eng.run([](Ctx& ctx) {
    const Comm world = ctx.world();
    const int r = comm_rank(world);
    int a = r, b = 10 * r;
    Win wa = Win::create(&a, sizeof a, world);
    Win wb = Win::create(&b, sizeof b, world);
    wa.fence();
    wb.fence();
    int ga = -1, gb = -1;
    wa.get(&ga, 1, Type::Int, 1, 0);
    wb.get(&gb, 1, Type::Int, 1, 0);
    wa.fence();
    wb.fence();
    EXPECT_EQ(ga, 1);
    EXPECT_EQ(gb, 10);
  });
}

}  // namespace
}  // namespace mpim::mpi
