#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <numeric>

#include "minimpi/api.h"
#include "minimpi/engine.h"

namespace mpim::mpi {
namespace {

EngineConfig tiny_cfg(int nranks, int nodes = 2, int cores = 4) {
  topo::Topology t({nodes, 1, cores}, {"node", "socket", "core"});
  std::vector<net::LinkParams> params = {
      {1e-5, 1e8},   // inter-node
      {1e-6, 1e9},   // inter-socket
      {1e-7, 1e10},  // intra-socket
      {0.0, 1e12},   // same PU
  };
  net::CostModel cost(t, params, /*send_overhead=*/1e-7);
  EngineConfig cfg{.cost_model = cost,
                   .placement = topo::round_robin_placement(nranks, t)};
  cfg.watchdog_wall_timeout_s = 2.0;
  return cfg;
}

TEST(Engine, PointToPointDeliversPayloadAndStatus) {
  Engine eng(tiny_cfg(2));
  eng.run([](Ctx& ctx) {
    const Comm world = ctx.world();
    if (ctx.world_rank() == 0) {
      std::vector<int> data{1, 2, 3, 4};
      send(data.data(), data.size(), Type::Int, 1, 7, world);
    } else {
      std::vector<int> buf(4, 0);
      const Status st = recv(buf.data(), 4, Type::Int, 0, 7, world);
      EXPECT_EQ(buf, (std::vector<int>{1, 2, 3, 4}));
      EXPECT_EQ(st.source, 0);
      EXPECT_EQ(st.tag, 7);
      EXPECT_EQ(st.bytes, 16u);
      EXPECT_EQ(st.count(Type::Int), 4u);
    }
  });
}

TEST(Engine, VirtualTimeMatchesCostModel) {
  auto cfg = tiny_cfg(2, /*nodes=*/1, /*cores=*/4);
  Engine eng(cfg);
  eng.run([&](Ctx& ctx) {
    const Comm world = ctx.world();
    if (ctx.world_rank() == 0) {
      std::vector<std::byte> b(1000);
      send(b.data(), b.size(), Type::Byte, 1, 0, world);
      // Sender pays the serialization time plus the send overhead.
      EXPECT_DOUBLE_EQ(ctx.now(), 1000 / 1e10 + 1e-7);
    } else {
      std::vector<std::byte> b(1000);
      recv(b.data(), b.size(), Type::Byte, 0, 0, world);
      // Receiver completes at serialization + alpha (+ recv overhead).
      const double expected = 1000 / 1e10 + 1e-7 + 2e-7;
      EXPECT_NEAR(ctx.now(), expected, 1e-12);
    }
  });
}

TEST(Engine, FinalClocksDeterministicAcrossRuns) {
  Engine eng(tiny_cfg(6));
  auto workload = [](Ctx& ctx) {
    const Comm world = ctx.world();
    const int r = comm_rank(world);
    const int n = comm_size(world);
    std::vector<double> buf(100);
    // Ring exchanges with some computation.
    for (int it = 0; it < 5; ++it) {
      compute(1e-6 * (r + 1));
      send(buf.data(), buf.size(), Type::Double, (r + 1) % n, it, world);
      recv(buf.data(), buf.size(), Type::Double, (r + n - 1) % n, it, world);
    }
  };
  eng.run(workload);
  const auto first = eng.final_clocks();
  eng.run(workload);
  EXPECT_EQ(first, eng.final_clocks());
}

TEST(Engine, NonOvertakingPerSourceAndTag) {
  Engine eng(tiny_cfg(2));
  eng.run([](Ctx& ctx) {
    const Comm world = ctx.world();
    if (ctx.world_rank() == 0) {
      for (int i = 0; i < 10; ++i)
        send(&i, 1, Type::Int, 1, 5, world);
    } else {
      for (int i = 0; i < 10; ++i) {
        int v = -1;
        recv(&v, 1, Type::Int, 0, 5, world);
        EXPECT_EQ(v, i);
      }
    }
  });
}

TEST(Engine, TagSelectionSkipsMismatches) {
  Engine eng(tiny_cfg(2));
  eng.run([](Ctx& ctx) {
    const Comm world = ctx.world();
    if (ctx.world_rank() == 0) {
      int a = 1, b = 2;
      send(&a, 1, Type::Int, 1, 100, world);
      send(&b, 1, Type::Int, 1, 200, world);
    } else {
      int v = 0;
      recv(&v, 1, Type::Int, 0, 200, world);
      EXPECT_EQ(v, 2);
      recv(&v, 1, Type::Int, 0, 100, world);
      EXPECT_EQ(v, 1);
    }
  });
}

TEST(Engine, AnySourceAnyTagReceivesEverything) {
  Engine eng(tiny_cfg(4));
  eng.run([](Ctx& ctx) {
    const Comm world = ctx.world();
    if (ctx.world_rank() == 0) {
      int seen = 0;
      for (int i = 0; i < 3; ++i) {
        int v = 0;
        const Status st = recv(&v, 1, Type::Int, kAnySource, kAnyTag, world);
        EXPECT_EQ(v, st.source * 10 + st.tag);
        ++seen;
      }
      EXPECT_EQ(seen, 3);
    } else {
      const int r = ctx.world_rank();
      const int v = r * 10 + r;
      send(&v, 1, Type::Int, 0, r, world);
    }
  });
}

TEST(Engine, SelfSendWorks) {
  Engine eng(tiny_cfg(1, 1, 4));
  eng.run([](Ctx& ctx) {
    const Comm world = ctx.world();
    int v = 42, w = 0;
    send(&v, 1, Type::Int, 0, 0, world);
    recv(&w, 1, Type::Int, 0, 0, world);
    EXPECT_EQ(w, 42);
  });
}

TEST(Engine, TruncationIsAnError) {
  Engine eng(tiny_cfg(2));
  EXPECT_THROW(eng.run([](Ctx& ctx) {
    const Comm world = ctx.world();
    if (ctx.world_rank() == 0) {
      std::vector<int> data(8);
      send(data.data(), data.size(), Type::Int, 1, 0, world);
    } else {
      int little = 0;
      recv(&little, 1, Type::Int, 0, 0, world);
    }
  }),
               Error);

  // Receiver first: rank 1 is blocked in its receive, buffer posted, when
  // the oversized message arrives (certain under fibers, where rank 0 waits
  // for a timing-only go). The posted buffer must not be written -- not
  // even its one-int capacity -- and the receive still raises.
  for (const SchedMode sched : {SchedMode::fibers, SchedMode::threads}) {
    auto cfg = tiny_cfg(2);
    cfg.sched = sched;
    Engine posted(cfg);
    EXPECT_THROW(posted.run([](Ctx& ctx) {
      const Comm world = ctx.world();
      if (ctx.world_rank() == 0) {
        recv(nullptr, 0, Type::Byte, 1, 1, world);
        std::vector<int> data(8, 5);
        send(data.data(), data.size(), Type::Int, 1, 0, world);
      } else {
        send(nullptr, 0, Type::Byte, 0, 1, world);
        std::array<int, 2> little{-1, -1};
        try {
          recv(little.data(), 1, Type::Int, 0, 0, world);
        } catch (const Error&) {
          EXPECT_EQ(little, (std::array<int, 2>{-1, -1}));
          throw;
        }
        ADD_FAILURE() << "oversized message was accepted";
      }
    }),
                 Error)
        << sched_mode_name(sched);
  }
}

TEST(Engine, DeadlockDetected) {
  auto cfg = tiny_cfg(2);
  cfg.watchdog_wall_timeout_s = 0.5;
  Engine eng(cfg);
  EXPECT_THROW(eng.run([](Ctx& ctx) {
    int v = 0;
    recv(&v, 1, Type::Int, kAnySource, kAnyTag, ctx.world());
  }),
               DeadlockError);
}

TEST(Engine, RankExitTurnsWaitersIntoDeadlock) {
  auto cfg = tiny_cfg(2);
  cfg.watchdog_wall_timeout_s = 0.5;
  Engine eng(cfg);
  EXPECT_THROW(eng.run([](Ctx& ctx) {
    if (ctx.world_rank() == 1) {
      int v = 0;
      recv(&v, 1, Type::Int, 0, 0, ctx.world());
    }
  }),
               DeadlockError);
}

TEST(Engine, UserExceptionPropagatesFromRun) {
  Engine eng(tiny_cfg(2));
  EXPECT_THROW(eng.run([](Ctx& ctx) {
    if (ctx.world_rank() == 0) throw std::runtime_error("app failure");
    // Rank 1 blocks; the abort must wake it up.
    int v = 0;
    recv(&v, 1, Type::Int, 0, 0, ctx.world());
  }),
               std::runtime_error);
}

TEST(Engine, RequestsWaitAndTest) {
  Engine eng(tiny_cfg(2));
  eng.run([](Ctx& ctx) {
    const Comm world = ctx.world();
    if (ctx.world_rank() == 0) {
      int v = 5;
      Request r = isend(&v, 1, Type::Int, 1, 3, world);
      EXPECT_TRUE(r.done());
      wait(r);
    } else {
      int v = 0;
      Request r = irecv(&v, 1, Type::Int, 0, 3, world);
      const Status st = wait(r);
      EXPECT_EQ(v, 5);
      EXPECT_EQ(st.source, 0);
      EXPECT_TRUE(test(r));  // already done
    }
  });
}

TEST(Engine, TestPollsWithoutBlocking) {
  Engine eng(tiny_cfg(2));
  eng.run([](Ctx& ctx) {
    const Comm world = ctx.world();
    if (ctx.world_rank() == 0) {
      int v = 0;
      Request r = irecv(&v, 1, Type::Int, 1, 0, world);
      // Nothing sent yet at virtual time 0 from our perspective is not
      // observable; poll until the message arrives (wall-clock progress).
      while (!test(r)) {
      }
      EXPECT_EQ(v, 9);
    } else {
      compute(1e-3);
      int v = 9;
      send(&v, 1, Type::Int, 0, 0, world);
    }
  });
}

TEST(Engine, IprobeSeesWithoutConsuming) {
  Engine eng(tiny_cfg(2));
  eng.run([](Ctx& ctx) {
    const Comm world = ctx.world();
    if (ctx.world_rank() == 0) {
      int v = 1;
      send(&v, 1, Type::Int, 1, 8, world);
    } else {
      Status st;
      while (!iprobe(0, 8, world, &st)) {
      }
      EXPECT_EQ(st.bytes, 4u);
      int v = 0;
      recv(&v, 1, Type::Int, 0, 8, world);
      EXPECT_EQ(v, 1);
      EXPECT_FALSE(iprobe(0, 8, world));
    }
  });
}

TEST(Engine, ComputeAndWtime) {
  Engine eng(tiny_cfg(1, 1, 4));
  eng.run([](Ctx& ctx) {
    EXPECT_DOUBLE_EQ(wtime(), 0.0);
    compute(0.25);
    EXPECT_DOUBLE_EQ(wtime(), 0.25);
    compute_flops(1e6);  // default 5e-10 s/flop
    EXPECT_NEAR(wtime(), 0.25 + 1e6 * 5e-10, 1e-12);
    EXPECT_DOUBLE_EQ(ctx.now(), wtime());
  });
}

TEST(Engine, NicCountsOnlyInterNodeTraffic) {
  Engine eng(tiny_cfg(8, /*nodes=*/2, /*cores=*/4));
  eng.run([](Ctx& ctx) {
    const Comm world = ctx.world();
    std::vector<std::byte> b(100);
    if (ctx.world_rank() == 0) {
      send(b.data(), b.size(), Type::Byte, 1, 0, world);  // intra-node
      send(b.data(), b.size(), Type::Byte, 4, 0, world);  // inter-node
    } else if (ctx.world_rank() == 1 || ctx.world_rank() == 4) {
      recv(b.data(), b.size(), Type::Byte, 0, 0, world);
    }
  });
  EXPECT_EQ(eng.nic().total_bytes(0), 100u);
  EXPECT_EQ(eng.nic().total_bytes(1), 0u);
}

TEST(Engine, SendRecordSeesTrafficAndChargesOverhead) {
  struct Recorder : EngineObserver {
    std::atomic<int> hooked{0};
    int on_send_record(const PktInfo& pkt, int caller_world) override {
      hooked.fetch_add(1);
      EXPECT_EQ(caller_world, pkt.src_world);  // ordinary send: own thread
      EXPECT_EQ(pkt.kind, CommKind::p2p);
      EXPECT_EQ(pkt.bytes, 4u);
      return 2;  // pretend two records were made
    }
  } rec;
  Engine eng(tiny_cfg(2));
  eng.attach(rec, EngineObserver::kSendRecord);
  eng.run([](Ctx& ctx) {
    const Comm world = ctx.world();
    if (ctx.world_rank() == 0) {
      int v = 0;
      send(&v, 1, Type::Int, 1, 0, world);
      // 2 records + serialization 4/1e10 + send overhead 1e-7.
      EXPECT_DOUBLE_EQ(ctx.now(), 2 * kMonitorEventCostS + 4.0 / 1e10 + 1e-7);
    } else {
      int v = 0;
      recv(&v, 1, Type::Int, 0, 0, world);
    }
  });
  EXPECT_EQ(rec.hooked.load(), 1);
}

TEST(Engine, TimingOnlyMessagesSkipPayload) {
  Engine eng(tiny_cfg(2));
  eng.run([](Ctx& ctx) {
    const Comm world = ctx.world();
    if (ctx.world_rank() == 0) {
      send(nullptr, 1 << 20, Type::Byte, 1, 0, world);
    } else {
      int sentinel = 77;
      const Status st =
          recv(&sentinel, 1 << 20, Type::Byte, 0, 0, world);
      EXPECT_EQ(st.bytes, static_cast<std::size_t>(1 << 20));
      EXPECT_EQ(sentinel, 77);  // buffer untouched: no payload travelled
    }
  });
}

TEST(Engine, ManyRanksRingSmoke) {
  Engine eng(tiny_cfg(48, /*nodes=*/12, /*cores=*/4));
  eng.run([](Ctx& ctx) {
    const Comm world = ctx.world();
    const int r = comm_rank(world);
    const int n = comm_size(world);
    long token = r;
    const Status st = sendrecv(&token, 1, Type::Long, (r + 1) % n, 0, &token,
                               1, (r + n - 1) % n, 0, world);
    EXPECT_EQ(token, (r + n - 1) % n);
    EXPECT_EQ(st.source, (r + n - 1) % n);
  });
}

// --- NIC contention model -----------------------------------------------------

TEST(EngineContention, ConcurrentFlowsThroughOneNicSerialize) {
  // 4 ranks on node 0 each send 1 MB to a distinct rank on node 1. Without
  // contention all arrive after one transfer time; with contention the tx
  // port of node 0 serializes them (~4x one serialization time).
  auto timed_run = [](bool contention) {
    auto cfg = tiny_cfg(8, /*nodes=*/2, /*cores=*/4);
    cfg.nic_contention = contention;
    Engine eng(cfg);
    eng.run([](Ctx& ctx) {
      const Comm world = ctx.world();
      const int r = ctx.world_rank();
      if (r < 4) {
        send(nullptr, 1 << 20, Type::Byte, r + 4, 0, world);
      } else {
        recv(nullptr, 1 << 20, Type::Byte, r - 4, 0, world);
      }
    });
    double mx = 0;
    for (double c : eng.final_clocks()) mx = std::max(mx, c);
    return mx;
  };
  const double free_flow = timed_run(false);
  const double contended = timed_run(true);
  // One serialization is (1<<20)/1e8 ~ 10.5 ms; contended run needs ~4.
  EXPECT_GT(contended, 3.0 * free_flow);
  EXPECT_LT(contended, 6.0 * free_flow);
}

TEST(EngineContention, IntraNodeTrafficUnaffected) {
  auto timed_run = [](bool contention) {
    auto cfg = tiny_cfg(4, /*nodes=*/1, /*cores=*/4);
    cfg.nic_contention = contention;
    Engine eng(cfg);
    eng.run([](Ctx& ctx) {
      const Comm world = ctx.world();
      const int r = ctx.world_rank();
      const int peer = r ^ 1;
      send(nullptr, 1 << 18, Type::Byte, peer, 0, world);
      recv(nullptr, 1 << 18, Type::Byte, peer, 0, world);
    });
    double mx = 0;
    for (double c : eng.final_clocks()) mx = std::max(mx, c);
    return mx;
  };
  EXPECT_DOUBLE_EQ(timed_run(false), timed_run(true));
}

TEST(EngineContention, DeterministicAcrossRuns) {
  auto cfg = tiny_cfg(12, /*nodes=*/3, /*cores=*/4);
  cfg.nic_contention = true;
  Engine eng(cfg);
  auto workload = [](Ctx& ctx) {
    const Comm world = ctx.world();
    const int r = comm_rank(world);
    const int n = comm_size(world);
    compute(1e-6 * ((r * 7) % 5));
    for (int it = 0; it < 4; ++it) {
      std::vector<std::byte> buf(10000);
      send(buf.data(), buf.size(), Type::Byte, (r + 5) % n, it, world);
      recv(buf.data(), buf.size(), Type::Byte, (r + n - 5) % n, it, world);
    }
    allreduce(nullptr, nullptr, 1000, Type::Int, Op::Sum, world);
  };
  eng.run(workload);
  const auto first = eng.final_clocks();
  eng.run(workload);
  EXPECT_EQ(first, eng.final_clocks());
  EXPECT_GT(first[0], 0.0);
}

TEST(EngineContention, IncastSerializesAtReceiverPort) {
  // 3 senders on 3 different nodes target one receiver node: tx ports are
  // distinct, so the serialization must come from the rx port.
  auto cfg = tiny_cfg(8, /*nodes=*/4, /*cores=*/2);
  cfg.nic_contention = true;
  Engine eng(cfg);
  eng.run([](Ctx& ctx) {
    const Comm world = ctx.world();
    const int r = ctx.world_rank();
    // Ranks 2, 4, 6 live on nodes 1, 2, 3; rank 0 on node 0.
    if (r == 2 || r == 4 || r == 6) {
      send(nullptr, 1 << 20, Type::Byte, 0, 0, world);
    } else if (r == 0) {
      for (int i = 0; i < 3; ++i)
        recv(nullptr, 1 << 20, Type::Byte, kAnySource, 0, world);
      // Three 1 MB messages through one 1e8 B/s rx port: >= 30 ms.
      EXPECT_GT(ctx.now(), 3.0 * ((1 << 20) / 1e8));
    }
  });
}

TEST(EngineContention, DeadlockStillDetected) {
  auto cfg = tiny_cfg(2);
  cfg.nic_contention = true;
  cfg.watchdog_wall_timeout_s = 0.5;
  Engine eng(cfg);
  EXPECT_THROW(eng.run([](Ctx& ctx) {
    int v = 0;
    recv(&v, 1, Type::Int, kAnySource, kAnyTag, ctx.world());
  }),
               DeadlockError);
}

TEST(EngineContention, ErrorInOneRankUnblocksGateWaiters) {
  auto cfg = tiny_cfg(8, /*nodes=*/2, /*cores=*/4);
  cfg.nic_contention = true;
  Engine eng(cfg);
  EXPECT_THROW(eng.run([](Ctx& ctx) {
    const Comm world = ctx.world();
    const int r = ctx.world_rank();
    if (r == 0) {
      compute(1.0);  // keep rank 0 the gate minimum for a while
      throw std::runtime_error("boom");
    }
    if (r < 4) send(nullptr, 1 << 16, Type::Byte, r + 4, 0, world);
    else recv(nullptr, 1 << 16, Type::Byte, r - 4, 0, world);
  }),
               std::runtime_error);
}

TEST(Engine, CtxCurrentOutsideRunThrows) {
  EXPECT_THROW(Ctx::current(), Error);
}

TEST(Engine, InvalidPlacementRejected) {
  auto cfg = tiny_cfg(2);
  cfg.placement = {0, 0};
  EXPECT_THROW(Engine{cfg}, Error);
}

}  // namespace
}  // namespace mpim::mpi
