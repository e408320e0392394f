#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <string>

#include "fault/fault_plan.h"
#include "minimpi/api.h"
#include "minimpi/osc.h"
#include "mpimon/critpath_attach.h"
#include "mpimon/mpi_monitoring.h"
#include "mpimon/session.hpp"
#include "mpimon/sim.h"
#include "reorder/reorder.h"
#include "support/rng.h"

namespace mpim {
namespace {

using mpi::Comm;
using mpi::Ctx;
using mpi::Type;

Sim make_sim(int nranks = 4) {
  topo::Topology t({2, 1, 2}, {"node", "socket", "core"});
  std::vector<net::LinkParams> params = {
      {1e-5, 1e8}, {1e-6, 1e9}, {1e-7, 1e10}, {0.0, 1e12}};
  net::CostModel cost(t, params, 1e-7);
  mpi::EngineConfig cfg{.cost_model = cost,
                        .placement = topo::round_robin_placement(nranks, t)};
  cfg.watchdog_wall_timeout_s = 5.0;
  return Sim(std::move(cfg));
}

void exchange_ring(const Comm& comm, std::size_t bytes, int rounds = 1) {
  const int r = mpi::comm_rank(comm);
  const int n = mpi::comm_size(comm);
  std::vector<std::byte> buf(bytes);
  for (int i = 0; i < rounds; ++i) {
    mpi::send(buf.data(), bytes, Type::Byte, (r + 1) % n, 0, comm);
    mpi::recv(buf.data(), bytes, Type::Byte, (r + n - 1) % n, 0, comm);
  }
}

// --- lifecycle ----------------------------------------------------------------

TEST(MpiMon, InitFinalizeLifecycle) {
  Sim sim = make_sim(1);
  sim.run([](Ctx&) {
    EXPECT_EQ(MPI_M_finalize(), MPI_M_MISSING_INIT);
    EXPECT_EQ(MPI_M_init(), MPI_M_SUCCESS);
    EXPECT_EQ(MPI_M_init(), MPI_M_MULTIPLE_CALL);
    EXPECT_EQ(MPI_M_finalize(), MPI_M_SUCCESS);
    EXPECT_EQ(MPI_M_init(), MPI_M_SUCCESS);  // re-init after finalize is fine
    EXPECT_EQ(MPI_M_finalize(), MPI_M_SUCCESS);
  });
}

TEST(MpiMon, CallsBeforeInitReportMissingInit) {
  Sim sim = make_sim(1);
  sim.run([](Ctx& ctx) {
    MPI_M_msid id = 0;
    EXPECT_EQ(MPI_M_start(ctx.world(), &id), MPI_M_MISSING_INIT);
    EXPECT_EQ(MPI_M_suspend(0), MPI_M_MISSING_INIT);
    EXPECT_EQ(MPI_M_get_data(0, nullptr, nullptr, MPI_M_ALL_COMM),
              MPI_M_MISSING_INIT);
  });
}

TEST(MpiMon, FinalizeWithActiveSessionFails) {
  Sim sim = make_sim(1);
  sim.run([](Ctx& ctx) {
    (void)ctx;
    ASSERT_EQ(MPI_M_init(), MPI_M_SUCCESS);
    MPI_M_msid id;
    ASSERT_EQ(MPI_M_start(ctx.world(), &id), MPI_M_SUCCESS);
    EXPECT_EQ(MPI_M_finalize(), MPI_M_SESSION_STILL_ACTIVE);
    EXPECT_EQ(MPI_M_suspend(id), MPI_M_SUCCESS);
    EXPECT_EQ(MPI_M_finalize(), MPI_M_SUCCESS);  // frees the suspended one
  });
}

// --- state machine --------------------------------------------------------------

TEST(MpiMon, SuspendContinueStateMachine) {
  Sim sim = make_sim(1);
  sim.run([](Ctx& ctx) {
    ASSERT_EQ(MPI_M_init(), MPI_M_SUCCESS);
    MPI_M_msid id;
    ASSERT_EQ(MPI_M_start(ctx.world(), &id), MPI_M_SUCCESS);
    EXPECT_EQ(MPI_M_continue(id), MPI_M_MULTIPLE_CALL);  // already active
    EXPECT_EQ(MPI_M_suspend(id), MPI_M_SUCCESS);
    EXPECT_EQ(MPI_M_suspend(id), MPI_M_MULTIPLE_CALL);  // already suspended
    EXPECT_EQ(MPI_M_continue(id), MPI_M_SUCCESS);
    EXPECT_EQ(MPI_M_suspend(id), MPI_M_SUCCESS);
    EXPECT_EQ(MPI_M_free(id), MPI_M_SUCCESS);
    EXPECT_EQ(MPI_M_suspend(id), MPI_M_INVALID_MSID);  // freed
    MPI_M_finalize();
  });
}

TEST(MpiMon, ResetAndFreeRequireSuspended) {
  Sim sim = make_sim(1);
  sim.run([](Ctx& ctx) {
    ASSERT_EQ(MPI_M_init(), MPI_M_SUCCESS);
    MPI_M_msid id;
    ASSERT_EQ(MPI_M_start(ctx.world(), &id), MPI_M_SUCCESS);
    EXPECT_EQ(MPI_M_reset(id), MPI_M_SESSION_NOT_SUSPENDED);
    EXPECT_EQ(MPI_M_free(id), MPI_M_SESSION_NOT_SUSPENDED);
    ASSERT_EQ(MPI_M_suspend(id), MPI_M_SUCCESS);
    EXPECT_EQ(MPI_M_reset(id), MPI_M_SUCCESS);
    EXPECT_EQ(MPI_M_free(id), MPI_M_SUCCESS);
    MPI_M_finalize();
  });
}

TEST(MpiMon, InvalidMsidRejected) {
  Sim sim = make_sim(1);
  sim.run([](Ctx&) {
    ASSERT_EQ(MPI_M_init(), MPI_M_SUCCESS);
    EXPECT_EQ(MPI_M_suspend(42), MPI_M_INVALID_MSID);
    EXPECT_EQ(MPI_M_get_info(-7, nullptr, nullptr), MPI_M_INVALID_MSID);
    // ALL_MSID rejected where a single session is required.
    EXPECT_EQ(MPI_M_get_info(MPI_M_ALL_MSID, nullptr, nullptr),
              MPI_M_INVALID_MSID);
    EXPECT_EQ(
        MPI_M_get_data(MPI_M_ALL_MSID, nullptr, nullptr, MPI_M_ALL_COMM),
        MPI_M_INVALID_MSID);
    MPI_M_finalize();
  });
}

TEST(MpiMon, AllMsidActsOnApplicableSessions) {
  Sim sim = make_sim(1);
  sim.run([](Ctx& ctx) {
    ASSERT_EQ(MPI_M_init(), MPI_M_SUCCESS);
    MPI_M_msid a, b;
    ASSERT_EQ(MPI_M_start(ctx.world(), &a), MPI_M_SUCCESS);
    ASSERT_EQ(MPI_M_start(ctx.world(), &b), MPI_M_SUCCESS);
    ASSERT_EQ(MPI_M_suspend(b), MPI_M_SUCCESS);
    // Suspends `a`, skips already-suspended `b`.
    EXPECT_EQ(MPI_M_suspend(MPI_M_ALL_MSID), MPI_M_SUCCESS);
    EXPECT_EQ(MPI_M_suspend(a), MPI_M_MULTIPLE_CALL);  // proof it happened
    EXPECT_EQ(MPI_M_reset(MPI_M_ALL_MSID), MPI_M_SUCCESS);
    EXPECT_EQ(MPI_M_free(MPI_M_ALL_MSID), MPI_M_SUCCESS);
    EXPECT_EQ(MPI_M_suspend(a), MPI_M_INVALID_MSID);
    EXPECT_EQ(MPI_M_suspend(b), MPI_M_INVALID_MSID);
    MPI_M_finalize();
  });
}

TEST(MpiMon, SessionOverflowAndSlotReuse) {
  Sim sim = make_sim(1);
  sim.run([](Ctx& ctx) {
    ASSERT_EQ(MPI_M_init(), MPI_M_SUCCESS);
    std::vector<MPI_M_msid> ids(MPI_M_MAX_SESSIONS);
    for (auto& id : ids)
      ASSERT_EQ(MPI_M_start(ctx.world(), &id), MPI_M_SUCCESS);
    MPI_M_msid extra;
    EXPECT_EQ(MPI_M_start(ctx.world(), &extra), MPI_M_SESSION_OVERFLOW);
    // Free one, the slot becomes available again.
    ASSERT_EQ(MPI_M_suspend(ids[0]), MPI_M_SUCCESS);
    ASSERT_EQ(MPI_M_free(ids[0]), MPI_M_SUCCESS);
    EXPECT_EQ(MPI_M_start(ctx.world(), &extra), MPI_M_SUCCESS);
    EXPECT_EQ(extra, ids[0]);  // reused slot
    MPI_M_suspend(MPI_M_ALL_MSID);
    MPI_M_finalize();
  });
}

// --- recording ------------------------------------------------------------------

TEST(MpiMon, GetInfoReportsSizeAndThreadLevel) {
  Sim sim = make_sim(4);
  sim.run([](Ctx& ctx) {
    ASSERT_EQ(MPI_M_init(), MPI_M_SUCCESS);
    MPI_M_msid id;
    ASSERT_EQ(MPI_M_start(ctx.world(), &id), MPI_M_SUCCESS);
    int provided = -1, n = -1;
    EXPECT_EQ(MPI_M_get_info(id, &provided, &n), MPI_M_SUCCESS);
    EXPECT_EQ(n, 4);
    EXPECT_EQ(provided, 3);
    // Ignore sentinels accepted.
    EXPECT_EQ(MPI_M_get_info(id, MPI_M_INT_IGNORE, MPI_M_INT_IGNORE),
              MPI_M_SUCCESS);
    MPI_M_suspend(id);
    MPI_M_finalize();
  });
}

TEST(MpiMon, GetDataCountsSenderSideP2p) {
  Sim sim = make_sim(2);
  sim.run([](Ctx& ctx) {
    const Comm world = ctx.world();
    ASSERT_EQ(MPI_M_init(), MPI_M_SUCCESS);
    MPI_M_msid id;
    ASSERT_EQ(MPI_M_start(world, &id), MPI_M_SUCCESS);
    if (ctx.world_rank() == 0) {
      std::vector<std::byte> b(300);
      mpi::send(b.data(), 300, Type::Byte, 1, 0, world);
      mpi::send(b.data(), 200, Type::Byte, 1, 0, world);
    } else {
      std::vector<std::byte> b(300);
      mpi::recv(b.data(), 300, Type::Byte, 0, 0, world);
      mpi::recv(b.data(), 300, Type::Byte, 0, 0, world);
    }
    ASSERT_EQ(MPI_M_suspend(id), MPI_M_SUCCESS);
    unsigned long counts[2] = {9, 9}, sizes[2] = {9, 9};
    EXPECT_EQ(MPI_M_get_data(id, counts, sizes, MPI_M_P2P_ONLY),
              MPI_M_SUCCESS);
    if (ctx.world_rank() == 0) {
      EXPECT_EQ(counts[1], 2u);
      EXPECT_EQ(sizes[1], 500u);
      EXPECT_EQ(counts[0], 0u);
    } else {
      EXPECT_EQ(counts[0] + counts[1], 0u);
    }
    MPI_M_free(id);
    MPI_M_finalize();
  });
}

TEST(MpiMon, DataAccessRequiresSuspendedState) {
  Sim sim = make_sim(2);
  sim.run([](Ctx& ctx) {
    ASSERT_EQ(MPI_M_init(), MPI_M_SUCCESS);
    MPI_M_msid id;
    ASSERT_EQ(MPI_M_start(ctx.world(), &id), MPI_M_SUCCESS);
    unsigned long buf[2];
    EXPECT_EQ(MPI_M_get_data(id, buf, MPI_M_DATA_IGNORE, MPI_M_ALL_COMM),
              MPI_M_SESSION_NOT_SUSPENDED);
    MPI_M_suspend(id);
    EXPECT_EQ(MPI_M_get_data(id, buf, MPI_M_DATA_IGNORE, MPI_M_ALL_COMM),
              MPI_M_SUCCESS);
    MPI_M_free(id);
    MPI_M_finalize();
  });
}

TEST(MpiMon, InvalidFlagsRejected) {
  Sim sim = make_sim(1);
  sim.run([](Ctx& ctx) {
    ASSERT_EQ(MPI_M_init(), MPI_M_SUCCESS);
    MPI_M_msid id;
    ASSERT_EQ(MPI_M_start(ctx.world(), &id), MPI_M_SUCCESS);
    MPI_M_suspend(id);
    unsigned long buf[1];
    EXPECT_EQ(MPI_M_get_data(id, buf, MPI_M_DATA_IGNORE, 0),
              MPI_M_INVALID_FLAGS);
    EXPECT_EQ(MPI_M_get_data(id, buf, MPI_M_DATA_IGNORE, 0x100),
              MPI_M_INVALID_FLAGS);
    MPI_M_free(id);
    MPI_M_finalize();
  });
}

TEST(MpiMon, CollectiveDecompositionVisible) {
  // The headline feature: a session sees how MPI_Barrier decomposes into
  // point-to-point messages (the paper's Listing 2).
  Sim sim = make_sim(4);
  sim.run([](Ctx& ctx) {
    const Comm world = ctx.world();
    ASSERT_EQ(MPI_M_init(), MPI_M_SUCCESS);
    MPI_M_msid id;
    ASSERT_EQ(MPI_M_start(world, &id), MPI_M_SUCCESS);
    mpi::barrier(world);
    ASSERT_EQ(MPI_M_suspend(id), MPI_M_SUCCESS);

    unsigned long coll_counts[4], p2p_counts[4];
    ASSERT_EQ(MPI_M_get_data(id, coll_counts, MPI_M_DATA_IGNORE,
                             MPI_M_COLL_ONLY),
              MPI_M_SUCCESS);
    ASSERT_EQ(
        MPI_M_get_data(id, p2p_counts, MPI_M_DATA_IGNORE, MPI_M_P2P_ONLY),
        MPI_M_SUCCESS);
    unsigned long coll_total = 0, p2p_total = 0;
    for (int i = 0; i < 4; ++i) {
      coll_total += coll_counts[i];
      p2p_total += p2p_counts[i];
    }
    // Dissemination barrier: every rank sends log2(4) = 2 messages.
    EXPECT_EQ(coll_total, 2u);
    EXPECT_EQ(p2p_total, 0u);
    MPI_M_free(id);
    MPI_M_finalize();
  });
}

TEST(MpiMon, AllgatherDataBuildsFullMatrix) {
  Sim sim = make_sim(4);
  sim.run([](Ctx& ctx) {
    const Comm world = ctx.world();
    ASSERT_EQ(MPI_M_init(), MPI_M_SUCCESS);
    MPI_M_msid id;
    ASSERT_EQ(MPI_M_start(world, &id), MPI_M_SUCCESS);
    exchange_ring(world, 100);
    ASSERT_EQ(MPI_M_suspend(id), MPI_M_SUCCESS);

    CommMatrix counts = CommMatrix::square(4), sizes = CommMatrix::square(4);
    ASSERT_EQ(MPI_M_allgather_data(id, counts.data(), sizes.data(),
                                   MPI_M_P2P_ONLY),
              MPI_M_SUCCESS);
    for (int i = 0; i < 4; ++i) {
      for (int j = 0; j < 4; ++j) {
        const unsigned long expect_count = (j == (i + 1) % 4) ? 1u : 0u;
        EXPECT_EQ(counts(static_cast<std::size_t>(i),
                         static_cast<std::size_t>(j)),
                  expect_count)
            << i << "," << j;
        EXPECT_EQ(sizes(static_cast<std::size_t>(i),
                        static_cast<std::size_t>(j)),
                  expect_count * 100u);
      }
    }
    MPI_M_free(id);
    MPI_M_finalize();
  });
}

TEST(MpiMon, AllgatherDataWithPerRankIgnores) {
  // "parameters can vary among processes": some ranks ignore the output.
  Sim sim = make_sim(4);
  sim.run([](Ctx& ctx) {
    const Comm world = ctx.world();
    ASSERT_EQ(MPI_M_init(), MPI_M_SUCCESS);
    MPI_M_msid id;
    ASSERT_EQ(MPI_M_start(world, &id), MPI_M_SUCCESS);
    exchange_ring(world, 64);
    ASSERT_EQ(MPI_M_suspend(id), MPI_M_SUCCESS);
    if (ctx.world_rank() == 0) {
      CommMatrix sizes = CommMatrix::square(4);
      ASSERT_EQ(MPI_M_allgather_data(id, MPI_M_DATA_IGNORE, sizes.data(),
                                     MPI_M_P2P_ONLY),
                MPI_M_SUCCESS);
      EXPECT_EQ(sizes.sum(), 4u * 64u);
    } else {
      ASSERT_EQ(MPI_M_allgather_data(id, MPI_M_DATA_IGNORE,
                                     MPI_M_DATA_IGNORE, MPI_M_P2P_ONLY),
                MPI_M_SUCCESS);
    }
    MPI_M_free(id);
    MPI_M_finalize();
  });
}

TEST(MpiMon, RootgatherOnlyRootReceives) {
  Sim sim = make_sim(4);
  sim.run([](Ctx& ctx) {
    const Comm world = ctx.world();
    ASSERT_EQ(MPI_M_init(), MPI_M_SUCCESS);
    MPI_M_msid id;
    ASSERT_EQ(MPI_M_start(world, &id), MPI_M_SUCCESS);
    exchange_ring(world, 10);
    ASSERT_EQ(MPI_M_suspend(id), MPI_M_SUCCESS);

    const int root = 2;
    CommMatrix counts = CommMatrix::square(4);
    ASSERT_EQ(
        MPI_M_rootgather_data(id, root,
                              ctx.world_rank() == root ? counts.data()
                                                       : nullptr,
                              nullptr, MPI_M_P2P_ONLY),
        MPI_M_SUCCESS);
    if (ctx.world_rank() == root) {
      EXPECT_EQ(counts.sum(), 4u);
    }
    MPI_M_free(id);
    MPI_M_finalize();
  });
}

TEST(MpiMon, RootgatherInvalidRoot) {
  Sim sim = make_sim(2);
  sim.run([](Ctx& ctx) {
    ASSERT_EQ(MPI_M_init(), MPI_M_SUCCESS);
    MPI_M_msid id;
    ASSERT_EQ(MPI_M_start(ctx.world(), &id), MPI_M_SUCCESS);
    MPI_M_suspend(id);
    EXPECT_EQ(MPI_M_rootgather_data(id, -3, nullptr, nullptr, MPI_M_ALL_COMM),
              MPI_M_INVALID_ROOT);
    EXPECT_EQ(MPI_M_rootgather_data(id, 2, nullptr, nullptr, MPI_M_ALL_COMM),
              MPI_M_INVALID_ROOT);
    MPI_M_free(id);
    MPI_M_finalize();
  });
}

TEST(MpiMon, SessionOnSubCommRecordsCrossCommTraffic) {
  // The paper's Section 4.1 example verbatim: a session attached to the
  // even/odd split records exchanges between processes 0 and 2 even when
  // the traffic uses MPI_COMM_WORLD.
  Sim sim = make_sim(4);
  sim.run([](Ctx& ctx) {
    const Comm world = ctx.world();
    const int r = ctx.world_rank();
    const Comm parity = mpi::comm_split(world, r % 2, r);
    ASSERT_EQ(MPI_M_init(), MPI_M_SUCCESS);
    MPI_M_msid id;
    ASSERT_EQ(MPI_M_start(parity, &id), MPI_M_SUCCESS);
    if (r == 0) {
      std::vector<std::byte> b(500);
      mpi::send(b.data(), 500, Type::Byte, 2, 0, world);  // via WORLD
      mpi::send(b.data(), 100, Type::Byte, 1, 0, world);  // to an odd rank
    } else if (r == 1 || r == 2) {
      std::vector<std::byte> b(500);
      mpi::recv(b.data(), 500, Type::Byte, 0, 0, world);
    }
    ASSERT_EQ(MPI_M_suspend(id), MPI_M_SUCCESS);
    unsigned long sizes[2];
    ASSERT_EQ(MPI_M_get_data(id, MPI_M_DATA_IGNORE, sizes, MPI_M_P2P_ONLY),
              MPI_M_SUCCESS);
    if (r == 0) {
      EXPECT_EQ(sizes[1], 500u);  // 0 -> 2, recorded at parity-rank index 1
      EXPECT_EQ(sizes[0], 0u);    // the 0 -> 1 message is invisible
    }
    MPI_M_free(id);
    MPI_M_finalize();
  });
}

TEST(MpiMon, OverlappingSessionsAreIndependent) {
  Sim sim = make_sim(2);
  sim.run([](Ctx& ctx) {
    const Comm world = ctx.world();
    ASSERT_EQ(MPI_M_init(), MPI_M_SUCCESS);
    MPI_M_msid outer, inner;
    ASSERT_EQ(MPI_M_start(world, &outer), MPI_M_SUCCESS);
    exchange_ring(world, 100);  // only outer sees this
    ASSERT_EQ(MPI_M_start(world, &inner), MPI_M_SUCCESS);
    exchange_ring(world, 10);   // both see this
    ASSERT_EQ(MPI_M_suspend(inner), MPI_M_SUCCESS);
    exchange_ring(world, 1);    // only outer sees this
    ASSERT_EQ(MPI_M_suspend(outer), MPI_M_SUCCESS);

    unsigned long outer_sizes[2], inner_sizes[2];
    ASSERT_EQ(
        MPI_M_get_data(outer, MPI_M_DATA_IGNORE, outer_sizes, MPI_M_P2P_ONLY),
        MPI_M_SUCCESS);
    ASSERT_EQ(
        MPI_M_get_data(inner, MPI_M_DATA_IGNORE, inner_sizes, MPI_M_P2P_ONLY),
        MPI_M_SUCCESS);
    const int peer = (ctx.world_rank() + 1) % 2;
    EXPECT_EQ(outer_sizes[peer], 111u);
    EXPECT_EQ(inner_sizes[peer], 10u);
    MPI_M_free(MPI_M_ALL_MSID);
    MPI_M_finalize();
  });
}

TEST(MpiMon, ResetClearsSuspendedSessionData) {
  Sim sim = make_sim(2);
  sim.run([](Ctx& ctx) {
    const Comm world = ctx.world();
    ASSERT_EQ(MPI_M_init(), MPI_M_SUCCESS);
    MPI_M_msid id;
    ASSERT_EQ(MPI_M_start(world, &id), MPI_M_SUCCESS);
    exchange_ring(world, 100);
    MPI_M_suspend(id);
    ASSERT_EQ(MPI_M_reset(id), MPI_M_SUCCESS);
    unsigned long sizes[2];
    MPI_M_get_data(id, MPI_M_DATA_IGNORE, sizes, MPI_M_ALL_COMM);
    EXPECT_EQ(sizes[0] + sizes[1], 0u);
    // Continue and record again after the reset.
    MPI_M_continue(id);
    exchange_ring(world, 7);
    MPI_M_suspend(id);
    MPI_M_get_data(id, MPI_M_DATA_IGNORE, sizes, MPI_M_ALL_COMM);
    EXPECT_EQ(sizes[(ctx.world_rank() + 1) % 2], 7u);
    MPI_M_free(id);
    MPI_M_finalize();
  });
}

TEST(MpiMon, SuspendedSessionRecordsNothing) {
  Sim sim = make_sim(2);
  sim.run([](Ctx& ctx) {
    const Comm world = ctx.world();
    ASSERT_EQ(MPI_M_init(), MPI_M_SUCCESS);
    MPI_M_msid id;
    ASSERT_EQ(MPI_M_start(world, &id), MPI_M_SUCCESS);
    ASSERT_EQ(MPI_M_suspend(id), MPI_M_SUCCESS);
    exchange_ring(world, 1000);  // not watched
    unsigned long sizes[2];
    MPI_M_get_data(id, MPI_M_DATA_IGNORE, sizes, MPI_M_ALL_COMM);
    EXPECT_EQ(sizes[0] + sizes[1], 0u);
    MPI_M_free(id);
    MPI_M_finalize();
  });
}

// --- flush ----------------------------------------------------------------------

TEST(MpiMon, FlushWritesPerRankFiles) {
  namespace fs = std::filesystem;
  const std::string base = (fs::temp_directory_path() / "mpim_flush").string();
  Sim sim = make_sim(2);
  sim.run([&](Ctx& ctx) {
    const Comm world = ctx.world();
    ASSERT_EQ(MPI_M_init(), MPI_M_SUCCESS);
    MPI_M_msid id;
    ASSERT_EQ(MPI_M_start(world, &id), MPI_M_SUCCESS);
    exchange_ring(world, 123);
    MPI_M_suspend(id);
    ASSERT_EQ(MPI_M_flush(id, base.c_str(), MPI_M_P2P_ONLY), MPI_M_SUCCESS);
    MPI_M_free(id);
    MPI_M_finalize();
  });
  for (int r = 0; r < 2; ++r) {
    const std::string path = base + "." + std::to_string(r) + ".prof";
    std::ifstream is(path);
    ASSERT_TRUE(is.good()) << path;
    std::string contents((std::istreambuf_iterator<char>(is)),
                         std::istreambuf_iterator<char>());
    EXPECT_NE(contents.find("123"), std::string::npos);
    std::remove(path.c_str());
  }
}

TEST(MpiMon, RootflushWritesCountAndSizeMatrices) {
  namespace fs = std::filesystem;
  const std::string base = (fs::temp_directory_path() / "mpim_rf").string();
  Sim sim = make_sim(4);
  sim.run([&](Ctx& ctx) {
    const Comm world = ctx.world();
    ASSERT_EQ(MPI_M_init(), MPI_M_SUCCESS);
    MPI_M_msid id;
    ASSERT_EQ(MPI_M_start(world, &id), MPI_M_SUCCESS);
    mpi::barrier(world);
    MPI_M_suspend(id);
    ASSERT_EQ(MPI_M_rootflush(id, 0, base.c_str(), MPI_M_COLL_ONLY),
              MPI_M_SUCCESS);
    MPI_M_free(id);
    MPI_M_finalize();
  });
  for (const char* kind : {"_counts", "_sizes"}) {
    const std::string path = base + kind + ".0.prof";
    std::ifstream is(path);
    ASSERT_TRUE(is.good()) << path;
    int rows = 0;
    std::string line;
    while (std::getline(is, line))
      if (!line.empty() && line[0] != '#') ++rows;
    EXPECT_EQ(rows, 4);
    std::remove(path.c_str());
  }
}

// --- RAII wrapper ----------------------------------------------------------------

TEST(MonSessionWrapper, RaiiLifecycleAndMatrices) {
  Sim sim = make_sim(2);
  sim.run([](Ctx& ctx) {
    const Comm world = ctx.world();
    mon::Environment env;
    {
      mon::Session s(world);
      exchange_ring(world, 55);
      s.suspend();
      const auto sizes = s.gather_sizes(MPI_M_P2P_ONLY);
      EXPECT_EQ(sizes(0, 1), 55u);
      EXPECT_EQ(sizes(1, 0), 55u);
      const auto local = s.local_sizes(MPI_M_P2P_ONLY);
      EXPECT_EQ(local[(ctx.world_rank() + 1) % 2], 55u);
      s.reset();
      s.resume();
      s.suspend();
    }  // destructor frees
    // All sessions gone: finalize (via ~Environment) must succeed.
  });
}

TEST(MpiMon, StartRequiresMembership) {
  Sim sim = make_sim(4);
  sim.run([](Ctx& ctx) {
    const Comm world = ctx.world();
    const int r = ctx.world_rank();
    const Comm evens = mpi::comm_split(world, r % 2 == 0 ? 0 : -1, r);
    ASSERT_EQ(MPI_M_init(), MPI_M_SUCCESS);
    MPI_M_msid id;
    if (r % 2 == 0) {
      EXPECT_EQ(MPI_M_start(evens, &id), MPI_M_SUCCESS);
      MPI_M_suspend(id);
      MPI_M_free(id);
    } else {
      // Odd ranks hold a null communicator from the split.
      EXPECT_EQ(MPI_M_start(evens, &id), MPI_M_INTERNAL_FAIL);
    }
    MPI_M_finalize();
  });
}

TEST(MpiMon, NullMsidPointerRejected) {
  Sim sim = make_sim(1);
  sim.run([](Ctx& ctx) {
    ASSERT_EQ(MPI_M_init(), MPI_M_SUCCESS);
    EXPECT_EQ(MPI_M_start(ctx.world(), nullptr), MPI_M_INTERNAL_FAIL);
    MPI_M_finalize();
  });
}

TEST(MpiMon, FlushToUnwritablePathFails) {
  Sim sim = make_sim(1);
  sim.run([](Ctx& ctx) {
    ASSERT_EQ(MPI_M_init(), MPI_M_SUCCESS);
    MPI_M_msid id;
    MPI_M_start(ctx.world(), &id);
    MPI_M_suspend(id);
    EXPECT_EQ(MPI_M_flush(id, "/nonexistent_dir_xyz/file", MPI_M_ALL_COMM),
              MPI_M_INTERNAL_FAIL);
    EXPECT_EQ(
        MPI_M_rootflush(id, 0, "/nonexistent_dir_xyz/file", MPI_M_ALL_COMM),
        MPI_M_INTERNAL_FAIL);
    EXPECT_EQ(MPI_M_flush(id, nullptr, MPI_M_ALL_COMM), MPI_M_INTERNAL_FAIL);
    MPI_M_free(id);
    MPI_M_finalize();
  });
}

TEST(MpiMon, ZeroByteMessagesCountedNotSized) {
  // "some collective MPI routines might generate point-to-point
  // zero-length messages": counts move, sizes do not.
  Sim sim = make_sim(2);
  sim.run([](Ctx& ctx) {
    const Comm world = ctx.world();
    ASSERT_EQ(MPI_M_init(), MPI_M_SUCCESS);
    MPI_M_msid id;
    MPI_M_start(world, &id);
    if (ctx.world_rank() == 0)
      mpi::send(nullptr, 0, mpi::Type::Byte, 1, 0, world);
    else
      mpi::recv(nullptr, 0, mpi::Type::Byte, 0, 0, world);
    MPI_M_suspend(id);
    unsigned long counts[2], sizes[2];
    MPI_M_get_data(id, counts, sizes, MPI_M_P2P_ONLY);
    if (ctx.world_rank() == 0) {
      EXPECT_EQ(counts[1], 1u);
      EXPECT_EQ(sizes[1], 0u);
    }
    MPI_M_free(id);
    MPI_M_finalize();
  });
}

TEST(MpiMon, SessionsOnDifferentCommsSeparateTraffic) {
  Sim sim = make_sim(4);
  sim.run([](Ctx& ctx) {
    const Comm world = ctx.world();
    const int r = ctx.world_rank();
    const Comm pairs = mpi::comm_split(world, r / 2, r);
    ASSERT_EQ(MPI_M_init(), MPI_M_SUCCESS);
    MPI_M_msid world_id, pair_id;
    MPI_M_start(world, &world_id);
    MPI_M_start(pairs, &pair_id);
    // 0 <-> 3: visible to the world session, invisible to the pair
    // session of {0,1} (3 outside) and to that of {2,3} (0 outside).
    if (r == 0) mpi::send(nullptr, 99, mpi::Type::Byte, 3, 0, world);
    if (r == 3) mpi::recv(nullptr, 99, mpi::Type::Byte, 0, 0, world);
    MPI_M_suspend(MPI_M_ALL_MSID);
    if (r == 0) {
      unsigned long wsizes[4], psizes[2];
      MPI_M_get_data(world_id, MPI_M_DATA_IGNORE, wsizes, MPI_M_P2P_ONLY);
      MPI_M_get_data(pair_id, MPI_M_DATA_IGNORE, psizes, MPI_M_P2P_ONLY);
      EXPECT_EQ(wsizes[3], 99u);
      EXPECT_EQ(psizes[0] + psizes[1], 0u);
    }
    MPI_M_free(MPI_M_ALL_MSID);
    MPI_M_finalize();
  });
}

TEST(MpiMon, OscTrafficFilteredBySessionFlag) {
  Sim sim = make_sim(2);
  sim.run([](Ctx& ctx) {
    const Comm world = ctx.world();
    ASSERT_EQ(MPI_M_init(), MPI_M_SUCCESS);
    MPI_M_msid id;
    MPI_M_start(world, &id);
    int cell = 0;
    mpi::Win win = mpi::Win::create(&cell, sizeof cell, world);
    win.fence();
    if (ctx.world_rank() == 1) {
      const int v = 5;
      win.put(&v, 1, mpi::Type::Int, 0, 0);
    }
    win.fence();
    MPI_M_suspend(id);
    unsigned long osc[2], p2p[2];
    MPI_M_get_data(id, MPI_M_DATA_IGNORE, osc, MPI_M_OSC_ONLY);
    MPI_M_get_data(id, MPI_M_DATA_IGNORE, p2p, MPI_M_P2P_ONLY);
    if (ctx.world_rank() == 1) {
      EXPECT_EQ(osc[0], 4u);
      EXPECT_EQ(p2p[0], 0u);
    }
    MPI_M_free(id);
    MPI_M_finalize();
  });
}

TEST(MpiMon, RmaGetAttributedToTargetAcrossThreads) {
  // A get's traffic is src=target but the send hook runs on the origin's
  // thread, so the target's accumulator takes the cross-thread (foreign
  // slot) path. The target's session must still see the bytes it "sent".
  Sim sim = make_sim(2);
  sim.run([](Ctx& ctx) {
    const Comm world = ctx.world();
    ASSERT_EQ(MPI_M_init(), MPI_M_SUCCESS);
    MPI_M_msid id;
    MPI_M_start(world, &id);
    int cell = 7;
    mpi::Win win = mpi::Win::create(&cell, sizeof cell, world);
    win.fence();
    if (ctx.world_rank() == 1) {
      int got = 0;
      win.get(&got, 1, mpi::Type::Int, 0, 0);  // rank 1 reads rank 0's cell
      EXPECT_EQ(got, 7);
    }
    win.fence();
    MPI_M_suspend(id);
    unsigned long counts[2], sizes[2];
    MPI_M_get_data(id, counts, sizes, MPI_M_OSC_ONLY);
    if (ctx.world_rank() == 0) {
      // Traffic 0 -> 1, recorded from rank 1's thread into rank 0's slots.
      EXPECT_EQ(counts[1], 1u);
      EXPECT_EQ(sizes[1], 4u);
    } else {
      EXPECT_EQ(counts[0], 0u);
      EXPECT_EQ(sizes[0], 0u);
    }
    MPI_M_free(id);
    MPI_M_finalize();
  });
}

TEST(MpiMon, CombinedFlagsSumKinds) {
  Sim sim = make_sim(2);
  sim.run([](Ctx& ctx) {
    const Comm world = ctx.world();
    ASSERT_EQ(MPI_M_init(), MPI_M_SUCCESS);
    MPI_M_msid id;
    MPI_M_start(world, &id);
    if (ctx.world_rank() == 0)
      mpi::send(nullptr, 10, mpi::Type::Byte, 1, 0, world);
    else
      mpi::recv(nullptr, 10, mpi::Type::Byte, 0, 0, world);
    mpi::bcast(nullptr, 25, mpi::Type::Byte, 0, world);
    MPI_M_suspend(id);
    if (ctx.world_rank() == 0) {
      unsigned long both[2], p2p[2], coll[2];
      MPI_M_get_data(id, MPI_M_DATA_IGNORE, both,
                     MPI_M_P2P_ONLY | MPI_M_COLL_ONLY);
      MPI_M_get_data(id, MPI_M_DATA_IGNORE, p2p, MPI_M_P2P_ONLY);
      MPI_M_get_data(id, MPI_M_DATA_IGNORE, coll, MPI_M_COLL_ONLY);
      EXPECT_EQ(both[1], p2p[1] + coll[1]);
      EXPECT_EQ(p2p[1], 10u);
      EXPECT_EQ(coll[1], 25u);
    }
    MPI_M_free(id);
    MPI_M_finalize();
  });
}

TEST(MpiMon, ErrorStringsAreDistinct) {
  EXPECT_STREQ(MPI_M_error_string(MPI_M_SUCCESS), "MPI_M_SUCCESS");
  EXPECT_STREQ(MPI_M_error_string(MPI_M_INVALID_MSID), "MPI_M_INVALID_MSID");
  EXPECT_STREQ(MPI_M_error_string(MPI_M_SESSION_OVERFLOW),
               "MPI_M_SESSION_OVERFLOW");
  EXPECT_STREQ(MPI_M_error_string(MPI_M_PARTIAL_DATA), "MPI_M_PARTIAL_DATA");
  EXPECT_STREQ(MPI_M_error_string(9999), "(unknown MPI_M error code)");
}

TEST(MpiMon, AllMsidRejectedByGathersAndFlush) {
  Sim sim = make_sim(1);
  sim.run([](Ctx& ctx) {
    ASSERT_EQ(MPI_M_init(), MPI_M_SUCCESS);
    MPI_M_msid id;
    ASSERT_EQ(MPI_M_start(ctx.world(), &id), MPI_M_SUCCESS);
    ASSERT_EQ(MPI_M_suspend(id), MPI_M_SUCCESS);
    unsigned long m[1];
    EXPECT_EQ(MPI_M_allgather_data(MPI_M_ALL_MSID, m, MPI_M_DATA_IGNORE,
                                   MPI_M_ALL_COMM),
              MPI_M_INVALID_MSID);
    EXPECT_EQ(MPI_M_rootgather_data(MPI_M_ALL_MSID, 0, m, MPI_M_DATA_IGNORE,
                                    MPI_M_ALL_COMM),
              MPI_M_INVALID_MSID);
    EXPECT_EQ(MPI_M_flush(MPI_M_ALL_MSID, "unused", MPI_M_ALL_COMM),
              MPI_M_INVALID_MSID);
    MPI_M_free(id);
    MPI_M_finalize();
  });
}

TEST(MpiMon, DoubleSuspendAndActiveDataAccessReportExactCodes) {
  Sim sim = make_sim(2);
  sim.run([](Ctx& ctx) {
    ASSERT_EQ(MPI_M_init(), MPI_M_SUCCESS);
    MPI_M_msid id;
    ASSERT_EQ(MPI_M_start(ctx.world(), &id), MPI_M_SUCCESS);
    unsigned long m[4];
    // Gathers on an active session: exact SESSION_NOT_SUSPENDED, on every
    // rank, with no traffic generated (no hang on the other rank).
    EXPECT_EQ(MPI_M_allgather_data(id, m, MPI_M_DATA_IGNORE, MPI_M_ALL_COMM),
              MPI_M_SESSION_NOT_SUSPENDED);
    EXPECT_EQ(MPI_M_rootgather_data(id, 0, m, MPI_M_DATA_IGNORE,
                                    MPI_M_ALL_COMM),
              MPI_M_SESSION_NOT_SUSPENDED);
    ASSERT_EQ(MPI_M_suspend(id), MPI_M_SUCCESS);
    EXPECT_EQ(MPI_M_suspend(id), MPI_M_MULTIPLE_CALL);
    ASSERT_EQ(MPI_M_continue(id), MPI_M_SUCCESS);
    EXPECT_EQ(MPI_M_continue(id), MPI_M_MULTIPLE_CALL);
    ASSERT_EQ(MPI_M_suspend(id), MPI_M_SUCCESS);
    MPI_M_free(id);
    MPI_M_finalize();
  });
}

TEST(MpiMon, FrameGridStepPicksSmallestPositiveWidth) {
  // One frame's reconstructed width can collapse to zero; the grid step
  // must come from the batch, not from any single frame.
  const double t0[] = {0.25, 0.5, 0.75};
  const double t1[] = {0.25, 0.75, 1.0};
  EXPECT_DOUBLE_EQ(mon::detail::frame_grid_step(t0, t1, 3), 0.25);

  const double z0[] = {0.0, 0.5};
  const double z1[] = {0.0, 0.5};
  EXPECT_DOUBLE_EQ(mon::detail::frame_grid_step(z0, z1, 2), 0.0);
  EXPECT_DOUBLE_EQ(mon::detail::frame_grid_step(t0, t1, 0), 0.0);
}

TEST(MpiMon, FrameWindowIndexGuardsZeroStepAndRounds) {
  EXPECT_EQ(mon::detail::frame_window_index(0.75, 0.25), 3);
  // t0 slightly off the exact grid point still rounds to the right index.
  EXPECT_EQ(mon::detail::frame_window_index(0.25 * 7 - 1e-12, 0.25), 7);
  EXPECT_EQ(mon::detail::frame_window_index(0.0, 0.25), 0);
  // Degenerate grid (all windows zero width): no division by zero.
  EXPECT_EQ(mon::detail::frame_window_index(0.5, 0.0), 0);
}

TEST(MpiMon, GatherFramesReconstructsWindowIndices) {
  Sim sim = make_sim(2);
  sim.run([](Ctx& ctx) {
    mon::Environment env;
    mon::Session s(ctx.world());
    s.snapshot_start(/*window_s=*/1e-3, /*max_frames=*/8);
    exchange_ring(ctx.world(), 256, 3);
    mpi::compute(2.5e-3);  // land traffic in a later window too
    exchange_ring(ctx.world(), 256, 3);
    s.snapshot_stop();
    s.suspend();
    const auto frames = s.gather_frames(8);
    ASSERT_FALSE(frames.empty());
    for (const auto& f : frames) {
      // Index must sit on the sampler's grid: window * step == t0.
      EXPECT_GE(f.window, 0);
      EXPECT_NEAR(static_cast<double>(f.window) * 1e-3, f.t0_s, 1e-9);
      EXPECT_NEAR(f.t1_s - f.t0_s, 1e-3, 1e-9);
    }
    // Strictly increasing window indices across the batch.
    for (std::size_t i = 1; i < frames.size(); ++i)
      EXPECT_GT(frames[i].window, frames[i - 1].window);
  });
}

TEST(MpiMon, GathersEmitExactlyOneCollectiveSpanPerCall) {
  // The one-collective contract: every MPI_M_{allgather,rootgather}_data and
  // MPI_M_rootflush call moves counts AND sizes with ONE collective,
  // observable as exactly one "mon.gather" span per call and participant.
  Sim sim = make_sim(4);
  sim.engine().telemetry().set_enabled(true);
  const std::string prof = std::filesystem::temp_directory_path() /
                           "mpim_span_count_flush";
  sim.run([&](Ctx& ctx) {
    mon::Environment env;
    mon::Session s(ctx.world());
    exchange_ring(ctx.world(), 128);
    s.suspend();
    (void)s.gather_counts();  // allgather, counts only
    (void)s.gather_sizes();   // allgather, sizes only
    CommMatrix c = CommMatrix::square(4), b = CommMatrix::square(4);
    ASSERT_EQ(MPI_M_allgather_data(s.id(), c.data(), b.data(), MPI_M_ALL_COMM),
              MPI_M_SUCCESS);  // both matrices, still one collective
    ASSERT_EQ(MPI_M_rootgather_data(
                  s.id(), 0,
                  mpi::comm_rank(ctx.world()) == 0 ? c.data()
                                                   : MPI_M_DATA_IGNORE,
                  mpi::comm_rank(ctx.world()) == 0 ? b.data()
                                                   : MPI_M_DATA_IGNORE,
                  MPI_M_ALL_COMM),
              MPI_M_SUCCESS);
    ASSERT_EQ(MPI_M_rootflush(s.id(), 0, prof.c_str(), MPI_M_ALL_COMM),
              MPI_M_SUCCESS);
  });
  for (int rank = 0; rank < 4; ++rank) {
    int gather_spans = 0;
    for (const auto& sp : sim.engine().telemetry().spans(rank)) {
      if (std::string(sp.name) == "mon.gather") {
        ++gather_spans;
        EXPECT_EQ(sp.a, 8);  // row width 2n
        EXPECT_EQ(sp.b, 0);  // nothing missing without a fault plan
      }
    }
    EXPECT_EQ(gather_spans, 5) << "rank " << rank;
  }
  std::remove((prof + "_counts.0.prof").c_str());
  std::remove((prof + "_sizes.0.prof").c_str());
}

// --- one data path under three fault plans ------------------------------------

/// What one rank reads back through the data-access calls of
/// `exchange_program`: every output buffer as it stood after its call
/// (fill values included), the return codes, get_frames' window times and
/// the root's two rootflush files; and, for the oracle, the rank's own rows
/// as MPI_M_get_data reports them before each gather.
struct Readback {
  std::vector<int> rcs;
  std::vector<std::vector<unsigned long>> bufs;
  std::vector<double> times;
  std::string files;
  /// [counts row | sizes row] per gather call, in call order.
  std::vector<std::vector<unsigned long>> own;
};

constexpr unsigned long kFill = 0x5a5a5a5a5a5a5a5aul;
constexpr int kFrames = 4;

/// The gather calls of `exchange_program`, in order: the session (0: the
/// world's, with a snapshot; 1: its duplicate's), the kind filter, whether
/// it is a rootgather at group rank n-1 rather than an allgather, and
/// which matrices the caller asks for (non-roots pass buffers too).
struct GatherCall {
  int session;
  int flags;
  bool rootgather;
  bool counts;
  bool sizes;
};
constexpr GatherCall kGatherCalls[] = {
    {0, MPI_M_ALL_COMM, false, true, true},
    {1, MPI_M_P2P_ONLY, false, false, true},
    {0, MPI_M_COLL_ONLY | MPI_M_P2P_ONLY, true, true, true},
    {1, MPI_M_ALL_COMM, true, true, false},
};

std::string slurp_and_remove(const std::string& path) {
  std::ifstream is(path);
  std::string text((std::istreambuf_iterator<char>(is)),
                   std::istreambuf_iterator<char>());
  std::remove(path.c_str());
  return text;
}

/// Seeded traffic on the world and a duplicate: each round every rank
/// sends a message of its own seeded size to one seeded ring offset, on
/// one of the two communicators, with rank-skewed compute and an
/// allreduce on the duplicate every third round.
void seeded_traffic(const Comm& world, const Comm& dup, std::uint64_t seed) {
  const int n = mpi::comm_size(world);
  const int r = mpi::comm_rank(world);
  std::vector<std::byte> sbuf(4096), rbuf(4096);
  for (int round = 0; round < 12; ++round) {
    const std::uint64_t key = seed * 1000 + static_cast<std::uint64_t>(round);
    Rng shared(key);  // same draws on every rank
    const int off = n > 1 ? shared.uniform_int(1, n - 1) : 0;
    const Comm& comm = shared.uniform() < 0.5 ? world : dup;
    const auto bytes = [&](int rank) {
      Rng own(key * 131 + static_cast<std::uint64_t>(rank));
      return static_cast<std::size_t>(own.uniform_u64(1, sbuf.size()));
    };
    if (n > 1) {
      const int from = (r - off + n) % n;
      mpi::sendrecv(sbuf.data(), bytes(r), Type::Byte, (r + off) % n, round,
                    rbuf.data(), bytes(from), from, round, comm);
    }
    mpi::compute(1e-5 * (1 + r % 3));
    if (round % 3 == 0) {
      unsigned long mine = static_cast<unsigned long>(r), sum = 0;
      mpi::allreduce(&mine, &sum, 1, Type::UnsignedLong, mpi::Op::Sum, dup);
    }
  }
}

/// Two sessions (world with a snapshot, and a duplicate) watch the seeded
/// traffic, then a phase hook that never fires runs its agreement
/// collectives (critpath's mismatch allreduce included), and every
/// data-access collective reads the sessions back into kFill-filled
/// buffers: the kGatherCalls, rootflush at n-1, and get_frames.
void exchange_program(Ctx& ctx, std::uint64_t seed, const std::string& prefix,
                      Readback& out) {
  const Comm world = ctx.world();
  const Comm dup = mpi::comm_dup(world);
  const int n = mpi::comm_size(world);
  const std::size_t nn = static_cast<std::size_t>(n) * n;
  ASSERT_EQ(MPI_M_init(), MPI_M_SUCCESS);
  // The never-firing plan takes the wall-clock-timed failure-aware
  // schedules: never let a slow host turn them into partial data.
  ASSERT_EQ(MPI_M_set_gather_timeout(60.0), MPI_M_SUCCESS);
  MPI_M_msid ids[2] = {-1, -1};
  ASSERT_EQ(MPI_M_start(world, &ids[0]), MPI_M_SUCCESS);
  ASSERT_EQ(MPI_M_start(dup, &ids[1]), MPI_M_SUCCESS);
  ASSERT_EQ(MPI_M_snapshot_start(ids[0], 3e-5, kFrames, MPI_M_ALL_COMM),
            MPI_M_SUCCESS);
  seeded_traffic(world, dup, seed);
  // The frames end with the traffic, not when the schedules below finish,
  // so they are comparable across plans.
  ASSERT_EQ(MPI_M_snapshot_stop(ids[0]), MPI_M_SUCCESS);
  int seen = std::numeric_limits<int>::max();  // no boundary count exceeds it
  bool fired = true;
  const reorder::ReorderResult phase = reorder::reorder_on_phase(
      ids[0], world, &seen, &fired,
      {.use_critpath_mismatch = true,
       .min_wait_ns = std::numeric_limits<std::uint64_t>::max()});
  EXPECT_FALSE(fired);
  EXPECT_EQ(phase.k, reorder::identity_k(static_cast<std::size_t>(n)));
  ASSERT_EQ(MPI_M_suspend(ids[0]), MPI_M_SUCCESS);
  ASSERT_EQ(MPI_M_suspend(ids[1]), MPI_M_SUCCESS);

  std::vector<unsigned long> counts(nn, kFill), sizes(nn, kFill);
  for (const GatherCall& call : kGatherCalls) {
    const MPI_M_msid id = ids[call.session];
    std::vector<unsigned long> own(2 * static_cast<std::size_t>(n));
    ASSERT_EQ(MPI_M_get_data(id, own.data(), own.data() + n, call.flags),
              MPI_M_SUCCESS);
    out.own.push_back(own);
    unsigned long* c = call.counts ? counts.data() : MPI_M_DATA_IGNORE;
    unsigned long* s = call.sizes ? sizes.data() : MPI_M_DATA_IGNORE;
    out.rcs.push_back(call.rootgather
                          ? MPI_M_rootgather_data(id, n - 1, c, s, call.flags)
                          : MPI_M_allgather_data(id, c, s, call.flags));
    out.bufs.push_back(counts);
    out.bufs.push_back(sizes);
    std::fill(counts.begin(), counts.end(), kFill);
    std::fill(sizes.begin(), sizes.end(), kFill);
  }
  out.rcs.push_back(
      MPI_M_rootflush(ids[0], n - 1, prefix.c_str(), MPI_M_ALL_COMM));

  std::vector<unsigned long> frame_counts(kFrames * nn, kFill),
      frame_sizes(kFrames * nn, kFill);
  std::vector<double> t0(kFrames, -1.0), t1(kFrames, -1.0);
  int nframes = -1;
  out.rcs.push_back(MPI_M_get_frames(ids[0], kFrames, &nframes, t0.data(),
                                     t1.data(), frame_counts.data(),
                                     frame_sizes.data(), MPI_M_ALL_COMM));
  out.rcs.push_back(nframes);
  out.bufs.push_back(frame_counts);
  out.bufs.push_back(frame_sizes);
  out.times = t0;
  out.times.insert(out.times.end(), t1.begin(), t1.end());

  EXPECT_EQ(MPI_M_free(ids[0]), MPI_M_SUCCESS);
  EXPECT_EQ(MPI_M_free(ids[1]), MPI_M_SUCCESS);
  EXPECT_EQ(MPI_M_finalize(), MPI_M_SUCCESS);
  // Only the root writes files; [rank] in their names is its world rank.
  const std::string me = std::to_string(ctx.world_rank());
  out.files = slurp_and_remove(prefix + "_counts." + me + ".prof") +
              slurp_and_remove(prefix + "_sizes." + me + ".prof");
}

/// The oracle for gather call `call`: what it must leave in rank `r`'s
/// counts (or sizes) buffer. Where the call delivers and the caller asked,
/// every rank's own rows stacked in rank order; the fill value elsewhere.
std::vector<unsigned long> expected_buf(const std::vector<Readback>& all,
                                        std::size_t call, bool sizes, int r) {
  const GatherCall& c = kGatherCalls[call];
  const std::size_t n = all.size();
  std::vector<unsigned long> want(n * n, kFill);
  const bool delivers = !c.rootgather || r == static_cast<int>(n) - 1;
  if (!delivers || !(sizes ? c.sizes : c.counts)) return want;
  for (std::size_t q = 0; q < n; ++q)
    std::copy_n(all[q].own[call].begin() + (sizes ? n : 0), n,
                want.begin() + q * n);
  return want;
}

/// The oracle for the root's rootflush files (counts, then sizes): the own
/// rows of gather call 0, which reads the same session and flags.
std::string expected_files(const std::vector<Readback>& all) {
  const std::size_t n = all.size();
  std::string text;
  for (const std::size_t half : {std::size_t{0}, n}) {
    text += "# MPI_Monitoring matrix, order " + std::to_string(n) +
            ", flags p2p|coll|osc\n";
    for (const Readback& q : all) {
      for (std::size_t j = 0; j < n; ++j)
        text += (j ? " " : "") + std::to_string(q.own[0][half + j]);
      text += "\n";
    }
  }
  return text;
}

bool all_fill(const std::vector<unsigned long>& buf, std::size_t from = 0) {
  return std::all_of(buf.begin() + static_cast<std::ptrdiff_t>(from),
                     buf.end(), [](unsigned long v) { return v == kFill; });
}

constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ull;

/// FNV-1a over the eight bytes of `word`, continuing from `h`.
std::uint64_t fnv(std::uint64_t h, std::uint64_t word) {
  for (int shift = 0; shift < 64; shift += 8) {
    h ^= (word >> shift) & 0xffu;
    h *= 0x100000001b3ull;
  }
  return h;
}

std::uint64_t clock_bits_hash(const std::vector<double>& clocks) {
  std::uint64_t h = kFnvBasis;
  for (const double c : clocks) h = fnv(h, std::bit_cast<std::uint64_t>(c));
  return h;
}

std::uint64_t readback_hash(const std::vector<Readback>& all) {
  std::uint64_t h = kFnvBasis;
  for (const Readback& rb : all) {
    for (const int rc : rb.rcs) h = fnv(h, static_cast<std::uint32_t>(rc));
    for (const auto& buf : rb.bufs)
      for (const unsigned long w : buf) h = fnv(h, w);
    for (const double t : rb.times) h = fnv(h, std::bit_cast<std::uint64_t>(t));
    for (const char ch : rb.files) h = fnv(h, static_cast<unsigned char>(ch));
    for (const auto& row : rb.own)
      for (const unsigned long w : row) h = fnv(h, w);
  }
  return h;
}

TEST(MpiMon, FaultFreeGathersMatchTheFailureAwarePathWordForWord) {
  // One program under three fault plans. No plan and an empty plan both
  // run the fault-free coll:: schedules and must agree bit for bit:
  // every clock, return code and buffer, the frame times and the files. A
  // plan that can fail a receive but never does (rank 0 crashes at 1e9 s)
  // runs the failure-aware schedules of minimpi/ft.h. Every plan must
  // read back what each rank's own MPI_M_get_data rows predict, leave every
  // buffer it must not write at its fill value, and match the others word
  // for word. Goldens pin both schedules' clocks and the readback; they
  // were captured when the failure-aware schedules still carried the rows
  // in their messages (contention on, so tool traffic crosses the NIC
  // gate). The never-firing clocks were re-captured once the phase hook
  // ran its critpath agreement under that plan too.
  struct Golden {
    int np;
    double max_clock;  // no plan, empty plan
    std::uint64_t hash;
    double ft_max_clock;  // never-firing plan
    std::uint64_t ft_hash;
    std::uint64_t readback;
  };
  const Golden goldens[] = {
      {1, 0x1.f75888fa87676p-14, 0x438ee495fded1435ull,
       0x1.f75550584be02p-14, 0x9cdef4701022ee32ull, 0xdbaa036f5af09cc5ull},
      {5, 0x1.9cef302a496bdp-12, 0x43606a6957b0503cull,
       0x1.9f13dba6eab11p-12, 0xdfed3812bc10c6c5ull, 0x5f9e07951a4c491dull},
      {37, 0x1.2a429f7df75f1p-11, 0x39b5064db68d606aull,
       0x1.3078b13ae7633p-10, 0xb4c1983de340eadcull, 0xc6a2b35015fa255eull},
      {64, 0x1.b15de2849d257p-11, 0xa5c0272dfe02bc03ull,
       0x1.16b2a9949fdbdp-8, 0x44e75a199a51b9fbull, 0x59d93369beed0184ull},
  };
  enum { kNoPlan, kEmptyPlan, kNeverFires, kPlans };
  const char* const plan_name[kPlans] = {"no plan", "empty plan",
                                         "never-firing plan"};
  const std::string dir = std::filesystem::temp_directory_path();
  for (const Golden& g : goldens) {
    for (mpi::SchedMode sched :
         {mpi::SchedMode::threads, mpi::SchedMode::fibers}) {
      const std::string where = "np=" + std::to_string(g.np) + " " +
                                mpi::sched_mode_name(sched);
      std::vector<Readback> got[kPlans];
      std::vector<double> clocks[kPlans];
      for (int plan = 0; plan < kPlans; ++plan) {
        auto cost = net::CostModel::plafrim_like(3);
        mpi::EngineConfig cfg{
            .cost_model = cost,
            .placement = topo::round_robin_placement(g.np, cost.topology())};
        cfg.nic_contention = true;
        cfg.watchdog_wall_timeout_s = 60.0;
        cfg.sched = sched;
        if (plan != kNoPlan) cfg.fault_plan = std::make_shared<fault::FaultPlan>(1);
        if (plan == kNeverFires)
          cfg.fault_plan->add(fault::RankFault{.rank = 0, .crash_at_s = 1e9});
        Sim sim(std::move(cfg));
        mon::attach_critpath(sim.engine());
        std::vector<Readback>& mine = got[plan];
        mine.assign(static_cast<std::size_t>(g.np), Readback{});
        const std::string prefix = dir + "/mpim_exchange_" +
                                   std::to_string(::getpid()) + "_" +
                                   std::to_string(plan);
        sim.run([&](Ctx& ctx) {
          exchange_program(ctx, 0x5eed + static_cast<std::uint64_t>(g.np),
                           prefix,
                           mine[static_cast<std::size_t>(ctx.world_rank())]);
        });
        clocks[plan] = sim.engine().final_clocks();
      }
      const auto max_of = [](const std::vector<double>& c) {
        return *std::max_element(c.begin(), c.end());
      };
      EXPECT_EQ(max_of(clocks[kNoPlan]), g.max_clock)
          << where << ": " << std::hexfloat << max_of(clocks[kNoPlan]);
      EXPECT_EQ(clock_bits_hash(clocks[kNoPlan]), g.hash)
          << where << ": 0x" << std::hex << clock_bits_hash(clocks[kNoPlan]);
      EXPECT_EQ(max_of(clocks[kNeverFires]), g.ft_max_clock)
          << where << ": " << std::hexfloat << max_of(clocks[kNeverFires]);
      EXPECT_EQ(clock_bits_hash(clocks[kNeverFires]), g.ft_hash)
          << where << ": 0x" << std::hex
          << clock_bits_hash(clocks[kNeverFires]);
      EXPECT_EQ(clocks[kEmptyPlan], clocks[kNoPlan]) << where;

      const std::size_t nn = static_cast<std::size_t>(g.np) * g.np;
      for (int plan = 0; plan < kPlans; ++plan) {
        const std::vector<Readback>& all = got[plan];
        EXPECT_EQ(readback_hash(all), g.readback)
            << where << " " << plan_name[plan] << ": 0x" << std::hex
            << readback_hash(all);
        for (int r = 0; r < g.np; ++r) {
          const Readback& rb = all[static_cast<std::size_t>(r)];
          const Readback& ref = got[kNoPlan][static_cast<std::size_t>(r)];
          const std::string who =
              where + " " + plan_name[plan] + " rank " + std::to_string(r);
          ASSERT_EQ(rb.rcs.size(), 7u) << who;
          ASSERT_EQ(rb.bufs.size(), 10u) << who;
          ASSERT_EQ(rb.own.size(), 4u) << who;
          for (std::size_t call = 0; call < 6; ++call)
            EXPECT_EQ(rb.rcs[call], MPI_M_SUCCESS) << who << " call " << call;
          for (std::size_t i = 0; i < 8; ++i)
            EXPECT_EQ(rb.bufs[i], expected_buf(all, i / 2, i % 2 == 1, r))
                << who << " buffer " << i;
          const bool root = r == g.np - 1;
          EXPECT_EQ(rb.files, root ? expected_files(all) : "") << who;
          // Windows past nframes are never written.
          const auto written = static_cast<std::size_t>(rb.rcs[6]) * nn;
          EXPECT_TRUE(all_fill(rb.bufs[8], written)) << who;
          EXPECT_TRUE(all_fill(rb.bufs[9], written)) << who;
          if (g.np > 1) {
            EXPECT_GT(rb.rcs[6], 0) << who;
          }
          EXPECT_EQ(rb.rcs, ref.rcs) << who;
          for (std::size_t i = 0; i < rb.bufs.size(); ++i)
            EXPECT_EQ(rb.bufs[i], ref.bufs[i]) << who << " buffer " << i;
          EXPECT_EQ(rb.times, ref.times) << who;
          EXPECT_EQ(rb.files, ref.files) << who;
          EXPECT_EQ(rb.own, ref.own) << who;
        }
      }
    }
  }
}

TEST(MpiMon, GatherTimeoutSetterValidatesAndSticks) {
  Sim sim = make_sim(1);
  sim.run([](Ctx&) {
    ASSERT_EQ(MPI_M_init(), MPI_M_SUCCESS);
    EXPECT_EQ(MPI_M_set_gather_timeout(0.0), MPI_M_INTERNAL_FAIL);
    EXPECT_EQ(MPI_M_set_gather_timeout(-2.0), MPI_M_INTERNAL_FAIL);
    EXPECT_EQ(MPI_M_set_gather_timeout(1.5), MPI_M_SUCCESS);
    EXPECT_DOUBLE_EQ(MPI_M_get_gather_timeout(), 1.5);
    MPI_M_finalize();
  });
}

}  // namespace
}  // namespace mpim
