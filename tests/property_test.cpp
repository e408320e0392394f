// Property-based suites: invariants checked over parameterized sweeps and
// randomized (but seeded, deterministic) inputs.
#include <gtest/gtest.h>

#include <iterator>
#include <map>
#include <optional>
#include <string>

#include "minimpi/api.h"
#include "mpimon/mpi_monitoring.h"
#include "mpimon/session.hpp"
#include "mpimon/sim.h"
#include "reorder/reorder.h"
#include "support/rng.h"
#include "tools/liveview.h"
#include "topo/fabric.h"
#include "treematch/treematch.h"

namespace mpim {
namespace {

using mpi::Comm;
using mpi::Ctx;
using mpi::Type;

Sim make_sim(int nranks, bool contention = false) {
  auto cost = net::CostModel::plafrim_like(
      std::max(1, (nranks + 23) / 24));
  mpi::EngineConfig cfg{
      .cost_model = cost,
      .placement = topo::round_robin_placement(nranks, cost.topology())};
  cfg.watchdog_wall_timeout_s = 10.0;
  cfg.nic_contention = contention;
  return Sim(std::move(cfg));
}

// ---------------------------------------------------------------------------
// Conservation: whatever random traffic a program generates, the monitored
// totals equal the bytes actually handed to the transport.

class ConservationP : public ::testing::TestWithParam<int> {};

TEST_P(ConservationP, MonitoredBytesEqualSentBytes) {
  const int nranks = GetParam();
  Sim sim = make_sim(nranks);
  std::vector<unsigned long> sent_per_rank(
      static_cast<std::size_t>(nranks), 0);
  CommMatrix monitored;
  sim.run([&](Ctx& ctx) {
    const Comm world = ctx.world();
    const int r = mpi::comm_rank(world);
    mon::Environment env;
    mon::Session session(world);

    Rng rng(static_cast<unsigned long>(100 + r));
    unsigned long my_sent = 0;
    // Random point-to-point plan, exchanged via a fixed schedule: each
    // rank sends to each later rank a random number of random messages.
    for (int dst = 0; dst < nranks; ++dst) {
      if (dst == r) continue;
      const int n_msgs = static_cast<int>(rng.uniform_u64(0, 3));
      for (int m = 0; m < n_msgs; ++m) {
        const auto bytes = rng.uniform_u64(0, 5000);
        mpi::send(nullptr, bytes, Type::Byte, dst, 77, world);
        my_sent += bytes;
      }
      // Tell the receiver how many messages to expect.
      const long hdr = n_msgs;
      mpi::send(&hdr, 1, Type::Long, dst, 78, world);
    }
    for (int src = 0; src < nranks; ++src) {
      if (src == r) continue;
      long n_msgs = 0;
      mpi::recv(&n_msgs, 1, Type::Long, src, 78, world);
      for (long m = 0; m < n_msgs; ++m)
        mpi::recv(nullptr, 1 << 14, Type::Byte, src, 77, world);
    }

    session.suspend();
    const CommMatrix sizes = session.gather_sizes(MPI_M_P2P_ONLY);
    if (r == 0) monitored = sizes;
    sent_per_rank[static_cast<std::size_t>(r)] =
        my_sent + static_cast<unsigned long>(nranks - 1) * 8;  // headers
  });
  for (int r = 0; r < nranks; ++r) {
    unsigned long row = 0;
    for (int j = 0; j < nranks; ++j)
      row += monitored(static_cast<std::size_t>(r),
                       static_cast<std::size_t>(j));
    EXPECT_EQ(row, sent_per_rank[static_cast<std::size_t>(r)])
        << "rank " << r;
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, ConservationP,
                         ::testing::Values(2, 3, 5, 8, 16));

// ---------------------------------------------------------------------------
// Consistency: allgather_data row i must equal rank i's local get_data.

class GatherConsistencyP : public ::testing::TestWithParam<int> {};

TEST_P(GatherConsistencyP, MatrixRowsMatchLocalRows) {
  const int nranks = GetParam();
  Sim sim = make_sim(nranks);
  sim.run([&](Ctx& ctx) {
    const Comm world = ctx.world();
    const int r = mpi::comm_rank(world);
    mon::Environment env;
    mon::Session s(world);
    // Deterministic mixed traffic: a collective plus a p2p ring.
    std::vector<int> buf(100 + 10 * r);
    mpi::allgather(nullptr, 64, Type::Int, nullptr, world);
    mpi::send(buf.data(), buf.size(), Type::Int, (r + 1) % nranks, 0, world);
    mpi::recv(nullptr, 1 << 13, Type::Int, (r + nranks - 1) % nranks, 0,
              world);
    s.suspend();

    const auto local = s.local_sizes(MPI_M_ALL_COMM);
    const CommMatrix matrix = s.gather_sizes(MPI_M_ALL_COMM);
    for (int j = 0; j < nranks; ++j)
      EXPECT_EQ(matrix(static_cast<std::size_t>(r),
                       static_cast<std::size_t>(j)),
                local[static_cast<std::size_t>(j)])
          << "rank " << r << " peer " << j;
  });
}

INSTANTIATE_TEST_SUITE_P(Sizes, GatherConsistencyP,
                         ::testing::Values(2, 4, 7, 12));

// ---------------------------------------------------------------------------
// NIC accounting: the hardware counters see exactly the inter-node part of
// the monitored traffic (when no tool traffic runs while measuring).

TEST(NicConsistency, CountersMatchMonitoredInterNodeBytes) {
  const int nranks = 8;
  auto cost = net::CostModel::plafrim_like(2, 1, 4);
  mpi::EngineConfig cfg{
      .cost_model = cost,
      .placement = topo::round_robin_placement(nranks, cost.topology())};
  Sim sim(std::move(cfg));
  // Rows collected per rank through shared memory (local get_data only):
  // no gather traffic, so the NIC totals contain app traffic exclusively.
  CommMatrix sizes = CommMatrix::square(static_cast<std::size_t>(nranks));
  sim.run([&](Ctx& ctx) {
    const Comm world = ctx.world();
    const int r = mpi::comm_rank(world);
    mon::Environment env;
    mon::Session s(world);
    // All-pairs deterministic burst.
    for (int dst = 0; dst < nranks; ++dst)
      if (dst != r)
        mpi::send(nullptr, 1000 + 10 * r + dst, Type::Byte, dst, 0, world);
    for (int src = 0; src < nranks; ++src)
      if (src != r) mpi::recv(nullptr, 1 << 12, Type::Byte, src, 0, world);
    s.suspend();
    const auto row = s.local_sizes(MPI_M_P2P_ONLY);
    for (int j = 0; j < nranks; ++j)
      sizes(static_cast<std::size_t>(r), static_cast<std::size_t>(j)) =
          row[static_cast<std::size_t>(j)];
  });
  const std::uint64_t nic0 = sim.engine().nic().total_bytes(0);
  const std::uint64_t nic1 = sim.engine().nic().total_bytes(1);
  const auto& topo = sim.engine().topology();
  std::uint64_t expect_node0 = 0, expect_node1 = 0;
  for (int i = 0; i < nranks; ++i) {
    for (int j = 0; j < nranks; ++j) {
      if (topo.node_of(i) == topo.node_of(j)) continue;
      const auto v = sizes(static_cast<std::size_t>(i),
                           static_cast<std::size_t>(j));
      (topo.node_of(i) == 0 ? expect_node0 : expect_node1) += v;
    }
  }
  EXPECT_EQ(nic0, expect_node0);
  EXPECT_EQ(nic1, expect_node1);
}

// ---------------------------------------------------------------------------
// Contention sanity: enabling the NIC model never makes anything faster.

class ContentionMonotoneP
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(ContentionMonotoneP, ContendedNeverFasterThanFreeFlow) {
  const auto [nranks, kilobytes] = GetParam();
  auto workload = [count = static_cast<std::size_t>(kilobytes) * 1000](
                      Ctx& ctx) {
    const Comm world = ctx.world();
    mpi::allgather(nullptr, count, Type::Byte, nullptr, world);
    mpi::reduce(nullptr, nullptr, count, Type::Byte, mpi::Op::Max, 0, world);
  };
  double t_free = 0, t_contended = 0;
  {
    Sim sim = make_sim(nranks, false);
    sim.run(workload);
    t_free = sim.engine().max_virtual_time();
  }
  {
    Sim sim = make_sim(nranks, true);
    sim.run(workload);
    t_contended = sim.engine().max_virtual_time();
  }
  EXPECT_GE(t_contended, t_free * (1.0 - 1e-9));
}

INSTANTIATE_TEST_SUITE_P(Grid, ContentionMonotoneP,
                         ::testing::Combine(::testing::Values(4, 16, 48),
                                            ::testing::Values(1, 100)));

// ---------------------------------------------------------------------------
// Reordering: with the decision guard, the modeled cost never regresses,
// over randomized matrices.

class ReorderNeverWorseP : public ::testing::TestWithParam<unsigned long> {};

TEST_P(ReorderNeverWorseP, DecisionGuardHolds) {
  const unsigned long seed = GetParam();
  const auto cost = net::CostModel::plafrim_like(2, 1, 4);
  const int n = 8;
  Rng rng(seed);
  CommMatrix m = CommMatrix::square(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i)
    for (int j = 0; j < n; ++j)
      if (i != j && rng.uniform() < 0.4)
        m(static_cast<std::size_t>(i), static_cast<std::size_t>(j)) =
            rng.uniform_u64(1, 1 << 22);
  const auto placement = topo::random_placement(n, cost.topology(), seed);
  const auto k =
      reorder::compute_reordering(m, cost.topology(), placement, &cost);
  const double before = reorder::reordered_cost(
      m, reorder::identity_k(static_cast<std::size_t>(n)), cost, placement);
  const double after = reorder::reordered_cost(m, k, cost, placement);
  // The decision metric also includes the NIC load bound; the static part
  // alone may not improve, but must never blow up.
  EXPECT_LE(after, before * 1.10);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReorderNeverWorseP,
                         ::testing::Range(1ul, 13ul));

// ---------------------------------------------------------------------------
// Model-based fuzz of the MPI_M session state machine: a random operation
// sequence is replayed against a reference model; every return code must
// match the model's prediction.

TEST(SessionStateMachine, RandomOpSequencesMatchModel) {
  enum class St { active, suspended, freed };
  Sim sim = make_sim(1);
  sim.run([](Ctx& ctx) {
    const Comm world = ctx.world();
    ASSERT_EQ(MPI_M_init(), MPI_M_SUCCESS);

    Rng rng(2024);
    std::map<int, St> model;  // msid -> state
    std::vector<int> live_ids;

    for (int step = 0; step < 3000; ++step) {
      const int action = static_cast<int>(rng.uniform_u64(0, 5));
      // Pick a target: valid session, or an invalid id 20% of the time.
      int msid = -99;
      const bool use_invalid = rng.uniform() < 0.2 || model.empty();
      if (!use_invalid) {
        auto it = model.begin();
        std::advance(it, static_cast<long>(
                             rng.uniform_u64(0, model.size() - 1)));
        msid = it->first;
      } else {
        msid = 10000 + static_cast<int>(rng.uniform_u64(0, 50));
      }
      const auto state_of = [&](int id) -> St* {
        auto it = model.find(id);
        return it == model.end() ? nullptr : &it->second;
      };

      switch (action) {
        case 0: {  // start
          if (model.size() >= 32) break;  // keep it bounded
          int id = -1;
          ASSERT_EQ(MPI_M_start(world, &id), MPI_M_SUCCESS);
          ASSERT_EQ(model.count(id), 0u) << "reused a live msid";
          model[id] = St::active;
          break;
        }
        case 1: {  // suspend
          const int rc = MPI_M_suspend(msid);
          St* st = state_of(msid);
          if (st == nullptr || *st == St::freed) {
            EXPECT_EQ(rc, MPI_M_INVALID_MSID);
          } else if (*st == St::suspended) {
            EXPECT_EQ(rc, MPI_M_MULTIPLE_CALL);
          } else {
            EXPECT_EQ(rc, MPI_M_SUCCESS);
            *st = St::suspended;
          }
          break;
        }
        case 2: {  // continue
          const int rc = MPI_M_continue(msid);
          St* st = state_of(msid);
          if (st == nullptr || *st == St::freed) {
            EXPECT_EQ(rc, MPI_M_INVALID_MSID);
          } else if (*st == St::active) {
            EXPECT_EQ(rc, MPI_M_MULTIPLE_CALL);
          } else {
            EXPECT_EQ(rc, MPI_M_SUCCESS);
            *st = St::active;
          }
          break;
        }
        case 3: {  // reset
          const int rc = MPI_M_reset(msid);
          St* st = state_of(msid);
          if (st == nullptr || *st == St::freed) {
            EXPECT_EQ(rc, MPI_M_INVALID_MSID);
          } else if (*st == St::active) {
            EXPECT_EQ(rc, MPI_M_SESSION_NOT_SUSPENDED);
          } else {
            EXPECT_EQ(rc, MPI_M_SUCCESS);
          }
          break;
        }
        case 4: {  // free
          const int rc = MPI_M_free(msid);
          St* st = state_of(msid);
          if (st == nullptr || *st == St::freed) {
            EXPECT_EQ(rc, MPI_M_INVALID_MSID);
          } else if (*st == St::active) {
            EXPECT_EQ(rc, MPI_M_SESSION_NOT_SUSPENDED);
          } else {
            EXPECT_EQ(rc, MPI_M_SUCCESS);
            model.erase(msid);
          }
          break;
        }
        case 5: {  // get_data
          unsigned long v[1];
          const int rc2 =
              MPI_M_get_data(msid, v, MPI_M_DATA_IGNORE, MPI_M_ALL_COMM);
          St* st = state_of(msid);
          if (st == nullptr || *st == St::freed) {
            EXPECT_EQ(rc2, MPI_M_INVALID_MSID);
          } else if (*st == St::active) {
            EXPECT_EQ(rc2, MPI_M_SESSION_NOT_SUSPENDED);
          } else {
            EXPECT_EQ(rc2, MPI_M_SUCCESS);
          }
          break;
        }
        default: break;
      }
    }
    // Drain: everything suspended then freed, environment closes clean.
    EXPECT_EQ(MPI_M_suspend(MPI_M_ALL_MSID), MPI_M_SUCCESS);
    EXPECT_EQ(MPI_M_free(MPI_M_ALL_MSID), MPI_M_SUCCESS);
    EXPECT_EQ(MPI_M_finalize(), MPI_M_SUCCESS);
  });
}

// ---------------------------------------------------------------------------
// Malformed input: seeded mutations of well-formed stream lines and fabric
// specs (MPIM_TOPO). Neither parser throws, a stream line counts exactly
// once (applied or a parse error), and an accepted spec round-trips through
// describe().

/// One to three edits: drop, insert or replace a byte, truncate, or splice
/// in a token a parser may half-accept (numbers strtod takes but no integer
/// holds, separators, keywords).
std::string mutate(std::string s, Rng& rng) {
  static const char* const kTokens[] = {
      "nan", "inf", "-inf", "1e300", "-1e300", "9223372036854775808", "-0",
      "0", "7", "64", ",", ":", "\"", "}", "{", "valiant", "minimal"};
  const int edits = rng.uniform_int(1, 3);
  for (int i = 0; i < edits; ++i) {
    const std::size_t at = s.empty() ? 0 : rng.uniform_u64(0, s.size() - 1);
    switch (rng.uniform_int(0, 4)) {
      case 0:
        if (!s.empty()) s.erase(at, 1);
        break;
      case 1:
        s.insert(at, 1, static_cast<char>(rng.uniform_int(0, 255)));
        break;
      case 2:
        if (!s.empty()) s[at] = static_cast<char>(rng.uniform_int(32, 126));
        break;
      case 3:
        s.insert(at, kTokens[rng.uniform_u64(0, std::size(kTokens) - 1)]);
        break;
      default:
        s.resize(at);
        break;
    }
  }
  return s;
}

TEST(MalformedInput, MutatedStreamLinesNeverThrowAndCountOnce) {
  const std::string seeds[] = {
      R"({"type":"run_start","job":"j","ranks":4,"epoch_s":0.001,"version":1})",
      R"({"type":"epoch","e":1,"t0":0.001,"t1":0.002})",
      R"({"type":"metric","e":1,"rank":0,"name":"engine_bytes","delta":100})",
      R"({"type":"frame","e":2,"rank":1,"t0":0.002,"t1":0.003,"bytes":64,)"
      R"("msgs":2,"top_peer":3,"boundary":1})",
      R"({"type":"span","e":2,"rank":3,"cat":"P","name":"gather",)"
      R"("t0":0.002,"t1":0.0025})",
      R"({"type":"event","e":1,"rank":2,"what":"crash","t":0.0015})",
      R"({"type":"link","e":1,"node":0,"tx":4096})",
      R"({"type":"epoch_end","e":1,"n":5,"drops":0})",
      R"({"type":"finding","kind":"degraded_link","text":"link 0-1 degraded"})",
      R"({"type":"run_end","epochs":2,"events":3,"drops":0,"findings":0})",
  };
  tools::LiveState st;
  for (const std::string& seed : seeds) ASSERT_TRUE(st.apply_line(seed));
  Rng rng(0x11fe);
  for (int i = 0; i < 3000; ++i) {
    const std::string line = mutate(seeds[i % std::size(seeds)], rng);
    const std::uint64_t before = st.lines + st.parse_errors;
    EXPECT_NO_THROW(st.apply_line(line)) << line;
    ASSERT_EQ(st.lines + st.parse_errors, before + 1) << line;
  }
  EXPECT_GT(st.parse_errors, 0u);
}

TEST(MalformedInput, MutatedFabricSpecsNeverThrowAndAcceptedOnesRoundTrip) {
  const std::string seeds[] = {"tree", "fattree:4,2,1", "fattree:8,3,2",
                               "dragonfly:4,9,2", "dragonfly:2,5,2,valiant",
                               "dragonfly:4,9,2,minimal"};
  Rng rng(0xfab);
  int accepted = 0;
  for (int i = 0; i < 3000; ++i) {
    const std::string text = mutate(seeds[i % std::size(seeds)], rng);
    std::optional<topo::FabricSpec> spec;
    EXPECT_NO_THROW(spec = topo::parse_fabric_spec(text)) << text;
    if (!spec) continue;
    ++accepted;
    const auto again = topo::parse_fabric_spec(spec->describe());
    ASSERT_TRUE(again.has_value()) << text << " -> " << spec->describe();
    EXPECT_EQ(*again, *spec) << text << " -> " << spec->describe();
  }
  EXPECT_GT(accepted, 0);  // the loop reached the accept path too
}

}  // namespace
}  // namespace mpim
