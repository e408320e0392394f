// Time-resolved introspection analytics: the windowed snapshot sampler
// (global grid, delta frames, ring eviction, phase detection), the offline
// analyzer metrics, the frames CSV roundtrip, the MPI_M snapshot API end to
// end (including error codes, pvar read-through, fault degradation and the
// on/off virtual-clock bit-identity guarantee), and the phase-triggered
// reorder hook.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "fault/fault_plan.h"
#include "introspect/analyzer.h"
#include "introspect/snapshot.h"
#include "minimpi/api.h"
#include "minimpi/engine.h"
#include "mpimon/mpi_monitoring.h"
#include "mpimon/session.hpp"
#include "mpimon/sim.h"
#include "mpit/pvar.h"
#include "mpit/runtime.h"
#include "reorder/reorder.h"
#include "support/error.h"
#include "telemetry/hub.h"

namespace mpim {
namespace {

using introspect::Frame;
using introspect::FrameMatrix;
using introspect::WindowSampler;
using mpi::Comm;
using mpi::Ctx;
using mpi::Type;
using telemetry::Metric;

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

// --- WindowSampler ------------------------------------------------------------

TEST(Sampler, DeltaFramesOnTheGlobalWindowGrid) {
  WindowSampler s(/*npeers=*/3, /*window_s=*/1.0, /*max_frames=*/16);
  s.record(0.25, 1, 0, 100);
  s.record(0.50, 2, 1, 50);
  s.record(2.10, 1, 0, 10);  // skips window 1 entirely
  s.flush(3.0);

  const auto& frames = s.frames();
  ASSERT_EQ(frames.size(), 3u);
  EXPECT_EQ(frames[0].window, 0);
  EXPECT_DOUBLE_EQ(frames[0].t0_s, 0.0);
  EXPECT_DOUBLE_EQ(frames[0].t1_s, 1.0);
  ASSERT_EQ(frames[0].cells.size(), 2u);  // sparse: peers 1 and 2 only
  EXPECT_EQ(frames[0].cells[0].peer, 1);
  EXPECT_EQ(frames[0].cells[0].counts[0], 1u);
  EXPECT_EQ(frames[0].cells[0].bytes[0], 100u);
  EXPECT_EQ(frames[0].cells[1].peer, 2);
  EXPECT_EQ(frames[0].cells[1].bytes[1], 50u);

  // The silent window 1 is emitted as an empty frame, not skipped.
  EXPECT_EQ(frames[1].window, 1);
  EXPECT_TRUE(frames[1].cells.empty());

  // Delta encoding: window 2 holds only its own increments.
  EXPECT_EQ(frames[2].window, 2);
  ASSERT_EQ(frames[2].cells.size(), 1u);
  EXPECT_EQ(frames[2].cells[0].bytes[0], 10u);

  EXPECT_EQ(s.frames_closed(), 3u);
  EXPECT_EQ(s.frames_dropped(), 0u);
  EXPECT_EQ(s.total_bytes()[1], 110u);
  EXPECT_EQ(s.total_bytes()[2], 50u);
}

TEST(Sampler, RingEvictionKeepsNewestAndCounts) {
  WindowSampler s(2, 1.0, /*max_frames=*/2);
  for (int w = 0; w < 5; ++w)
    s.record(static_cast<double>(w) + 0.5, 0, 0, 10);
  s.flush(5.0);
  EXPECT_EQ(s.frames_closed(), 5u);
  EXPECT_EQ(s.frames_dropped(), 3u);
  ASSERT_EQ(s.frames().size(), 2u);
  EXPECT_EQ(s.frames()[0].window, 3);
  EXPECT_EQ(s.frames()[1].window, 4);
  // Evicted frames still count toward the long-horizon totals.
  EXPECT_EQ(s.total_bytes()[0], 50u);
}

TEST(Sampler, PhaseBoundariesAtBurstEdges) {
  WindowSampler s(2, 1.0, 16);
  s.record(0.5, 1, 0, 100);  // windows 0..2: steady pattern
  s.record(1.5, 1, 0, 100);
  s.record(2.5, 1, 0, 100);
  s.record(5.5, 1, 0, 100);  // windows 3,4 silent; 5 resumes
  s.flush(6.5);

  const auto& f = s.frames();
  ASSERT_EQ(f.size(), 6u);
  EXPECT_FALSE(f[0].boundary);  // very first frame: no previous phase
  EXPECT_FALSE(f[1].boundary);  // steady
  EXPECT_FALSE(f[2].boundary);
  EXPECT_TRUE(f[3].boundary);   // burst -> silence
  EXPECT_FALSE(f[4].boundary);  // still silent
  EXPECT_TRUE(f[5].boundary);   // silence -> burst
  EXPECT_EQ(s.phase_boundaries(), 2u);
}

TEST(Sampler, FrameCallbackSeesBoundariesAndClearResets) {
  WindowSampler s(2, 1.0, 16);
  int called = 0, boundaries = 0;
  s.set_frame_callback([&](const Frame& f) {
    ++called;
    if (f.boundary) ++boundaries;
  });
  s.record(0.5, 0, 0, 10);
  s.record(3.5, 1, 0, 10);  // silence 1,2; resume 3
  s.flush(4.0);
  EXPECT_EQ(called, 4);
  EXPECT_EQ(boundaries, 2);  // windows 1 (silence) and 3 (resume)

  s.clear();
  EXPECT_TRUE(s.frames().empty());
  EXPECT_EQ(s.frames_closed(), 0u);
  EXPECT_EQ(s.phase_boundaries(), 0u);
  EXPECT_EQ(s.total_bytes()[0], 0u);
  // The grid restarts: the first record after clear is a fresh first frame.
  s.record(10.5, 0, 0, 5);
  s.flush(11.0);
  ASSERT_EQ(s.frames().size(), 1u);
  EXPECT_EQ(s.frames()[0].window, 10);
  EXPECT_FALSE(s.frames()[0].boundary);
}

TEST(Sampler, RejectsOutOfRangeRecordsAndBadConfig) {
  WindowSampler s(2, 1.0, 4);
  EXPECT_THROW(s.record(0.0, 2, 0, 1), Error);
  EXPECT_THROW(s.record(0.0, -1, 0, 1), Error);
  EXPECT_THROW(s.record(0.0, 0, 3, 1), Error);
  EXPECT_THROW(WindowSampler(0, 1.0, 4), Error);
  EXPECT_THROW(WindowSampler(2, 0.0, 4), Error);
  EXPECT_THROW(WindowSampler(2, 1.0, 0), Error);
}

// --- analyzer metrics ---------------------------------------------------------

TEST(Analyzer, DistancesHandleZeroAndIdenticalVectors) {
  const std::vector<unsigned long> zero = {0, 0};
  const std::vector<unsigned long> a = {3, 4};
  const std::vector<unsigned long> b = {4, 3};
  EXPECT_DOUBLE_EQ(introspect::cosine_distance(zero, zero), 0.0);
  EXPECT_DOUBLE_EQ(introspect::cosine_distance(zero, a), 1.0);
  EXPECT_DOUBLE_EQ(introspect::cosine_distance(a, a), 0.0);
  EXPECT_NEAR(introspect::cosine_distance(a, b), 1.0 - 24.0 / 25.0, 1e-12);
  EXPECT_DOUBLE_EQ(introspect::l1_distance(zero, zero), 0.0);
  EXPECT_DOUBLE_EQ(introspect::l1_distance(zero, a), 1.0);
  EXPECT_NEAR(introspect::l1_distance(a, b), 2.0 / 14.0, 1e-12);
}

TEST(Analyzer, LoadImbalanceIsMaxRowOverMeanRow) {
  CommMatrix m = CommMatrix::square(2);
  m(0, 1) = 10;
  EXPECT_DOUBLE_EQ(introspect::load_imbalance(m), 2.0);  // 10 / (10/2)
  m(1, 0) = 10;
  EXPECT_DOUBLE_EQ(introspect::load_imbalance(m), 1.0);
  EXPECT_DOUBLE_EQ(introspect::load_imbalance(CommMatrix::square(3)), 0.0);
}

TEST(Analyzer, HopDistanceCountsTreeEdges) {
  topo::Topology t({2, 1, 2}, {"node", "socket", "core"});
  EXPECT_EQ(t.hop_distance(0, 0), 0);
  EXPECT_EQ(t.hop_distance(0, 1), 2);  // same socket
  EXPECT_EQ(t.hop_distance(1, 0), 2);
  EXPECT_EQ(t.hop_distance(0, 2), 6);  // across the node boundary
  EXPECT_EQ(t.hop_distance(3, 0), 6);
}

TEST(Analyzer, AffinityAndMismatchFollowThePlacement) {
  topo::Topology t({2, 1, 2}, {"node", "socket", "core"});
  const topo::TreeFabric fab(t);
  CommMatrix bytes = CommMatrix::square(4);
  bytes(0, 1) = 100;  // neighbors under identity placement (hop 2)
  bytes(0, 2) = 50;   // across nodes (hop 6)
  topo::Placement ident = {0, 1, 2, 3};
  EXPECT_NEAR(introspect::neighbor_affinity_fraction(bytes, t, ident),
              100.0 / 150.0, 1e-12);
  EXPECT_DOUBLE_EQ(introspect::mismatch_byte_hops(bytes, fab, ident),
                   100.0 * 2 + 50.0 * 6);
  // Swap ranks 1 and 2 on the machine: the heavy pair now spans nodes.
  topo::Placement swapped = {0, 2, 1, 3};
  EXPECT_NEAR(introspect::neighbor_affinity_fraction(bytes, t, swapped),
              50.0 / 150.0, 1e-12);
  EXPECT_DOUBLE_EQ(introspect::mismatch_byte_hops(bytes, fab, swapped),
                   100.0 * 6 + 50.0 * 2);
}

TEST(Analyzer, TreematchGainPositiveForScatteredPairs) {
  topo::Topology t({2, 1, 2}, {"node", "socket", "core"});
  std::vector<net::LinkParams> params = {
      {1e-5, 1e8}, {1e-6, 1e9}, {1e-7, 1e10}, {0.0, 1e12}};
  net::CostModel cost(t, params, 1e-7);
  CommMatrix bytes = CommMatrix::square(4);
  // Heavy partners placed on different nodes: TreeMatch can fix this.
  bytes(0, 1) = bytes(1, 0) = 1000000;
  bytes(2, 3) = bytes(3, 2) = 1000000;
  topo::Placement scattered = {0, 2, 1, 3};
  const double gain = introspect::treematch_gain(bytes, scattered, cost);
  EXPECT_GT(gain, 0.0);
  EXPECT_LE(gain, 1.0);
  // A zero matrix has nothing to gain.
  EXPECT_DOUBLE_EQ(
      introspect::treematch_gain(CommMatrix::square(4), scattered, cost), 0.0);
}

TEST(Analyzer, WindowMetricsFlagTheSameBoundariesAsTheSampler) {
  std::vector<FrameMatrix> frames;
  for (int w = 0; w < 4; ++w) {
    FrameMatrix f;
    f.window = w;
    f.t0_s = w;
    f.t1_s = w + 1;
    f.counts = CommMatrix::square(2);
    f.bytes = CommMatrix::square(2);
    if (w < 2) {  // two busy windows, then silence, then a new pattern
      f.counts(0, 1) = 1;
      f.bytes(0, 1) = 100;
    } else if (w == 3) {
      f.counts(1, 0) = 1;
      f.bytes(1, 0) = 100;
    }
    frames.push_back(std::move(f));
  }
  const auto m = introspect::analyze_windows(frames);
  ASSERT_EQ(m.size(), 4u);
  EXPECT_FALSE(m[0].boundary);  // first window: no reference
  EXPECT_LT(m[0].cos_dist, 0);  // distances undefined on the first window
  EXPECT_FALSE(m[1].boundary);
  EXPECT_TRUE(m[2].boundary);  // busy -> silent
  EXPECT_TRUE(m[3].boundary);  // silent -> busy (and a different pattern)
  EXPECT_EQ(m[1].bytes, 100u);
  EXPECT_EQ(m[1].msgs, 1u);
}

TEST(Analyzer, FramesCsvRoundtrip) {
  std::vector<FrameMatrix> frames(2);
  frames[0].window = 4;
  frames[0].t0_s = 0.4;
  frames[0].t1_s = 0.5;
  frames[0].counts = CommMatrix::square(3);
  frames[0].bytes = CommMatrix::square(3);
  frames[0].counts(0, 2) = 7;
  frames[0].bytes(0, 2) = 4096;
  frames[1].window = 6;  // empty window: marker row on disk
  frames[1].t0_s = 0.6;
  frames[1].t1_s = 0.7;
  frames[1].counts = CommMatrix::square(3);
  frames[1].bytes = CommMatrix::square(3);

  const std::string path =
      (std::filesystem::temp_directory_path() / "introspect_roundtrip.csv")
          .string();
  introspect::write_frames_csv_file(path, frames);
  const auto back = introspect::read_frames_csv(path);
  std::remove(path.c_str());

  ASSERT_EQ(back.size(), 2u);
  EXPECT_EQ(back[0].window, 4);
  EXPECT_DOUBLE_EQ(back[0].t0_s, 0.4);
  EXPECT_EQ(back[0].counts(0, 2), 7u);
  EXPECT_EQ(back[0].bytes(0, 2), 4096u);
  EXPECT_EQ(back[1].window, 6);
  EXPECT_EQ(back[1].bytes.flat()[0], 0u);
}

TEST(Analyzer, FramesCsvRejectsOrdersAndClassesNoRunWrites) {
  // A corrupt order record must neither wrap n * n (4294967296 squared is 0
  // in 64 bits) nor allocate matrices no memory holds, a rank cell must sit
  // below the recorded order, and a link-class row out of sequence must not
  // grow the class vector to its index.
  const std::string path =
      (std::filesystem::temp_directory_path() / "introspect_corrupt.csv")
          .string();
  const std::pair<const char*, const char*> cases[] = {
      {"4294967296", "0,0,1,0,1,1,8"}, {"99999", "0,0,1,0,1,1,8"},
      {"4", "0,0,1,0,4294967295,1,8"}, {"4", "0,0,1,0,99999,1,8"},
      {"4", "0,0,1,-2,1000000000000,0,8"}, {"0", "0,0,1,-1,-1,0,0"},
  };
  for (const auto& [order, row] : cases) {
    std::ofstream(path) << "window,t0_s,t1_s,src,dst,count,bytes\n# order "
                        << order << "\n"
                        << row << "\n";
    EXPECT_THROW(introspect::read_frames_csv(path), Error) << row;
  }
  std::ofstream(path) << "window,t0_s,t1_s,src,dst,count,bytes\n"
                      << "0,0,1,0,1,1,8\n";
  EXPECT_THROW(introspect::read_frames_csv(path), Error) << "no order record";
  std::remove(path.c_str());
}

TEST(Analyzer, FramesCsvRejectsARankCellAtOrAboveItsOrderByFile) {
  // One corrupt cell in a 4-rank file once made the reader size every
  // window for 642 ranks; the recorded order now rejects it, naming the
  // file.
  std::vector<introspect::FrameMatrix> frames(1);
  frames[0].counts = CommMatrix::square(4);
  frames[0].bytes = CommMatrix::square(4);
  frames[0].counts(1, 2) = 3;
  frames[0].bytes(1, 2) = 4096;
  const std::string path =
      (std::filesystem::temp_directory_path() / "introspect_rank641.csv")
          .string();
  introspect::write_frames_csv_file(path, frames);
  std::ostringstream text;
  text << std::ifstream(path).rdbuf();
  std::string mutated = text.str();
  const std::size_t cell = mutated.find(",1,2,3,4096");
  ASSERT_NE(cell, std::string::npos) << mutated;
  mutated.replace(cell, 2, ",641");  // src 1 -> 641
  std::ofstream(path) << mutated;
  try {
    introspect::read_frames_csv(path);
    ADD_FAILURE() << "accepted rank 641 in a 4-rank file";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(path), std::string::npos)
        << e.what();
  }
  std::remove(path.c_str());
}

// --- MPI_M snapshot API -------------------------------------------------------

TEST(Snapshot, EndToEndFramesAlignAndSumToSessionTotals) {
  const int nranks = 4;
  Sim sim = make_sim(nranks);
  sim.engine().telemetry().set_enabled(true);
  telemetry::Hub& hub = sim.engine().telemetry();

  sim.run([&](Ctx& ctx) {
    const Comm world = ctx.world();
    mon::Environment env;
    MPI_M_msid id = -1;
    ASSERT_EQ(MPI_M_start(world, &id), MPI_M_SUCCESS);
    ASSERT_EQ(MPI_M_snapshot_start(id, /*window_s=*/1e-3, /*max_frames=*/128,
                                   MPI_M_ALL_COMM),
              MPI_M_SUCCESS);

    exchange_ring(world, 1000, 3);  // burst 1
    mpi::compute(0.01);             // ten silent windows
    exchange_ring(world, 2000, 2);  // burst 2
    mpi::compute(2e-3);  // step past the last window so suspend closes it
    ASSERT_EQ(MPI_M_suspend(id), MPI_M_SUCCESS);

    int nf = 0, dropped = 0, boundaries = 0;
    ASSERT_EQ(MPI_M_snapshot_info(id, &nf, &dropped, &boundaries),
              MPI_M_SUCCESS);
    EXPECT_GT(nf, 1);
    EXPECT_EQ(dropped, 0);
    EXPECT_GE(boundaries, 2);  // burst -> silence and silence -> burst

    const int K = 128;
    const std::size_t n = static_cast<std::size_t>(nranks);
    int W = 0;
    std::vector<double> t0(K), t1(K);
    std::vector<unsigned long> counts(K * n * n), bytes(K * n * n);
    ASSERT_EQ(MPI_M_get_frames(id, K, &W, t0.data(), t1.data(), counts.data(),
                               bytes.data(), MPI_M_ALL_COMM),
              MPI_M_SUCCESS);
    ASSERT_GT(W, 0);
    ASSERT_LE(W, K);

    // The windows sit on the global grid, in ascending order.
    for (int w = 0; w < W; ++w) {
      EXPECT_NEAR(t1[w] - t0[w], 1e-3, 1e-12);
      if (w > 0) {
        EXPECT_GT(t0[w], t0[w - 1]);
      }
    }

    // Summing every per-window delta matrix reproduces the session totals.
    std::vector<unsigned long> summed(n * n, 0ul);
    for (int w = 0; w < W; ++w)
      for (std::size_t i = 0; i < n * n; ++i)
        summed[i] += bytes[static_cast<std::size_t>(w) * n * n + i];
    std::vector<unsigned long> total(n * n);
    ASSERT_EQ(MPI_M_allgather_data(id, MPI_M_DATA_IGNORE, total.data(),
                                   MPI_M_ALL_COMM),
              MPI_M_SUCCESS);
    EXPECT_EQ(summed, total);
    const std::size_t me = static_cast<std::size_t>(ctx.world_rank());
    const std::size_t next = (me + 1) % n;
    EXPECT_EQ(total[me * n + next], 3 * 1000ul + 2 * 2000ul);

    // The derived-metric pvars are readable through MPI_T, by name.
    mpit::Runtime& rt = mpit::Runtime::of(ctx.engine());
    const int idx = mpit::pvar_index_by_name("mpim_introspect_frames_total");
    ASSERT_GE(idx, 25);  // appended after the PR 2 telemetry pvars
    const int sid = rt.session_create();
    const int h = rt.handle_alloc(sid, idx, world);
    rt.handle_start(sid, h);
    unsigned long frames_total = 0;
    ASSERT_EQ(rt.handle_read(sid, h, &frames_total, 1), 1);
    EXPECT_EQ(frames_total, static_cast<unsigned long>(nf));
    rt.handle_stop(sid, h);
    rt.session_free(sid);

    ASSERT_EQ(MPI_M_snapshot_stop(id), MPI_M_SUCCESS);
    ASSERT_EQ(MPI_M_free(id), MPI_M_SUCCESS);
  });

  // Host side: the counters and gauges the run left in the registry.
  const auto& reg = hub.registry();
  EXPECT_EQ(reg.counter_total(Metric::introspect_starts),
            static_cast<std::uint64_t>(nranks));
  EXPECT_GT(reg.counter_total(Metric::introspect_frames), 0u);
  EXPECT_GE(reg.counter_total(Metric::introspect_boundaries),
            2u * static_cast<std::uint64_t>(nranks));
  EXPECT_EQ(reg.counter_total(Metric::introspect_frames_dropped), 0u);
  // get_frames refreshed the derived gauges; a symmetric ring is balanced.
  EXPECT_EQ(reg.gauge_value(Metric::introspect_imbalance_milli, 0), 1000);
  EXPECT_GE(reg.gauge_value(Metric::introspect_mismatch_hops, 0), 0);
  // Phase spans were emitted for every detected boundary.
  bool phase_span = false;
  for (const telemetry::SpanRec& s : hub.spans(0))
    if (std::string(s.name) == "introspect.phase") phase_span = true;
  EXPECT_TRUE(phase_span);
}

TEST(Snapshot, ErrorCodeDiscipline) {
  Sim sim = make_sim(2);
  sim.run([](Ctx& ctx) {
    const Comm world = ctx.world();
    mon::Environment env;
    MPI_M_msid id = -1;
    ASSERT_EQ(MPI_M_start(world, &id), MPI_M_SUCCESS);

    // No sampler yet.
    EXPECT_EQ(MPI_M_snapshot_stop(id), MPI_M_NO_SNAPSHOT);

    // Argument validation before any state changes.
    EXPECT_EQ(MPI_M_snapshot_start(id, 1e-3, 8, 0), MPI_M_INVALID_FLAGS);
    EXPECT_EQ(MPI_M_snapshot_start(id, 1e-3, 8, ~MPI_M_ALL_COMM),
              MPI_M_INVALID_FLAGS);
    EXPECT_EQ(MPI_M_snapshot_start(id, 0.0, 8, MPI_M_ALL_COMM),
              MPI_M_INTERNAL_FAIL);
    EXPECT_EQ(MPI_M_snapshot_start(id, 1e-3, 0, MPI_M_ALL_COMM),
              MPI_M_INTERNAL_FAIL);

    ASSERT_EQ(MPI_M_snapshot_start(id, 1e-3, 8, MPI_M_ALL_COMM),
              MPI_M_SUCCESS);
    EXPECT_EQ(MPI_M_snapshot_start(id, 1e-3, 8, MPI_M_ALL_COMM),
              MPI_M_MULTIPLE_CALL);

    // Data access needs the suspended state, like every other reader.
    int nf = 0;
    EXPECT_EQ(MPI_M_snapshot_info(id, &nf, MPI_M_INT_IGNORE,
                                  MPI_M_INT_IGNORE),
              MPI_M_SESSION_NOT_SUSPENDED);
    EXPECT_EQ(MPI_M_get_frames(id, 8, &nf, nullptr, nullptr,
                               MPI_M_DATA_IGNORE, MPI_M_DATA_IGNORE,
                               MPI_M_ALL_COMM),
              MPI_M_SESSION_NOT_SUSPENDED);

    exchange_ring(world, 100);
    ASSERT_EQ(MPI_M_suspend(id), MPI_M_SUCCESS);
    EXPECT_EQ(MPI_M_snapshot_info(id, &nf, MPI_M_INT_IGNORE,
                                  MPI_M_INT_IGNORE),
              MPI_M_SUCCESS);
    EXPECT_EQ(MPI_M_get_frames(id, 8, &nf, nullptr, nullptr,
                               MPI_M_DATA_IGNORE, MPI_M_DATA_IGNORE, 0),
              MPI_M_INVALID_FLAGS);
    EXPECT_EQ(MPI_M_get_frames(id, 0, &nf, nullptr, nullptr,
                               MPI_M_DATA_IGNORE, MPI_M_DATA_IGNORE,
                               MPI_M_ALL_COMM),
              MPI_M_INTERNAL_FAIL);

    // Stop is allowed while suspended; restart discards the old frames.
    ASSERT_EQ(MPI_M_snapshot_stop(id), MPI_M_SUCCESS);
    EXPECT_EQ(MPI_M_snapshot_stop(id), MPI_M_NO_SNAPSHOT);
    ASSERT_EQ(MPI_M_continue(id), MPI_M_SUCCESS);
    ASSERT_EQ(MPI_M_snapshot_start(id, 1e-3, 8, MPI_M_ALL_COMM),
              MPI_M_SUCCESS);
    ASSERT_EQ(MPI_M_suspend(id), MPI_M_SUCCESS);
    ASSERT_EQ(MPI_M_snapshot_info(id, &nf, MPI_M_INT_IGNORE,
                                  MPI_M_INT_IGNORE),
              MPI_M_SUCCESS);
    EXPECT_EQ(nf, 0);  // the restart started from an empty ring

    // Sessions without a snapshot keep rejecting the data calls.
    MPI_M_msid plain = -1;
    ASSERT_EQ(MPI_M_start(world, &plain), MPI_M_SUCCESS);
    ASSERT_EQ(MPI_M_suspend(plain), MPI_M_SUCCESS);
    EXPECT_EQ(MPI_M_snapshot_info(plain, &nf, MPI_M_INT_IGNORE,
                                  MPI_M_INT_IGNORE),
              MPI_M_NO_SNAPSHOT);
    EXPECT_EQ(MPI_M_get_frames(plain, 8, &nf, nullptr, nullptr,
                               MPI_M_DATA_IGNORE, MPI_M_DATA_IGNORE,
                               MPI_M_ALL_COMM),
              MPI_M_NO_SNAPSHOT);
    EXPECT_EQ(MPI_M_snapshot_start(-5, 1e-3, 8, MPI_M_ALL_COMM),
              MPI_M_INVALID_MSID);

    ASSERT_EQ(MPI_M_free(plain), MPI_M_SUCCESS);
    ASSERT_EQ(MPI_M_free(id), MPI_M_SUCCESS);
  });
}

TEST(Snapshot, ResetClearsFramesWithTheSessionData) {
  Sim sim = make_sim(2);
  sim.run([](Ctx& ctx) {
    mon::Environment env;
    MPI_M_msid id = -1;
    ASSERT_EQ(MPI_M_start(ctx.world(), &id), MPI_M_SUCCESS);
    ASSERT_EQ(MPI_M_snapshot_start(id, 1e-3, 16, MPI_M_ALL_COMM),
              MPI_M_SUCCESS);
    exchange_ring(ctx.world(), 500);
    mpi::compute(2e-3);
    ASSERT_EQ(MPI_M_suspend(id), MPI_M_SUCCESS);
    int nf = 0;
    ASSERT_EQ(MPI_M_snapshot_info(id, &nf, MPI_M_INT_IGNORE,
                                  MPI_M_INT_IGNORE),
              MPI_M_SUCCESS);
    EXPECT_GT(nf, 0);
    ASSERT_EQ(MPI_M_reset(id), MPI_M_SUCCESS);
    ASSERT_EQ(MPI_M_snapshot_info(id, &nf, MPI_M_INT_IGNORE,
                                  MPI_M_INT_IGNORE),
              MPI_M_SUCCESS);
    EXPECT_EQ(nf, 0);
    ASSERT_EQ(MPI_M_free(id), MPI_M_SUCCESS);
  });
}

// Determinism: an attached (even recording) sampler must not charge a
// single tick of virtual time -- clocks bit-identical with snapshots on
// and off is the guarantee the whole subsystem rests on.
TEST(Snapshot, SamplerOnOrOffKeepsVirtualClocksBitIdentical) {
  auto run_once = [](bool snapshot_on) {
    Sim sim = make_sim(4);
    sim.engine().telemetry().set_enabled(snapshot_on);
    double t_final = 0.0;
    sim.run([&](Ctx& ctx) {
      const Comm world = ctx.world();
      mon::Environment env;
      MPI_M_msid id = -1;
      ASSERT_EQ(MPI_M_start(world, &id), MPI_M_SUCCESS);
      if (snapshot_on) {
        ASSERT_EQ(MPI_M_snapshot_start(id, 1e-4, 64, MPI_M_ALL_COMM),
                  MPI_M_SUCCESS);
      }
      exchange_ring(world, 4096, 5);
      mpi::compute(2e-3);
      exchange_ring(world, 1024, 5);
      ASSERT_EQ(MPI_M_suspend(id), MPI_M_SUCCESS);
      ASSERT_EQ(MPI_M_free(id), MPI_M_SUCCESS);
      if (ctx.world_rank() == 0) t_final = ctx.now();
    });
    return t_final;
  };
  const double off = run_once(false);
  const double on = run_once(true);
  EXPECT_GT(off, 0.0);
  EXPECT_EQ(off, on);  // bit-identical, not just close
}

TEST(Snapshot, FaultyGatherReturnsPartialFramesWithSentinelRows) {
  auto plan = std::make_shared<fault::FaultPlan>(1);
  fault::RankFault crash;
  crash.rank = 3;
  crash.crash_at_s = 0.0;
  plan->add(crash);
  topo::Topology t({2, 1, 2}, {"node", "socket", "core"});
  std::vector<net::LinkParams> params = {
      {1e-5, 1e8}, {1e-6, 1e9}, {1e-7, 1e10}, {0.0, 1e12}};
  net::CostModel cost(t, params, 1e-7);
  mpi::EngineConfig cfg{.cost_model = cost,
                        .placement = topo::round_robin_placement(4, t)};
  cfg.watchdog_wall_timeout_s = 5.0;
  cfg.fault_plan = plan;
  Sim sim(std::move(cfg));

  sim.run([](Ctx& ctx) {
    if (ctx.world_rank() == 3) {
      mpi::compute(0.0);
      return;
    }
    const Comm world = ctx.world();
    ASSERT_EQ(MPI_M_init(), MPI_M_SUCCESS);
    ASSERT_EQ(MPI_M_set_gather_timeout(0.2), MPI_M_SUCCESS);
    MPI_M_msid id = -1;
    ASSERT_EQ(MPI_M_start(world, &id), MPI_M_SUCCESS);
    ASSERT_EQ(MPI_M_snapshot_start(id, 1e-3, 16, MPI_M_ALL_COMM),
              MPI_M_SUCCESS);
    // Ring among the three alive ranks only.
    const int r = ctx.world_rank();
    std::vector<std::byte> buf(1000);
    mpi::send(buf.data(), buf.size(), Type::Byte, (r + 1) % 3, 0, world);
    mpi::recv(buf.data(), buf.size(), Type::Byte, (r + 2) % 3, 0, world);
    mpi::compute(2e-3);  // close the traffic window before suspend
    ASSERT_EQ(MPI_M_suspend(id), MPI_M_SUCCESS);

    const int K = 16;
    const std::size_t n = 4;
    int W = 0;
    std::vector<unsigned long> bytes(K * n * n);
    EXPECT_EQ(MPI_M_get_frames(id, K, &W, nullptr, nullptr,
                               MPI_M_DATA_IGNORE, bytes.data(),
                               MPI_M_ALL_COMM),
              MPI_M_PARTIAL_DATA);
    ASSERT_GT(W, 0);
    for (int w = 0; w < W; ++w)
      for (std::size_t j = 0; j < n; ++j)
        EXPECT_EQ(bytes[static_cast<std::size_t>(w) * n * n + 3 * n + j],
                  MPI_M_DATA_MISSING);
    // Alive rows stay genuine measurements.
    EXPECT_EQ(bytes[1], 1000ul);  // window 0: rank 0 -> rank 1
    ASSERT_EQ(MPI_M_free(id), MPI_M_SUCCESS);
    ASSERT_EQ(MPI_M_finalize(), MPI_M_SUCCESS);
  });
}

// --- reorder hook -------------------------------------------------------------

TEST(ReorderOnPhase, FiresOnlyWhenTheDetectorFlagsANewBoundary) {
  Sim sim = make_sim(4);
  sim.run([](Ctx& ctx) {
    const Comm world = ctx.world();
    mon::Environment env;
    MPI_M_msid id = -1;
    ASSERT_EQ(MPI_M_start(world, &id), MPI_M_SUCCESS);
    ASSERT_EQ(MPI_M_snapshot_start(id, 1e-3, 256, MPI_M_ALL_COMM),
              MPI_M_SUCCESS);
    int seen = 0;

    // Steady traffic: no boundary, the hook must stay cheap and identity.
    exchange_ring(world, 1000, 2);
    bool fired = true;
    reorder::ReorderResult r1 =
        reorder::reorder_on_phase(id, world, &seen, &fired);
    EXPECT_FALSE(fired);
    EXPECT_EQ(r1.k, reorder::identity_k(4));

    // A lull and resumed traffic: boundaries appear, the hook reorders.
    mpi::compute(0.01);
    exchange_ring(world, 1000, 2);
    reorder::ReorderResult r2 =
        reorder::reorder_on_phase(id, world, &seen, &fired);
    EXPECT_TRUE(fired);
    EXPECT_GT(seen, 0);
    EXPECT_FALSE(r2.opt_comm.is_null());

    // Nothing new since: the next hook is a no-op again.
    reorder::reorder_on_phase(id, world, &seen, &fired);
    EXPECT_FALSE(fired);

    // The hook left the session active (it resumes what it suspended).
    ASSERT_EQ(MPI_M_suspend(id), MPI_M_SUCCESS);
    ASSERT_EQ(MPI_M_free(id), MPI_M_SUCCESS);
  });
}

}  // namespace
}  // namespace mpim
