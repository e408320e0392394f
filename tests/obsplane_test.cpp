// Streaming aggregation plane: mergeable sketches, the lock-free ingest
// layer and its drop accounting, epoch-aligned JSONL export (including the
// crash-teardown ordering that keeps flushed epochs on disk), clock
// bit-identity with the plane on/off, the governor's widen rung, the
// environment attach path, the pvar-table doc drift check, and the
// monview --live tailer over canned (torn/malformed) stream files.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "fault/fault_plan.h"
#include "minimpi/api.h"
#include "minimpi/engine.h"
#include "mpimon/governor.h"
#include "mpit/pvar.h"
#include "obsplane/plane.h"
#include "obsplane/sketch.h"
#include "telemetry/hub.h"
#include "tools/liveview.h"

namespace mpim::obsplane {
namespace {

namespace fs = std::filesystem;
using mpi::Comm;
using mpi::Ctx;
using mpi::Type;
using telemetry::Metric;

std::string temp_path(const std::string& name) {
  return (fs::temp_directory_path() / name).string();
}

std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream f(path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(f, line)) lines.push_back(line);
  return lines;
}

std::size_t count_type(const std::vector<std::string>& lines,
                       const std::string& type) {
  std::size_t n = 0;
  for (const auto& l : lines)
    if (l.find("\"type\":\"" + type + "\"") != std::string::npos) ++n;
  return n;
}

mpi::EngineConfig small_cfg(int nranks,
                            std::shared_ptr<fault::FaultPlan> plan = nullptr) {
  topo::Topology t({2, 1, 4}, {"node", "socket", "core"});
  std::vector<net::LinkParams> params = {
      {1e-5, 1e8}, {1e-6, 1e9}, {1e-7, 1e10}, {0.0, 1e12}};
  net::CostModel cost(t, params, /*send_overhead=*/1e-7);
  mpi::EngineConfig cfg{.cost_model = cost,
                       .placement = topo::round_robin_placement(nranks, t)};
  cfg.watchdog_wall_timeout_s = 5.0;
  cfg.fault_plan = std::move(plan);
  return cfg;
}

/// A few epochs of mixed traffic: ring p2p, compute, one allreduce.
void ring_workload(Ctx& ctx) {
  const Comm world = ctx.world();
  const int n = mpi::comm_size(world);
  const int me = mpi::comm_rank(world);
  for (int iter = 0; iter < 6; ++iter) {
    mpi::compute(3e-4);
    // Sizes vary per iteration (uniform across ranks so the ring's recv
    // buffers always fit) to give the sketches a spread of deltas.
    std::vector<char> buf(512 * static_cast<std::size_t>(iter + 1), 7);
    const int dst = (me + 1) % n;
    const int src = (me + n - 1) % n;
    mpi::sendrecv(buf.data(), buf.size(), Type::Char, dst, 0, buf.data(),
                  buf.size(), src, 0, world);
  }
  long v = me, sum = 0;
  mpi::allreduce(&v, &sum, 1, Type::Long, mpi::Op::Sum, world);
}

// --- sketches ----------------------------------------------------------------

TEST(ObsplaneSketch, Log2HistObservesMergesAndBounds) {
  Log2Hist a, b;
  a.observe(0);
  a.observe(1);
  a.observe(5);
  b.observe(1024);
  b.observe(1 << 20);
  EXPECT_EQ(a.count(), 3u);
  a.merge(b);
  EXPECT_EQ(a.count(), 5u);
  EXPECT_EQ(a.sum(), 0ull + 1 + 5 + 1024 + (1 << 20));
  // The p50 bound covers at least half the mass; p100 covers the max.
  EXPECT_GE(a.percentile_bound(1.0), static_cast<std::uint64_t>(1 << 20));
  EXPECT_LE(a.percentile_bound(0.0), a.percentile_bound(0.99));
}

TEST(ObsplaneSketch, MergingAnEmptyQuantileSketchIsANoOpEitherWay) {
  QuantileSketch filled, empty;
  for (std::uint64_t v = 1; v <= 100; ++v) filled.observe(v);
  const std::uint64_t med_before = filled.quantile(0.5);

  filled.merge(empty);  // empty into filled: nothing changes
  EXPECT_EQ(filled.count(), 100u);
  EXPECT_EQ(filled.quantile(0.5), med_before);

  empty.merge(QuantileSketch{});  // empty into empty: still empty
  EXPECT_EQ(empty.count(), 0u);
  EXPECT_EQ(empty.stored(), 0u);
  EXPECT_EQ(empty.quantile(0.5), 0u);  // the documented empty answer

  empty.merge(filled);  // filled into empty adopts the distribution
  EXPECT_EQ(empty.count(), 100u);
  EXPECT_EQ(empty.quantile(1.0), filled.quantile(1.0));
}

TEST(ObsplaneSketch, SingleCentroidAnswersEveryQuantileWithItsValue) {
  QuantileSketch s;
  s.observe(42);
  EXPECT_EQ(s.stored(), 1u);
  for (const double q : {0.0, 0.25, 0.5, 0.99, 1.0})
    EXPECT_EQ(s.quantile(q), 42u) << "q=" << q;
  // Out-of-range q clamps instead of reading past the centroid list.
  EXPECT_EQ(s.quantile(-1.0), 42u);
  EXPECT_EQ(s.quantile(2.0), 42u);
}

TEST(ObsplaneSketch, Log2HistMergeSaturatesInsteadOfWrapping) {
  constexpr std::uint64_t kMax = ~0ull;
  Log2Hist a, b;
  a.observe(kMax);  // top bucket, sum_ == kMax
  b.observe(kMax);
  b.observe(3);
  a.merge(b);
  // A wrapping add would fold sum_ back near zero and invert the
  // percentile bounds; saturation pins count/sum/buckets at the ceiling.
  EXPECT_EQ(a.sum(), kMax);
  EXPECT_EQ(a.count(), 3u);
  EXPECT_EQ(a.bucket(Log2Hist::bucket_of(kMax)), 2u);
  EXPECT_EQ(a.percentile_bound(1.0), kMax);

  // Merging two saturated histograms stays saturated (idempotent ceiling).
  Log2Hist c = a;
  c.merge(a);
  EXPECT_EQ(c.sum(), kMax);
  EXPECT_GE(c.percentile_bound(1.0), c.percentile_bound(0.5));
}

TEST(ObsplaneSketch, QuantileSketchStaysBoundedAndMerges) {
  QuantileSketch s;
  for (std::uint64_t v = 1; v <= 10000; ++v) s.observe(v);
  EXPECT_EQ(s.count(), 10000u);
  EXPECT_LE(s.stored(), 64u);  // compaction keeps the footprint capped
  const std::uint64_t med = s.quantile(0.5);
  EXPECT_GT(med, 2500u);
  EXPECT_LT(med, 7500u);
  QuantileSketch hi;
  for (std::uint64_t v = 100000; v < 100100; ++v) hi.observe(v);
  s.merge(hi);
  EXPECT_EQ(s.count(), 10100u);
  EXPECT_GE(s.quantile(1.0), 10000u);
}

// --- ingest + store ----------------------------------------------------------

TEST(ObsplanePlane, IngestsMetricsAndReconcilesDropAccounting) {
  const std::string path = temp_path("obsplane_ingest.jsonl");
  std::remove(path.c_str());
  mpi::Engine eng(small_cfg(4));
  PlaneConfig cfg;
  cfg.epoch_s = 2e-4;
  cfg.stream_path = path;
  auto plane = Plane::attach(eng, cfg);
  ASSERT_NE(plane, nullptr);
  EXPECT_EQ(Plane::attached(eng), plane.get());
  eng.run(ring_workload);

  EXPECT_TRUE(plane->finalized());
  EXPECT_GT(plane->events_ingested(), 0u);
  EXPECT_GT(plane->epochs_emitted(), 0u);
  // Sequence numbers account for every staging attempt exactly once.
  EXPECT_EQ(plane->events_attempted(),
            plane->events_ingested() + plane->events_dropped());
  EXPECT_GT(plane->series_count(), 0u);
  EXPECT_GT(plane->store_bytes(), 0u);

  // Per-series store: engine_bytes deltas for rank 0 sum to the registry
  // cumulative value, and the sketch sees the same mass.
  const auto buckets = plane->series_buckets(0, "engine_bytes");
  ASSERT_FALSE(buckets.empty());
  std::uint64_t sum = 0;
  for (const auto& [e, d] : buckets) sum += d;
  const auto& hub = eng.telemetry();
  EXPECT_EQ(sum, hub.registry().counter_value(Metric::engine_bytes, 0));
  EXPECT_GT(plane->series_quantile(0, "engine_bytes", 1.0), 0u);

  const auto lines = read_lines(path);
  EXPECT_EQ(count_type(lines, "run_start"), 1u);
  EXPECT_GT(count_type(lines, "epoch"), 0u);
  EXPECT_GT(count_type(lines, "metric"), 0u);
  EXPECT_EQ(count_type(lines, "epoch_end"), count_type(lines, "epoch"));
  EXPECT_EQ(count_type(lines, "run_end"), 1u);
  std::remove(path.c_str());
}

TEST(ObsplanePlane, TinyRingsDropNewestButAccountingStillReconciles) {
  mpi::Engine eng(small_cfg(4));
  PlaneConfig cfg;
  cfg.epoch_s = 1e-4;   // many flushes...
  cfg.ring_capacity = 2;  // ...into almost no staging room
  auto plane = Plane::attach(eng, cfg);
  ASSERT_NE(plane, nullptr);
  eng.run(ring_workload);
  EXPECT_GT(plane->events_dropped(), 0u);
  EXPECT_EQ(plane->events_attempted(),
            plane->events_ingested() + plane->events_dropped());
}

TEST(ObsplanePlane, SmallRingsWrapManyTimesWithoutDropsAndReconcile) {
  // Fibers drain every ring after each epoch flush, and one flush stages
  // at most one event per metric slot, so a ring of kAllSlots events never
  // overflows: every slot is reused many times and nothing is lost.
  auto ecfg = small_cfg(4);
  ecfg.sched = mpi::SchedMode::fibers;
  mpi::Engine eng(ecfg);
  PlaneConfig cfg;
  cfg.epoch_s = 1e-4;
  cfg.ring_capacity = kAllSlots;
  auto plane = Plane::attach(eng, cfg);
  ASSERT_NE(plane, nullptr);
  eng.run([](Ctx& ctx) {
    for (int rep = 0; rep < 32; ++rep) ring_workload(ctx);
  });

  EXPECT_EQ(plane->events_dropped(), 0u);
  EXPECT_EQ(plane->events_attempted(), plane->events_ingested());
  EXPECT_GT(plane->events_ingested(), 10u * 4u * cfg.ring_capacity);  // 10 laps
  // Every rank's series totals equal the registry: no slot was torn or
  // read twice across the wraps.
  const auto& hub = eng.telemetry();
  for (int r = 0; r < 4; ++r)
    for (const auto& [metric, id] :
         {std::pair{"engine_bytes", Metric::engine_bytes},
          std::pair{"engine_messages", Metric::engine_messages}}) {
      std::uint64_t sum = 0;
      for (const auto& [e, d] : plane->series_buckets(r, metric)) sum += d;
      EXPECT_EQ(sum, hub.registry().counter_value(id, r))
          << "rank " << r << " " << metric;
    }
}

TEST(ObsplanePlane, StoreBytesKeepTheirGoldenValues) {
  // The memory gauge is kept as running totals; these goldens are what a
  // full walk of every series and pending epoch gives at the same points.
  // Fibers make the drain points deterministic, and the JSONL stream keeps
  // events pending until their epoch is emitted, so the mid-run samples
  // count pending events as well as series.
  const std::string path = temp_path("obsplane_store_bytes.jsonl");
  std::remove(path.c_str());
  auto ecfg = small_cfg(8);
  ecfg.sched = mpi::SchedMode::fibers;
  mpi::Engine eng(ecfg);
  PlaneConfig cfg;
  cfg.epoch_s = 1e-4;
  cfg.stream_path = path;
  auto plane = Plane::attach(eng, cfg);
  ASSERT_NE(plane, nullptr);
  std::vector<std::uint64_t> samples;
  const auto workload = [&](Ctx& ctx) {
    for (int rep = 0; rep < 3; ++rep) {
      ring_workload(ctx);
      if (ctx.world_rank() == 0) samples.push_back(plane->store_bytes());
    }
  };
  eng.run(workload);
  EXPECT_EQ(samples,
            (std::vector<std::uint64_t>{2638208, 2641952, 2644704}));
  EXPECT_EQ(plane->store_bytes(), 2644000u);
  plane->widen_windows();
  plane->try_drain();  // publishes the gauge for the widened store
  EXPECT_EQ(plane->store_bytes(), 2643552u);

  // A rerun clears the store and the pending epochs, then rebuilds the
  // series at the widened merge factor.
  samples.clear();
  eng.run(workload);
  EXPECT_EQ(samples,
            (std::vector<std::uint64_t>{2638208, 2641824, 2644352}));
  EXPECT_EQ(plane->store_bytes(), 2643552u);
  const auto& hub = eng.telemetry();
  EXPECT_EQ(hub.registry().gauge_value(Metric::obsplane_mem_bytes, 0),
            static_cast<std::int64_t>(plane->store_bytes()));
  std::remove(path.c_str());
}

TEST(ObsplanePlane, ClocksBitIdenticalWithAndWithoutPlane) {
  mpi::Engine bare(small_cfg(4));
  bare.run(ring_workload);
  const std::vector<double> base = bare.final_clocks();

  const std::string path = temp_path("obsplane_clock.jsonl");
  std::remove(path.c_str());
  mpi::Engine monitored(small_cfg(4));
  PlaneConfig cfg;
  cfg.epoch_s = 1e-4;
  cfg.stream_path = path;
  auto plane = Plane::attach(monitored, cfg);
  ASSERT_NE(plane, nullptr);
  monitored.run(ring_workload);
  ASSERT_GT(plane->epochs_emitted(), 0u);  // the plane actually observed

  const std::vector<double> observed = monitored.final_clocks();
  ASSERT_EQ(base.size(), observed.size());
  for (std::size_t r = 0; r < base.size(); ++r)
    EXPECT_EQ(base[r], observed[r]) << "rank " << r;  // bit-identical
  std::remove(path.c_str());
}

TEST(ObsplanePlane, SamePlaneObservesARerunAfterFinalize) {
  const std::string path = temp_path("obsplane_rerun.jsonl");
  std::remove(path.c_str());
  mpi::Engine eng(small_cfg(4));
  PlaneConfig cfg;
  cfg.epoch_s = 2e-4;
  cfg.stream_path = path;
  auto plane = Plane::attach(eng, cfg);
  ASSERT_NE(plane, nullptr);
  eng.run(ring_workload);
  EXPECT_TRUE(plane->finalized());
  eng.run(ring_workload);  // run-begin hook re-arms the plane
  EXPECT_TRUE(plane->finalized());
  const auto lines = read_lines(path);
  EXPECT_EQ(count_type(lines, "run_start"), 2u);
  EXPECT_EQ(count_type(lines, "run_end"), 2u);
  std::remove(path.c_str());
}

// --- satellite: crash teardown keeps flushed epochs on disk ------------------

TEST(ObsplaneStream, CrashedRankEpochsSurviveInStreamFile) {
  const std::string path = temp_path("obsplane_crash.jsonl");
  std::remove(path.c_str());
  auto plan = std::make_shared<fault::FaultPlan>(1);
  fault::RankFault crash;
  crash.rank = 2;
  crash.crash_at_s = 8e-4;
  plan->add(crash);

  mpi::Engine eng(small_cfg(4, plan));
  PlaneConfig cfg;
  cfg.epoch_s = 2e-4;
  cfg.stream_path = path;
  auto plane = Plane::attach(eng, cfg);
  ASSERT_NE(plane, nullptr);
  eng.run([](Ctx& ctx) {
    const Comm world = ctx.world();
    const int me = mpi::comm_rank(world);
    mpi::compute(2e-3);  // rank 2 dies mid-compute; survivors keep going
    if (me == 0) {
      char c = 1;
      mpi::send(&c, 1, Type::Char, 1, 0, world);
    } else if (me == 1) {
      char c = 0;
      mpi::recv(&c, 1, Type::Char, 0, 0, world);
    }
  });

  EXPECT_EQ(eng.dead_ranks(), std::vector<int>{2});
  EXPECT_TRUE(plane->finalized());  // run-end hook ran despite the crash
  const auto lines = read_lines(path);
  EXPECT_EQ(count_type(lines, "run_start"), 1u);
  EXPECT_GT(count_type(lines, "epoch"), 0u);
  EXPECT_EQ(count_type(lines, "run_end"), 1u);
  // The crash itself lands on the event lane.
  bool saw_crash = false;
  for (const auto& l : lines)
    if (l.find("\"what\":\"crash\"") != std::string::npos) saw_crash = true;
  EXPECT_TRUE(saw_crash);
  std::remove(path.c_str());
}

// --- governor rung -----------------------------------------------------------

TEST(ObsplaneGovernor, WidenRungDoublesMergeAndRekeysBuckets) {
  mpi::Engine eng(small_cfg(4));
  PlaneConfig cfg;
  cfg.epoch_s = 1e-4;
  auto plane = Plane::attach(eng, cfg);
  ASSERT_NE(plane, nullptr);
  eng.run(ring_workload);
  EXPECT_EQ(plane->window_merge(), 1);
  const auto before = plane->series_buckets(0, "engine_bytes");
  ASSERT_GT(before.size(), 1u);
  std::uint64_t mass = 0;
  for (const auto& [e, d] : before) mass += d;

  plane->widen_windows();
  EXPECT_EQ(plane->window_merge(), 2);
  const auto after = plane->series_buckets(0, "engine_bytes");
  EXPECT_LT(after.size(), before.size() + 1);  // coarser or equal, never more
  std::uint64_t mass2 = 0;
  for (std::size_t i = 0; i < after.size(); ++i) {
    mass2 += after[i].second;
    if (i > 0) {
      EXPECT_LT(after[i - 1].first, after[i].first);
    }
  }
  EXPECT_EQ(mass, mass2);  // widening never loses counted mass
}

TEST(ObsplaneGovernor, MemoryPressureClimbsThroughTheWidenRung) {
  ::setenv("MPIM_MEM_BUDGET_BYTES", "1", 1);
  mpi::Engine eng(small_cfg(4));
  PlaneConfig cfg;
  cfg.epoch_s = 1e-3;
  auto plane = Plane::attach(eng, cfg);
  ASSERT_NE(plane, nullptr);
  auto& gov = mon::Governor::of(eng);
  ::unsetenv("MPIM_MEM_BUDGET_BYTES");
  // A 1-byte budget walks the whole ladder at construction; rung 3 is the
  // plane's widen step, rung 4 the span drop.
  EXPECT_EQ(gov.shed_level(), 4);
  EXPECT_GE(gov.shed_steps(), 4u);
  EXPECT_EQ(plane->window_merge(), 2);
  EXPECT_TRUE(eng.telemetry().spans_suppressed());
}

// --- environment attach ------------------------------------------------------

TEST(ObsplaneEnv, AttachFromEnvNeedsStreamFileAndParsesStrictly) {
  ::unsetenv("MPIM_STREAM_FILE");
  mpi::Engine eng(small_cfg(2));
  EXPECT_EQ(Plane::attach_from_env(eng), nullptr);

  const std::string path = temp_path("obsplane_env.jsonl");
  std::remove(path.c_str());
  ::setenv("MPIM_STREAM_FILE", path.c_str(), 1);
  ::setenv("MPIM_STREAM_EPOCH_S", "2 laps", 1);  // garbage: default survives
  auto plane = Plane::attach_from_env(eng);
  ASSERT_NE(plane, nullptr);
  EXPECT_DOUBLE_EQ(plane->epoch_s(), PlaneConfig{}.epoch_s);
  EXPECT_EQ(Plane::attach_from_env(eng), nullptr);  // already attached

  mpi::Engine other(small_cfg(2));
  ::setenv("MPIM_STREAM_EPOCH_S", "5e-4", 1);
  auto plane2 = Plane::attach_from_env(other);
  ASSERT_NE(plane2, nullptr);
  EXPECT_DOUBLE_EQ(plane2->epoch_s(), 5e-4);
  ::unsetenv("MPIM_STREAM_FILE");
  ::unsetenv("MPIM_STREAM_EPOCH_S");
  std::remove(path.c_str());
}

// --- prometheus exposition ---------------------------------------------------

TEST(ObsplanePlane, PrometheusSnapshotExposesSeriesAndSelfMetrics) {
  mpi::Engine eng(small_cfg(4));
  PlaneConfig cfg;
  cfg.epoch_s = 2e-4;
  auto plane = Plane::attach(eng, cfg);
  ASSERT_NE(plane, nullptr);
  eng.run(ring_workload);
  std::ostringstream os;
  plane->write_prometheus(os);
  const std::string text = os.str();
  EXPECT_NE(text.find("mpim_stream_engine_bytes_total"), std::string::npos);
  EXPECT_NE(text.find("quantile=\"0.5\""), std::string::npos);
  EXPECT_NE(text.find("mpim_obsplane_events_total"), std::string::npos);
}

// Golden of the slot names as the stream and the exposition write them,
// captured before the slots were named from the telemetry catalog. One
// unit on every registry counter of rank 0, plus one collective span,
// gives every slot a series.
TEST(ObsplanePlane, SlotNamesInStreamAndPrometheusMatchTheGolden) {
  const std::vector<std::string> golden = {
      "engine_messages",  "engine_bytes",        "fault_retransmits",
      "fault_drops",      "fault_lost",          "fault_backoff_ns",
      "fault_crashes",    "mon_gather_timeouts", "mon_dead_skips",
      "mon_rebinds",      "reorder_applied",     "reorder_identity",
      "introspect_boundaries", "critpath_events", "critpath_wait_ns",
      "collectives"};
  ASSERT_EQ(golden.size(), static_cast<std::size_t>(kAllSlots));
  const std::string path = temp_path("obsplane_slot_names.jsonl");
  std::remove(path.c_str());
  mpi::Engine eng(small_cfg(2));
  PlaneConfig cfg;
  cfg.stream_path = path;
  auto plane = Plane::attach(eng, cfg);
  ASSERT_NE(plane, nullptr);
  auto& reg = eng.telemetry().registry();
  for (int id = 0; id < reg.metric_count(); ++id)
    if (reg.spec(id).kind == telemetry::MetricKind::counter) reg.add(id, 0, 1);
  telemetry::SpanRec coll;
  coll.cat = 'C';
  plane->on_span(0, coll);
  plane->on_epoch(1, 5e-4, /*final_flush=*/true);
  plane->on_epoch(0, 5e-4, /*final_flush=*/true);
  plane->finalize();

  std::vector<std::string> streamed;
  for (const std::string& line : read_lines(path)) {
    if (line.find("\"type\":\"metric\"") == std::string::npos) continue;
    const std::size_t k = line.find("\"name\":\"") + 8;
    streamed.push_back(line.substr(k, line.find('"', k) - k));
  }
  EXPECT_EQ(streamed, golden);
  for (int s = 0; s < kAllSlots; ++s)
    EXPECT_EQ(Plane::slot_name(s), golden[static_cast<std::size_t>(s)]);

  // Series and TYPE lines in order of appearance.
  std::vector<std::string> want_series, want_types;
  for (const std::string& g : golden) {
    want_types.push_back("mpim_stream_" + g + "_total counter");
    want_series.push_back("mpim_stream_" + g + "_total");
    want_series.push_back("mpim_stream_" + g + "_epoch_delta");
  }
  for (const std::string self :
       {"mpim_obsplane_events_total counter",
        "mpim_obsplane_drops_total counter",
        "mpim_obsplane_epochs_total counter",
        "mpim_obsplane_window_merge gauge"}) {
    want_types.push_back(self);
    want_series.push_back(self.substr(0, self.find(' ')));
  }
  std::ostringstream os;
  plane->write_prometheus(os);
  std::istringstream is(os.str());
  std::vector<std::string> series, types;
  std::string line;
  while (std::getline(is, line)) {
    if (line.rfind("# TYPE ", 0) == 0) {
      types.push_back(line.substr(7));
    } else if (line.rfind('#', 0) != 0) {
      const std::string name = line.substr(0, line.find('{'));
      if (series.empty() || series.back() != name) series.push_back(name);
    }
  }
  EXPECT_EQ(types, want_types);
  EXPECT_EQ(series, want_series);
  std::remove(path.c_str());
}

// --- satellite: pvar table docs cannot drift ---------------------------------

TEST(ObsplaneDocs, ObservabilityPvarTableMatchesTheFrozenIndex) {
  const std::string doc =
      std::string(MPIM_SOURCE_DIR) + "/docs/OBSERVABILITY.md";
  std::ifstream f(doc);
  ASSERT_TRUE(f.is_open()) << doc;
  // Collect "| <index> | `<name>` |" rows from the pvar index table.
  std::vector<std::pair<int, std::string>> rows;
  std::string line;
  while (std::getline(f, line)) {
    int idx = -1;
    char name[128] = {0};
    if (std::sscanf(line.c_str(), "| %d | `%127[^`]` |", &idx, name) == 2)
      rows.emplace_back(idx, name);
  }
  ASSERT_EQ(rows.size(), static_cast<std::size_t>(mpit::pvar_get_num()))
      << "docs/OBSERVABILITY.md pvar table is out of sync";
  for (const auto& [idx, name] : rows) {
    ASSERT_GE(idx, 0);
    ASSERT_LT(idx, mpit::pvar_get_num());
    EXPECT_EQ(name, mpit::pvar_info(idx).name) << "index " << idx;
  }
}

// --- satellite: monview --live over canned stream files ----------------------

TEST(ObsplaneLive, TailerToleratesTornLinesOutOfOrderEpochsAndMissingRanks) {
  const std::string path = temp_path("obsplane_live.jsonl");
  {
    std::ofstream f(path, std::ios::trunc);
    f << "{\"type\":\"run_start\",\"job\":\"j\",\"ranks\":4,"
         "\"epoch_s\":0.001,\"version\":1}\n";
    // Epoch 1 lands before epoch 0 (late producer): both must apply.
    f << "{\"type\":\"epoch\",\"e\":1,\"t0\":0.001,\"t1\":0.002}\n";
    f << "{\"type\":\"metric\",\"e\":1,\"rank\":0,\"name\":\"engine_bytes\","
         "\"delta\":100}\n";
    f << "{\"type\":\"epoch\",\"e\":0,\"t0\":0,\"t1\":0.001}\n";
    // Only ranks 0 and 2 ever report; 1 and 3 stay missing.
    f << "{\"type\":\"metric\",\"e\":0,\"rank\":2,\"name\":\"engine_bytes\","
         "\"delta\":50}\n";
    f << "this is not json\n";
    f << "{\"type\":\"link\",\"e\":1,\"node\":0,\"tx\":4096}\n";
    // Torn mid-record write: no trailing newline yet.
    f << "{\"type\":\"event\",\"e\":1,\"rank\":2,\"wh";
  }
  tools::StreamTail tail(path);
  EXPECT_EQ(tail.poll(), 6u);
  const auto& st = tail.state();
  EXPECT_EQ(st.ranks, 4);
  EXPECT_EQ(st.last_epoch, 0);  // latest header seen, even out of order
  EXPECT_EQ(st.max_epoch, 1);
  EXPECT_EQ(st.parse_errors, 1u);  // the garbage line, not the torn one
  EXPECT_EQ(st.rank_bytes.at(0), 100u);
  EXPECT_EQ(st.rank_bytes.at(2), 50u);
  EXPECT_EQ(st.rank_bytes.count(1), 0u);
  EXPECT_EQ(st.node_tx.at(0), 4096u);

  // The torn record completes on the next append; nothing was lost.
  {
    std::ofstream f(path, std::ios::app);
    f << "at\":\"crash\",\"t\":0.0015}\n";
    f << "{\"type\":\"run_end\",\"epochs\":2,\"events\":3,\"drops\":0,"
         "\"findings\":0}\n";
  }
  EXPECT_EQ(tail.poll(), 2u);
  EXPECT_TRUE(st.run_ended);
  EXPECT_EQ(st.run_end_epochs, 2u);
  ASSERT_EQ(st.event_lane.size(), 1u);
  EXPECT_NE(st.event_lane.back().find("crash"), std::string::npos);
  std::remove(path.c_str());
}

TEST(ObsplaneLive, NonFiniteAndOutOfRangeIntegersRejectTheLine) {
  // strtod accepts all three, and none fits a long long: converting one
  // would be undefined behaviour, so each line is a parse error, whole.
  for (const std::string v : {"nan", "inf", "1e300"}) {
    tools::LiveState st;
    EXPECT_FALSE(st.apply_line(
        "{\"type\":\"metric\",\"e\":0,\"rank\":0,"
        "\"name\":\"engine_bytes\",\"delta\":" + v + "}"));
    EXPECT_FALSE(
        st.apply_line("{\"type\":\"link\",\"e\":0,\"node\":" + v +
                      ",\"tx\":512}"));
    EXPECT_FALSE(st.apply_line("{\"type\":\"run_end\",\"epochs\":2,"
                               "\"drops\":" + v + "}"));
    EXPECT_FALSE(st.apply_line("{\"type\":\"epoch\",\"e\":" + v + "}"));
    EXPECT_EQ(st.parse_errors, 4u) << v;
    EXPECT_EQ(st.lines, 0u) << v;
    EXPECT_TRUE(st.metric_totals.empty()) << v;
    EXPECT_TRUE(st.node_tx.empty()) << v;
    EXPECT_FALSE(st.run_ended) << v;
    EXPECT_EQ(st.max_epoch, 0) << v;
  }
}

TEST(ObsplaneLive, RenderShowsTalkersLinksEventsAndFindings) {
  tools::LiveState st;
  st.apply_line(
      "{\"type\":\"run_start\",\"job\":\"demo\",\"ranks\":2,"
      "\"epoch_s\":0.001,\"version\":1}");
  st.apply_line(
      "{\"type\":\"metric\",\"e\":0,\"rank\":1,\"name\":\"engine_bytes\","
      "\"delta\":2048}");
  st.apply_line(
      "{\"type\":\"metric\",\"e\":0,\"rank\":0,\"name\":\"engine_bytes\","
      "\"delta\":1024}");
  st.apply_line("{\"type\":\"link\",\"e\":0,\"node\":0,\"tx\":512}");
  st.apply_line(
      "{\"type\":\"event\",\"e\":0,\"rank\":1,\"what\":\"rebind\","
      "\"t\":0.0005}");
  st.apply_line(
      "{\"type\":\"finding\",\"kind\":\"degraded_link\",\"subject\":\"link\","
      "\"e0\":0,\"e1\":3,\"text\":\"link 0-1 degraded\"}");
  std::ostringstream os;
  tools::render_live(st, os);
  const std::string out = os.str();
  EXPECT_NE(out.find("job demo"), std::string::npos);
  EXPECT_NE(out.find("top talkers"), std::string::npos);
  const auto r1 = out.find("r1 |");
  const auto r0 = out.find("r0 |");
  ASSERT_NE(r1, std::string::npos);
  ASSERT_NE(r0, std::string::npos);
  EXPECT_LT(r1, r0);  // sorted by bytes, heaviest first
  EXPECT_NE(out.find("node0"), std::string::npos);
  EXPECT_NE(out.find("rebind"), std::string::npos);
  EXPECT_NE(out.find("link 0-1 degraded"), std::string::npos);
}

}  // namespace
}  // namespace mpim::obsplane
