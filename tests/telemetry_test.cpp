#include <gtest/gtest.h>

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "fault/fault_plan.h"
#include "minimpi/api.h"
#include "mpimon/governor.h"
#include "mpimon/sim.h"
#include "mpit/pvar.h"
#include "mpit/runtime.h"
#include "support/error.h"
#include "telemetry/export.h"
#include "telemetry/hub.h"
#include "telemetry/log.h"
#include "telemetry/registry.h"
#include "telemetry/ring.h"

namespace mpim::telemetry {
namespace {

using mpi::Comm;
using mpi::Ctx;
using mpi::Type;

// --- minimal JSON validator -------------------------------------------------
// Recursive-descent syntax check (no DOM): enough to prove the Chrome trace
// exporter emits well-formed JSON that chrome://tracing would accept.

class JsonChecker {
 public:
  explicit JsonChecker(const std::string& s) : p_(s.data()), end_(p_ + s.size()) {}

  bool valid() {
    ws();
    if (!value()) return false;
    ws();
    return p_ == end_;
  }

 private:
  bool value() {
    if (p_ == end_) return false;
    switch (*p_) {
      case '{':
        return object();
      case '[':
        return array();
      case '"':
        return string();
      case 't':
        return literal("true");
      case 'f':
        return literal("false");
      case 'n':
        return literal("null");
      default:
        return number();
    }
  }

  bool object() {
    ++p_;  // '{'
    ws();
    if (p_ != end_ && *p_ == '}') return ++p_, true;
    while (true) {
      ws();
      if (p_ == end_ || *p_ != '"' || !string()) return false;
      ws();
      if (p_ == end_ || *p_ != ':') return false;
      ++p_;
      ws();
      if (!value()) return false;
      ws();
      if (p_ == end_) return false;
      if (*p_ == '}') return ++p_, true;
      if (*p_ != ',') return false;
      ++p_;
    }
  }

  bool array() {
    ++p_;  // '['
    ws();
    if (p_ != end_ && *p_ == ']') return ++p_, true;
    while (true) {
      ws();
      if (!value()) return false;
      ws();
      if (p_ == end_) return false;
      if (*p_ == ']') return ++p_, true;
      if (*p_ != ',') return false;
      ++p_;
    }
  }

  bool string() {
    ++p_;  // '"'
    while (p_ != end_ && *p_ != '"') {
      if (*p_ == '\\') {
        ++p_;
        if (p_ == end_) return false;
      }
      ++p_;
    }
    if (p_ == end_) return false;
    ++p_;
    return true;
  }

  bool number() {
    const char* start = p_;
    if (p_ != end_ && (*p_ == '-' || *p_ == '+')) ++p_;
    bool digits = false;
    while (p_ != end_ && (std::isdigit(static_cast<unsigned char>(*p_)) ||
                          *p_ == '.' || *p_ == 'e' || *p_ == 'E' ||
                          *p_ == '-' || *p_ == '+')) {
      if (std::isdigit(static_cast<unsigned char>(*p_))) digits = true;
      ++p_;
    }
    return digits && p_ != start;
  }

  bool literal(const char* lit) {
    const std::size_t n = std::strlen(lit);
    if (static_cast<std::size_t>(end_ - p_) < n || std::strncmp(p_, lit, n) != 0)
      return false;
    p_ += n;
    return true;
  }

  void ws() {
    while (p_ != end_ && (*p_ == ' ' || *p_ == '\t' || *p_ == '\n' || *p_ == '\r'))
      ++p_;
  }

  const char* p_;
  const char* end_;
};

// --- Ring -------------------------------------------------------------------

TEST(Ring, HoldsEverythingBelowCapacity) {
  Ring<int> ring(4);
  ring.push(10);
  ring.push(11);
  EXPECT_EQ(ring.size(), 2u);
  EXPECT_EQ(ring.dropped(), 0u);
  EXPECT_EQ(ring.snapshot(), (std::vector<int>{10, 11}));
}

TEST(Ring, WraparoundDropsOldestAndCounts) {
  Ring<int> ring(3);
  for (int i = 0; i < 10; ++i) ring.push(i);
  EXPECT_EQ(ring.pushed(), 10u);
  EXPECT_EQ(ring.size(), 3u);
  EXPECT_EQ(ring.dropped(), 7u);
  // Oldest-first suffix of the push sequence.
  EXPECT_EQ(ring.snapshot(), (std::vector<int>{7, 8, 9}));
  ring.clear();
  EXPECT_EQ(ring.size(), 0u);
  EXPECT_EQ(ring.dropped(), 0u);
}

TEST(Ring, ZeroCapacityIsCoercedToOne) {
  Ring<int> ring(0);
  EXPECT_EQ(ring.capacity(), 1u);
  ring.push(42);
  ring.push(43);
  EXPECT_EQ(ring.snapshot(), (std::vector<int>{43}));
  EXPECT_EQ(ring.dropped(), 1u);
}

// --- Registry ---------------------------------------------------------------

constexpr double kLatBounds[] = {1.0, 10.0, 100.0};
constexpr double kSizeEdge[] = {8.0};
constexpr MetricSpec kTestMetrics[] = {
    {"msgs", "msgs", MetricKind::counter, {}, false, "messages"},
    {"in_flight", "in_flight", MetricKind::gauge, {}, true, "bytes in flight"},
    {"lat", "lat", MetricKind::histogram, kLatBounds, false, "latency"},
    {"sz", "sz", MetricKind::histogram, kSizeEdge, false, "sizes"},
};
constexpr int kMsgs = 0, kInFlight = 1, kLat = 2, kSz = 3;

TEST(Registry, CountersMergeAcrossRanks) {
  Registry reg(kTestMetrics, 4);
  const int id = kMsgs;
  reg.add(id, 0, 3);
  reg.add(id, 2, 5);
  reg.add(id, 2);  // default increment
  EXPECT_EQ(reg.counter_value(id, 0), 3u);
  EXPECT_EQ(reg.counter_value(id, 1), 0u);
  EXPECT_EQ(reg.counter_value(id, 2), 6u);
  EXPECT_EQ(reg.counter_total(id), 9u);
  EXPECT_EQ(reg.find("msgs"), id);
  EXPECT_EQ(reg.find("no_such"), -1);
  reg.reset();
  EXPECT_EQ(reg.counter_total(id), 0u);
}

TEST(Registry, GaugesGoNegativeAndMerge) {
  Registry reg(kTestMetrics, 2);
  const int id = kInFlight;
  reg.gauge_add(id, 0, 100);
  reg.gauge_add(id, 0, -140);
  reg.gauge_add(id, 1, 25);
  EXPECT_EQ(reg.gauge_value(id, 0), -40);
  EXPECT_EQ(reg.gauge_value(id, 1), 25);
  EXPECT_EQ(reg.gauge_total(id), -15);
  reg.gauge_set(id, 0, 7);
  EXPECT_EQ(reg.gauge_value(id, 0), 7);
}

TEST(Registry, HistogramBucketEdgesAreInclusiveUpperBounds) {
  Registry reg(kTestMetrics, 1);
  const int id = kLat;
  reg.observe(id, 0, 0.5);     // bucket 0
  reg.observe(id, 0, 1.0);     // bucket 0: bounds are inclusive
  reg.observe(id, 0, 1.0001);  // bucket 1
  reg.observe(id, 0, 10.0);    // bucket 1
  reg.observe(id, 0, 100.0);   // bucket 2
  reg.observe(id, 0, 100.01);  // overflow
  const Registry::HistView v = reg.histogram(id, 0);
  ASSERT_EQ(v.bounds.size(), 3u);
  ASSERT_EQ(v.buckets.size(), 4u);
  EXPECT_EQ(v.buckets[0], 2u);
  EXPECT_EQ(v.buckets[1], 2u);
  EXPECT_EQ(v.buckets[2], 1u);
  EXPECT_EQ(v.buckets[3], 1u);
  EXPECT_EQ(v.count, 6u);
  EXPECT_EQ(reg.scalar_value(id, 0), 6u);  // scalar view = observation count
}

TEST(Registry, HistogramTotalsMergeRanks) {
  Registry reg(kTestMetrics, 3);
  const int id = kSz;
  reg.observe(id, 0, 4.0);
  reg.observe(id, 1, 4.0);
  reg.observe(id, 2, 99.0);
  const Registry::HistView v = reg.histogram_total(id);
  EXPECT_EQ(v.buckets[0], 2u);
  EXPECT_EQ(v.buckets[1], 1u);
  EXPECT_EQ(v.count, 3u);
}

TEST(Registry, RejectsDuplicateAndEmptyNames) {
  static constexpr MetricSpec kDuplicate[] = {
      {"a", "a", MetricKind::counter, {}, false, "first"},
      {"b", "a", MetricKind::counter, {}, false, "again"}};
  static constexpr MetricSpec kAnonymous[] = {
      {"x", "", MetricKind::gauge, {}, false, "anonymous"}};
  static constexpr double kDescending[] = {10.0, 1.0};
  static constexpr MetricSpec kBadBounds[] = {
      {"h", "h", MetricKind::histogram, {}, false, "no bounds"},
      {"d", "d", MetricKind::histogram, kDescending, false, "descending"}};
  EXPECT_THROW(Registry(kDuplicate, 1), Error);
  EXPECT_THROW(Registry(kAnonymous, 1), Error);
  EXPECT_THROW(Registry(std::span(kBadBounds).first(1), 1), Error);
  EXPECT_THROW(Registry(std::span(kBadBounds).last(1), 1), Error);
}

// Every (metric, rank, bucket) cell of the standard catalog is its own
// storage: a distinct value written into each reads back exactly, per rank
// and merged, and reset() zeroes them all. Guards the per-metric offsets
// and the rank stride of the rank-major block.
TEST(Registry, EveryCatalogCellHoldsItsOwnValueAndResets) {
  for (const int np : {1, 3, 7}) {
    Registry reg(kCatalog, np);
    const int metrics = reg.metric_count();
    ASSERT_EQ(metrics, static_cast<int>(std::size(kCatalog)));
    // cells[id][rank][bucket]: the value written there.
    std::vector<std::vector<std::vector<std::uint64_t>>> cells(
        static_cast<std::size_t>(metrics));
    std::uint64_t next = 1;
    for (int id = 0; id < metrics; ++id) {
      const MetricSpec& m = kCatalog[id];
      const std::size_t buckets =
          m.kind == MetricKind::histogram ? m.bounds.size() + 1 : 1;
      for (int r = 0; r < np; ++r) {
        auto& mine = cells[static_cast<std::size_t>(id)].emplace_back();
        for (std::size_t b = 0; b < buckets; ++b) {
          const std::uint64_t v = next++;
          mine.push_back(v);
          if (m.kind == MetricKind::counter) {
            reg.add(id, r, v);
          } else if (m.kind == MetricKind::gauge) {
            reg.gauge_set(id, r, static_cast<std::int64_t>(v));
          } else {
            // An edge lands in its own bucket; overflow sits past the last.
            const double x =
                b < m.bounds.size() ? m.bounds[b] : 2 * m.bounds.back();
            for (std::uint64_t k = 0; k < v; ++k) reg.observe(id, r, x);
          }
        }
      }
    }
    for (int id = 0; id < metrics; ++id) {
      const MetricSpec& m = kCatalog[id];
      const auto& written = cells[static_cast<std::size_t>(id)];
      std::vector<std::uint64_t> bucket_totals(written[0].size(), 0);
      std::uint64_t total = 0;
      for (int r = 0; r < np; ++r) {
        const auto& want = written[static_cast<std::size_t>(r)];
        std::uint64_t count = 0;
        for (std::size_t b = 0; b < want.size(); ++b) {
          bucket_totals[b] += want[b];
          count += want[b];
        }
        total += count;
        SCOPED_TRACE(std::string(m.name) + " rank " + std::to_string(r) +
                     " np " + std::to_string(np));
        if (m.kind == MetricKind::counter) {
          EXPECT_EQ(reg.counter_value(id, r), want[0]);
        } else if (m.kind == MetricKind::gauge) {
          EXPECT_EQ(reg.gauge_value(id, r),
                    static_cast<std::int64_t>(want[0]));
        } else {
          const Registry::HistView v = reg.histogram(id, r);
          EXPECT_EQ(v.buckets, want);
          EXPECT_EQ(v.count, count);
        }
        EXPECT_EQ(reg.scalar_value(id, r), count);
      }
      SCOPED_TRACE(std::string(m.name) + " total np " + std::to_string(np));
      if (m.kind == MetricKind::counter) {
        EXPECT_EQ(reg.counter_total(id), total);
      } else if (m.kind == MetricKind::gauge) {
        EXPECT_EQ(reg.gauge_total(id), static_cast<std::int64_t>(total));
      } else {
        const Registry::HistView v = reg.histogram_total(id);
        EXPECT_EQ(v.buckets, bucket_totals);
        EXPECT_EQ(v.count, total);
      }
      EXPECT_EQ(reg.scalar_total(id), total);
    }
    reg.reset();
    for (int id = 0; id < metrics; ++id) {
      for (int r = 0; r < np; ++r) {
        EXPECT_EQ(reg.scalar_value(id, r), 0u) << kCatalog[id].name;
        if (kCatalog[id].kind == MetricKind::histogram) {
          for (const std::uint64_t b : reg.histogram(id, r).buckets)
            EXPECT_EQ(b, 0u) << kCatalog[id].name;
        }
      }
    }
  }
}

// --- Hub spans --------------------------------------------------------------

TEST(Hub, DisabledHubRecordsNothing) {
  Hub hub(2);
  EXPECT_FALSE(hub.enabled());
  hub.add(Metric::engine_messages, 0);
  EXPECT_FALSE(hub.span_begin(0, "bcast", 'C', 0.0));
  hub.span_complete(0, "mon.session", 'S', 0.0, 1.0);
  EXPECT_EQ(hub.registry().counter_total(Metric::engine_messages), 0u);
  EXPECT_EQ(hub.spans_recorded(), 0u);
}

TEST(Hub, SpansNestWithDepths) {
  Hub hub(1);
  hub.set_enabled(true);
  ASSERT_TRUE(hub.span_begin(0, "allreduce", 'C', 1.0));
  hub.span_complete(0, "p2p.send", 'M', 1.1, 1.2, /*a=*/3, /*b=*/64);
  hub.span_end(0, 2.0);
  const std::vector<SpanRec> spans = hub.spans(0);
  ASSERT_EQ(spans.size(), 2u);
  // The child closed first; the parent records the depth after popping.
  EXPECT_STREQ(spans[0].name, "p2p.send");
  EXPECT_EQ(spans[0].depth, 1);
  EXPECT_EQ(spans[0].a, 3);
  EXPECT_EQ(spans[0].b, 64);
  EXPECT_STREQ(spans[1].name, "allreduce");
  EXPECT_EQ(spans[1].depth, 0);
  EXPECT_DOUBLE_EQ(spans[1].t0_s, 1.0);
  EXPECT_DOUBLE_EQ(spans[1].t1_s, 2.0);
}

TEST(Hub, SpanRingWrapsAndCountsDrops) {
  Hub hub(1, /*span_capacity=*/4);
  hub.set_enabled(true);
  for (int i = 0; i < 10; ++i)
    hub.span_complete(0, "tick", 'S', i, i + 0.5);
  EXPECT_EQ(hub.spans(0).size(), 4u);
  EXPECT_EQ(hub.spans_recorded(), 10u);
  EXPECT_EQ(hub.spans_dropped(), 6u);
  hub.reset();
  EXPECT_EQ(hub.spans_dropped(), 0u);
  EXPECT_EQ(hub.spans(0).size(), 0u);
}

TEST(Hub, LongSpanNamesAreTruncatedNotOverflowed) {
  Hub hub(1);
  hub.set_enabled(true);
  hub.span_complete(0, "a_very_long_span_name_that_exceeds_the_cap", 'R', 0,
                    1);
  const std::vector<SpanRec> spans = hub.spans(0);
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(std::strlen(spans[0].name), SpanRec::kNameCap - 1);
}

// --- exporters --------------------------------------------------------------

TEST(Export, ChromeTraceIsWellFormedJson) {
  Hub hub(2);
  hub.set_enabled(true);
  ASSERT_TRUE(hub.span_begin(0, "bcast", 'C', 0.0));
  hub.span_complete(0, "p2p.send", 'M', 0.1, 0.2, 1, 1024);
  hub.span_end(0, 0.5);
  hub.span_complete(1, "mon.session", 'S', 0.0, 0.4);
  hub.add(Metric::engine_messages, 0, 2);
  std::ostringstream os;
  write_chrome_trace(hub, os);
  const std::string json = os.str();
  EXPECT_TRUE(JsonChecker(json).valid()) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"p2p.send\""), std::string::npos);
  EXPECT_NE(json.find("mpim_engine_messages_total"), std::string::npos);
}

TEST(Export, MetricsCsvHasHeaderAndHistogramRows) {
  Hub hub(2);
  hub.set_enabled(true);
  hub.add(Metric::engine_messages, 1, 7);
  hub.observe(Metric::engine_msg_bytes, 0, 100.0);
  std::ostringstream os;
  write_metrics_csv(hub, os);
  std::istringstream is(os.str());
  std::string header;
  std::getline(is, header);
  EXPECT_EQ(header, "metric,kind,rank,field,value");
  EXPECT_NE(os.str().find("mpim_engine_messages_total,counter,1,value,7"),
            std::string::npos);
  EXPECT_NE(os.str().find("mpim_engine_message_bytes,histogram,0,le=64,0"),
            std::string::npos);
  EXPECT_NE(os.str().find("mpim_engine_message_bytes,histogram,0,count,1"),
            std::string::npos);
}

// --- structured logger ------------------------------------------------------

TEST(Log, WritesJsonlWhenEnvSet) {
  namespace fs = std::filesystem;
  const std::string path = (fs::temp_directory_path() / "mpim_log.jsonl").string();
  std::remove(path.c_str());
  ::setenv("MPIM_LOG_FILE", path.c_str(), 1);
  log(LogLevel::warn, 3, "reorder", "falling back: \"partial\" data");
  log(LogLevel::error, 0, "engine", "deadlock\nreport");
  ::unsetenv("MPIM_LOG_FILE");

  std::ifstream is(path);
  ASSERT_TRUE(is.good());
  std::string line;
  int lines = 0;
  while (std::getline(is, line)) {
    EXPECT_TRUE(JsonChecker(line).valid()) << line;
    ++lines;
  }
  EXPECT_EQ(lines, 2);
  std::remove(path.c_str());
}

TEST(Log, JsonEscapeHandlesControlCharacters) {
  EXPECT_EQ(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
  EXPECT_EQ(json_escape(std::string(1, '\x01')), "\\u0001");
}

TEST(Log, LevelFilterSuppressesBelowThresholdAndSurvivesGarbage) {
  namespace fs = std::filesystem;
  const std::string path =
      (fs::temp_directory_path() / "mpim_log_lvl.jsonl").string();
  const auto lines_in_file = [&] {
    std::ifstream is(path);
    std::string line;
    int n = 0;
    while (std::getline(is, line)) ++n;
    return n;
  };
  std::remove(path.c_str());
  ::setenv("MPIM_LOG_FILE", path.c_str(), 1);

  ::setenv("MPIM_LOG_LEVEL", "warn", 1);
  log(LogLevel::debug, 0, "t", "hidden");
  log(LogLevel::info, 0, "t", "hidden");
  log(LogLevel::warn, 0, "t", "shown");
  log(LogLevel::error, 0, "t", "shown");
  EXPECT_EQ(lines_in_file(), 2);

  ::setenv("MPIM_LOG_LEVEL", " ERROR ", 1);  // case + whitespace tolerated
  log(LogLevel::warn, 0, "t", "hidden");
  log(LogLevel::error, 0, "t", "shown");
  EXPECT_EQ(lines_in_file(), 3);

  // An unparsable level must never cost diagnostics: everything flows.
  ::setenv("MPIM_LOG_LEVEL", "verbose", 1);
  log(LogLevel::debug, 0, "t", "shown");
  log(LogLevel::error, 0, "t", "shown");
  EXPECT_EQ(lines_in_file(), 5);

  ::unsetenv("MPIM_LOG_LEVEL");
  log(LogLevel::debug, 0, "t", "shown");  // unset: everything flows
  EXPECT_EQ(lines_in_file(), 6);
  ::unsetenv("MPIM_LOG_FILE");
  std::remove(path.c_str());
}

TEST(Log, GarbageLogFileValueIsRejectedNotUsedAsPath) {
  namespace fs = std::filesystem;
  // A whitespace-only MPIM_LOG_FILE used verbatim would append to a file
  // literally named " " in the current directory; the strict parse must
  // reject it and keep logging stderr-only.
  const auto cwd = fs::current_path();
  fs::current_path(fs::temp_directory_path());
  std::remove(" ");
  ::setenv("MPIM_LOG_FILE", " ", 1);
  log(LogLevel::warn, 0, "t", "rejected sink");
  ::setenv("MPIM_LOG_FILE", "", 1);
  log(LogLevel::warn, 0, "t", "rejected sink");
  ::unsetenv("MPIM_LOG_FILE");
  EXPECT_FALSE(fs::exists(" "));
  EXPECT_FALSE(fs::exists(""));
  fs::current_path(cwd);

  // A path with surrounding spaces is a real (odd) path, kept verbatim.
  const std::string spaced =
      (fs::temp_directory_path() / " mpim spaced.jsonl").string();
  std::remove(spaced.c_str());
  ::setenv("MPIM_LOG_FILE", spaced.c_str(), 1);
  log(LogLevel::warn, 0, "t", "kept verbatim");
  ::unsetenv("MPIM_LOG_FILE");
  std::ifstream is(spaced);
  EXPECT_TRUE(is.good());
  std::remove(spaced.c_str());
}

// --- exporters under governor shedding --------------------------------------

// The span CSV has one data row per record still in the rings; pushed
// minus evicted must equal the row count exactly, whatever capacity
// changes (level-2 style sheds) happened while recording.
TEST(ExportShed, SpanCsvRowsReconcileWithDropCountersUnderShedding) {
  Hub hub(2, /*span_capacity=*/64);
  hub.set_enabled(true);
  for (int i = 0; i < 50; ++i)
    hub.span_complete(0, "coll.bcast", 'C', i * 1e-3, i * 1e-3 + 1e-4);
  hub.set_span_soft_capacity(16);  // governor level-2 shed mid-run
  for (int i = 0; i < 50; ++i)
    hub.span_complete(1, "p2p.send", 'M', i * 1e-3, i * 1e-3 + 1e-4, 0, 64);
  EXPECT_GT(hub.spans_dropped(), 0u);

  std::ostringstream csv;
  write_spans_csv(hub, csv);
  std::istringstream is(csv.str());
  std::string line;
  ASSERT_TRUE(std::getline(is, line));  // header
  EXPECT_EQ(line, "rank,name,cat,depth,t0_s,t1_s,a,b");
  std::uint64_t rows = 0;
  while (std::getline(is, line))
    if (!line.empty()) ++rows;
  EXPECT_EQ(rows, hub.spans_recorded() - hub.spans_dropped());

  std::ostringstream trace;
  write_chrome_trace(hub, trace);
  EXPECT_TRUE(JsonChecker(trace.str()).valid());
}

// Real-governor variant: a memory budget sized to stop the ladder exactly
// at level 2 (rings halved, spans still recorded). The exports must stay
// well-formed and reconciled while the budget is actively shedding.
TEST(ExportShed, BudgetedRunKeepsExportsWellFormedAndReconciled) {
  const int nranks = 4;
  auto cost = net::CostModel::plafrim_like(2);
  mpi::EngineConfig cfg{
      .cost_model = cost,
      .placement = topo::round_robin_placement(nranks, cost.topology())};
  Sim sim(std::move(cfg));
  Hub& hub = sim.engine().telemetry();
  hub.set_enabled(true);

  const std::uint64_t full = static_cast<std::uint64_t>(nranks) *
                             hub.span_capacity() * sizeof(SpanRec);
  ::setenv("MPIM_MEM_BUDGET_BYTES", std::to_string(full * 3 / 4).c_str(), 1);
  // Tool objects are interned per run, so the governor must come to life
  // inside the workload (as it does via the MPI_M entry points).
  sim.run([](Ctx& ctx) {
    mon::Governor::of(ctx.engine());
    const Comm world = ctx.world();
    int v = ctx.world_rank();
    for (int i = 0; i < 4; ++i) {
      mpi::bcast(&v, 1, Type::Int, 0, world);
      mpi::barrier(world);
    }
  });
  ::unsetenv("MPIM_MEM_BUDGET_BYTES");
  auto& gov = mon::Governor::of(sim.engine());
  ASSERT_EQ(gov.shed_level(), 2);  // halved once, spans still on
  EXPECT_EQ(hub.span_soft_capacity(), hub.span_capacity() / 2);
  EXPECT_FALSE(hub.spans_suppressed());
  EXPECT_GT(hub.spans_recorded(), 0u);

  std::ostringstream csv;
  write_spans_csv(hub, csv);
  std::istringstream is(csv.str());
  std::string line;
  ASSERT_TRUE(std::getline(is, line));
  std::uint64_t rows = 0;
  while (std::getline(is, line))
    if (!line.empty()) ++rows;
  EXPECT_EQ(rows, hub.spans_recorded() - hub.spans_dropped());

  std::ostringstream trace;
  write_chrome_trace(hub, trace);
  EXPECT_TRUE(JsonChecker(trace.str()).valid());
  EXPECT_NE(trace.str().find("\"bcast\""), std::string::npos);
}

// --- end to end: fault-injected run -----------------------------------------

// One doomed p2p message (every attempt dropped) next to a bcast. The
// acceptance path of the PR: the Chrome trace shows the collective span and
// its p2p child spans, the retransmit counter is > 0, and the same number
// is readable through an MPI_T pvar handle resolved *by name*.
TEST(EndToEnd, FaultInjectedRunExportsSpansAndPvars) {
  const int nranks = 4;
  auto plan = std::make_shared<fault::FaultPlan>(/*seed=*/7);
  fault::LinkFault drop;
  // 3->2 carries no collective-internal traffic here (binomial bcast from
  // root 0 sends 0->2, 0->1, 2->3; the dissemination barrier sends
  // r->(r+1)%4 and r->(r+2)%4), so dooming it cannot hang the collectives.
  drop.src = 3;
  drop.dst = 2;
  drop.drop_prob = 0.999999;  // every attempt (deterministically) lost
  drop.max_retransmits = 2;
  drop.retransmit_backoff_s = 1e-6;
  plan->add(drop);

  auto cost = net::CostModel::plafrim_like(2);
  mpi::EngineConfig cfg{
      .cost_model = cost,
      .placement = topo::round_robin_placement(nranks, cost.topology())};
  cfg.fault_plan = plan;
  Sim sim(std::move(cfg));
  telemetry::Hub& hub = sim.engine().telemetry();
  hub.set_enabled(true);

  unsigned long pvar_retransmits = 0;
  sim.run([&](Ctx& ctx) {
    const Comm world = ctx.world();
    int v = 1;
    mpi::bcast(&v, 1, Type::Int, 0, world);  // coll span + p2p children
    if (ctx.world_rank() == 3) {
      // Fire-and-forget: all 3 attempts drop, nobody posts the recv.
      std::vector<std::byte> b(4096);
      mpi::send(b.data(), b.size(), Type::Byte, 2, 9, world);

      mpit::Runtime& rt = mpit::Runtime::of(ctx.engine());
      const int idx =
          mpit::pvar_index_by_name("mpim_fault_retransmits_total");
      ASSERT_GE(idx, 6);  // appended after the six monitoring pvars
      const int sid = rt.session_create();
      const int h = rt.handle_alloc(sid, idx, world);
      rt.handle_start(sid, h);
      EXPECT_EQ(rt.handle_count(sid, h), 1);  // rank-local scalar
      ASSERT_EQ(rt.handle_read(sid, h, &pvar_retransmits, 1), 1);
      rt.handle_stop(sid, h);
      rt.session_free(sid);
    }
    mpi::barrier(world);
  });

  // Registry side: 2 retransmits, then the message is lost for good.
  const Registry& reg = hub.registry();
  EXPECT_EQ(reg.counter_total(Metric::fault_retransmits), 2u);
  EXPECT_EQ(reg.counter_total(Metric::fault_lost), 1u);
  EXPECT_EQ(reg.counter_total(Metric::fault_drops), 3u);
  EXPECT_GT(reg.counter_total(Metric::engine_messages), 0u);
  // MPI_T side: the same counter, read through the pvar handle.
  EXPECT_EQ(pvar_retransmits, 2u);

  // Exported trace: well-formed JSON with the collective decomposition.
  std::ostringstream os;
  write_chrome_trace(hub, os);
  const std::string json = os.str();
  EXPECT_TRUE(JsonChecker(json).valid());
  EXPECT_NE(json.find("\"bcast\""), std::string::npos);
  EXPECT_NE(json.find("\"barrier\""), std::string::npos);
  EXPECT_NE(json.find("\"p2p.send\""), std::string::npos);
  EXPECT_NE(json.find("\"mpim_fault_retransmits_total\":2"),
            std::string::npos);
}

// Determinism: telemetry on vs off must not change virtual time.
TEST(EndToEnd, EnablingTelemetryDoesNotPerturbVirtualClocks) {
  auto run_once = [](bool telemetry_on) {
    Sim sim = Sim::plafrim(2, 8);
    sim.engine().telemetry().set_enabled(telemetry_on);
    double t_final = 0.0;
    sim.run([&](Ctx& ctx) {
      const Comm world = ctx.world();
      std::vector<double> a(256, 1.0), b(256, 0.0);
      for (int i = 0; i < 5; ++i)
        mpi::allreduce(a.data(), b.data(), a.size(), Type::Double,
                       mpi::Op::Sum, world);
      if (ctx.world_rank() == 0) t_final = ctx.now();
    });
    return t_final;
  };
  const double off = run_once(false);
  const double on = run_once(true);
  EXPECT_GT(off, 0.0);
  EXPECT_EQ(off, on);  // bit-identical, not just close
}

}  // namespace
}  // namespace mpim::telemetry
