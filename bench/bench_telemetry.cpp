// Host-time cost of the telemetry subsystem itself.
//
// Three tiers per hot-path operation:
//   absent      -- the operation the instrumentation replaces (plain code,
//                  no telemetry call compiled into the loop),
//   disabled    -- telemetry compiled in but switched off (the default):
//                  one relaxed atomic load per site,
//   enabled     -- full recording.
//
// Plus a fig4-style end-to-end contrast: host ns per monitored send with
// telemetry off vs on, written to results/BENCH_telemetry_overhead.csv.
// The per-benchmark ns/op additionally land in results/BENCH_telemetry.json
// (override with your own --benchmark_out).
#include <benchmark/benchmark.h>

#include <chrono>
#include <filesystem>
#include <iostream>
#include <string>
#include <vector>

#include "minimpi/api.h"
#include "mpimon/mpi_monitoring.h"
#include "mpimon/sim.h"
#include "support/table.h"
#include "telemetry/hub.h"

namespace {

using namespace mpim;
using telemetry::Metric;

// --- counter increment -------------------------------------------------------

void BM_CounterAdd_Absent(benchmark::State& state) {
  std::uint64_t plain = 0;
  for (auto _ : state) {
    plain += 1;
    benchmark::DoNotOptimize(plain);
  }
}
BENCHMARK(BM_CounterAdd_Absent);

void BM_CounterAdd_Disabled(benchmark::State& state) {
  telemetry::Hub hub(1);
  constexpr Metric id = Metric::engine_messages;
  for (auto _ : state) hub.add(id, 0);
  benchmark::DoNotOptimize(hub.registry().counter_total(id));
}
BENCHMARK(BM_CounterAdd_Disabled);

void BM_CounterAdd_Enabled(benchmark::State& state) {
  telemetry::Hub hub(1);
  hub.set_enabled(true);
  constexpr Metric id = Metric::engine_messages;
  for (auto _ : state) hub.add(id, 0);
  benchmark::DoNotOptimize(hub.registry().counter_total(id));
}
BENCHMARK(BM_CounterAdd_Enabled);

void BM_HistogramObserve_Enabled(benchmark::State& state) {
  telemetry::Hub hub(1);
  hub.set_enabled(true);
  constexpr Metric id = Metric::engine_msg_bytes;
  double v = 1.0;
  for (auto _ : state) {
    hub.observe(id, 0, v);
    v = v < 1e6 ? v * 2 : 1.0;  // sweep the buckets
  }
  benchmark::DoNotOptimize(hub.registry().histogram(id, 0).count);
}
BENCHMARK(BM_HistogramObserve_Enabled);

// --- span start/stop ---------------------------------------------------------

void BM_SpanStartStop_Absent(benchmark::State& state) {
  // What an instrumented site does anyway: read a clock twice.
  double t = 0.0;
  for (auto _ : state) {
    t += 1e-9;
    double t2 = t + 1e-9;
    benchmark::DoNotOptimize(t2);
  }
}
BENCHMARK(BM_SpanStartStop_Absent);

void BM_SpanStartStop_Disabled(benchmark::State& state) {
  telemetry::Hub hub(1);
  double t = 0.0;
  for (auto _ : state) {
    if (hub.span_begin(0, "bench", 'C', t)) hub.span_end(0, t + 1e-9);
    t += 1e-9;
  }
  benchmark::DoNotOptimize(hub.spans_recorded());
}
BENCHMARK(BM_SpanStartStop_Disabled);

void BM_SpanStartStop_Enabled(benchmark::State& state) {
  telemetry::Hub hub(1);
  hub.set_enabled(true);
  double t = 0.0;
  for (auto _ : state) {
    if (hub.span_begin(0, "bench", 'C', t)) hub.span_end(0, t + 1e-9);
    t += 1e-9;
  }
  benchmark::DoNotOptimize(hub.spans_recorded());
}
BENCHMARK(BM_SpanStartStop_Enabled);

void BM_SpanComplete_Enabled(benchmark::State& state) {
  telemetry::Hub hub(1);
  hub.set_enabled(true);
  double t = 0.0;
  for (auto _ : state) {
    hub.span_complete(0, "bench", 'S', t, t + 1e-9);
    t += 1e-9;
  }
  benchmark::DoNotOptimize(hub.spans_recorded());
}
BENCHMARK(BM_SpanComplete_Enabled);

// --- fig4-style end-to-end contrast ------------------------------------------

struct RunCost {
  double ns_per_send = 0.0;    // host time
  double virtual_end_s = 0.0;  // must be identical off vs on
};

/// Host ns per monitored send (active MPI_M session, like Fig. 4's
/// monitored configuration) with telemetry off or on.
RunCost measure_ns_per_send(bool telemetry_on) {
  auto cost = net::CostModel::plafrim_like(1);
  mpi::EngineConfig cfg{
      .cost_model = cost,
      .placement = topo::round_robin_placement(2, cost.topology())};
  Sim sim(std::move(cfg));
  sim.engine().telemetry().set_enabled(telemetry_on);
  RunCost out;
  sim.run([&](mpi::Ctx& ctx) {
    const mpi::Comm world = ctx.world();
    if (ctx.world_rank() == 0) {
      MPI_M_init();
      MPI_M_msid id;
      MPI_M_start(world, &id);
      constexpr int kSends = 50000;
      const auto t0 = std::chrono::steady_clock::now();
      for (int i = 0; i < kSends; ++i)
        mpi::send(nullptr, 64, mpi::Type::Byte, 1, 1, world);
      const auto t1 = std::chrono::steady_clock::now();
      out.ns_per_send =
          std::chrono::duration<double, std::nano>(t1 - t0).count() / kSends;
      mpi::send(nullptr, 0, mpi::Type::Byte, 1, 2, world);  // stop
      MPI_M_suspend(id);
      MPI_M_free(id);
      MPI_M_finalize();
      out.virtual_end_s = ctx.now();
    } else {
      for (;;) {
        mpi::Status st = mpi::recv(nullptr, 64, mpi::Type::Byte, 0,
                                   mpi::kAnyTag, world);
        if (st.tag == 2) break;
      }
    }
  });
  return out;
}

void write_overhead_csv() {
  // Best of 3 per configuration: the comparison is about the instruction
  // path, not scheduler noise.
  RunCost off, on;
  off.ns_per_send = on.ns_per_send = 1e300;
  for (int i = 0; i < 3; ++i) {
    const RunCost o = measure_ns_per_send(false);
    const RunCost e = measure_ns_per_send(true);
    if (o.ns_per_send < off.ns_per_send) off = o;
    if (e.ns_per_send < on.ns_per_send) on = e;
  }
  // The figure-level guarantee: telemetry never charges virtual time, so
  // every modeled result (bench_fig4_overhead included) is bit-identical
  // with telemetry on or off. Host time is what enabling actually costs.
  const double vt_regress =
      100.0 * (on.virtual_end_s - off.virtual_end_s) / off.virtual_end_s;
  Table t({"config", "ns_per_monitored_send", "host_overhead_pct",
           "virtual_end_s", "virtual_time_regress_pct"});
  t.add("telemetry_disabled", off.ns_per_send, 0.0, off.virtual_end_s, 0.0);
  t.add("telemetry_enabled", on.ns_per_send,
        100.0 * (on.ns_per_send - off.ns_per_send) / off.ns_per_send,
        on.virtual_end_s, vt_regress);
  t.print(std::cout);
  std::cout << (on.virtual_end_s == off.virtual_end_s
                    ? "virtual clocks bit-identical on vs off: modeled "
                      "figures (fig4) regress by exactly 0%\n"
                    : "WARNING: virtual clocks differ -- telemetry leaked "
                      "into the cost model\n");
  std::error_code ec;
  std::filesystem::create_directories("results", ec);
  if (!ec) t.write_csv_file("results/BENCH_telemetry_overhead.csv");
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  bool has_out = false;
  for (int i = 1; i < argc; ++i)
    if (std::string(argv[i]).rfind("--benchmark_out=", 0) == 0) has_out = true;
  std::string out_flag = "--benchmark_out=results/BENCH_telemetry.json";
  std::string fmt_flag = "--benchmark_out_format=json";
  if (!has_out) {
    std::error_code ec;
    std::filesystem::create_directories("results", ec);
    if (!ec) {
      args.push_back(out_flag.data());
      args.push_back(fmt_flag.data());
    }
  }
  int bench_argc = static_cast<int>(args.size());
  benchmark::Initialize(&bench_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(bench_argc, args.data()))
    return 1;
  write_overhead_csv();
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
