// Google-benchmark microbenchmarks of the monitoring stack itself: hook
// dispatch, session operations, data reads and the TreeMatch kernel. These
// measure *host* time (the real instrumentation cost of this
// implementation), complementing the modeled overhead of Fig. 4.
#include <benchmark/benchmark.h>

#include <filesystem>
#include <string>
#include <vector>

#include "minimpi/api.h"
#include "mpimon/mpi_monitoring.h"
#include "mpimon/session.hpp"
#include "mpimon/sim.h"
#include "support/rng.h"
#include "treematch/treematch.h"

namespace {

using namespace mpim;

mpi::EngineConfig small_cfg(int nranks) {
  auto cost = net::CostModel::plafrim_like(
      std::max(1, (nranks + 23) / 24));
  mpi::EngineConfig cfg{
      .cost_model = cost,
      .placement = topo::round_robin_placement(nranks, cost.topology())};
  return cfg;
}

/// Host cost of one monitored send (hook dispatch + accumulator update),
/// with the given number of concurrently active sessions.
void BM_MonitoredSend(benchmark::State& state) {
  const int sessions = static_cast<int>(state.range(0));
  Sim sim(small_cfg(2));
  double ns_per_send = 0.0;
  sim.run([&](mpi::Ctx& ctx) {
    const mpi::Comm world = ctx.world();
    if (ctx.world_rank() == 0) {
      MPI_M_init();
      std::vector<MPI_M_msid> ids(static_cast<std::size_t>(sessions));
      for (auto& id : ids) MPI_M_start(world, &id);
      const auto t0 = std::chrono::steady_clock::now();
      constexpr int kSends = 20000;
      for (int i = 0; i < kSends; ++i)
        mpi::send(nullptr, 64, mpi::Type::Byte, 1, 1, world);
      const auto t1 = std::chrono::steady_clock::now();
      ns_per_send =
          std::chrono::duration<double, std::nano>(t1 - t0).count() / kSends;
      mpi::send(nullptr, 0, mpi::Type::Byte, 1, 2, world);  // stop
      MPI_M_suspend(MPI_M_ALL_MSID);
      MPI_M_free(MPI_M_ALL_MSID);
      MPI_M_finalize();
    } else {
      for (;;) {
        mpi::Status st = mpi::recv(nullptr, 64, mpi::Type::Byte, 0,
                                   mpi::kAnyTag, world);
        if (st.tag == 2) break;
      }
    }
  });
  for (auto _ : state) {
    benchmark::DoNotOptimize(ns_per_send);
  }
  state.counters["ns_per_send"] = ns_per_send;
}
BENCHMARK(BM_MonitoredSend)->Arg(0)->Arg(1)->Arg(4)->Arg(16);

void BM_SessionStartSuspendFree(benchmark::State& state) {
  Sim sim(small_cfg(1));
  double us_per_cycle = 0.0;
  sim.run([&](mpi::Ctx& ctx) {
    MPI_M_init();
    const auto t0 = std::chrono::steady_clock::now();
    constexpr int kCycles = 5000;
    for (int i = 0; i < kCycles; ++i) {
      MPI_M_msid id;
      MPI_M_start(ctx.world(), &id);
      MPI_M_suspend(id);
      MPI_M_free(id);
    }
    const auto t1 = std::chrono::steady_clock::now();
    us_per_cycle =
        std::chrono::duration<double, std::micro>(t1 - t0).count() / kCycles;
    MPI_M_finalize();
  });
  for (auto _ : state) benchmark::DoNotOptimize(us_per_cycle);
  state.counters["us_per_cycle"] = us_per_cycle;
}
BENCHMARK(BM_SessionStartSuspendFree);

void BM_GetData(benchmark::State& state) {
  const int nranks = static_cast<int>(state.range(0));
  Sim sim(small_cfg(nranks));
  double us_per_read = 0.0;
  sim.run([&](mpi::Ctx& ctx) {
    MPI_M_init();
    MPI_M_msid id;
    MPI_M_start(ctx.world(), &id);
    MPI_M_suspend(id);
    std::vector<unsigned long> row(static_cast<std::size_t>(nranks));
    const auto t0 = std::chrono::steady_clock::now();
    constexpr int kReads = 5000;
    for (int i = 0; i < kReads; ++i)
      MPI_M_get_data(id, row.data(), MPI_M_DATA_IGNORE, MPI_M_ALL_COMM);
    const auto t1 = std::chrono::steady_clock::now();
    if (ctx.world_rank() == 0)
      us_per_read =
          std::chrono::duration<double, std::micro>(t1 - t0).count() / kReads;
    MPI_M_free(id);
    MPI_M_finalize();
  });
  for (auto _ : state) benchmark::DoNotOptimize(us_per_read);
  state.counters["us_per_read"] = us_per_read;
}
BENCHMARK(BM_GetData)->Arg(4)->Arg(48);

void BM_TreeMatch(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(3);
  CommMatrix m = CommMatrix::square(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    m(static_cast<std::size_t>(i), static_cast<std::size_t>((i + 1) % n)) =
        1000;
    const int far = static_cast<int>(
        rng.uniform_u64(0, static_cast<std::uint64_t>(n - 1)));
    if (far != i)
      m(static_cast<std::size_t>(i), static_cast<std::size_t>(far)) = 500;
  }
  const auto topo = topo::Topology::cluster((n + 23) / 24, 2, 12);
  for (auto _ : state) {
    auto map = tm::treematch_leaves(m, topo);
    benchmark::DoNotOptimize(map);
  }
}
BENCHMARK(BM_TreeMatch)->Arg(48)->Arg(192)->Arg(768)->Unit(
    benchmark::kMillisecond);

/// Host microseconds per send/recv roundtrip between two ranks running on
/// the given scheduler backend: 8-byte timing-only messages by default, or
/// real buffers of `payload_bytes`.
double p2p_roundtrip_us(mpi::SchedMode sched, std::size_t payload_bytes = 0) {
  auto cfg = small_cfg(2);
  cfg.sched = sched;
  Sim sim(cfg);
  double us_per_roundtrip = 0.0;
  sim.run([&](mpi::Ctx& ctx) {
    const mpi::Comm world = ctx.world();
    constexpr int kRounds = 20000;
    const std::size_t bytes = payload_bytes == 0 ? 8 : payload_bytes;
    std::vector<std::byte> storage(payload_bytes, std::byte{1});
    void* buf = payload_bytes == 0 ? nullptr : storage.data();
    if (ctx.world_rank() == 0) {
      const auto t0 = std::chrono::steady_clock::now();
      for (int i = 0; i < kRounds; ++i) {
        mpi::send(buf, bytes, mpi::Type::Byte, 1, 0, world);
        mpi::recv(buf, bytes, mpi::Type::Byte, 1, 0, world);
      }
      const auto t1 = std::chrono::steady_clock::now();
      us_per_roundtrip =
          std::chrono::duration<double, std::micro>(t1 - t0).count() /
          kRounds;
    } else {
      for (int i = 0; i < kRounds; ++i) {
        mpi::recv(buf, bytes, mpi::Type::Byte, 0, 0, world);
        mpi::send(buf, bytes, mpi::Type::Byte, 0, 0, world);
      }
    }
  });
  return us_per_roundtrip;
}

void BM_EngineP2pRoundtrip(benchmark::State& state) {
  // Host throughput of the transport itself (messages per second the
  // simulator can process on this machine).
  const double us_per_roundtrip = p2p_roundtrip_us(mpi::SchedMode::threads);
  for (auto _ : state) benchmark::DoNotOptimize(us_per_roundtrip);
  state.counters["us_per_roundtrip"] = us_per_roundtrip;
}
BENCHMARK(BM_EngineP2pRoundtrip);

void BM_EngineP2pRoundtripFibers(benchmark::State& state) {
  // The same roundtrip with both ranks as fibers of one thread: each
  // roundtrip blocks both ranks once, and each block is two switches
  // (fiber -> scheduler -> fiber), so this is the transport plus four
  // switches with no thread handoff. Informational: not one of
  // bench_trend's gated counters.
  const double us = p2p_roundtrip_us(mpi::SchedMode::fibers);
  for (auto _ : state) benchmark::DoNotOptimize(us);
  state.counters["us_per_fiber_roundtrip"] = us;
}
BENCHMARK(BM_EngineP2pRoundtripFibers);

void BM_EngineP2pRoundtripFibers64k(benchmark::State& state) {
  // The fiber roundtrip carrying a real 64 KiB buffer each way: the
  // transport's payload handling (allocation and copies) on top of what
  // BM_EngineP2pRoundtripFibers times. Informational, like that one.
  const double us = p2p_roundtrip_us(mpi::SchedMode::fibers, 64 * 1024);
  for (auto _ : state) benchmark::DoNotOptimize(us);
  state.counters["us_per_64k_fiber_roundtrip"] = us;
}
BENCHMARK(BM_EngineP2pRoundtripFibers64k);

}  // namespace

// BENCHMARK_MAIN, plus a default JSON report: unless the caller passes its
// own --benchmark_out, the per-benchmark ns/op land in
// results/BENCH_micro.json so CI and the driver always have the numbers.
int main(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  bool has_out = false;
  for (int i = 1; i < argc; ++i)
    if (std::string(argv[i]).rfind("--benchmark_out=", 0) == 0) has_out = true;
  std::string out_flag = "--benchmark_out=results/BENCH_micro.json";
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
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
