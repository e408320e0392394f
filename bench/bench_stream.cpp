// Streaming aggregation plane cost: what continuous ingest does to the
// per-packet hook, and how fast the plane drains staged events.
//
// Two tables, both mirrored into results/BENCH_stream.json:
//
//   stream_ingest    synthetic producer loop: per-rank counters advance and
//                    every rank crosses an epoch, so each iteration stages
//                    metric deltas into the SPSC rings and drains them into
//                    the bounded store. events_per_sec is the end-to-end
//                    staging+drain throughput (gated as a hot-path inverse
//                    metric by scripts/bench_trend.py).
//
//   stream_hookpath  bench_record's hook-dominated workload (self
//                    rma_transfer) with telemetry enabled -- the
//                    MPIM_TELEMETRY production baseline -- vs the same run
//                    with the plane attached. The only per-call addition is
//                    the inlined epoch check (one double compare); epoch
//                    flushes amortize across ~epoch_s of virtual time. The
//                    acceptance budget is overhead_pct <= 5 at 8 threads.
//
// Host wall time, best-of reps; virtual clocks are identical in every
// configuration (ObsplanePlane.ClocksBitIdenticalWithAndWithoutPlane).
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "obsplane/plane.h"

namespace {

using namespace mpim;
using telemetry::Metric;

mpi::EngineConfig stream_config(int nranks) {
  // Contention model off: this bench isolates host-side software cost.
  auto cost = net::CostModel::plafrim_like(bench::nodes_for_ranks(nranks));
  auto placement = topo::round_robin_placement(nranks, cost.topology());
  mpi::EngineConfig cfg{.cost_model = std::move(cost),
                        .placement = std::move(placement)};
  cfg.watchdog_wall_timeout_s = 120.0;
  return cfg;
}

// --- stream_ingest -----------------------------------------------------------

double ingest_once(int nranks, int epochs, std::uint64_t* events_out) {
  mpi::Engine engine(stream_config(nranks));
  obsplane::PlaneConfig pcfg;
  pcfg.epoch_s = 1.0e-3;
  auto plane = obsplane::Plane::attach(engine, pcfg);
  auto& hub = engine.telemetry();

  const auto t0 = std::chrono::steady_clock::now();
  for (int e = 0; e < epochs; ++e) {
    const double now_s = (e + 1) * pcfg.epoch_s;
    for (int r = 0; r < nranks; ++r) {
      hub.add(Metric::engine_messages, r);
      hub.add(Metric::engine_bytes, r, 64);
      plane->on_epoch(r, now_s, false);
    }
  }
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  *events_out = plane->events_ingested();
  return wall;
}

void ingest_sweep(const bench::Options& opt) {
  const int epochs = opt.quick ? 20000 : 80000;
  const int reps = opt.quick ? 3 : 5;
  Table t({"config", "ranks", "epochs", "events", "events_per_sec"});
  for (int nranks : {2, 8}) {
    double best = 1e300;
    std::uint64_t events = 0;
    for (int r = 0; r < reps; ++r)
      best = std::min(best, ingest_once(nranks, epochs, &events));
    t.add("ingest/r" + std::to_string(nranks), nranks, epochs,
          static_cast<unsigned long>(events),
          format_sig(static_cast<double>(events) / best, 4));
  }
  t.print(std::cout);
  bench::maybe_csv(opt, t, "stream_ingest");
}

// --- stream_hookpath ---------------------------------------------------------

/// One engine run of the hook-dominated self-rma loop; returns host seconds.
double hookpath_once(int nranks, int iters, bool with_plane) {
  mpi::Engine engine(stream_config(nranks));
  engine.telemetry().set_enabled(true);  // the MPIM_TELEMETRY baseline
  std::shared_ptr<obsplane::Plane> plane;
  if (with_plane) plane = obsplane::Plane::attach(engine, {});

  const auto t0 = std::chrono::steady_clock::now();
  engine.run([iters](mpi::Ctx& ctx) {
    const mpi::Comm world = ctx.world();
    const int me = ctx.world_rank();
    for (int i = 0; i < iters; ++i) ctx.rma_transfer(me, me, world, 8);
  });
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

double hookpath_best(int reps, int nranks, int iters, bool with_plane) {
  double best = hookpath_once(nranks, iters, with_plane);
  for (int r = 1; r < reps; ++r)
    best = std::min(best, hookpath_once(nranks, iters, with_plane));
  return best;
}

void hookpath_sweep(const bench::Options& opt) {
  const int total_sends = opt.quick ? 160000 : 640000;
  const int reps = opt.quick ? 3 : 5;
  Table t({"config", "threads", "ns_per_send", "overhead_pct"});
  double worst_at_8 = 0.0;
  for (int nranks : {2, 8}) {
    const int iters = total_sends / nranks;
    const double sends = static_cast<double>(iters) * nranks;
    const double base = hookpath_best(reps, nranks, iters, false);
    const double plane = hookpath_best(reps, nranks, iters, true);
    const double overhead = (plane / base - 1.0) * 100.0;
    if (nranks == 8) worst_at_8 = overhead;
    t.add("telemetry/t" + std::to_string(nranks), nranks,
          format_sig(base / sends * 1e9, 4), format_sig(0.0, 3));
    t.add("plane/t" + std::to_string(nranks), nranks,
          format_sig(plane / sends * 1e9, 4), format_sig(overhead, 3));
  }
  t.print(std::cout);
  bench::maybe_csv(opt, t, "stream_hookpath");

  Table checks({"check", "value", "limit", "status"});
  checks.add("hook_overhead_pct_t8", format_sig(worst_at_8, 3), 5.0,
             worst_at_8 <= 5.0 ? "PASS" : "FAIL");
  checks.print(std::cout);
  bench::maybe_csv(opt, checks, "stream_checks");
  if (worst_at_8 > 5.0)
    std::fprintf(stderr,
                 "bench_stream: WARNING: plane hook overhead %.2f%% at 8 "
                 "threads exceeds the 5%% budget\n",
                 worst_at_8);
}

}  // namespace

int main(int argc, char** argv) {
  const auto opt = bench::parse_options(argc, argv);

  bench::banner("plane ingest throughput (stage + drain, best of reps)");
  ingest_sweep(opt);

  bench::banner("hook path: telemetry baseline vs +streaming plane");
  hookpath_sweep(opt);
  return 0;
}
