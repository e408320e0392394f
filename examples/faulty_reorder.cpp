// Rank reordering when a rank dies mid-protocol — and recovery after it.
//
// The Figure-1 loop (monitor one iteration, gather the byte matrix,
// TreeMatch, remap) assumes every rank contributes its monitoring row. This
// example kills one rank for real: right after its last monitored CG
// iteration completes, the rank crashes. The gather inside reorder_ranks
// sees the dead row immediately (no timeout stall — the engine knows the
// rank is dead), the root receives a partial matrix (MPI_M_PARTIAL_DATA),
// and reorder_ranks falls back to the identity permutation with a readable
// diagnostic instead of hanging or remapping on garbage.
//
// Then, instead of limping along on a communicator with a corpse in it,
// the survivors *recover*: comm_shrink agrees on the dead set and returns
// a survivors-only communicator with deterministic renumbering, a fresh
// monitored session opens on it, and the application finishes its solve on
// 15 ranks. The post-shrink allgather returns MPI_M_SUCCESS with full
// survivor rows — no sentinels, no timeouts. See docs/FAULTS.md, Recovery.
//
// On top of the crash, every link drops ~5% of its transmissions (with
// sender retransmit), and the engine's telemetry records the whole story:
// the run exports a Chrome trace, a metrics CSV for `monview`, and the
// retransmit counter is read back through an MPI_T pvar handle resolved by
// name.
//
// Run 1 (no rank fault) only measures the virtual time at which the victim
// finishes the monitored iteration; run 2 replants that instant as the
// crash trigger. Run 3 repeats run 2 bit for bit: crash detection, shrink
// and recovery are pure functions of virtual time, so the final clocks of
// the two faulty runs must agree exactly.
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "apps/cg.h"
#include "fault/fault_plan.h"
#include "minimpi/api.h"
#include "minimpi/engine.h"
#include "minimpi/ft.h"
#include "mpimon/mpi_monitoring.h"
#include "mpimon/session.hpp"
#include "mpimon/sim.h"
#include "mpit/pvar.h"
#include "mpit/runtime.h"
#include "reorder/reorder.h"
#include "telemetry/export.h"

int main() {
  using namespace mpim;

  const int nranks = 16;
  const int victim = 5;
  const apps::CgConfig cg = apps::cg_class('S');

  // Same seed in every run: identical link-fault draws, identical clocks.
  auto make_plan = [&](bool with_crash, double crash_at) {
    auto plan = std::make_shared<fault::FaultPlan>(/*seed=*/2026);
    fault::LinkFault drop;
    drop.drop_prob = 0.05;       // any link, ~5% per attempt
    drop.max_retransmits = 8;    // loss needs 9 straight drops (~2e-12)
    drop.retransmit_backoff_s = 1e-7;
    plan->add(drop);
    if (with_crash)
      plan->add(fault::RankFault{.rank = victim, .crash_at_s = crash_at});
    return plan;
  };

  auto make_cfg = [&](std::shared_ptr<fault::FaultPlan> plan) {
    auto cost = net::CostModel::plafrim_like(2);
    mpi::EngineConfig cfg{
        .cost_model = cost,
        .placement = topo::round_robin_placement(nranks, cost.topology())};
    cfg.fault_plan = std::move(plan);
    return cfg;
  };

  // --- Run 1: measure when the victim finishes the monitored iteration ---
  // Monitored exactly like run 2, so the virtual clocks agree bit for bit.
  double crash_at = 0.0;
  {
    Sim sim(make_cfg(make_plan(false, 0.0)));
    sim.run([&](mpi::Ctx& ctx) {
      mon::Environment env;
      MPI_M_msid id;
      mon::check_rc(MPI_M_start(ctx.world(), &id), "MPI_M_start");
      apps::CgSolver solver(ctx.world(), cg);
      solver.iteration();
      mon::check_rc(MPI_M_suspend(id), "MPI_M_suspend");
      mon::check_rc(MPI_M_free(id), "MPI_M_free");
      if (ctx.world_rank() == victim) crash_at = ctx.now();
    });
  }

  // --- Runs 2 and 3: same program, but the victim dies at that instant ---
  bool fell_back = false;
  std::string reason;
  bool identity = false;
  int shrunk_size = 0;
  bool post_gather_ok = false;
  unsigned long my_retransmits = 0;
  apps::CgResult final_res;
  std::vector<double> faulty_clocks[2];
  std::unique_ptr<Sim> last;
  for (int rep = 0; rep < 2; ++rep) {
    auto sim = std::make_unique<Sim>(make_cfg(make_plan(true, crash_at)));
    sim->engine().telemetry().set_enabled(true);
    sim->run([&](mpi::Ctx& ctx) {
      const mpi::Comm world = ctx.world();
      mpi::comm_set_errhandler(world, mpi::ErrMode::ret);
      mon::Environment env;
      mon::check_rc(MPI_M_set_gather_timeout(0.25),
                    "MPI_M_set_gather_timeout");

      MPI_M_msid id;
      mon::check_rc(MPI_M_start(world, &id), "MPI_M_start");
      apps::CgSolver solver(world, cg);
      solver.iteration();
      mon::check_rc(MPI_M_suspend(id), "MPI_M_suspend");

      // The victim is dead (or dying) here; the gather inside
      // reorder_ranks short-circuits on its row and the root falls back
      // to the identity mapping on the original communicator.
      const auto res = reorder::reorder_ranks(id, world);
      mon::check_rc(MPI_M_free(id), "MPI_M_free");

      // Recovery: agree on the dead set, renumber the survivors, and
      // carry on with a fresh monitored session on the shrunk comm.
      const mpi::Comm alive = mpi::comm_shrink(world);
      MPI_M_msid id2;
      mon::check_rc(MPI_M_start(alive, &id2), "MPI_M_start(alive)");
      apps::CgSolver rest(alive, cg);
      const apps::CgResult done = rest.solve();
      mon::check_rc(MPI_M_suspend(id2), "MPI_M_suspend(alive)");

      // Post-shrink gather: full survivor rows, rc == MPI_M_SUCCESS, and
      // not a single sentinel — the dead rank is simply not a member.
      const int n = mpi::comm_size(alive);
      std::vector<unsigned long> counts(
          static_cast<std::size_t>(n) * static_cast<std::size_t>(n));
      const int rc = MPI_M_allgather_data(id2, counts.data(),
                                          MPI_M_DATA_IGNORE, MPI_M_ALL_COMM);
      bool clean = rc == MPI_M_SUCCESS;
      for (unsigned long v : counts) clean = clean && v != MPI_M_DATA_MISSING;
      mon::check_rc(MPI_M_free(id2), "MPI_M_free(alive)");

      if (mpi::comm_rank(alive) == 0) {
        fell_back = res.fell_back;
        reason = res.fallback_reason;
        identity =
            res.k == reorder::identity_k(static_cast<std::size_t>(nranks));
        shrunk_size = n;
        post_gather_ok = clean;
        final_res = done;

        // Telemetry through the portable front: resolve the pvar by name
        // and read the calling rank's retransmit count.
        mpit::Runtime& rt = mpit::Runtime::of(ctx.engine());
        const int idx =
            mpit::pvar_index_by_name("mpim_fault_retransmits_total");
        const int sid = rt.session_create();
        const int h = rt.handle_alloc(sid, idx, alive);
        rt.handle_read(sid, h, &my_retransmits, 1);
        rt.session_free(sid);
      }
    });
    faulty_clocks[rep] = sim->engine().final_clocks();
    last = std::move(sim);
  }
  const bool clocks_match = faulty_clocks[0] == faulty_clocks[1];
  const bool victim_dead = last->engine().rank_dead(victim);

  // Export what telemetry saw: Chrome trace (collective spans and their
  // p2p decomposition children) + the metrics CSV monview renders.
  const telemetry::Hub& hub = last->engine().telemetry();
  std::error_code ec;
  std::filesystem::create_directories("results", ec);
  const char* trace_path = "results/faulty_reorder_trace.json";
  const char* metrics_path = "results/faulty_reorder_metrics.csv";
  const char* spans_path = "results/faulty_reorder_spans.csv";
  if (!ec) {
    telemetry::write_chrome_trace_file(hub, trace_path);
    telemetry::write_metrics_csv_file(hub, metrics_path);
    telemetry::write_spans_csv_file(hub, spans_path);
  }

  using telemetry::Metric;
  const auto& reg = hub.registry();
  const unsigned long retransmits =
      static_cast<unsigned long>(reg.counter_total(Metric::fault_retransmits));
  const unsigned long timeouts = static_cast<unsigned long>(
      reg.counter_total(Metric::mon_gather_timeouts));
  const unsigned long dead_skips =
      static_cast<unsigned long>(reg.counter_total(Metric::mon_dead_skips));
  const unsigned long fallbacks =
      static_cast<unsigned long>(reg.counter_total(Metric::reorder_identity));

  std::printf("CG class S on %d scattered ranks, one monitored iteration\n",
              nranks);
  std::printf("rank %d crashes at virtual t=%.6f s\n", victim, crash_at);
  std::printf("reorder fell back to identity: %s\n",
              fell_back ? "yes" : "NO (unexpected)");
  std::printf("fallback reason: %s\n",
              reason.empty() ? "(none)" : reason.c_str());
  std::printf("permutation is the identity: %s\n", identity ? "yes" : "NO");
  std::printf("survivors shrank world to %d ranks and finished: %d "
              "iterations, residual %.3e\n",
              shrunk_size, final_res.iterations, final_res.residual_norm2);
  std::printf("post-shrink allgather: %s\n",
              post_gather_ok ? "MPI_M_SUCCESS, full survivor rows"
                             : "FAILED (unexpected)");
  std::printf("faulty-run clocks bit-identical across reruns: %s\n",
              clocks_match ? "yes" : "NO");
  std::printf("\ntelemetry: %llu retransmits (%lu on rank 0 via pvar), "
              "%lu gather timeouts, %lu dead-row skips, %lu identity "
              "fallbacks\n",
              static_cast<unsigned long long>(retransmits), my_retransmits,
              timeouts, dead_skips, fallbacks);
  std::printf("exported %s, %s, %s (try: monview %s %s)\n", trace_path,
              metrics_path, spans_path, metrics_path, spans_path);
  return fell_back && identity && victim_dead &&
                 shrunk_size == nranks - 1 && post_gather_ok &&
                 clocks_match && retransmits > 0
             ? 0
             : 1;
}
