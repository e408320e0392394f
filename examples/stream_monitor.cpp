// Continuous monitoring of a faulty run, end to end: the streaming
// aggregation plane watches a ring exchange while a link degrades, a rank
// dies, and the survivors recover -- and its run-end findings name the
// degraded link, the affected epoch windows, and the recovery reactions
// that followed, correlated across layers that record independently.
//
// The timeline (virtual seconds, epoch_s = 5e-4):
//
//   t in [0.002, 0.006)   link 0->1 degraded x8 (plus ~5% drop with sender
//                         retransmit all run) -- the netmodel layer
//   t = 0.009             rank 6 crashes -- the fault layer
//   t ~ 0.012             survivors dead-skip the hole, shrink the world,
//                         rebind the monitored session, keep exchanging,
//                         and run a TreeMatch reorder -- the mpimon layer
//
// A windowed snapshot sampler streams introspection frames into the plane
// throughout. At run end the correlator joins fault-plan ground truth, NIC
// transmit counters, retransmit/epoch series, frames, and the recovery
// event lane into findings, all of it also appended per epoch to a JSONL
// stream a live dashboard can tail:
//
//   monview --live results/stream_monitor.jsonl --once
//
// The same workload runs twice, with and without the plane attached: the
// final virtual clocks must be bit-identical (monitoring never charges
// virtual time). Exit status is non-zero if any of that fails.
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "fault/fault_plan.h"
#include "minimpi/api.h"
#include "minimpi/engine.h"
#include "minimpi/ft.h"
#include "mpimon/mpi_monitoring.h"
#include "mpimon/session.hpp"
#include "mpimon/sim.h"
#include "obsplane/plane.h"
#include "reorder/reorder.h"

namespace {

using namespace mpim;
using telemetry::Metric;

constexpr int kRanks = 8;
constexpr int kVictim = 6;
constexpr double kEpochS = 5e-4;
constexpr double kDegradeFrom = 2e-3;
constexpr double kDegradeUntil = 6e-3;
constexpr double kCrashAt = 9e-3;

mpi::EngineConfig make_cfg() {
  auto cost = net::CostModel::plafrim_like(2);
  // Ranks alternate nodes so every ring hop crosses the node boundary:
  // NIC transmit counters only see inter-node bytes, and the correlator
  // reads per-node transmit rates from them for throughput-dip evidence.
  mpi::EngineConfig cfg{
      .cost_model = cost,
      .placement = topo::bynode_placement(kRanks, cost.topology())};
  auto plan = std::make_shared<fault::FaultPlan>(/*seed=*/7);
  fault::LinkFault lf;
  lf.src = 0;
  lf.dst = 1;
  lf.drop_prob = 0.3;
  lf.max_retransmits = 8;
  lf.retransmit_backoff_s = 1e-7;
  lf.degrade_from_s = kDegradeFrom;
  lf.degrade_until_s = kDegradeUntil;
  lf.degrade_factor = 8.0;
  plan->add(lf);
  plan->add(fault::RankFault{.rank = kVictim, .crash_at_s = kCrashAt});
  cfg.fault_plan = std::move(plan);
  return cfg;
}

/// The monitored faulty workload. With `with_reorder` false it is a pure
/// function of virtual time and reproduces bit for bit; the TreeMatch step
/// charges its *host* CPU time to rank 0's clock (the paper's t2), so the
/// run that exercises it is excluded from the clock-identity comparison.
void workload(mpi::Ctx& ctx, bool with_reorder) {
  const mpi::Comm world = ctx.world();
  mpi::comm_set_errhandler(world, mpi::ErrMode::ret);
  const int me = ctx.world_rank();
  const int n = mpi::comm_size(world);

  mon::Environment env;
  mon::check_rc(MPI_M_set_gather_timeout(0.25), "MPI_M_set_gather_timeout");
  MPI_M_msid id = -1;
  mon::check_rc(MPI_M_start(world, &id), "MPI_M_start");
  mon::check_rc(MPI_M_snapshot_start(id, 1e-3, 256, MPI_M_ALL_COMM),
                "MPI_M_snapshot_start");

  // Ring exchange through the degradation window (a fixed iteration count
  // keeps the coupled ring aligned; every rank is still alive here -- the
  // loop ends around t~4.5e-3, well before the crash).
  std::vector<char> sbuf(4096, 1), rbuf(4096);
  for (int it = 0; it < 20; ++it) {
    mpi::compute(2e-4);
    mpi::sendrecv(sbuf.data(), sbuf.size(), mpi::Type::Byte, (me + 1) % n, 0,
                  rbuf.data(), rbuf.size(), (me + n - 1) % n, 0, world);
  }
  // A compute phase carries every clock past the crash instant; the victim
  // dies mid-compute at kCrashAt and never returns from this call.
  mpi::compute(6e-3);

  // Recovery: the world-bound gather dead-skips the victim's row, the
  // survivors shrink, the session rebinds onto the survivor communicator,
  // records more traffic, and a TreeMatch reorder runs on the full rows.
  mon::check_rc(MPI_M_suspend(id), "MPI_M_suspend");
  std::vector<unsigned long> rows(
      static_cast<std::size_t>(n) * static_cast<std::size_t>(n));
  MPI_M_allgather_data(id, rows.data(), MPI_M_DATA_IGNORE, MPI_M_ALL_COMM);

  const mpi::Comm alive = mpi::comm_shrink(world);
  mon::check_rc(MPI_M_rebind(id, alive), "MPI_M_rebind");
  mon::check_rc(MPI_M_continue(id), "MPI_M_continue");
  const int m = mpi::comm_rank(alive);
  const int k = mpi::comm_size(alive);
  for (int it = 0; it < 8; ++it) {
    mpi::compute(2e-4);
    mpi::sendrecv(sbuf.data(), sbuf.size(), mpi::Type::Byte, (m + 1) % k, 1,
                  rbuf.data(), rbuf.size(), (m + k - 1) % k, 1, alive);
  }
  mon::check_rc(MPI_M_suspend(id), "MPI_M_suspend(alive)");
  if (with_reorder) reorder::reorder_ranks(id, alive);
  mon::check_rc(MPI_M_free(id), "MPI_M_free");
}

bool has_line(const std::string& path, const std::string& needle) {
  std::ifstream f(path);
  std::string line;
  while (std::getline(f, line))
    if (line.find(needle) != std::string::npos) return true;
  return false;
}

}  // namespace

int main() {
  std::error_code ec;
  std::filesystem::create_directories("results", ec);
  const std::string stream_path = "results/stream_monitor.jsonl";
  const std::string prom_path = "results/stream_monitor.prom";

  // --- Runs 1+2: clock identity, plane off vs on --------------------------
  // Reorder excluded: its TreeMatch step charges host CPU time (see
  // workload()), everything else is a pure function of virtual time.
  Sim bare(make_cfg());
  bare.run([](mpi::Ctx& ctx) { workload(ctx, false); });
  const std::vector<double> base_clocks = bare.engine().final_clocks();

  Sim checked(make_cfg());
  auto check_plane = obsplane::Plane::attach(checked.engine(),
                                             {.epoch_s = kEpochS});
  checked.run([](mpi::Ctx& ctx) { workload(ctx, false); });
  const bool clocks_match = checked.engine().final_clocks() == base_clocks;

  // --- Run 3: full workload, plane attached and streaming -----------------
  Sim monitored(make_cfg());
  obsplane::PlaneConfig pcfg;
  pcfg.job = "stream_monitor";
  pcfg.epoch_s = kEpochS;
  pcfg.stream_path = stream_path;
  pcfg.prom_path = prom_path;
  auto plane = obsplane::Plane::attach(monitored.engine(), pcfg);
  monitored.run([](mpi::Ctx& ctx) { workload(ctx, true); });

  const bool victim_dead = monitored.engine().rank_dead(kVictim);

  // --- What did the plane conclude? ---------------------------------------
  bool link_finding = false;
  bool link_triggered = false;
  bool crash_finding = false;
  const auto findings = plane->findings();
  for (const auto& f : findings) {
    if (f.kind == "link_degraded" && f.subject == "link 0->1") {
      link_finding = true;
      link_triggered = f.text.find("triggered:") != std::string::npos;
    }
    if (f.kind == "rank_crash" &&
        f.subject == "rank " + std::to_string(kVictim))
      crash_finding = true;
    std::printf("finding [%s] epochs %ld..%ld: %s\n", f.kind.c_str(), f.e0,
                f.e1, f.text.c_str());
  }

  const bool stream_complete = has_line(stream_path, "\"type\":\"run_start\"") &&
                               has_line(stream_path, "\"type\":\"epoch_end\"") &&
                               has_line(stream_path, "\"what\":\"crash\"") &&
                               has_line(stream_path, "\"type\":\"run_end\"");
  const auto& hub = monitored.engine().telemetry();
  const unsigned long retransmits = static_cast<unsigned long>(
      hub.registry().counter_total(Metric::fault_retransmits));

  std::printf("\nring exchange on %d ranks, link 0->1 degraded x8 in "
              "t=[%g, %g)s, rank %d crashed at t=%gs\n",
              kRanks, kDegradeFrom, kDegradeUntil, kVictim, kCrashAt);
  std::printf("virtual clocks bit-identical with plane on/off: %s\n",
              clocks_match ? "yes" : "NO");
  std::printf("plane: %llu events ingested, %llu dropped, %llu epochs, "
              "%zu findings, %lu retransmits\n",
              static_cast<unsigned long long>(plane->events_ingested()),
              static_cast<unsigned long long>(plane->events_dropped()),
              static_cast<unsigned long long>(plane->epochs_emitted()),
              findings.size(), retransmits);
  std::printf("degraded-link finding names the link and its windows: %s; "
              "recovery events listed: %s\n",
              link_finding ? "yes" : "NO", link_triggered ? "yes" : "NO");
  std::printf("crash finding for rank %d: %s\n", kVictim,
              crash_finding ? "yes" : "NO");
  std::printf("stream %s complete (run_start..run_end with crash event): %s\n",
              stream_path.c_str(), stream_complete ? "yes" : "NO");
  std::printf("try: monview --live %s --once\n", stream_path.c_str());

  return clocks_match && victim_dead && link_finding && link_triggered &&
                 crash_finding && stream_complete && retransmits > 0
             ? 0
             : 1;
}
