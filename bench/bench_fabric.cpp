// Cross-fabric reorder benchmarks -- the Fig. 7 / Table 1 cut re-run per
// network fabric (balanced tree, 4-ary fat-tree at 2:1 oversubscription,
// dragonfly 4x9x2).
//
// Table fabric_reorder_gain: for each fabric and NP in {64 (the paper's
// smallest Fig. 7 world), 1024 (fiber backend)}, run a 2-D halo-exchange
// workload from a *random* machine-wide mapping, then monitor one
// iteration, reorder the ranks with TreeMatch against the fabric
// hierarchy (the paper's Figure-1 step) and rerun on the optimized
// communicator. Reported: the steady-state plain/reordered time ratio
// (the one-time monitoring + TreeMatch cost is the scale table's and
// Fig. 7's subject). Expected shape: the reordering never loses, and the
// size of the gain *differs by fabric* -- routed fabrics price locality
// through trunk/global-link sharing, not just NIC serialization, so the
// same permutation is worth a different amount on each of them.
//
// Table fabric_treematch_scale: wall time of the hierarchical-TreeMatch
// reorder decision (sparse 2-D stencil affinity) per fabric at NP = 1024
// and 4096. The np=4096 rows must finish under 1 s with a mapping cost no
// worse than the sequential-fill (bynode) baseline; the np=1024 rows
// export reorders_per_sec, a hot-path inverse gate in
// scripts/bench_trend.py.
#include <chrono>
#include <cmath>
#include <limits>

#include "bench_common.h"
#include "mpimon/mpi_monitoring.h"
#include "mpimon/session.hpp"
#include "reorder/reorder.h"
#include "support/rng.h"
#include "treematch/treematch.h"

namespace {

using namespace mpim;

struct FabricUnderTest {
  const char* label;  ///< row label (also the MPIM_TOPO-style spec)
  const char* spec;
};

constexpr FabricUnderTest kFabrics[] = {
    {"tree", "tree"},
    {"fattree_2to1", "fattree:4,2,2"},
    {"dragonfly", "dragonfly:4,9,2"},
};

/// Random placement over the *whole* machine: rank i starts on a shuffled
/// stride-spread leaf, so a np=64 job on a 16-node fat-tree spans every
/// switch (topo::random_placement shuffles the packed first-np leaves,
/// which would confine small jobs to the first nodes and hide the fabric).
topo::Placement scattered_placement(int np, const topo::Fabric& fab,
                                    unsigned long seed) {
  const int stride = std::max(1, fab.num_leaves() / np);
  topo::Placement p(static_cast<std::size_t>(np));
  for (int i = 0; i < np; ++i) p[static_cast<std::size_t>(i)] = i * stride;
  Rng rng(seed);
  shuffle(p, rng);
  return p;
}

mpi::EngineConfig fabric_config(const char* spec_text, int np,
                                unsigned long seed) {
  const auto spec = topo::parse_fabric_spec(spec_text);
  if (!spec) std::abort();
  auto fab = topo::make_fabric(*spec, np);
  auto cost = net::CostModel::for_fabric(fab);
  auto placement = scattered_placement(np, *fab, seed);
  mpi::EngineConfig cfg{.cost_model = std::move(cost),
                        .placement = std::move(placement)};
  cfg.watchdog_wall_timeout_s = 120.0;
  cfg.nic_contention = true;
  cfg.nic_port_beta_scale = 2.0;
  // Large worlds ride the fiber backend (one OS thread per rank does not
  // reach np=1024); clocks are bit-identical across backends.
  cfg.sched = np >= 512 ? mpi::SchedMode::fibers : mpi::SchedMode::threads;
  return cfg;
}

/// One iteration of a 2-D torus halo exchange in rank space: every rank
/// swaps `bytes` with its four grid neighbours. Under a random placement
/// the neighbours sit on arbitrary nodes; TreeMatch re-clusters them.
void halo_iteration(const mpi::Comm& comm, int side, std::size_t bytes,
                    int tag) {
  const int np = mpi::comm_size(comm);
  const int me = mpi::comm_rank(comm);
  const int r = me / side, c = me % side;
  const int nbr[4] = {((r + 1) % side) * side + c,
                      ((r + side - 1) % side) * side + c,
                      r * side + (c + 1) % side,
                      r * side + (c + side - 1) % side};
  std::vector<char> sendbuf(bytes, 'h'), recvbuf(bytes);
  for (int k = 0; k < 4; ++k) {
    if (nbr[k] == me || nbr[k] >= np) continue;
    mpi::sendrecv(sendbuf.data(), bytes, mpi::Type::Char, nbr[k], tag + k,
                  recvbuf.data(), bytes, nbr[(k % 2 == 0) ? k + 1 : k - 1],
                  tag + k, comm);
  }
}

struct GainCell {
  double exec_ratio = 0.0;  ///< t_plain / t_reordered (virtual time)
  bool reordered = false;   ///< TreeMatch proposal beat the identity
};

GainCell run_gain_cell(const char* spec, int np, int iters,
                       std::size_t bytes) {
  const int side = static_cast<int>(std::round(std::sqrt(np)));
  auto cfg = fabric_config(spec, np, /*seed=*/23);
  Sim sim(std::move(cfg));
  GainCell cell;
  sim.run([&](mpi::Ctx& ctx) {
    const mpi::Comm world = ctx.world();

    // Steady-state halo time on the random placement.
    double t0 = mpi::wtime();
    for (int it = 0; it < iters; ++it)
      halo_iteration(world, side, bytes, 100 * it);
    const double t_plain = mpi::wtime() - t0;

    // Monitored init iteration + Figure-1 reorder, then the same solve on
    // the optimized communicator. The timed window is the steady state
    // *after* the one-time reorder: a long-running app pays monitoring and
    // TreeMatch once (that cost is the scale table's subject, and Fig. 7
    // charges it against a full CG solve); this table isolates what the
    // permutation is worth per iteration on each fabric.
    mon::check_rc(MPI_M_init(), "init");
    const auto res = reorder::monitor_and_reorder(
        world, [&](const mpi::Comm& c) { halo_iteration(c, side, bytes, 7); });
    t0 = mpi::wtime();
    for (int it = 0; it < iters; ++it)
      halo_iteration(res.opt_comm, side, bytes, 100 * it);
    const double t_opt = mpi::wtime() - t0;
    mon::check_rc(MPI_M_finalize(), "finalize");

    bool identity = true;
    for (std::size_t i = 0; i < res.k.size(); ++i)
      identity = identity && res.k[i] == static_cast<int>(i);
    if (ctx.world_rank() == 0) {
      cell.exec_ratio = t_plain / t_opt;
      cell.reordered = !identity;
    }
  });
  return cell;
}

/// Sparse 2-D 4-neighbour stencil affinity plus a sprinkle of long-range
/// heavy rows (same generator family as bench_table1).
tm::AffinityGraph stencil_affinity(int n, unsigned long seed) {
  const int side = static_cast<int>(std::round(std::sqrt(n)));
  tm::AffinityGraph g(static_cast<std::size_t>(n));
  auto id = [&](int r, int c) { return r * side + c; };
  for (int r = 0; r < side; ++r) {
    for (int c = 0; c < side; ++c) {
      if (id(r, c) >= n) continue;
      if (c + 1 < side && id(r, c + 1) < n)
        g.add_edge(id(r, c), id(r, c + 1), 1000.0);
      if (r + 1 < side && id(r + 1, c) < n)
        g.add_edge(id(r, c), id(r + 1, c), 1000.0);
    }
  }
  Rng rng(seed);
  for (int i = 0; i < n / 16; ++i) {
    const int u = static_cast<int>(
        rng.uniform_u64(0, static_cast<std::uint64_t>(n - 1)));
    const int v = static_cast<int>(
        rng.uniform_u64(0, static_cast<std::uint64_t>(n - 1)));
    if (u != v) g.add_edge(u, v, rng.uniform(1.0, 5000.0));
  }
  g.finalize();
  return g;
}

}  // namespace

int main(int argc, char** argv) {
  const auto opt = bench::parse_options(argc, argv);

  bench::banner(
      "fabric reorder gain: halo exchange from a random mapping, per fabric");
  const std::vector<int> gain_nps =
      opt.quick ? std::vector<int>{64} : std::vector<int>{64, 1024};
  Table gain({"fabric_np", "exec-time ratio", "treematch applied"});
  int cells = 0, wins = 0;
  double ratio_min = 1e30, ratio_max = 0.0;
  for (const auto& f : kFabrics) {
    for (int np : gain_nps) {
      const int iters = np >= 1024 ? 6 : 12;
      const GainCell cell =
          run_gain_cell(f.spec, np, iters, /*bytes=*/1 << 14);
      gain.add(std::string(f.label) + "_np" + std::to_string(np),
               format_sig(cell.exec_ratio, 4), cell.reordered ? "yes" : "no");
      ++cells;
      wins += cell.exec_ratio >= 0.99;
      if (np == gain_nps.back()) {
        ratio_min = std::min(ratio_min, cell.exec_ratio);
        ratio_max = std::max(ratio_max, cell.exec_ratio);
      }
    }
  }
  gain.print(std::cout);
  bench::maybe_csv(opt, gain, "fabric_reorder_gain");
  const bool differs = ratio_max - ratio_min > 0.01;
  std::printf("reordering not worse in %d/%d cells; gain spread across "
              "fabrics at np=%d: %.3fx..%.3fx\n",
              wins, cells, gain_nps.back(), ratio_min, ratio_max);

  bench::banner("hierarchical TreeMatch scaling on sparse stencil affinity");
  const std::vector<int> scale_nps =
      opt.quick ? std::vector<int>{1024} : std::vector<int>{1024, 4096};
  Table scale({"fabric_np", "edges", "reorder time (s)", "mapping cost",
               "bynode cost", "reorders_per_sec"});
  bool sub_second = true, never_worse = true;
  for (const auto& f : kFabrics) {
    for (int np : scale_nps) {
      const auto spec = topo::parse_fabric_spec(f.spec);
      const auto fab = topo::make_fabric(*spec, np);
      const auto cost = net::CostModel::for_fabric(fab);
      const auto g = stencil_affinity(np, 7);
      // Best of three: host-timer noise on the sub-second reorder would
      // otherwise flake the 10% trend gate on reorders_per_sec.
      double secs = std::numeric_limits<double>::infinity();
      std::vector<int> map;
      for (int rep = 0; rep < 3; ++rep) {
        const auto t0 = std::chrono::steady_clock::now();
        map = tm::treematch_leaves(g, fab->hierarchy());
        const auto t1 = std::chrono::steady_clock::now();
        secs = std::min(secs,
                        std::chrono::duration<double>(t1 - t0).count());
      }
      const double c_tm = tm::mapping_cost(g, map, cost);
      const auto bynode = topo::bynode_placement(np, fab->hierarchy());
      const double c_base = tm::mapping_cost(g, bynode, cost);
      // Only np=1024 exports the gated rate: 4096 wall times are long
      // enough that run-to-run noise stays under the 10% trend limit, but
      // the ISSUE pins the gate at 1024 -- larger rows are informational.
      scale.add(std::string(f.label) + "_np" + std::to_string(np),
                g.edge_count(), format_sig(secs, 3), format_sig(c_tm, 4),
                format_sig(c_base, 4),
                np == 1024 ? format_sig(1.0 / secs, 4) : std::string("-"));
      if (np == 4096) sub_second = sub_second && secs < 1.0;
      never_worse = never_worse && c_tm <= c_base * (1.0 + 1e-9);
      if (map.empty()) return 1;
    }
  }
  scale.print(std::cout);
  bench::maybe_csv(opt, scale, "fabric_treematch_scale");

  bench::banner("summary");
  std::printf("np=4096 hierarchical reorder under 1 s: %s\n",
              opt.quick ? "skipped (--quick)" : (sub_second ? "yes" : "NO"));
  std::printf("TreeMatch mapping cost <= bynode baseline everywhere: %s\n",
              never_worse ? "yes" : "NO");
  std::printf("PAPER SHAPE %s: reordering helps on every fabric and the "
              "gain depends on the fabric\n",
              (wins == cells && (opt.quick || differs) && never_worse)
                  ? "REPRODUCED"
                  : "NOT reproduced");
  return (wins == cells && never_worse && (opt.quick || sub_second)) ? 0 : 1;
}
