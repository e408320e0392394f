// Tour of the fabric-aware network stack: build a fat-tree from a spec
// string (the MPIM_TOPO grammar), run a bursty ring workload under windowed
// snapshots from a deliberately scattered placement, and dump the
// per-window matrices -- annotated with the per-link-class mismatch
// decomposition -- to results/fabric_frames.csv for `monview --timeline`.
#include <cstdio>
#include <vector>

#include "introspect/analyzer.h"
#include "minimpi/api.h"
#include "mpimon/mpi_monitoring.h"
#include "mpimon/session.hpp"
#include "mpimon/sim.h"

namespace {

using namespace mpim;

/// `iters` ring exchanges of `bytes` chars (every rank sends to the next
/// and receives from the previous one).
void exchange_ring(const mpi::Comm& comm, std::size_t bytes, int iters) {
  const int n = mpi::comm_size(comm);
  const int me = mpi::comm_rank(comm);
  std::vector<char> buf(bytes, 'r');
  for (int it = 0; it < iters; ++it) {
    mpi::sendrecv(buf.data(), buf.size(), mpi::Type::Char, (me + 1) % n, it,
                  buf.data(), buf.size(), (me + n - 1) % n, it, comm);
  }
}

}  // namespace

int main() {
  using namespace mpim;

  // A 2-ary 2-level fat-tree at 2:1 oversubscription: 4 nodes, a single
  // trunk per direction per switch, sized like MPIM_TOPO would size it.
  // 64 ranks over the 96 PUs: the shuffled placement spans three of the
  // four nodes and both pods, so ring traffic exercises every link class.
  const int nranks = 64;
  const auto spec = topo::parse_fabric_spec("fattree:2,2,2");
  const auto fabric = topo::make_fabric(*spec, nranks);
  mpi::EngineConfig cfg{
      .cost_model = net::CostModel::for_fabric(fabric),
      .placement = topo::random_placement(nranks, fabric->hierarchy(), 41)};
  cfg.nic_contention = true;
  Sim sim(std::move(cfg));

  std::vector<introspect::FrameMatrix> frames;
  sim.run([&](mpi::Ctx& ctx) {
    const mpi::Comm world = ctx.world();
    mon::Environment env;
    MPI_M_msid id = -1;
    mon::check_rc(MPI_M_start(world, &id), "start");
    mon::check_rc(MPI_M_snapshot_start(id, /*window_s=*/1e-3,
                                       /*max_frames=*/64, MPI_M_ALL_COMM),
                  "snapshot_start");

    exchange_ring(world, 4096, 3);  // burst 1
    mpi::compute(5e-3);             // silence
    exchange_ring(world, 8192, 2);  // burst 2
    mpi::compute(2e-3);             // close the last window
    mon::check_rc(MPI_M_suspend(id), "suspend");

    const int K = 64;
    const std::size_t n = static_cast<std::size_t>(nranks);
    int W = 0;
    std::vector<double> t0(K), t1(K);
    std::vector<unsigned long> counts(K * n * n), bytes(K * n * n);
    mon::check_rc(MPI_M_get_frames(id, K, &W, t0.data(), t1.data(),
                                   counts.data(), bytes.data(),
                                   MPI_M_ALL_COMM),
                  "get_frames");
    mon::check_rc(MPI_M_free(id), "free");

    if (ctx.world_rank() == 0) {
      for (int w = 0; w < W; ++w) {
        introspect::FrameMatrix f;
        f.window = w;
        f.t0_s = t0[w];
        f.t1_s = t1[w];
        f.counts = CommMatrix::square(n);
        f.bytes = CommMatrix::square(n);
        for (std::size_t i = 0; i < n; ++i) {
          for (std::size_t j = 0; j < n; ++j) {
            const std::size_t at = static_cast<std::size_t>(w) * n * n +
                                   i * n + j;
            f.counts(i, j) = counts[at];
            f.bytes(i, j) = bytes[at];
          }
        }
        frames.push_back(std::move(f));
      }
    }
  });

  const topo::Fabric& fab = sim.engine().fabric();
  const topo::Placement& place = sim.engine().config().placement;
  introspect::annotate_link_class_hops(frames, fab, place);
  introspect::write_frames_csv_file("results/fabric_frames.csv", frames);

  std::printf("fabric: %s (%d nodes, %d links, %d link classes)\n",
              fab.describe().c_str(), fab.num_nodes(), fab.num_links(),
              fab.num_link_classes());
  const auto metrics = introspect::analyze_windows(frames, fab, place);
  std::printf("%zu windows -> results/fabric_frames.csv\n", metrics.size());
  for (const auto& m : metrics) {
    if (m.bytes == 0) continue;
    std::printf("window %ld: %lu bytes, mismatch %.0f byte-hops (", m.window,
                m.bytes, m.mismatch_hops);
    bool first = true;
    for (std::size_t c = 0; c < m.class_hops.size(); ++c) {
      if (m.class_hops[c] <= 0.0) continue;
      std::printf("%s%s %.0f", first ? "" : ", ",
                  fab.link_class_name(static_cast<int>(c)).c_str(),
                  m.class_hops[c]);
      first = false;
    }
    std::printf(")\n");
  }
  std::printf("render with: monview --timeline results/fabric_frames.csv\n");
  return 0;
}
