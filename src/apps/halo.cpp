#include "apps/halo.h"

#include "apps/cg.h"  // cg_process_grid
#include "support/rng.h"

namespace mpim::apps {

BlockHalo::BlockHalo(int pr, int pc, int rank, int rows, int cols)
    : rows_(static_cast<std::size_t>(rows)),
      cols_(static_cast<std::size_t>(cols)),
      north_(cols_, 0.0),
      south_(cols_, 0.0),
      west_(rows_, 0.0),
      east_(rows_, 0.0),
      edge_w_(rows_),
      edge_e_(rows_) {
  const int prow = rank / pc;
  const int pcol = rank % pc;
  up_ = prow > 0 ? rank - pc : -1;
  down_ = prow + 1 < pr ? rank + pc : -1;
  left_ = pcol > 0 ? rank - 1 : -1;
  right_ = pcol + 1 < pc ? rank + 1 : -1;
}

void BlockHalo::exchange(const double* v, const mpi::Comm& comm) {
  for (std::size_t i = 0; i < rows_; ++i) {
    edge_w_[i] = v[i * cols_];
    edge_e_[i] = v[i * cols_ + cols_ - 1];
  }
  // Eager sends: post all four, then receive all four.
  if (up_ >= 0) mpi::send(v, cols_, mpi::Type::Double, up_, 0, comm);
  if (down_ >= 0)
    mpi::send(v + (rows_ - 1) * cols_, cols_, mpi::Type::Double, down_, 1,
              comm);
  if (left_ >= 0)
    mpi::send(edge_w_.data(), rows_, mpi::Type::Double, left_, 2, comm);
  if (right_ >= 0)
    mpi::send(edge_e_.data(), rows_, mpi::Type::Double, right_, 3, comm);
  if (up_ >= 0)
    mpi::recv(north_.data(), cols_, mpi::Type::Double, up_, 1, comm);
  if (down_ >= 0)
    mpi::recv(south_.data(), cols_, mpi::Type::Double, down_, 0, comm);
  if (left_ >= 0)
    mpi::recv(west_.data(), rows_, mpi::Type::Double, left_, 3, comm);
  if (right_ >= 0)
    mpi::recv(east_.data(), rows_, mpi::Type::Double, right_, 2, comm);
}

HaloResult run_halo(const mpi::Comm& comm, const HaloConfig& cfg) {
  int pr = 0, pc = 0;
  cg_process_grid(comm.size(), &pr, &pc);
  const int myrank = mpi::comm_rank(comm);
  const int n = cfg.local_n;
  const auto nn = static_cast<std::size_t>(n);

  std::vector<double> grid(nn * nn), next(nn * nn);
  Rng rng(cfg.seed + static_cast<unsigned long>(myrank));
  for (double& v : grid) v = rng.uniform();

  BlockHalo halo(pr, pc, myrank, n, n);
  // Local ghost refs: a BlockHalo accessor here ran 1.75x slower (PERF.md).
  const std::vector<double>& halo_n = halo.north();
  const std::vector<double>& halo_s = halo.south();
  const std::vector<double>& halo_w = halo.west();
  const std::vector<double>& halo_e = halo.east();

  HaloResult out;
  const double t0 = mpi::wtime();
  for (int it = 0; it < cfg.iters; ++it) {
    if (myrank == cfg.slow_rank && cfg.slow_extra_s > 0.0)
      mpi::compute(cfg.slow_extra_s);
    const double c0 = mpi::wtime();
    halo.exchange(grid.data(), comm);
    out.comm_time_s += mpi::wtime() - c0;

    auto at = [&](int i, int j) -> double {
      if (i < 0) return halo_n[static_cast<std::size_t>(j)];
      if (i >= n) return halo_s[static_cast<std::size_t>(j)];
      if (j < 0) return halo_w[static_cast<std::size_t>(i)];
      if (j >= n) return halo_e[static_cast<std::size_t>(i)];
      return grid[static_cast<std::size_t>(i) * nn +
                  static_cast<std::size_t>(j)];
    };
    for (int i = 0; i < n; ++i)
      for (int j = 0; j < n; ++j)
        next[static_cast<std::size_t>(i) * nn + static_cast<std::size_t>(j)] =
            0.25 * (at(i - 1, j) + at(i + 1, j) + at(i, j - 1) + at(i, j + 1));
    grid.swap(next);
    mpi::compute_flops(4.0 * static_cast<double>(nn * nn));
  }
  out.total_time_s = mpi::wtime() - t0;

  double local = 0.0;
  for (double v : grid) local += v;
  mpi::allreduce(&local, &out.checksum, 1, mpi::Type::Double, mpi::Op::Sum,
                 comm);
  return out;
}

}  // namespace mpim::apps
