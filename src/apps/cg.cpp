#include "apps/cg.h"

#include "support/error.h"
#include "support/rng.h"

namespace mpim::apps {

CgConfig cg_class(char cls) {
  // NAS CG classes, grid sizes rescaled to simulator-friendly budgets while
  // preserving the class-to-class growth (documented in DESIGN.md).
  switch (cls) {
    case 'S': return CgConfig{48, 10, 42};
    case 'A': return CgConfig{384, 100, 42};
    case 'B': return CgConfig{768, 150, 42};
    case 'C': return CgConfig{1152, 150, 42};
    case 'D': return CgConfig{1536, 120, 42};
    default: fail("unknown CG class");
  }
}

void cg_process_grid(int nprocs, int* pr, int* pc) {
  check(nprocs >= 1, "cg_process_grid: nprocs must be positive");
  // Largest factorization pr x pc with pr <= pc and pr a power of two when
  // nprocs is (the NAS layout: square or 1x2-rectangular grids).
  int best_r = 1;
  for (int r = 1; r * r <= nprocs; ++r)
    if (nprocs % r == 0) best_r = r;
  *pr = best_r;
  *pc = nprocs / best_r;
}

double cg_rhs_value(unsigned long seed, long global_index) {
  std::uint64_t s = seed * 0x9e3779b97f4a7c15ULL +
                    static_cast<std::uint64_t>(global_index);
  return static_cast<double>(splitmix64(s) >> 11) * 0x1.0p-53 - 0.5;
}

namespace {

int block_offset(int total, int parts, int part) {
  return static_cast<int>(static_cast<long>(total) * part / parts);
}

}  // namespace

CgRecurrence::CgRecurrence(const mpi::Comm& comm, const CgConfig& cfg,
                           void (*grid)(int nprocs, int* pr, int* pc))
    : comm_(comm), cfg_(cfg) {
  grid(comm.size(), &pr_, &pc_);
  const int myrank = mpi::comm_rank(comm);
  prow_ = myrank / pc_;
  pcol_ = myrank % pc_;
}

void CgRecurrence::reset_state() {
  x_.assign(b_.size(), 0.0);
  r_ = b_;  // r = b - A*0
  p_ = r_;
  q_.resize(b_.size());
  comm_time_s_ = 0.0;
}

double CgRecurrence::dot(const std::vector<double>& a,
                         const std::vector<double>& b) {
  double local = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) local += a[i] * b[i];
  mpi::compute_flops(2.0 * static_cast<double>(a.size()));
  double global = 0.0;
  timed([&] {
    mpi::allreduce(&local, &global, 1, mpi::Type::Double, mpi::Op::Sum,
                   comm_);
  });
  return global;
}

double CgRecurrence::iteration() {
  const double rho = dot(r_, r_);
  apply_operator();  // q = A p
  const double pq = dot(p_, q_);
  const double alpha = rho / pq;
  for (std::size_t i = 0; i < x_.size(); ++i) {
    x_[i] += alpha * p_[i];
    r_[i] -= alpha * q_[i];
  }
  double rho_new = 0.0;
  for (double v : r_) rho_new += v * v;
  mpi::compute_flops(6.0 * static_cast<double>(x_.size()));
  double rho_global = 0.0;
  timed([&] {
    mpi::allreduce(&rho_new, &rho_global, 1, mpi::Type::Double, mpi::Op::Sum,
                   comm_);
  });
  const double beta = rho_global / rho;
  for (std::size_t i = 0; i < p_.size(); ++i) p_[i] = r_[i] + beta * p_[i];
  mpi::compute_flops(2.0 * static_cast<double>(p_.size()));
  return rho_global;
}

CgResult CgRecurrence::solve() {
  reset_state();
  const double t0 = mpi::wtime();
  CgResult out;
  double rho = 0.0;
  for (int it = 0; it < cfg_.max_iters; ++it) {
    rho = iteration();
    ++out.iterations;
  }
  out.residual_norm2 = rho;
  out.total_time_s = mpi::wtime() - t0;
  out.comm_time_s = comm_time_s_;
  return out;
}

CgSolver::CgSolver(const mpi::Comm& comm, const CgConfig& cfg)
    : CgRecurrence(comm, cfg, cg_process_grid) {
  check(cfg_.grid_n >= pr_ && cfg_.grid_n >= pc_,
        "CG grid smaller than the process grid");
  const int row0 = block_offset(cfg_.grid_n, pr_, prow_);
  const int col0 = block_offset(cfg_.grid_n, pc_, pcol_);
  local_rows_ = block_offset(cfg_.grid_n, pr_, prow_ + 1) - row0;
  local_cols_ = block_offset(cfg_.grid_n, pc_, pcol_ + 1) - col0;

  b_.resize(static_cast<std::size_t>(local_rows_) *
            static_cast<std::size_t>(local_cols_));
  for (int i = 0; i < local_rows_; ++i)
    for (int j = 0; j < local_cols_; ++j)
      b_[static_cast<std::size_t>(i * local_cols_ + j)] = cg_rhs_value(
          cfg_.seed, static_cast<long>(row0 + i) * cfg_.grid_n + (col0 + j));
  reset_state();
  halo_ = BlockHalo(pr_, pc_, mpi::comm_rank(comm), local_rows_, local_cols_);
}

void CgSolver::apply_operator() {
  timed([&] { halo_.exchange(p_.data(), comm_); });
  // Local ghost refs: a BlockHalo accessor here ran 1.75x slower (PERF.md).
  const std::vector<double>& halo_n = halo_.north();
  const std::vector<double>& halo_s = halo_.south();
  const std::vector<double>& halo_w = halo_.west();
  const std::vector<double>& halo_e = halo_.east();
  auto at = [&](int i, int j) -> double {
    if (i < 0) return halo_n[static_cast<std::size_t>(j)];
    if (i >= local_rows_) return halo_s[static_cast<std::size_t>(j)];
    if (j < 0) return halo_w[static_cast<std::size_t>(i)];
    if (j >= local_cols_) return halo_e[static_cast<std::size_t>(i)];
    return p_[static_cast<std::size_t>(i * local_cols_ + j)];
  };
  for (int i = 0; i < local_rows_; ++i) {
    for (int j = 0; j < local_cols_; ++j) {
      q_[static_cast<std::size_t>(i * local_cols_ + j)] =
          4.0 * at(i, j) - at(i - 1, j) - at(i + 1, j) - at(i, j - 1) -
          at(i, j + 1);
    }
  }
  mpi::compute_flops(9.0 * static_cast<double>(p_.size()));
}

}  // namespace mpim::apps
