// Distributed conjugate-gradient solver (the paper's Section 6.5 workload).
//
// The NAS CG kernel is not redistributable here (no Fortran, no NAS data
// generator), so this is an honest CG on the 5-point 2-D Poisson matrix
// with a 2-D block process grid -- it keeps the property the experiment
// relies on: the communication pattern of every iteration is identical
// (four halo exchanges per SpMV plus two allreduce dot products), so
// monitoring one iteration predicts all others. Problem classes follow the
// NAS naming with sizes scaled to the simulator (DESIGN.md, divergences).
//
// Like NAS CG, the code has an initialization step that performs one
// untimed iteration: the reordering benches monitor that step, reorder,
// and re-setup on the optimized communicator instead of redistributing.
#pragma once

#include <vector>

#include "apps/halo.h"  // BlockHalo
#include "minimpi/api.h"

namespace mpim::apps {

struct CgConfig {
  int grid_n = 192;       ///< global grid is grid_n x grid_n unknowns
  int max_iters = 15;     ///< CG iterations (fixed count, NAS-style)
  unsigned long seed = 42;  ///< right-hand-side generator seed
};

/// NAS-inspired classes, sizes scaled for the simulator.
CgConfig cg_class(char cls);  // 'S','A','B','C','D'

struct CgResult {
  int iterations = 0;
  double residual_norm2 = 0.0;  ///< ||b - A x||^2 at exit
  double total_time_s = 0.0;    ///< virtual walltime of the solve (this rank)
  double comm_time_s = 0.0;     ///< virtual time spent inside MPI calls
};

/// The CG recurrence both solvers share: per iteration an allreduce for
/// rho = r.r, q = A p, an allreduce for p.q, the x/r update, an allreduce
/// for the new rho and the p update. A solver derives from it, lays out
/// its pieces of b/x/r/p/q and supplies apply_operator(). All members of
/// `comm` must construct a solver collectively with the same config.
class CgRecurrence {
 public:
  virtual ~CgRecurrence() = default;
  CgRecurrence(const CgRecurrence&) = delete;
  CgRecurrence& operator=(const CgRecurrence&) = delete;

  /// One CG iteration (the communication pattern the monitoring sees).
  /// Returns rho = r.r after the step.
  double iteration();

  /// Full solve: reinitializes the state and runs max_iters iterations.
  CgResult solve();

  const mpi::Comm& comm() const { return comm_; }
  int grid_rows() const { return pr_; }
  int grid_cols() const { return pc_; }

 protected:
  /// `grid` factorizes comm.size() into the pr x pc process grid, on
  /// which ranks are numbered row-major.
  CgRecurrence(const mpi::Comm& comm, const CgConfig& cfg,
               void (*grid)(int nprocs, int* pr, int* pc));

  /// q = A p over this rank's pieces.
  virtual void apply_operator() = 0;

  /// x = 0, r = p = b and q sized like b; zeroes the comm time.
  void reset_state();

  /// Runs the MPI calls in `fn`, adding their virtual time to comm_time_s.
  template <typename Fn>
  void timed(Fn&& fn) {
    const double t0 = mpi::wtime();
    fn();
    comm_time_s_ += mpi::wtime() - t0;
  }

  mpi::Comm comm_;
  CgConfig cfg_;
  int pr_ = 0, pc_ = 0;      ///< process grid
  int prow_ = 0, pcol_ = 0;  ///< my coordinates
  /// This rank's pieces: the solver fills b, reset_state sizes the rest.
  std::vector<double> b_, x_, r_, p_, q_;

 private:
  double dot(const std::vector<double>& a, const std::vector<double>& b);

  double comm_time_s_ = 0.0;
};

/// Distributed CG instance bound to a communicator: 2-D blocks of the
/// grid, the operator applied as a 5-point stencil after a BlockHalo
/// exchange.
class CgSolver : public CgRecurrence {
 public:
  CgSolver(const mpi::Comm& comm, const CgConfig& cfg);

 private:
  /// q = A p for the local block, after refreshing the halos of p.
  void apply_operator() override;

  int local_rows_ = 0, local_cols_ = 0;
  BlockHalo halo_;
};

/// Process-grid factorization used by the solver (pr x pc, pr <= pc,
/// both powers of two for power-of-two sizes -- the NAS constraint).
void cg_process_grid(int nprocs, int* pr, int* pc);

/// Deterministic right-hand-side entry, independent of the partitioning
/// (shared by CgSolver and NasCgSolver so their numerics agree).
double cg_rhs_value(unsigned long seed, long global_index);

}  // namespace mpim::apps
