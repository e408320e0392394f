// 2-D Jacobi halo-exchange kernel: the "iterative computation" archetype of
// the paper's Figure-1 reordering algorithm. Each iteration smooths a local
// block and exchanges one row/column of doubles with the four grid
// neighbors -- a fixed communication pattern, ideal for monitor-once,
// reorder, iterate.
#pragma once

#include <cstddef>
#include <vector>

#include "minimpi/api.h"

namespace mpim::apps {

/// The ghost exchange of one rows x cols row-major block on a pr x pc
/// process grid (ranks row-major on the grid), shared by run_halo and
/// CgSolver. Each exchange posts four eager sends (first row north with
/// tag 0, last row south with tag 1, first column west with tag 2, last
/// column east with tag 3), then receives the four ghost vectors. Ghosts
/// with no neighbour (the grid edge) stay zero.
class BlockHalo {
 public:
  BlockHalo() = default;
  BlockHalo(int pr, int pc, int rank, int rows, int cols);

  /// Refreshes the ghosts from the neighbours' edges; sends v's edges.
  void exchange(const double* v, const mpi::Comm& comm);

  const std::vector<double>& north() const { return north_; }
  const std::vector<double>& south() const { return south_; }
  const std::vector<double>& west() const { return west_; }
  const std::vector<double>& east() const { return east_; }

 private:
  std::size_t rows_ = 0, cols_ = 0;
  int up_ = -1, down_ = -1, left_ = -1, right_ = -1;
  std::vector<double> north_, south_, west_, east_;  ///< ghosts
  std::vector<double> edge_w_, edge_e_;  ///< packed send columns
};

struct HaloConfig {
  int local_n = 64;   ///< local block is local_n x local_n doubles
  int iters = 10;
  unsigned long seed = 3;
  /// Computational imbalance injection: rank `slow_rank` (by comm rank)
  /// burns `slow_extra_s` of extra virtual compute before each exchange,
  /// turning it into a late sender for its grid neighbors. -1 disables.
  int slow_rank = -1;
  double slow_extra_s = 0.0;
};

struct HaloResult {
  double total_time_s = 0.0;
  double comm_time_s = 0.0;
  double checksum = 0.0;  ///< deterministic over runs with equal config
};

/// Runs `cfg.iters` Jacobi sweeps on a pr x pc process grid over `comm`.
HaloResult run_halo(const mpi::Comm& comm, const HaloConfig& cfg);

}  // namespace mpim::apps
