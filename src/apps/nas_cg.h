// NAS-parallel-benchmark-style conjugate gradient (kernel CG).
//
// Unlike apps/cg.h (a halo-exchange CG on the grid), this solver uses the
// genuine NAS CG data distribution: the sparse matrix is partitioned into
// 2-D blocks over an nprows x npcols process grid, vectors live in
// disjoint per-rank pieces, and every iteration performs
//   1. a column allgather (recursive doubling, partners at rank distance
//      npcols * 2^k) to assemble the local p segment,
//   2. the local sparse block SpMV over the rows the block holds,
//   3. a reduce-scatter within the grid row (recursive halving, partners
//      at rank distance 2^k) to sum the partial results,
//   4. one transpose exchange (NAS's exch_proc) realigning the q chunk
//      from row space to the rank's vector piece,
//   5. three scalar allreduces for the dot products.
// The long-distance power-of-2 partner pattern is exactly what makes the
// paper's Fig. 7 rank reordering profitable even from packed mappings.
//
// The matrix is the 2-D Poisson operator (SPD), so the arithmetic is a
// real Krylov solve; the residual sequence matches apps/cg.h bit-for-bit
// up to floating-point summation order.
#pragma once

#include <utility>
#include <vector>

#include "apps/cg.h"  // CgRecurrence, CgConfig
#include "minimpi/api.h"

namespace mpim::apps {

/// NAS process grids: nprocs must be a power of two; the grid is
/// square (pr == pc) or 1:2 rectangular (pc == 2 pr).
void nas_process_grid(int nprocs, int* pr, int* pc);

class NasCgSolver : public CgRecurrence {
 public:
  /// Collective over `comm`. Requires comm.size() to be a power of two
  /// and grid_n to be a multiple of 48 (divisibility of all partitions).
  NasCgSolver(const mpi::Comm& comm, const CgConfig& cfg);

  /// Global [begin, end) of this rank's disjoint vector piece.
  std::pair<long, long> piece_range() const {
    return {piece0_, piece0_ + piece_len_};
  }

 private:
  void build_matrix_block();
  /// Steps 1-4 above: q_piece = (A p)_piece from the current p pieces.
  void apply_operator() override;

  long n_ = 0;  ///< matrix order = grid_n^2

  long row0_ = 0, rows_ = 0;  ///< matrix rows of my block (range Ri)
  long col0_ = 0, cols_ = 0;  ///< matrix cols of my block (range Cj)
  long piece0_ = 0, piece_len_ = 0;  ///< my disjoint vector piece

  // Local sparse block, doubly compressed (DCSR, Buluc & Gilbert): only
  // rows holding an entry are stored, since under the 2-D distribution of
  // a banded operator most rows of a block are empty. Stored row r is
  // local row csr_row_[r]; its entries are [csr_row_ptr_[r],
  // csr_row_ptr_[r + 1]), with column indices local to Cj.
  std::vector<int> csr_row_;
  std::vector<int> csr_row_ptr_;
  std::vector<int> csr_col_;
  std::vector<double> csr_val_;

  // Work buffers.
  std::vector<double> p_full_;  ///< assembled p over Cj (length cols_)
  std::vector<double> w_;       ///< SpMV partial over Ri (length rows_)
  std::vector<double> halves_;  ///< reduce-scatter running sum
};

}  // namespace mpim::apps
