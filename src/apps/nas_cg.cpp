#include "apps/nas_cg.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "support/error.h"

namespace mpim::apps {

void nas_process_grid(int nprocs, int* pr, int* pc) {
  check(nprocs >= 1 && (nprocs & (nprocs - 1)) == 0,
        "NAS CG needs a power-of-two number of processes");
  int log2p = 0;
  while ((1 << (log2p + 1)) <= nprocs) ++log2p;
  *pr = 1 << (log2p / 2);
  *pc = nprocs / *pr;  // pc == pr (even log2p) or pc == 2*pr (odd)
}

namespace {
constexpr int kRowSumTag = 20;
constexpr int kTransposeTag = 21;
constexpr int kAllgatherTag = 22;
}  // namespace

NasCgSolver::NasCgSolver(const mpi::Comm& comm, const CgConfig& cfg)
    : CgRecurrence(comm, cfg, nas_process_grid) {
  check(cfg_.grid_n % 48 == 0,
        "NAS CG grid_n must be a multiple of 48 (partition divisibility)");
  n_ = static_cast<long>(cfg_.grid_n) * cfg_.grid_n;
  check(n_ % (static_cast<long>(pr_) * pc_) == 0,
        "matrix order not divisible by the process grid");
  // A block's rows, local columns and up to 5 entries per row index as int.
  check(n_ <= std::numeric_limits<int>::max() / 5,
        "matrix order too large for NAS CG's int block indices");

  rows_ = n_ / pr_;
  row0_ = rows_ * prow_;
  cols_ = n_ / pc_;
  col0_ = cols_ * pcol_;
  piece_len_ = n_ / (static_cast<long>(pr_) * pc_);
  piece0_ = col0_ + piece_len_ * prow_;

  build_matrix_block();

  b_.resize(static_cast<std::size_t>(piece_len_));
  for (long i = 0; i < piece_len_; ++i)
    b_[static_cast<std::size_t>(i)] = cg_rhs_value(cfg_.seed, piece0_ + i);
  reset_state();
  p_full_.resize(static_cast<std::size_t>(cols_));
  w_.resize(static_cast<std::size_t>(rows_));
  halves_.resize(static_cast<std::size_t>(rows_ / 2 + 1));
}

void NasCgSolver::build_matrix_block() {
  const long g = cfg_.grid_n;
  auto in_cols = [&](long v) { return v >= col0_ && v < col0_ + cols_; };

  // Only rows u whose band [u - g, u + g] reaches Cj can hold an entry.
  const long lr_begin = std::max(0L, col0_ - g - row0_);
  const long lr_end = std::min(rows_, col0_ + cols_ + g - row0_);
  csr_row_ptr_.assign(1, 0);
  for (long lr = lr_begin; lr < lr_end; ++lr) {
    const long u = row0_ + lr;
    const long y = u / g, x = u % g;
    const std::size_t first = csr_col_.size();
    // Ascending column order: u-g, u-1, u, u+1, u+g.
    const std::pair<long, double> entries[] = {
        {u - g, -1.0}, {u - 1, -1.0}, {u, 4.0}, {u + 1, -1.0}, {u + g, -1.0}};
    for (const auto& [v, val] : entries) {
      const bool valid = (v == u) || (v == u - g && y > 0) ||
                         (v == u + g && y < g - 1) ||
                         (v == u - 1 && x > 0) || (v == u + 1 && x < g - 1);
      if (!valid || !in_cols(v)) continue;
      csr_col_.push_back(static_cast<int>(v - col0_));
      csr_val_.push_back(val);
    }
    if (csr_col_.size() == first) continue;  // an empty row is not stored
    csr_row_.push_back(static_cast<int>(lr));
    csr_row_ptr_.push_back(static_cast<int>(csr_col_.size()));
  }
}

void NasCgSolver::apply_operator() {
  const auto plen = static_cast<std::size_t>(piece_len_);

  // 1. Column allgather (recursive doubling): assemble p over Cj from the
  //    pr pieces held by the ranks of this grid column.
  std::copy(p_.begin(), p_.end(),
            p_full_.begin() + static_cast<std::ptrdiff_t>(
                                  static_cast<long>(prow_) * piece_len_));
  timed([&] {
    int base = prow_;  // first piece of the region currently held
    int cnt = 1;       // pieces held
    for (int mask = 1; mask < pr_; mask <<= 1) {
      const int partner_row = prow_ ^ mask;
      const int partner = partner_row * pc_ + pcol_;
      const int partner_base = base ^ mask;
      mpi::send(p_full_.data() + static_cast<long>(base) * piece_len_,
                static_cast<std::size_t>(cnt) * plen, mpi::Type::Double,
                partner, kAllgatherTag, comm_);
      mpi::recv(p_full_.data() + static_cast<long>(partner_base) * piece_len_,
                static_cast<std::size_t>(cnt) * plen, mpi::Type::Double,
                partner, kAllgatherTag, comm_);
      base = std::min(base, partner_base);
      cnt *= 2;
    }
  });

  // 2. Local sparse block SpMV: w = A(Ri x Cj) * p_full. Only stored rows
  //    are written; the others keep the +0.0 they were constructed with,
  //    since nothing else writes w_.
  for (std::size_t r = 0; r < csr_row_.size(); ++r) {
    double acc = 0.0;
    for (int e = csr_row_ptr_[r]; e < csr_row_ptr_[r + 1]; ++e)
      acc += csr_val_[static_cast<std::size_t>(e)] *
             p_full_[static_cast<std::size_t>(
                 csr_col_[static_cast<std::size_t>(e)])];
    w_[static_cast<std::size_t>(csr_row_[r])] = acc;
  }
  mpi::compute_flops(2.0 * static_cast<double>(csr_val_.size()));

  // 3. Reduce-scatter within the grid row (recursive halving): every rank
  //    ends with the pcol-th chunk of Ri, summed across the row. `sum`
  //    holds the running sum of [cur_off, cur_off + cur_len), which never
  //    goes back into w_: round 1 receives into halves_, and each later
  //    round receives into the half it has just sent (sends are eager, so
  //    that half is free once send returns). Each sum is kept + received.
  double* sum = w_.data();
  long cur_off = 0, cur_len = rows_;
  timed([&] {
    for (int mask = pc_ >> 1; mask >= 1; mask >>= 1) {
      const int partner_col = pcol_ ^ mask;
      const int partner = prow_ * pc_ + partner_col;
      const long half = cur_len / 2;
      const bool keep_upper = (pcol_ & mask) != 0;
      const double* keep = sum + (keep_upper ? half : 0);
      double* sent = sum + (keep_upper ? 0 : half);
      double* in = sum == w_.data() ? halves_.data() : sent;
      mpi::send(sent, static_cast<std::size_t>(half), mpi::Type::Double,
                partner, kRowSumTag, comm_);
      mpi::recv(in, static_cast<std::size_t>(half), mpi::Type::Double,
                partner, kRowSumTag, comm_);
      for (long i = 0; i < half; ++i) in[i] = keep[i] + in[i];
      sum = in;
      if (keep_upper) cur_off += half;
      cur_len = half;
    }
  });
  mpi::compute_flops(static_cast<double>(rows_));  // the summing passes
  check(cur_len == piece_len_ && cur_off == piece_len_ * pcol_,
        "reduce-scatter bookkeeping broke");

  // 4. Transpose exchange: my q chunk (chunk-space index prow*pc + pcol)
  //    is the vector piece of rank (a, b) with b*pr + a = prow*pc + pcol;
  //    my own piece arrives from the inverse partner.
  const int send_idx = prow_ * pc_ + pcol_;
  const int dst = (send_idx % pr_) * pc_ + (send_idx / pr_);
  const int src_idx = pcol_ * pr_ + prow_;
  const int src = (src_idx / pc_) * pc_ + (src_idx % pc_);
  if (dst == mpi::comm_rank(comm_)) {
    std::copy(sum, sum + piece_len_, q_.begin());
  } else {
    timed([&] {
      mpi::send(sum, plen, mpi::Type::Double, dst, kTransposeTag, comm_);
      mpi::recv(q_.data(), plen, mpi::Type::Double, src, kTransposeTag,
                comm_);
    });
  }
}

}  // namespace mpim::apps
