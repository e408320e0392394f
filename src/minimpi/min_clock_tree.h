// Arg-min of (clock, rank) over a changing set of ranks: the NIC contention
// gate's "who may send next" query at O(log n) per change.
//
// A tournament tree stored heap-style over cap = the next power of two
// >= n leaves: node 1 is the root, node i's children are 2i and 2i+1, and
// leaf cap + r belongs to rank r. A leaf holds r while the rank takes part
// and -1 while it does not; every inner node holds the winner of its two
// children. The smaller clock wins and on equal clocks the left (lower
// rank) child does, so the root is exactly what a linear scan keeping the
// first strictly smaller clock returns. An absent rank is -1 rather than a
// +inf clock, so a present rank at +inf still beats it. Clocks are never
// NaN (virtual time only moves forward by finite costs).
#pragma once

#include <cstddef>
#include <vector>

namespace mpim::mpi {

class MinClockTree {
 public:
  /// Ranks [0, n), all present at clock 0: the root is rank 0, or -1 when
  /// n == 0.
  void reset(int n) {
    cap_ = 1;
    while (cap_ < n) cap_ *= 2;
    clock_.assign(static_cast<std::size_t>(cap_), 0.0);
    node_.assign(2 * static_cast<std::size_t>(cap_), -1);
    for (int r = 0; r < n; ++r) node_[static_cast<std::size_t>(cap_ + r)] = r;
    for (int i = cap_ - 1; i >= 1; --i) replay(i);
  }

  /// Sets `rank`'s clock and whether it takes part, then replays its
  /// leaf-to-root path.
  void update(int rank, double clock, bool present) {
    clock_[static_cast<std::size_t>(rank)] = clock;
    int i = cap_ + rank;
    node_[static_cast<std::size_t>(i)] = present ? rank : -1;
    for (i /= 2; i >= 1; i /= 2) replay(i);
  }

  /// The present rank with the smallest (clock, rank), or -1 if none.
  int min_rank() const { return node_[1]; }

 private:
  void replay(int i) {
    const int left = node_[2 * static_cast<std::size_t>(i)];
    const int right = node_[2 * static_cast<std::size_t>(i) + 1];
    node_[static_cast<std::size_t>(i)] =
        left < 0 || (right >= 0 && clock_[static_cast<std::size_t>(right)] <
                                       clock_[static_cast<std::size_t>(left)])
            ? right
            : left;
  }

  int cap_ = 1;
  std::vector<int> node_ = {-1, -1};  ///< [1, cap) inner, [cap, 2cap) leaves
  std::vector<double> clock_;         ///< per rank; read only while present
};

}  // namespace mpim::mpi
