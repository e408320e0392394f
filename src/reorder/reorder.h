// Dynamic rank reordering (the paper's Section 5 / Figure 1 algorithm),
// packaged as reusable routines.
//
// compute_reordering() is the pure algorithmic core: given the monitored
// byte matrix (old-rank space), the machine and the current placement, it
// returns the array k such that -- to minimize communication -- the process
// of current rank i should take rank k[i] in the optimized communicator
// (obtained with comm_split(comm, 0, k[myrank])).
//
// reorder_ranks() is the full distributed Figure-1 step: suspend-read an
// existing monitoring session, gather at rank 0, run TreeMatch, broadcast
// k and split. monitor_and_reorder() additionally wraps the monitored
// first iteration.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "minimpi/api.h"
#include "netmodel/cost_model.h"
#include "support/matrix.h"
#include "topo/topology.h"

namespace mpim::reorder {

/// Pure core: k[i] = new rank of the process currently ranked i. When a
/// cost model is supplied, the identity is returned whenever TreeMatch's
/// proposal does not lower the contention-aware modeled cost (pattern cost
/// plus NIC load bound): the current mapping is never made worse.
std::vector<int> compute_reordering(const CommMatrix& bytes,
                                    const topo::Topology& topo,
                                    const topo::Placement& placement,
                                    const net::CostModel* cost = nullptr);

/// The no-op reordering (k[i] = i), baseline for cost comparisons.
std::vector<int> identity_k(std::size_t n);

/// Modeled communication cost of pattern `bytes` if rank i's row were
/// executed by the process holding new rank assignment k (k = identity
/// gives the current cost). Used by tests and the ablation bench.
double reordered_cost(const CommMatrix& bytes, const std::vector<int>& k,
                      const net::CostModel& cost,
                      const topo::Placement& placement);

struct ReorderResult {
  mpi::Comm opt_comm;       ///< the optimized communicator
  std::vector<int> k;       ///< old rank -> new rank (valid on all ranks)
  /// True when the step could not trust the gathered matrix (partial data,
  /// dead ranks, or a validation failure) or could not hear rank 0, and
  /// fell back to the identity permutation with opt_comm == comm (no
  /// split). Rank 0's decision travels with k, so this holds on every rank.
  bool fell_back = false;
  std::string fallback_reason;  ///< set where fell_back is true
};

/// Sanity checks a gathered size matrix (row-major, order n) before it is
/// fed to TreeMatch: rejects null/empty matrices, rows of missing
/// contributors (MPI_M_DATA_MISSING sentinels) and implausibly large byte
/// counts. Returns false and fills `reason` on the first violation.
bool validate_gathered_matrix(const unsigned long* flat, std::size_t n,
                              std::string* reason);

/// Distributed Figure-1 step on an *already monitored, suspended* session:
/// rank 0 gathers the size matrix, computes k with TreeMatch, broadcasts it
/// and every rank splits. Collective over `comm`. `msid` must identify a
/// suspended session attached to `comm`.
///
/// Failure awareness: a gather returning MPI_M_PARTIAL_DATA, a dead member
/// rank, an invalid matrix or an unreachable rank 0 makes every rank fall
/// back to the identity permutation (opt_comm = comm, no split) with the
/// reason logged -- the step degrades instead of hanging or aborting.
ReorderResult reorder_ranks(int msid, const mpi::Comm& comm);

/// Extra triggers for reorder_on_phase.
struct PhaseReorderOptions {
  /// Also consult the critical-path profiler (critpath::Profiler attached
  /// to the engine): reorder when the wait blamed on *cross-node* messages
  /// (the topology-mismatch share) dominates the total classified wait
  /// accumulated since the last firing -- 2 * mismatch > wait with
  /// wait > min_wait_ns, agreed across `comm` with a tool-class allreduce.
  /// The agreement traffic runs whether or not a profiler is attached
  /// (zeros without one), so virtual clocks are bit-identical profiler on
  /// or off. A rank that did not hear the agreed sums never fires on them.
  bool use_critpath_mismatch = false;
  /// Wait floor (virtual ns, summed over `comm`) below which the mismatch
  /// trigger never fires.
  std::uint64_t min_wait_ns = 1000;
};

/// Phase-triggered reordering hook, meant to be called between computation
/// chunks of an *active* session carrying a running snapshot
/// (MPI_M_snapshot_start): suspends the session, reads each rank's phase-
/// boundary count from the snapshot detector and agrees on the maximum
/// across the communicator. When that maximum exceeds `*seen_boundaries`
/// (caller-owned state, initialize to 0; then advanced to it), or on a
/// trigger of `opts`, the full reorder_ranks() step runs on the traffic
/// monitored so far; otherwise the result is the identity over `comm`,
/// with no TreeMatch run. After any firing every rank's critpath mark is
/// advanced so the next window starts clean. The session is resumed
/// before returning either way. Collective over `comm`;
/// `triggered` (optional) reports whether reordering ran. A rank that
/// cannot hear the agreement (rank 0 is dead) keeps its own count instead
/// of hanging the step, and reorder_ranks keeps its identity fallback.
ReorderResult reorder_on_phase(int msid, const mpi::Comm& comm,
                               int* seen_boundaries, bool* triggered = nullptr,
                               const PhaseReorderOptions& opts = {});

/// Convenience: runs `monitored_step` under a fresh session (the paper's
/// "first iteration"), then performs the reordering step above.
ReorderResult monitor_and_reorder(
    const mpi::Comm& comm, const std::function<void(const mpi::Comm&)>& monitored_step);

}  // namespace mpim::reorder
