#include "reorder/reorder.h"

#include <algorithm>
#include <ctime>

#include "critpath/critpath.h"
#include "minimpi/engine.h"
#include "minimpi/ft.h"
#include "mpimon/mpi_monitoring.h"
#include "mpimon/session.hpp"
#include "support/error.h"
#include "telemetry/hub.h"
#include "telemetry/log.h"
#include "treematch/treematch.h"

namespace mpim::reorder {

using telemetry::Metric;

namespace {

/// CPU time consumed by the calling thread (seconds).
double thread_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

}  // namespace

std::vector<int> compute_reordering(const CommMatrix& bytes,
                                    const topo::Topology& topo,
                                    const topo::Placement& placement,
                                    const net::CostModel* cost) {
  const std::size_t n = bytes.rows();
  check(bytes.cols() == n, "communication matrix must be square");
  check(placement.size() == n, "placement size mismatch");

  // Slot s is the processing unit of the process currently ranked s.
  // TreeMatch assigns each *role* (a row of the matrix: what old rank j
  // does) to a slot; the process owning that slot must take over the role,
  // i.e. new_rank(process s[j]) = j.
  const std::vector<int> role_to_slot =
      tm::treematch_slots(bytes, topo, placement);
  std::vector<int> k(n, -1);
  for (std::size_t role = 0; role < n; ++role) {
    const auto slot = static_cast<std::size_t>(role_to_slot[role]);
    check(k[slot] == -1, "treematch produced a non-injective slot map");
    k[slot] = static_cast<int>(role);
  }
  if (cost != nullptr) {
    // Keep the current mapping when the proposal does not actually lower
    // the modeled (contention-aware) cost -- an already well-placed job
    // must not be churned by a heuristic local optimum.
    // On routed fabrics the per-port bound cannot see which flows share a
    // trunk or global link, so the max-min fair flow bound joins the
    // decision; on the balanced tree it is skipped, keeping pre-fabric
    // decisions bit-identical.
    const bool routed = !cost->fabric().single_class_paths();
    auto decision_cost = [&](const std::vector<int>& perm) {
      topo::Placement effective(n);
      for (std::size_t p = 0; p < n; ++p)
        effective[static_cast<std::size_t>(perm[p])] = placement[p];
      double c = cost->pattern_cost(bytes, effective) +
                 cost->nic_load_cost(bytes, effective);
      if (routed) c += cost->flow_time_cost(bytes, effective);
      return c;
    };
    // 3% hysteresis: permuting every rank of a running application is not
    // free, so marginal modeled improvements are not worth acting on.
    if (decision_cost(k) >= 0.97 * decision_cost(identity_k(n)))
      return identity_k(n);
  }
  return k;
}

std::vector<int> identity_k(std::size_t n) {
  std::vector<int> k(n);
  for (std::size_t i = 0; i < n; ++i) k[i] = static_cast<int>(i);
  return k;
}

double reordered_cost(const CommMatrix& bytes, const std::vector<int>& k,
                      const net::CostModel& cost,
                      const topo::Placement& placement) {
  check(k.size() == placement.size(), "k/placement size mismatch");
  topo::Placement effective(placement.size());
  for (std::size_t p = 0; p < k.size(); ++p)
    effective[static_cast<std::size_t>(k[p])] = placement[p];
  return cost.pattern_cost(bytes, effective);
}

bool validate_gathered_matrix(const unsigned long* flat, std::size_t n,
                              std::string* reason) {
  auto fail = [&](const std::string& why) {
    if (reason != nullptr) *reason = why;
    return false;
  };
  if (flat == nullptr) return fail("gathered matrix is null");
  if (n == 0) return fail("gathered matrix is empty");
  // Anything near the sentinel cannot be a genuine byte count: a virtual
  // run moving 2^62 bytes over one monitored window is not a measurement.
  constexpr unsigned long kSaneMax = 1ul << 62;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      const unsigned long v = flat[i * n + j];
      if (v == MPI_M_DATA_MISSING)
        return fail("row " + std::to_string(i) +
                    " holds the MPI_M_DATA_MISSING sentinel (contributor "
                    "crashed or timed out)");
      if (v > kSaneMax)
        return fail("entry (" + std::to_string(i) + "," + std::to_string(j) +
                    ") = " + std::to_string(v) +
                    " is implausibly large (corrupt data)");
    }
  }
  return true;
}

ReorderResult reorder_ranks(int msid, const mpi::Comm& comm) {
  mpi::Ctx& ctx = mpi::Ctx::current();
  const int n = comm.size();
  const int myrank = mpi::comm_rank(comm);
  telemetry::Hub& hub = ctx.engine().telemetry();
  const int wrank = ctx.world_rank();

  std::vector<unsigned long> size_mat(
      myrank == 0 ? static_cast<std::size_t>(n) * static_cast<std::size_t>(n)
                  : 0);
  const double gather_t0 = ctx.now();
  const int gather_rc =
      MPI_M_rootgather_data(msid, 0, MPI_M_DATA_IGNORE,
                            myrank == 0 ? size_mat.data() : nullptr,
                            MPI_M_ALL_COMM);
  hub.span_complete(wrank, "reorder.gather", 'R', gather_t0, ctx.now(),
                    gather_rc);
  if (gather_rc != MPI_M_SUCCESS && gather_rc != MPI_M_PARTIAL_DATA)
    mon::check_rc(gather_rc, "MPI_M_rootgather_data");

  std::vector<int> k(static_cast<std::size_t>(n));
  std::string reason;  // why this rank falls back, if it does
  if (myrank == 0) {
    if (gather_rc == MPI_M_PARTIAL_DATA) {
      reason =
          "monitoring data is partial (a contributor crashed or timed out)";
    } else if (validate_gathered_matrix(
                   size_mat.data(), static_cast<std::size_t>(n), &reason)) {
      for (int j = 0; j < n && reason.empty(); ++j)
        if (ctx.engine().rank_dead(comm.world_rank_of(j)))
          reason = "rank " + std::to_string(j) +
                   " of the communicator is dead";
    }
    if (!reason.empty()) {
      k[0] = -1;  // rides in the k broadcast below
    } else {
      CommMatrix bytes = CommMatrix::square(static_cast<std::size_t>(n));
      std::copy(size_mat.begin(), size_mat.end(), bytes.flat().begin());

      topo::Placement placement(static_cast<std::size_t>(n));
      const auto& world_placement = ctx.engine().config().placement;
      for (int j = 0; j < n; ++j)
        placement[static_cast<std::size_t>(j)] =
            world_placement[static_cast<std::size_t>(comm.world_rank_of(j))];

      // The mapping algorithm runs on the host: charge its CPU cost to
      // rank 0's virtual clock (this is the t2 the paper's Fig. 6 and
      // Table 1 account for). Thread CPU time, not wall time: the simulator
      // oversubscribes one core with many rank threads.
      const double host0 = thread_cpu_seconds();
      const double tm_t0 = ctx.now();
      k = compute_reordering(bytes, ctx.engine().topology(), placement,
                             &ctx.engine().cost_model());
      const double tm_cpu_s = thread_cpu_seconds() - host0;
      ctx.advance(tm_cpu_s);
      hub.span_complete(wrank, "reorder.treematch", 'R', tm_t0, ctx.now(), n);
      hub.add(Metric::reorder_treematch_ns, wrank,
              static_cast<std::uint64_t>(tm_cpu_s * 1e9));
      hub.add(Metric::reorder_applied, wrank);
    }
  }

  // A negative k[0] is rank 0's fallback; a rank that cannot hear rank 0
  // falls back on its own.
  const double dist_t0 = ctx.now();
  const bool heard =
      mpi::ft_bcast(comm, k.data(), k.size() * sizeof(int), 0,
                    MPI_M_get_gather_timeout(),
                    mpi::CommKind::coll) == mpi::Ctx::RecvWait::ok;
  hub.span_complete(wrank, "reorder.distribute", 'R', dist_t0, ctx.now());
  if (!heard) reason = "rank 0 unreachable during reordering";
  if (!reason.empty()) {
    telemetry::log(telemetry::LogLevel::warn, wrank, "reorder",
                   "falling back to identity permutation: " + reason);
    hub.add(Metric::reorder_identity, wrank);
  }
  ReorderResult out;
  out.fell_back = !heard || k[0] < 0;
  out.fallback_reason = out.fell_back && reason.empty()
                            ? "rank 0 fell back to the identity permutation"
                            : reason;
  // On fallback the group may contain dead ranks, so a comm_split (whose
  // allgather would block on them) is not safe: keep the communicator.
  out.k = out.fell_back ? identity_k(static_cast<std::size_t>(n)) : k;
  out.opt_comm =
      out.fell_back
          ? comm
          : mpi::comm_split(comm, 0, k[static_cast<std::size_t>(myrank)]);
  return out;
}

ReorderResult reorder_on_phase(int msid, const mpi::Comm& comm,
                               int* seen_boundaries, bool* triggered,
                               const PhaseReorderOptions& opts) {
  check(seen_boundaries != nullptr, "seen_boundaries must not be null");
  mpi::Ctx& ctx = mpi::Ctx::current();
  mon::check_rc(MPI_M_suspend(msid), "MPI_M_suspend");

  int local = 0;
  mon::check_rc(MPI_M_snapshot_info(msid, MPI_M_INT_IGNORE,
                                    MPI_M_INT_IGNORE, &local),
                "MPI_M_snapshot_info");
  // Every rank that hears the tool-class maximum sees the same `global`,
  // so the decision is consistent as long as the caller-owned counters are
  // (they start at 0 and only ever advance to an agreed value). A rank
  // that cannot hear it keeps its own count instead of hanging the hook.
  int global = 0;
  mpi::ft_allreduce(comm, &local, &global, 1, mpi::Type::Int, mpi::Op::Max,
                    MPI_M_get_gather_timeout());
  bool fire = global > *seen_boundaries;
  if (fire) *seen_boundaries = global;

  if (opts.use_critpath_mismatch) {
    // The agreement collective runs whether or not a profiler is attached
    // (all-zero contributions without one), so the trigger option never
    // perturbs virtual clocks: profiler on and off are bit-identical.
    critpath::Profiler* prof = critpath::Profiler::attached(ctx.engine());
    const int myrank = ctx.world_rank();
    unsigned long local_ns[2] = {0, 0};
    if (prof != nullptr) {
      local_ns[0] =
          static_cast<unsigned long>(prof->mismatch_since_mark(myrank));
      local_ns[1] = static_cast<unsigned long>(prof->wait_since_mark(myrank));
    }
    unsigned long sum_ns[2] = {0, 0};
    // A rank that did not hear the sums holds only its own: it must not
    // fire on them, or survivors of a dead rank 0 would reorder alone.
    const bool agreed =
        mpi::ft_allreduce(comm, local_ns, sum_ns, 2, mpi::Type::UnsignedLong,
                          mpi::Op::Sum, MPI_M_get_gather_timeout()) ==
        mpi::Ctx::RecvWait::ok;
    if (!fire && agreed && sum_ns[1] > opts.min_wait_ns &&
        2 * sum_ns[0] > sum_ns[1]) {
      fire = true;
      telemetry::log(telemetry::LogLevel::info, myrank, "reorder",
                     "critpath mismatch trigger: " +
                         std::to_string(sum_ns[0]) + " of " +
                         std::to_string(sum_ns[1]) +
                         " ns waited on cross-node messages since last mark");
    }
    // Marks advance on every firing (whatever tripped it) so the next
    // window accumulates from a clean baseline on every rank.
    if (fire && prof != nullptr) prof->mark(myrank);
  }

  ReorderResult out;
  if (fire) {
    out = reorder_ranks(msid, comm);
  } else {
    out.opt_comm = comm;
    out.k = identity_k(static_cast<std::size_t>(comm.size()));
  }
  if (triggered != nullptr) *triggered = fire;
  mon::check_rc(MPI_M_continue(msid), "MPI_M_continue");
  return out;
}

ReorderResult monitor_and_reorder(
    const mpi::Comm& comm,
    const std::function<void(const mpi::Comm&)>& monitored_step) {
  MPI_M_msid id = -1;
  mon::check_rc(MPI_M_start(comm, &id), "MPI_M_start");
  monitored_step(comm);
  mon::check_rc(MPI_M_suspend(id), "MPI_M_suspend");
  ReorderResult out = reorder_ranks(id, comm);
  mon::check_rc(MPI_M_free(id), "MPI_M_free");
  return out;
}

}  // namespace mpim::reorder
