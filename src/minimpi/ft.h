// ULFM-style fault-tolerance primitives (MPIX_Comm_* analogs).
//
// The engine already *detects* failures (FaultPlan crashes, typed
// RankFailedError, failure-aware timed receives); this header is the
// *recovery* vocabulary on top:
//
//   comm_failure_ack / comm_get_failed -- acknowledge locally-observed
//     failures so later operations on acked-dead peers short-circuit with
//     RankFailedError instead of re-eating a timeout.
//   comm_revoke / comm_is_revoked -- engine-wide poison pill: members
//     blocked in (or entering) operations on the revoked communicator
//     raise CommRevokedError, so survivors scattered across a broken
//     collective converge onto the recovery path instead of deadlocking.
//   comm_shrink -- agree on the dead set and intern a survivors-only
//     communicator with deterministic rank renumbering (group order of the
//     parent, dead members removed).
//   comm_agree -- fault-tolerant agreement: bitwise-AND of `*flag` over
//     the members that can still communicate.
//   ft_gather / ft_bcast / ft_allgather / ft_allreduce -- the tool
//     collectives of mpimon and reorder, and the one place that picks
//     their schedule: coll:: unless the fault plan can fail a receive
//     (fault::FaultPlan::can_fail_receives), else linear ones through a
//     root that wait with a wall timeout and report what arrived.
//
// Determinism contract: shrink and agree exchange their views with
// unconditional sends to every member (send costs never depend on
// wall-clock failure knowledge) and failure-aware timed receives whose
// outcome -- message or crash-time completion -- is a pure function of
// virtual time. One documented window remains: a rank crashing *during the
// final exchange round* can leave survivors with divergent views (see
// docs/FAULTS.md, Recovery).
#pragma once

#include <cstddef>
#include <vector>

#include "minimpi/comm.h"
#include "minimpi/engine.h"
#include "minimpi/types.h"

namespace mpim::mpi {

/// Acknowledges every failure of a member of `comm` that this rank has
/// observed so far. Returns the total number of acked members. After the
/// ack, send/recv involving those members raise RankFailedError
/// immediately (honoring the communicator's errmode).
int comm_failure_ack(const Comm& comm);

/// Group ranks of `comm` this rank has acked as failed, ascending.
std::vector<int> comm_get_failed(const Comm& comm);

/// Revokes `comm` engine-wide (idempotent). Tool-kind traffic is exempt,
/// so monitoring gathers and shrink/agree still run on a revoked comm.
void comm_revoke(const Comm& comm);
bool comm_is_revoked(const Comm& comm);

/// Collective over the surviving members: agrees on the dead set and
/// returns a survivors-only communicator. Rank renumbering is
/// deterministic (parent group order with dead members removed), the
/// result is interned so every survivor gets the same context id, and the
/// parent's errmode carries over. The agreed dead set is also acked, so
/// later operations on the *parent* involving dead members fail fast.
Comm comm_shrink(const Comm& comm);

/// Fault-tolerant agreement on `*flag` (in/out, bitwise AND over the
/// members that contributed). Returns true when every live member's
/// contribution was folded in and every excluded member had already been
/// acked by this rank; false when an unacked failure perturbed the result
/// (ULFM's MPI_ERR_PROC_FAILED analog -- ack and retry to accept it).
bool comm_agree(const Comm& comm, int* flag);

/// Tool-kind gather of `bytes` per member into the root's `recvbuf`
/// (size() * bytes): coll::gather when no receive can fail, else linear,
/// each contributor given `timeout_s` of wall time. At the root, returns
/// one outcome per group rank (ok for its own block and on the fault-free
/// schedule); a peer_dead or timeout slot of `recvbuf` is left untouched.
/// Elsewhere returns an empty vector. Null buffers send and receive
/// timing-only messages of the same size and cost.
std::vector<Ctx::RecvWait> ft_gather(const Comm& comm, const void* sendbuf,
                                     std::size_t bytes, void* recvbuf,
                                     int root, double timeout_s);

/// Broadcast of `bytes` from group rank `root`: coll::bcast as `kind`
/// traffic when no receive can fail (CommKind::coll also records the user
/// collective's "bcast" span), else a linear tool-kind one whose receivers
/// wait timeout_s * (size() + 1) of wall time -- room for a root that
/// first spent one gather timeout per contributor. Returns ok at the root
/// and wherever the data arrived; otherwise peer_dead or timeout, with
/// `buf` untouched. A null `buf` broadcasts a timing-only message.
Ctx::RecvWait ft_bcast(const Comm& comm, void* buf, std::size_t bytes,
                       int root, double timeout_s, CommKind kind);

/// Tool-kind allgather of `bytes` (> 0) per member with timing-only
/// messages (the blocks travel out of band), returning group rank 0's
/// per-row outcomes at every member: coll::allgather, all ok, when no
/// receive can fail; else ft_gather to group rank 0, whose reply of
/// size() * bytes + 8 bytes carries the outcomes only when a row was lost.
/// A member that misses the reply reads every row with its outcome.
std::vector<Ctx::RecvWait> ft_allgather(const Comm& comm, std::size_t bytes,
                                        double timeout_s);

/// Tool-kind allreduce of `count` elements into `recvbuf`: coll::allreduce
/// when no receive can fail, else group rank 0 folds what its ft_gather
/// got and ft_bcasts the result. Returns that broadcast's outcome; a
/// member that missed it keeps its own contribution in `recvbuf`.
Ctx::RecvWait ft_allreduce(const Comm& comm, const void* sendbuf,
                           void* recvbuf, std::size_t count, Type type, Op op,
                           double timeout_s);

}  // namespace mpim::mpi
