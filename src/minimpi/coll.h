// Collective algorithms, decomposed into point-to-point messages.
//
// This decomposition is the heart of the reproduction: the send record
// (EngineObserver::on_send_record) sits below these algorithms, so a
// session observes the real tree/ring pattern of every collective -- the
// capability the paper singles out as unique to the Open MPI
// pml_monitoring component.
//
// All functions work in *group-rank* space of the given communicator and
// take the CommKind under which their traffic is tagged: user collectives
// pass CommKind::coll, the monitoring library's own gathers pass
// CommKind::tool (invisible to monitoring, still paying network time).
#pragma once

#include <cstddef>

#include "minimpi/comm.h"
#include "minimpi/engine.h"
#include "minimpi/types.h"

namespace mpim::mpi::coll {

/// Tag space reserved for collective rounds (above kMaxUserTag).
inline constexpr int kCollTagBase = 1 << 28;

inline int coll_tag(std::uint32_t seq) {
  return kCollTagBase | static_cast<int>(seq & ((1u << 27) - 1));
}

void barrier(Ctx& ctx, const Comm& comm, CommKind kind);

void bcast(Ctx& ctx, void* buf, std::size_t count, Type type, int root,
           const Comm& comm, CommKind kind);

/// recvbuf significant only at root; sendbuf may equal recvbuf (in place).
/// Null buffers make this a timing/monitoring-only collective.
void reduce(Ctx& ctx, const void* sendbuf, void* recvbuf, std::size_t count,
            Type type, Op op, int root, const Comm& comm, CommKind kind);

void allreduce(Ctx& ctx, const void* sendbuf, void* recvbuf,
               std::size_t count, Type type, Op op, const Comm& comm,
               CommKind kind);

/// Each rank contributes `count` elements; root receives size*count.
void gather(Ctx& ctx, const void* sendbuf, std::size_t count, Type type,
            void* recvbuf, int root, const Comm& comm, CommKind kind);

void scatter(Ctx& ctx, const void* sendbuf, std::size_t count, Type type,
             void* recvbuf, int root, const Comm& comm, CommKind kind);

void allgather(Ctx& ctx, const void* sendbuf, std::size_t count, Type type,
               void* recvbuf, const Comm& comm, CommKind kind);

/// sendbuf holds size blocks of `count` elements, block j for rank j.
void alltoall(Ctx& ctx, const void* sendbuf, std::size_t count, Type type,
              void* recvbuf, const Comm& comm, CommKind kind);

/// Inclusive prefix reduction: recvbuf on rank i = op over ranks 0..i.
void scan(Ctx& ctx, const void* sendbuf, void* recvbuf, std::size_t count,
          Type type, Op op, const Comm& comm, CommKind kind);

/// Exclusive prefix reduction: rank 0's recvbuf is left untouched (like
/// MPI_Exscan), rank i>0 gets op over ranks 0..i-1.
void exscan(Ctx& ctx, const void* sendbuf, void* recvbuf, std::size_t count,
            Type type, Op op, const Comm& comm, CommKind kind);

/// MPI_Reduce_scatter_block: element-wise reduction of size*count inputs,
/// rank i receives block i of the result (count elements). Implemented by
/// recursive halving for power-of-two sizes, reduce+scatter otherwise.
void reduce_scatter_block(Ctx& ctx, const void* sendbuf, void* recvbuf,
                          std::size_t count, Type type, Op op,
                          const Comm& comm, CommKind kind);

}  // namespace mpim::mpi::coll
