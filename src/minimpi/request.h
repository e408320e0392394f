// Nonblocking communication requests.
//
// Sends are eager (buffered at the engine), so an isend completes
// immediately. An irecv records its matching parameters; the actual
// matching happens at wait/test time -- a documented simplification of the
// MPI posted-receive queue that is indistinguishable for programs that
// wait on requests in post order. The engine keeps one posted receive per
// rank: a wait that blocks posts its buffer like recv, so a message that
// arrives during the wait lands there directly (DESIGN.md §7, "Data
// path"); test never posts.
#pragma once

#include <cstddef>

#include "minimpi/comm.h"
#include "minimpi/types.h"

namespace mpim::mpi {

class Request {
 public:
  Request() = default;

  bool done() const { return done_; }
  /// Valid once done() (after wait() or a successful test()).
  const Status& status() const { return status_; }

 private:
  friend Request isend(const void*, std::size_t, Type, int, int, const Comm&);
  friend Request irecv(void*, std::size_t, Type, int, int, const Comm&);
  friend Status wait(Request&);
  friend bool test(Request&);

  enum class Kind { null, send, recv };
  Kind kind_ = Kind::null;
  bool done_ = false;
  Status status_;

  // Pending-receive parameters (world-rank space).
  void* buf_ = nullptr;
  std::size_t capacity_ = 0;
  int src_world_ = kAnySource;
  int tag_ = kAnyTag;
  Comm comm_;
};

}  // namespace mpim::mpi
