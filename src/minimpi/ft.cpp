#include "minimpi/ft.h"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>

#include "fault/fault_plan.h"
#include "minimpi/api.h"
#include "minimpi/coll_common.h"
#include "minimpi/engine.h"
#include "support/error.h"
#include "telemetry/log.h"

namespace mpim::mpi {

namespace {

/// One all-to-all exchange round of the recovery protocols: sends
/// `payload` to every other member *unconditionally* (a send's cost never
/// depends on wall-clock failure knowledge, so clocks stay deterministic;
/// a delivery into a dead rank's inbox is harmless), then collects every
/// member's payload with a failure-aware bounded receive. Members that
/// cannot contribute -- crashed, or silent past the watchdog timeout --
/// are marked in `dead`; received payloads are handed to `fold`.
template <typename Fold>
void exchange_round(Ctx& ctx, const Comm& comm, int me,
                    std::vector<std::uint8_t>& dead, const void* payload,
                    std::size_t bytes, Fold&& fold) {
  Engine& eng = ctx.engine();
  const int n = comm.size();
  const int tag = coll::coll_tag(ctx.next_coll_seq(comm));
  const double timeout_s = eng.effective_watchdog_s();
  for (int g = 0; g < n; ++g) {
    if (g == me) continue;
    ctx.send_bytes(comm.world_rank_of(g), comm, tag, CommKind::tool, payload,
                   bytes);
  }
  std::vector<std::uint8_t> incoming(bytes);
  for (int g = 0; g < n; ++g) {
    if (g == me) continue;
    const Ctx::RecvWait rc =
        ctx.recv_bytes_wait(comm.world_rank_of(g), comm, tag, CommKind::tool,
                            incoming.data(), bytes, nullptr, timeout_s);
    if (rc == Ctx::RecvWait::ok) {
      fold(incoming.data(), g);
      continue;
    }
    dead[static_cast<std::size_t>(g)] = 1;
    if (rc == Ctx::RecvWait::timeout)
      telemetry::log(telemetry::LogLevel::warn, ctx.world_rank(), "ft",
                     "recovery exchange: member " + std::to_string(g) +
                         " (world " + std::to_string(comm.world_rank_of(g)) +
                         ") silent past " + std::to_string(timeout_s) +
                         "s, treating as failed");
  }
}

/// The locally-known dead set of `comm` in group-rank bitmap form.
std::vector<std::uint8_t> local_dead_view(Ctx& ctx, const Comm& comm) {
  const Engine& eng = ctx.engine();
  std::vector<std::uint8_t> dead(static_cast<std::size_t>(comm.size()), 0);
  for (int g = 0; g < comm.size(); ++g)
    if (eng.rank_dead(comm.world_rank_of(g)))
      dead[static_cast<std::size_t>(g)] = 1;
  return dead;
}

int my_group_rank(Ctx& ctx, const Comm& comm, const char* op) {
  check(!comm.is_null(), std::string(op) + " on null communicator");
  const int me = comm.group_rank_of_world(ctx.world_rank());
  check(me >= 0, std::string(op) + ": caller not in communicator");
  return me;
}

/// The fault plan can make a tool receive fail: the tool collectives then
/// take their linear, timed schedules.
bool receives_can_fail(const Engine& engine) {
  const fault::FaultPlan* plan = engine.config().fault_plan.get();
  return plan != nullptr && plan->can_fail_receives();
}
}  // namespace

int comm_failure_ack(const Comm& comm) {
  return Ctx::current().ack_failures(comm);
}

std::vector<int> comm_get_failed(const Comm& comm) {
  return Ctx::current().acked_failures(comm);
}

void comm_revoke(const Comm& comm) {
  Ctx::current().engine().revoke_comm(comm);
}

bool comm_is_revoked(const Comm& comm) {
  return Ctx::current().engine().comm_revoked(comm);
}

Comm comm_shrink(const Comm& comm) {
  Ctx& ctx = Ctx::current();
  Engine& eng = ctx.engine();
  const int me = my_group_rank(ctx, comm, "comm_shrink");
  const int n = comm.size();
  // The epoch makes repeated shrinks of one parent distinct communicators
  // even when the survivor set is unchanged.
  const std::uint32_t epoch = ctx.next_mgmt_seq(comm);

  // Two rounds of dead-set flooding. Round 1 reconciles views of crashes
  // that predate the shrink (members that received the victim's last words
  // vs. members that did not); round 2 spreads the round-1 union, covering
  // a crash *during* round 1. A crash during round 2 is the documented
  // unprotected window (docs/FAULTS.md).
  std::vector<std::uint8_t> dead = local_dead_view(ctx, comm);
  for (int round = 0; round < 2; ++round) {
    std::vector<std::uint8_t> mine = dead;  // snapshot: sends carry one view
    exchange_round(ctx, comm, me, dead, mine.data(), mine.size(),
                   [&](const std::uint8_t* peer_view, int /*from*/) {
                     for (int g = 0; g < n; ++g)
                       dead[static_cast<std::size_t>(g)] |= peer_view[g];
                   });
  }
  dead[static_cast<std::size_t>(me)] = 0;  // the caller is alive

  // Agreed failures become acked: later operations on the parent fail
  // fast instead of re-discovering the crash.
  ctx.ack_failure_bitmap(comm, dead);

  std::vector<int> survivors;
  std::string roster;
  for (int g = 0; g < n; ++g) {
    if (dead[static_cast<std::size_t>(g)] != 0) continue;
    survivors.push_back(comm.world_rank_of(g));
    roster += "." + std::to_string(g);
  }
  // Survivor list in the key: should the unprotected window ever split the
  // views, factions intern *different* communicators (a deterministic
  // watchdog failure downstream) instead of silently sharing one comm
  // with disagreeing groups.
  const std::string key = "shrink:" + std::to_string(comm.context_id()) +
                          ":" + std::to_string(epoch) + ":" + roster;
  Comm out = eng.intern_comm(key, std::move(survivors));
  eng.set_errmode(out, eng.errmode(comm));
  return out;
}

bool comm_agree(const Comm& comm, int* flag) {
  Ctx& ctx = Ctx::current();
  const int me = my_group_rank(ctx, comm, "comm_agree");
  const int n = comm.size();
  check(flag != nullptr, "comm_agree needs a flag");

  // Failures already acked at entry do not count against agreement
  // (ULFM: acked failures make MPIX_Comm_agree return MPI_SUCCESS).
  std::vector<std::uint8_t> entry_acked(static_cast<std::size_t>(n), 0);
  for (int g = 0; g < n; ++g)
    if (ctx.failure_acked(comm, comm.world_rank_of(g)))
      entry_acked[static_cast<std::size_t>(g)] = 1;

  std::uint64_t acc =
      static_cast<std::uint64_t>(static_cast<std::uint32_t>(*flag));
  std::vector<std::uint8_t> dead = local_dead_view(ctx, comm);
  // Round 1 exchanges raw contributions; round 2 exchanges the partial
  // ANDs, so a contribution one member missed still reaches it
  // transitively through any member that got it.
  for (int round = 0; round < 2; ++round) {
    std::vector<std::uint8_t> payload(sizeof(std::uint64_t) +
                                      static_cast<std::size_t>(n));
    std::memcpy(payload.data(), &acc, sizeof acc);
    std::memcpy(payload.data() + sizeof acc, dead.data(), dead.size());
    std::vector<std::uint8_t> mine = payload;
    exchange_round(ctx, comm, me, dead, mine.data(), mine.size(),
                   [&](const std::uint8_t* bytes, int /*from*/) {
                     std::uint64_t theirs = 0;
                     std::memcpy(&theirs, bytes, sizeof theirs);
                     acc &= theirs;
                     for (int g = 0; g < n; ++g)
                       dead[static_cast<std::size_t>(g)] |=
                           bytes[sizeof theirs + static_cast<std::size_t>(g)];
                   });
  }
  dead[static_cast<std::size_t>(me)] = 0;

  *flag = static_cast<int>(static_cast<std::uint32_t>(acc));
  for (int g = 0; g < n; ++g)
    if (dead[static_cast<std::size_t>(g)] != 0 &&
        entry_acked[static_cast<std::size_t>(g)] == 0)
      return false;
  return true;
}

std::vector<Ctx::RecvWait> ft_gather(const Comm& comm, const void* sendbuf,
                                     std::size_t bytes, void* recvbuf,
                                     int root, double timeout_s) {
  Ctx& ctx = Ctx::current();
  const int me = my_group_rank(ctx, comm, "ft_gather");
  const auto n = static_cast<std::size_t>(comm.size());
  if (!receives_can_fail(ctx.engine())) {
    coll::gather(ctx, sendbuf, bytes, Type::Byte, recvbuf, root, comm,
                 CommKind::tool);
    return std::vector<Ctx::RecvWait>(me == root ? n : 0, Ctx::RecvWait::ok);
  }
  const int tag = coll::coll_tag(ctx.next_coll_seq(comm));
  if (me != root) {
    ctx.send_bytes(comm.world_rank_of(root), comm, tag, CommKind::tool,
                   sendbuf, bytes);
    return {};
  }
  std::vector<Ctx::RecvWait> got(n, Ctx::RecvWait::ok);
  for (int g = 0; g < comm.size(); ++g) {
    std::byte* slot =
        coll::detail::block_at(recvbuf, static_cast<std::size_t>(g), bytes);
    if (g == root)
      coll::detail::copy_block(slot, sendbuf, bytes);
    else
      got[static_cast<std::size_t>(g)] = ctx.recv_bytes_wait(
          comm.world_rank_of(g), comm, tag, CommKind::tool, slot, bytes,
          nullptr, timeout_s);
  }
  return got;
}

Ctx::RecvWait ft_bcast(const Comm& comm, void* buf, std::size_t bytes,
                       int root, double timeout_s, CommKind kind) {
  Ctx& ctx = Ctx::current();
  const int me = my_group_rank(ctx, comm, "ft_bcast");
  if (!receives_can_fail(ctx.engine())) {
    if (kind == CommKind::coll)
      bcast(buf, bytes, Type::Byte, root, comm);
    else
      coll::bcast(ctx, buf, bytes, Type::Byte, root, comm, kind);
    return Ctx::RecvWait::ok;
  }
  const int tag = coll::coll_tag(ctx.next_coll_seq(comm));
  if (me != root)
    return ctx.recv_bytes_wait(
        comm.world_rank_of(root), comm, tag, CommKind::tool, buf, bytes,
        nullptr, timeout_s * static_cast<double>(comm.size() + 1));
  // Sending to a dead member is harmless: the copy is never consumed.
  for (int g = 0; g < comm.size(); ++g)
    if (g != root)
      ctx.send_bytes(comm.world_rank_of(g), comm, tag, CommKind::tool, buf,
                     bytes);
  return Ctx::RecvWait::ok;
}

std::vector<Ctx::RecvWait> ft_allgather(const Comm& comm, std::size_t bytes,
                                        double timeout_s) {
  using Wait = Ctx::RecvWait;
  Ctx& ctx = Ctx::current();
  const auto n = static_cast<std::size_t>(comm.size());
  if (!receives_can_fail(ctx.engine())) {
    coll::allgather(ctx, nullptr, bytes, Type::Byte, nullptr, comm,
                    CommKind::tool);
    return std::vector<Wait>(n, Wait::ok);
  }
  check(bytes > 0, "ft_allgather needs a non-empty block per member");
  std::vector<Wait> got =
      ft_gather(comm, nullptr, bytes, nullptr, 0, timeout_s);
  // Group rank 0 sends back the n blocks and a count of the rows it lost.
  // Only a non-zero count gives the message a payload: one outcome byte
  // per row, in room the blocks take anyway. Members pre-set the count to
  // 0, which a timing-only message leaves in place.
  const std::size_t at = n * bytes;
  std::uint64_t lost = static_cast<std::uint64_t>(std::count_if(
      got.begin(), got.end(), [](Wait w) { return w != Wait::ok; }));
  std::unique_ptr<std::byte[]> msg;
  if (got.empty() || lost > 0) {
    msg = std::make_unique_for_overwrite<std::byte[]>(at + sizeof lost);
    std::transform(got.begin(), got.end(), msg.get(),
                   [](Wait w) { return static_cast<std::byte>(w); });
    std::memcpy(msg.get() + at, &lost, sizeof lost);
  }
  const Wait rc = ft_bcast(comm, msg.get(), at + sizeof lost, 0, timeout_s,
                           CommKind::tool);
  if (rc != Wait::ok) return std::vector<Wait>(n, rc);
  if (!got.empty()) return got;
  std::memcpy(&lost, msg.get() + at, sizeof lost);
  for (std::size_t g = 0; g < n; ++g)
    got.push_back(lost > 0 ? static_cast<Wait>(msg[g]) : Wait::ok);
  return got;
}

Ctx::RecvWait ft_allreduce(const Comm& comm, const void* sendbuf,
                           void* recvbuf, std::size_t count, Type type, Op op,
                           double timeout_s) {
  Ctx& ctx = Ctx::current();
  if (!receives_can_fail(ctx.engine())) {
    coll::allreduce(ctx, sendbuf, recvbuf, count, type, op, comm,
                    CommKind::tool);
    return Ctx::RecvWait::ok;
  }
  const std::size_t bytes = count * type_size(type);
  std::memcpy(recvbuf, sendbuf, bytes);
  std::vector<std::byte> all(static_cast<std::size_t>(comm.size()) * bytes);
  const std::vector<Ctx::RecvWait> got =
      ft_gather(comm, sendbuf, bytes, all.data(), 0, timeout_s);
  for (std::size_t g = 1; g < got.size(); ++g)
    if (got[g] == Ctx::RecvWait::ok)
      reduce_in_place(recvbuf, all.data() + g * bytes, count, type, op);
  return ft_bcast(comm, recvbuf, bytes, 0, timeout_s, CommKind::tool);
}

}  // namespace mpim::mpi
