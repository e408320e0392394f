#include "mpimon/mpi_monitoring.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "critpath/critpath.h"
#include "introspect/analyzer.h"
#include "introspect/snapshot.h"
#include "minimpi/engine.h"
#include "minimpi/ft.h"
#include "mpimon/governor.h"
#include "mpit/runtime.h"
#include "obsplane/plane.h"
#include "support/env.h"
#include "telemetry/hub.h"
#include "telemetry/log.h"

namespace {

using mpim::mpi::Comm;
using mpim::mpi::CommKind;
using mpim::mpi::Ctx;
using mpim::mpi::ft_allgather;
using mpim::mpi::ft_bcast;
using mpim::mpi::ft_gather;
using mpim::telemetry::Metric;

constexpr int kThreadLevelProvided = 3;  // MPI_THREAD_MULTIPLE

struct MonSession {
  enum class St { active, suspended, freed };
  St state = St::freed;
  Comm comm;
  int tsession = -1;
  /// mpit handle per pvar index (0..5, see mpit/pvar.cpp).
  std::array<int, 6> handles{};
  /// Virtual time the current active period began (telemetry span).
  double span_start_s = -1.0;
  /// Windowed snapshot sampler (MPI_M_snapshot_start); shared so the
  /// packet observer closure survives session-vector reallocation.
  std::shared_ptr<mpim::introspect::WindowSampler> sampler;
  bool snapshot_running = false;
  /// Kind filter of the running snapshot (what attach_sampler feeds).
  int snapshot_flags = MPI_M_ALL_COMM;
  /// World ranks dropped from the binding by MPI_M_rebind (union over
  /// every rebind of this session).
  std::vector<int> tombstones;
  /// Frame bytes this session's sampler holds against the governor's
  /// memory budget (0 when no budget or no sampler).
  std::uint64_t gov_reserved = 0;
};

mpim::telemetry::Hub& tele() {
  return Ctx::current().engine().telemetry();
}

int tele_rank() { return Ctx::current().world_rank(); }

double default_gather_timeout() {
  const auto env = mpim::support::env_positive_double("MPIM_GATHER_TIMEOUT_S");
  if (env.ok()) return env.value;
  if (env.invalid())
    mpim::telemetry::log(
        mpim::telemetry::LogLevel::warn, -1, "mpimon",
        "ignoring invalid MPIM_GATHER_TIMEOUT_S=\"" + env.raw +
            "\" (want a finite number > 0); using the 5 s default");
  return 5.0;
}

struct MonState {
  bool initialized = false;
  std::vector<MonSession> sessions;
  double gather_timeout_s = 5.0;
  /// mpimon collectives this rank has entered, per communicator context
  /// id: the second half of an exchange slot's key. Never reset within a
  /// run, so a key is never reused while a slow rank may still read the
  /// slot it names.
  std::unordered_map<int, std::uint64_t> collectives;
};

/// One mpimon collective's data, shared by its participants instead of
/// carried by its messages (docs/PERF.md "Exchange slots"). Every
/// contributor writes only its own rows into `words`, before its first
/// send; get_frames' root writes `result` before its broadcast. A rank
/// reads only what a message it received causally follows, so no lock
/// covers the contents.
struct Exchange {
  std::pair<int, std::uint64_t> key;  ///< (context id, collective count)
  std::unique_ptr<unsigned long[]> words;
  std::vector<unsigned long> result;
  int participants_left = 0;  ///< guarded by MonWorld::mx
};

/// Engine-wide mpimon state, one tool object per run: every rank's
/// MonState, indexed by world rank, and the live exchange slots.
struct MonWorld {
  explicit MonWorld(int nranks) : ranks(static_cast<std::size_t>(nranks)) {
    const double timeout = default_gather_timeout();
    for (MonState& st : ranks) st.gather_timeout_s = timeout;
  }
  std::vector<MonState> ranks;
  std::mutex mx;
  std::map<std::pair<int, std::uint64_t>, Exchange> exchanges;  ///< by mx
};

MonWorld& mon_world() {
  static const std::string kKey = "mpimon";
  mpim::mpi::Engine& engine = Ctx::current().engine();
  auto obj = engine.get_or_create_tool_object(
      kKey, [&engine]() -> std::shared_ptr<void> {
        return std::make_shared<MonWorld>(engine.world_size());
      });
  return *static_cast<MonWorld*>(obj.get());
}

MonState& mon_state() {
  return mon_world()
      .ranks[static_cast<std::size_t>(Ctx::current().world_rank())];
}

/// Enters the calling rank's next mpimon collective on `comm` and returns
/// its exchange slot: whichever member arrives first creates it with
/// `words` uninitialized words. Call it right before the collective, so
/// the rank's count advances only for calls that reach theirs.
Exchange& enter_exchange(const Comm& comm, std::size_t words) {
  MonWorld& world = mon_world();
  MonState& st =
      world.ranks[static_cast<std::size_t>(Ctx::current().world_rank())];
  const int context = comm.context_id();
  const std::uint64_t seq = st.collectives[context]++;
  std::lock_guard lock(world.mx);
  auto [it, fresh] = world.exchanges.try_emplace({context, seq});
  if (fresh) {
    it->second.key = it->first;
    it->second.words = std::make_unique_for_overwrite<unsigned long[]>(words);
    it->second.participants_left = comm.size();
  }
  return it->second;
}

/// The calling rank is done with `slot`; the last member to leave erases
/// it, so a contributor a receiver gave up on may still write its rows.
/// Not called when a collective throws: the slot then lives until the
/// run's tool objects go.
void leave_exchange(Exchange& slot) {
  MonWorld& world = mon_world();
  std::lock_guard lock(world.mx);
  if (--slot.participants_left == 0) world.exchanges.erase(slot.key);
}

/// Maps exceptions of the layers below to the paper's error codes. Engine
/// teardown (AbortError) keeps propagating so the failing rank unwinds.
template <typename Fn>
int guarded(Fn&& fn) {
  try {
    return fn();
  } catch (const mpim::mpi::AbortError&) {
    throw;
  } catch (const mpim::mpi::RankCrashExit&) {
    // The calling rank itself is crashing: it must unwind out of its main
    // function, not limp on with an error code (a zombie rank would stall
    // every collective it is still a member of).
    throw;
  } catch (const mpim::mpit::MpitError&) {
    return MPI_M_MPIT_FAIL;
  } catch (const mpim::CommRevokedError&) {
    // A revoked communicator is an MPI-layer refusal, not missing data:
    // the caller should shrink and rebind before asking again.
    return MPI_M_MPIT_FAIL;
  } catch (const mpim::RankFailedError&) {
    return MPI_M_PARTIAL_DATA;
  } catch (const mpim::TimeoutError&) {
    return MPI_M_PARTIAL_DATA;
  } catch (const std::bad_alloc&) {
    return MPI_M_INTERNAL_FAIL;
  } catch (...) {
    return MPI_M_INTERNAL_FAIL;
  }
}

bool flags_valid(int flags) {
  return flags != 0 && (flags & ~MPI_M_ALL_COMM) == 0;
}

/// msid lookup for single-session operations (ALL_MSID rejected).
int resolve_msid(MonState& st, MPI_M_msid msid, MonSession** out) {
  if (!st.initialized) return MPI_M_MISSING_INIT;
  if (msid == MPI_M_ALL_MSID || msid < 0 ||
      msid >= static_cast<int>(st.sessions.size()))
    return MPI_M_INVALID_MSID;
  MonSession& s = st.sessions[static_cast<std::size_t>(msid)];
  if (s.state == MonSession::St::freed) return MPI_M_INVALID_MSID;
  *out = &s;
  return MPI_M_SUCCESS;
}

mpim::mpit::Runtime& runtime() {
  return mpim::mpit::Runtime::of(Ctx::current().engine());
}

void stop_all_handles(MonSession& s) {
  auto& rt = runtime();
  for (int h : s.handles) rt.handle_stop(s.tsession, h);
}

void start_all_handles(MonSession& s) {
  auto& rt = runtime();
  for (int h : s.handles) rt.handle_start(s.tsession, h);
}

/// CommKind -> MPI_M kind-filter bit (p2p 0, coll 1, osc 2); -1 for tool.
int kind_bit(CommKind kind) {
  switch (kind) {
    case CommKind::p2p: return 0;
    case CommKind::coll: return 1;
    case CommKind::osc: return 2;
    default: return -1;
  }
}

/// Feeds the session's running snapshot from mpit's per-session packet
/// observer. It is attached only while the session is active and its
/// snapshot runs, and detached before this rank touches the sampler
/// (flush, clear, read): mpit serializes every observer call, a peer's
/// RMA attribution included, and makes none once the detach returns. The
/// closure may run on a peer's thread, so it captures only the sampler,
/// never the session table, whose vector may reallocate.
void attach_sampler(MonSession& s) {
  runtime().set_session_observer(
      s.tsession, [sampler = s.sampler, comm = s.comm,
                   flags = s.snapshot_flags](const mpim::mpi::PktInfo& pkt) {
        const int bit = kind_bit(pkt.kind);
        if (bit < 0 || !(flags & (1 << bit))) return;
        if (!comm.contains_world(pkt.src_world)) return;
        const int dst = comm.group_rank_of_world(pkt.dst_world);
        if (dst < 0) return;
        sampler->record(pkt.send_time_s, dst, bit,
                        static_cast<unsigned long>(pkt.bytes));
      });
}

void detach_sampler(MonSession& s) {
  runtime().set_session_observer(s.tsession, nullptr);
}

/// Accumulates the selected traffic classes of one metric into the n
/// words at `out`. metric 0 = counts, 1 = sizes.
void read_metric(MonSession& s, int flags, int metric, unsigned long* out) {
  auto& rt = runtime();
  const std::size_t n = static_cast<std::size_t>(s.comm.size());
  std::fill_n(out, n, 0ul);
  std::vector<unsigned long> tmp(n);
  for (int bit = 0; bit < 3; ++bit) {
    if (!(flags & (1 << bit))) continue;
    const int pvar = 2 * bit + metric;
    rt.handle_read(s.tsession, s.handles[static_cast<std::size_t>(pvar)],
                   tmp.data(), static_cast<int>(n));
    for (std::size_t i = 0; i < n; ++i) out[i] += tmp[i];
  }
}

std::string flags_string(int flags) {
  std::string out;
  auto append = [&](const char* name) {
    if (!out.empty()) out += "|";
    out += name;
  };
  if (flags & MPI_M_P2P_ONLY) append("p2p");
  if (flags & MPI_M_COLL_ONLY) append("coll");
  if (flags & MPI_M_OSC_ONLY) append("osc");
  return out;
}

}  // namespace

const char* MPI_M_error_string(int code) {
  switch (code) {
    case MPI_M_SUCCESS: return "MPI_M_SUCCESS";
    case MPI_M_INTERNAL_FAIL: return "MPI_M_INTERNAL_FAIL";
    case MPI_M_MPIT_FAIL: return "MPI_M_MPIT_FAIL";
    case MPI_M_MISSING_INIT: return "MPI_M_MISSING_INIT";
    case MPI_M_SESSION_STILL_ACTIVE: return "MPI_M_SESSION_STILL_ACTIVE";
    case MPI_M_SESSION_NOT_SUSPENDED: return "MPI_M_SESSION_NOT_SUSPENDED";
    case MPI_M_INVALID_MSID: return "MPI_M_INVALID_MSID";
    case MPI_M_SESSION_OVERFLOW: return "MPI_M_SESSION_OVERFLOW";
    case MPI_M_MULTIPLE_CALL: return "MPI_M_MULTIPLE_CALL";
    case MPI_M_INVALID_ROOT: return "MPI_M_INVALID_ROOT";
    case MPI_M_INVALID_FLAGS: return "MPI_M_INVALID_FLAGS";
    case MPI_M_PARTIAL_DATA: return "MPI_M_PARTIAL_DATA";
    case MPI_M_NO_SNAPSHOT: return "MPI_M_NO_SNAPSHOT";
    case MPI_M_NO_CRITPATH: return "MPI_M_NO_CRITPATH";
    default: return "(unknown MPI_M error code)";
  }
}

int MPI_M_init() {
  return guarded([&] {
    runtime();  // throws MpitError when no tool runtime is attached
    MonState& st = mon_state();
    if (st.initialized) return MPI_M_MULTIPLE_CALL;
    st.initialized = true;
    return MPI_M_SUCCESS;
  });
}

int MPI_M_finalize() {
  return guarded([&] {
    MonState& st = mon_state();
    if (!st.initialized) return MPI_M_MISSING_INIT;
    for (const MonSession& s : st.sessions)
      if (s.state == MonSession::St::active)
        return MPI_M_SESSION_STILL_ACTIVE;
    auto& rt = runtime();
    for (MonSession& s : st.sessions) {
      if (s.state == MonSession::St::suspended) {
        rt.session_free(s.tsession);
        if (s.gov_reserved > 0)
          mpim::mon::Governor::of(Ctx::current().engine())
              .release(s.gov_reserved);
        s.state = MonSession::St::freed;
      }
    }
    st.sessions.clear();
    st.initialized = false;
    return MPI_M_SUCCESS;
  });
}

int MPI_M_start(Comm comm, MPI_M_msid* msid) {
  return guarded([&] {
    MonState& st = mon_state();
    if (!st.initialized) return MPI_M_MISSING_INIT;
    if (msid == nullptr || comm.is_null()) return MPI_M_INTERNAL_FAIL;
    if (!comm.contains_world(Ctx::current().world_rank()))
      return MPI_M_INTERNAL_FAIL;

    // Reuse the first freed slot; cap the number of live sessions.
    int slot = -1;
    int live = 0;
    for (std::size_t i = 0; i < st.sessions.size(); ++i) {
      if (st.sessions[i].state == MonSession::St::freed) {
        if (slot < 0) slot = static_cast<int>(i);
      } else {
        ++live;
      }
    }
    if (live >= MPI_M_MAX_SESSIONS) return MPI_M_SESSION_OVERFLOW;
    if (slot < 0) {
      st.sessions.emplace_back();
      slot = static_cast<int>(st.sessions.size()) - 1;
    }

    auto& rt = runtime();
    MonSession s;
    s.comm = comm;
    s.tsession = rt.session_create();
    for (int pvar = 0; pvar < 6; ++pvar)
      s.handles[static_cast<std::size_t>(pvar)] =
          rt.handle_alloc(s.tsession, pvar, comm);
    s.state = MonSession::St::active;
    s.span_start_s = Ctx::current().now();
    start_all_handles(s);
    st.sessions[static_cast<std::size_t>(slot)] = s;
    *msid = slot;
    tele().add(Metric::mon_session_starts, tele_rank());
    return MPI_M_SUCCESS;
  });
}

namespace {

/// Shared shape of suspend/continue/reset/free: single-session transition
/// with an ALL_MSID broadcast variant that silently skips sessions in a
/// non-applicable state.
template <typename ApplicableFn, typename ApplyFn>
int session_op(MPI_M_msid msid, int wrong_state_error,
               ApplicableFn&& applicable, ApplyFn&& apply) {
  return guarded([&] {
    MonState& st = mon_state();
    if (!st.initialized) return MPI_M_MISSING_INIT;
    if (msid == MPI_M_ALL_MSID) {
      for (MonSession& s : st.sessions)
        if (s.state != MonSession::St::freed && applicable(s)) apply(s);
      return MPI_M_SUCCESS;
    }
    MonSession* s = nullptr;
    if (int rc = resolve_msid(st, msid, &s); rc != MPI_M_SUCCESS) return rc;
    if (!applicable(*s)) return wrong_state_error;
    apply(*s);
    return MPI_M_SUCCESS;
  });
}

}  // namespace

int MPI_M_suspend(MPI_M_msid msid) {
  return session_op(
      msid, MPI_M_MULTIPLE_CALL,
      [](const MonSession& s) { return s.state == MonSession::St::active; },
      [](MonSession& s) {
        stop_all_handles(s);
        // Close the sampler's open window so snapshot data is complete
        // while the session data is readable.
        if (s.snapshot_running) {
          detach_sampler(s);
          s.sampler->flush(Ctx::current().now());
        }
        s.state = MonSession::St::suspended;
        mpim::telemetry::Hub& hub = tele();
        hub.add(Metric::mon_session_suspends, tele_rank());
        // Sessions do not nest LIFO with collectives, so the active period
        // is recorded as a closed interval rather than via the span stack.
        if (s.span_start_s >= 0.0)
          hub.span_complete(tele_rank(), "mon.session", 'S', s.span_start_s,
                            Ctx::current().now());
        // Modeled-overhead budget: recorded events x the engine's
        // per-event cost against the active span, all virtual quantities,
        // so the alarm decision is deterministic per rank.
        auto& gov = mpim::mon::Governor::of(Ctx::current().engine());
        if (gov.overhead_budget_pct() > 0.0 && s.span_start_s >= 0.0) {
          std::vector<unsigned long> row(
              static_cast<std::size_t>(s.comm.size()));
          read_metric(s, MPI_M_ALL_COMM, 0, row.data());
          unsigned long events = 0;
          for (unsigned long v : row) events += v;
          gov.report_overhead(
              tele_rank(),
              static_cast<double>(events) * mpim::mpi::kMonitorEventCostS,
              Ctx::current().now() - s.span_start_s);
        }
        s.span_start_s = -1.0;
      });
}

int MPI_M_continue(MPI_M_msid msid) {
  return session_op(
      msid, MPI_M_MULTIPLE_CALL,
      [](const MonSession& s) {
        return s.state == MonSession::St::suspended;
      },
      [](MonSession& s) {
        start_all_handles(s);
        s.state = MonSession::St::active;
        if (s.snapshot_running) attach_sampler(s);
        s.span_start_s = Ctx::current().now();
      });
}

int MPI_M_reset(MPI_M_msid msid) {
  return session_op(
      msid, MPI_M_SESSION_NOT_SUSPENDED,
      [](const MonSession& s) {
        return s.state == MonSession::St::suspended;
      },
      [](MonSession& s) {
        auto& rt = runtime();
        for (int h : s.handles) rt.handle_reset(s.tsession, h);
        if (s.sampler) s.sampler->clear();
        tele().add(Metric::mon_session_resets, tele_rank());
      });
}

int MPI_M_free(MPI_M_msid msid) {
  return session_op(
      msid, MPI_M_SESSION_NOT_SUSPENDED,
      [](const MonSession& s) {
        return s.state == MonSession::St::suspended;
      },
      [](MonSession& s) {
        // Also detaches and destroys the observer: once this returns, no
        // thread calls it again, so dropping our sampler ref is safe.
        runtime().session_free(s.tsession);
        s.sampler.reset();
        s.snapshot_running = false;
        if (s.gov_reserved > 0) {
          mpim::mon::Governor::of(Ctx::current().engine())
              .release(s.gov_reserved);
          s.gov_reserved = 0;
        }
        s.tombstones.clear();
        s.state = MonSession::St::freed;
      });
}

int MPI_M_rebind(MPI_M_msid msid, Comm newcomm) {
  return guarded([&] {
    MonState& st = mon_state();
    MonSession* s = nullptr;
    if (int rc = resolve_msid(st, msid, &s); rc != MPI_M_SUCCESS) return rc;
    if (s->state != MonSession::St::suspended)
      return MPI_M_SESSION_NOT_SUSPENDED;
    if (newcomm.is_null() ||
        !newcomm.contains_world(Ctx::current().world_rank()))
      return MPI_M_INTERNAL_FAIL;

    auto& rt = runtime();
    const std::size_t n_old = static_cast<std::size_t>(s->comm.size());
    const std::size_t n_new = static_cast<std::size_t>(newcomm.size());

    // Read the accumulated history off the old binding; the handles are
    // stopped while suspended, so the rows are stable.
    std::array<std::vector<unsigned long>, 6> rows;
    for (std::size_t p = 0; p < 6; ++p) {
      rows[p].assign(n_old, 0ul);
      rt.handle_read(s->tsession, s->handles[p], rows[p].data(),
                     static_cast<int>(n_old));
    }
    for (std::size_t g = 0; g < n_old; ++g) {
      const int w = s->comm.world_rank_of(static_cast<int>(g));
      if (!newcomm.contains_world(w)) s->tombstones.push_back(w);
    }

    // Drop the sampler: its frame grid and peer numbering were sized for
    // the old group. session_free also detaches the packet observer.
    rt.session_free(s->tsession);
    s->sampler.reset();
    s->snapshot_running = false;
    if (s->gov_reserved > 0) {
      mpim::mon::Governor::of(Ctx::current().engine())
          .release(s->gov_reserved);
      s->gov_reserved = 0;
    }

    // Fresh mpit session + handles on the successor, seeded with each
    // surviving member's history (remapped by world rank).
    s->tsession = rt.session_create();
    for (int pvar = 0; pvar < 6; ++pvar)
      s->handles[static_cast<std::size_t>(pvar)] =
          rt.handle_alloc(s->tsession, pvar, newcomm);
    std::vector<unsigned long> seeded(n_new, 0ul);
    for (std::size_t p = 0; p < 6; ++p) {
      for (std::size_t j = 0; j < n_new; ++j) {
        const int w = newcomm.world_rank_of(static_cast<int>(j));
        const int g_old = s->comm.group_rank_of_world(w);
        seeded[j] = g_old >= 0 ? rows[p][static_cast<std::size_t>(g_old)]
                               : 0ul;
      }
      rt.handle_write(s->tsession, s->handles[p], seeded.data(),
                      static_cast<int>(n_new));
    }
    s->comm = newcomm;
    tele().add(Metric::mon_rebinds, tele_rank());
    return MPI_M_SUCCESS;
  });
}

int MPI_M_session_tombstones(MPI_M_msid msid, int* world_ranks, int capacity,
                             int* count) {
  return guarded([&] {
    MonState& st = mon_state();
    MonSession* s = nullptr;
    if (int rc = resolve_msid(st, msid, &s); rc != MPI_M_SUCCESS) return rc;
    const int total = static_cast<int>(s->tombstones.size());
    if (world_ranks != MPI_M_INT_IGNORE)
      for (int i = 0; i < std::min(total, capacity); ++i)
        world_ranks[i] = s->tombstones[static_cast<std::size_t>(i)];
    if (count != MPI_M_INT_IGNORE) *count = total;
    return MPI_M_SUCCESS;
  });
}

int MPI_M_get_info(MPI_M_msid msid, int* provided, int* array_size) {
  return guarded([&] {
    MonState& st = mon_state();
    MonSession* s = nullptr;
    if (int rc = resolve_msid(st, msid, &s); rc != MPI_M_SUCCESS) return rc;
    if (provided != MPI_M_INT_IGNORE) *provided = kThreadLevelProvided;
    if (array_size != MPI_M_INT_IGNORE) *array_size = s->comm.size();
    return MPI_M_SUCCESS;
  });
}

int MPI_M_get_data(MPI_M_msid msid, unsigned long* msg_counts,
                   unsigned long* msg_sizes, int flags) {
  return guarded([&] {
    MonState& st = mon_state();
    MonSession* s = nullptr;
    if (int rc = resolve_msid(st, msid, &s); rc != MPI_M_SUCCESS) return rc;
    if (s->state != MonSession::St::suspended)
      return MPI_M_SESSION_NOT_SUSPENDED;
    if (!flags_valid(flags)) return MPI_M_INVALID_FLAGS;

    if (msg_counts != MPI_M_DATA_IGNORE) read_metric(*s, flags, 0, msg_counts);
    if (msg_sizes != MPI_M_DATA_IGNORE) read_metric(*s, flags, 1, msg_sizes);
    return MPI_M_SUCCESS;
  });
}

namespace {

/// Counts a failure-aware receive that came back without data: a dead
/// peer in mpim_mon_dead_skips_total, a silent one in
/// mpim_mon_gather_timeouts_total.
void count_lost(Ctx::RecvWait rc) {
  if (rc == Ctx::RecvWait::ok) return;
  tele().add(rc == Ctx::RecvWait::peer_dead ? Metric::mon_dead_skips
                                            : Metric::mon_gather_timeouts,
             tele_rank());
}

/// The rows `got` reports lost (none when it is empty), each counted where
/// its receive failed: every row at the member that gathered them, only
/// row 0 (the broadcast it never heard) at another member of an allgather.
std::vector<bool> lost_rows(const std::vector<Ctx::RecvWait>& got,
                            std::size_t n, bool gathered) {
  std::vector<bool> lost(n, false);
  for (std::size_t r = 0; r < got.size(); ++r) {
    if (gathered || r == 0) count_lost(got[r]);
    lost[r] = got[r] != Ctx::RecvWait::ok;
  }
  return lost;
}

/// Gathers every member's counts and sizes rows (kind filter `flags`) into
/// the n x n `counts` and `sizes` matrices at group rank `root`, or at
/// every member when root < 0, with exactly ONE tool collective, wrapped
/// in a "mon.gather" telemetry span per participant so the
/// single-collective contract is observable in span counts. Either output
/// may be MPI_M_DATA_IGNORE, and non-receivers' outputs are never written;
/// traffic does not depend on them. Returns the number of contributors
/// whose rows could not be gathered, which are MPI_M_DATA_MISSING rows in
/// the outputs (always 0 on the fault-free schedules, minimpi/ft.h).
int gather_matrices(MonSession& s, int flags, int root, unsigned long* counts,
                    unsigned long* sizes) {
  Ctx& ctx = Ctx::current();
  const std::size_t n = static_cast<std::size_t>(s.comm.size());
  const int myrank = s.comm.group_rank_of_world(ctx.world_rank());
  const bool receives = (root < 0) || (myrank == root);
  const double t0 = ctx.now();
  // The rows meet in the call's exchange slot, [counts | sizes] as two
  // n x n matrices; the collective carries only their sizes.
  Exchange& slot = enter_exchange(s.comm, 2 * n * n);
  unsigned long* const all[2] = {slot.words.get(), slot.words.get() + n * n};
  const std::size_t mine = static_cast<std::size_t>(myrank) * n;
  read_metric(s, flags, 0, all[0] + mine);
  read_metric(s, flags, 1, all[1] + mine);
  const std::size_t row_bytes = 2 * n * sizeof(unsigned long);
  const double timeout_s = mon_state().gather_timeout_s;
  const std::vector<bool> lost = lost_rows(
      root >= 0 ? ft_gather(s.comm, nullptr, row_bytes, nullptr, root,
                            timeout_s)
                : ft_allgather(s.comm, row_bytes, timeout_s),
      n, root >= 0 || myrank == 0);
  const int missing =
      static_cast<int>(std::count(lost.begin(), lost.end(), true));
  unsigned long* const outs[2] = {counts, sizes};
  for (int m = 0; m < 2 && receives; ++m) {
    if (outs[m] == MPI_M_DATA_IGNORE) continue;
    for (std::size_t r = 0; r < n; ++r) {
      if (lost[r])
        std::fill_n(outs[m] + r * n, n, MPI_M_DATA_MISSING);
      else
        std::copy_n(all[m] + r * n, n, outs[m] + r * n);
    }
  }
  leave_exchange(slot);
  tele().span_complete(tele_rank(), "mon.gather", 'S', t0,
                       Ctx::current().now(), static_cast<std::int64_t>(2 * n),
                       static_cast<std::int64_t>(missing));
  return missing;
}

int gather_data_common(MPI_M_msid msid, int root, unsigned long* matrix_counts,
                       unsigned long* matrix_sizes, int flags) {
  return guarded([&] {
    MonState& st = mon_state();
    MonSession* s = nullptr;
    if (int rc = resolve_msid(st, msid, &s); rc != MPI_M_SUCCESS) return rc;
    if (s->state != MonSession::St::suspended)
      return MPI_M_SESSION_NOT_SUSPENDED;
    if (!flags_valid(flags)) return MPI_M_INVALID_FLAGS;
    if (root >= s->comm.size()) return MPI_M_INVALID_ROOT;

    const int missing =
        gather_matrices(*s, flags, root, matrix_counts, matrix_sizes);
    if (missing > 0) {
      tele().add(Metric::mon_partial_data, tele_rank());
      return MPI_M_PARTIAL_DATA;
    }
    return MPI_M_SUCCESS;
  });
}

}  // namespace

int MPI_M_set_gather_timeout(double timeout_s) {
  return guarded([&] {
    if (!(timeout_s > 0.0)) return MPI_M_INTERNAL_FAIL;
    mon_state().gather_timeout_s = timeout_s;
    return MPI_M_SUCCESS;
  });
}

double MPI_M_get_gather_timeout() {
  try {
    return mon_state().gather_timeout_s;
  } catch (const mpim::mpi::AbortError&) {
    throw;
  } catch (...) {
    return default_gather_timeout();  // no engine context attached
  }
}

int MPI_M_allgather_data(MPI_M_msid msid, unsigned long* matrix_counts,
                         unsigned long* matrix_sizes, int flags) {
  return gather_data_common(msid, /*root=*/-1, matrix_counts, matrix_sizes,
                            flags);
}

int MPI_M_rootgather_data(MPI_M_msid msid, int root,
                          unsigned long* matrix_counts,
                          unsigned long* matrix_sizes, int flags) {
  if (root < 0) return MPI_M_INVALID_ROOT;
  return gather_data_common(msid, root, matrix_counts, matrix_sizes, flags);
}

namespace {

/// Words in the per-rank frames blob of MPI_M_get_frames.
std::size_t frames_blob_words(std::size_t n, int max_frames) {
  return 1 + static_cast<std::size_t>(max_frames) * (1 + 2 * n);
}

/// Writes the per-rank frames blob exchanged by MPI_M_get_frames to
/// `blob`, frames_blob_words(n, max_frames) unsigned longs:
///   [0]              nwin (<= K)
///   then nwin entries of (1 + 2n) words: window index, counts row, bytes
///   row (dense, kind-filtered). Fixed size 1 + K*(1+2n) so every rank
///   sends the same tree collective; unused entries are zero.
void build_frames_blob(const MonSession& s, int max_frames, int flags,
                       unsigned long* blob) {
  const std::size_t n = static_cast<std::size_t>(s.comm.size());
  const std::size_t K = static_cast<std::size_t>(max_frames);
  std::fill_n(blob, frames_blob_words(n, max_frames), 0ul);
  const auto& frames = s.sampler->frames();
  const std::size_t take = std::min(frames.size(), K);
  const std::size_t first = frames.size() - take;
  blob[0] = static_cast<unsigned long>(take);
  for (std::size_t i = 0; i < take; ++i) {
    const mpim::introspect::Frame& f = frames[first + i];
    unsigned long* entry = blob + 1 + i * (1 + 2 * n);
    entry[0] = static_cast<unsigned long>(f.window);
    unsigned long* counts = entry + 1;
    unsigned long* bytes = entry + 1 + n;
    for (const mpim::introspect::FrameCell& cell : f.cells) {
      const auto p = static_cast<std::size_t>(cell.peer);
      for (int k = 0; k < mpim::introspect::kNumKinds; ++k) {
        if (!(flags & (1 << k))) continue;
        counts[p] += cell.counts[k];
        bytes[p] += cell.bytes[k];
      }
    }
  }
}

/// Result blob, in unsigned longs:
///   [0] W (aligned windows, <= K), [1] missing contributors,
///   then W entries of (1 + 2n^2) words: window index, counts matrix,
///   bytes matrix (rows of missing contributors = MPI_M_DATA_MISSING).
/// `gathered` holds the n contributors' frames blobs back to back.
std::vector<unsigned long> assemble_frames_result(
    const unsigned long* gathered, const std::vector<bool>& missing_rank,
    int max_frames, std::size_t n) {
  const std::size_t K = static_cast<std::size_t>(max_frames);
  const std::size_t stride = 1 + 2 * n;
  const std::size_t blob_words = frames_blob_words(n, max_frames);
  const auto blob_of = [&](std::size_t r) {
    return gathered + r * blob_words;
  };
  // Union of window indices, ascending; keep the last K.
  std::vector<long> windows;
  for (std::size_t r = 0; r < n; ++r) {
    if (missing_rank[r]) continue;
    const unsigned long* blob = blob_of(r);
    const std::size_t nwin = static_cast<std::size_t>(blob[0]);
    for (std::size_t i = 0; i < nwin; ++i)
      windows.push_back(
          static_cast<long>(blob[1 + i * stride]));
  }
  std::sort(windows.begin(), windows.end());
  windows.erase(std::unique(windows.begin(), windows.end()), windows.end());
  if (windows.size() > K)
    windows.erase(windows.begin(),
                  windows.end() - static_cast<std::ptrdiff_t>(K));

  const std::size_t W = windows.size();
  int missing = 0;
  for (std::size_t r = 0; r < n; ++r)
    if (missing_rank[r]) ++missing;

  std::vector<unsigned long> out(2 + K * (1 + 2 * n * n), 0ul);
  out[0] = static_cast<unsigned long>(W);
  out[1] = static_cast<unsigned long>(missing);
  for (std::size_t w = 0; w < W; ++w) {
    unsigned long* entry = out.data() + 2 + w * (1 + 2 * n * n);
    entry[0] = static_cast<unsigned long>(windows[w]);
    unsigned long* counts = entry + 1;
    unsigned long* bytes = entry + 1 + n * n;
    for (std::size_t r = 0; r < n; ++r) {
      unsigned long* crow = counts + r * n;
      unsigned long* brow = bytes + r * n;
      if (missing_rank[r]) {
        std::fill(crow, crow + n, MPI_M_DATA_MISSING);
        std::fill(brow, brow + n, MPI_M_DATA_MISSING);
        continue;
      }
      const unsigned long* blob = blob_of(r);
      const std::size_t nwin = static_cast<std::size_t>(blob[0]);
      for (std::size_t i = 0; i < nwin; ++i) {
        const unsigned long* e = blob + 1 + i * stride;
        if (static_cast<long>(e[0]) != windows[w]) continue;
        std::copy(e + 1, e + 1 + n, crow);
        std::copy(e + 1 + n, e + 1 + 2 * n, brow);
        break;
      }
    }
  }
  return out;
}

/// Refreshes the mpim_introspect_* derived-metric gauges of the calling
/// rank from a complete (no missing rows) get_frames result. Host-side
/// analytics only: no virtual time, skipped entirely while telemetry is
/// disabled (the gauges would not record anyway).
void refresh_derived_metrics(const MonSession& s, const unsigned long* result,
                             std::size_t n) {
  mpim::telemetry::Hub& hub = tele();
  if (!hub.enabled()) return;
  const std::size_t W = static_cast<std::size_t>(result[0]);
  if (W == 0) return;
  mpim::CommMatrix cum = mpim::CommMatrix::square(n);
  for (std::size_t w = 0; w < W; ++w) {
    const unsigned long* bytes =
        result + 2 + w * (1 + 2 * n * n) + 1 + n * n;
    for (std::size_t i = 0; i < n * n; ++i) cum.flat()[i] += bytes[i];
  }
  const mpim::mpi::Engine& engine = Ctx::current().engine();
  const auto& world_placement = engine.config().placement;
  mpim::topo::Placement placement(n);
  for (std::size_t j = 0; j < n; ++j)
    placement[j] = world_placement[static_cast<std::size_t>(
        s.comm.world_rank_of(static_cast<int>(j)))];

  const double imbalance = mpim::introspect::load_imbalance(cum);
  const double neighbor = mpim::introspect::neighbor_affinity_fraction(
      cum, engine.topology(), placement);
  const double mismatch =
      mpim::introspect::mismatch_byte_hops(cum, engine.fabric(), placement);
  const double gain = mpim::introspect::treematch_gain(cum, placement,
                                                       engine.cost_model());
  const int rank = tele_rank();
  hub.gauge_set(Metric::introspect_imbalance_milli, rank,
                std::llround(imbalance * 1000.0));
  hub.gauge_set(Metric::introspect_neighbor_milli, rank,
                std::llround(neighbor * 1000.0));
  hub.gauge_set(Metric::introspect_mismatch_hops, rank,
                std::llround(mismatch));
  hub.gauge_set(Metric::introspect_gain_milli, rank,
                std::llround(gain * 1000.0));
}

}  // namespace

int MPI_M_snapshot_start(MPI_M_msid msid, double window_s, int max_frames,
                         int flags) {
  return guarded([&] {
    MonState& st = mon_state();
    MonSession* s = nullptr;
    if (int rc = resolve_msid(st, msid, &s); rc != MPI_M_SUCCESS) return rc;
    if (s->snapshot_running) return MPI_M_MULTIPLE_CALL;
    if (!flags_valid(flags)) return MPI_M_INVALID_FLAGS;
    if (!(window_s > 0.0) || max_frames < 1) return MPI_M_INTERNAL_FAIL;

    // Degradation governor: a replaced (stopped) snapshot gives its frame
    // reservation back first, then the new one asks for storage. Under a
    // shed ladder >= 1 the requested window widens x2 -- fewer frames per
    // virtual second. All host-side: virtual clocks never see the budget.
    auto& gov = mpim::mon::Governor::of(Ctx::current().engine());
    if (s->gov_reserved > 0) {
      gov.release(s->gov_reserved);
      s->gov_reserved = 0;
    }
    const double eff_window_s = window_s * gov.window_scale();
    const std::uint64_t frame_bytes =
        sizeof(mpim::introspect::Frame) +
        static_cast<std::uint64_t>(s->comm.size()) *
            sizeof(mpim::introspect::FrameCell);
    const int granted = gov.reserve_frames(tele_rank(), max_frames,
                                           frame_bytes);
    if (granted == 0) return MPI_M_SESSION_OVERFLOW;
    s->gov_reserved = gov.mem_enabled()
                          ? static_cast<std::uint64_t>(granted) * frame_bytes
                          : 0;

    auto sampler = std::make_shared<mpim::introspect::WindowSampler>(
        s->comm.size(), eff_window_s, static_cast<std::size_t>(granted));

    // Telemetry per frame: counters plus a phase span per detected phase.
    // Never charges virtual time; disabled telemetry costs one load.
    mpim::telemetry::Hub* hub = &tele();
    const int rank = tele_rank();
    auto* raw = sampler.get();
    mpim::mpi::Engine* eng = &Ctx::current().engine();
    auto phase_t0 = std::make_shared<double>(-1.0);
    auto dropped_seen = std::make_shared<std::uint64_t>(0);
    sampler->set_frame_callback(
        [hub, rank, raw, eng, phase_t0, dropped_seen](
            const mpim::introspect::Frame& f) {
          hub->add(Metric::introspect_frames, rank);
          // Streaming plane: stage the closed frame's totals. The callback
          // may fire on a foreign thread (RMA attribution), which on_frame
          // tolerates (mutexed side queue, not the per-rank rings).
          if (auto* plane = mpim::obsplane::Plane::attached(*eng))
            plane->on_frame(rank, f);
          if (*phase_t0 < 0.0) *phase_t0 = f.t0_s;
          if (f.boundary) {
            hub->add(Metric::introspect_boundaries, rank);
            hub->span_complete(rank, "introspect.phase", 'P', *phase_t0,
                               f.t0_s);
            *phase_t0 = f.t0_s;
          }
          const std::uint64_t d = raw->frames_dropped();
          if (d > *dropped_seen) {
            hub->add(Metric::introspect_frames_dropped, rank,
                     d - *dropped_seen);
            *dropped_seen = d;
          }
        });

    s->sampler = std::move(sampler);
    s->snapshot_running = true;
    s->snapshot_flags = flags;
    if (s->state == MonSession::St::active) attach_sampler(*s);
    hub->add(Metric::introspect_starts, rank);
    return MPI_M_SUCCESS;
  });
}

int MPI_M_snapshot_stop(MPI_M_msid msid) {
  return guarded([&] {
    MonState& st = mon_state();
    MonSession* s = nullptr;
    if (int rc = resolve_msid(st, msid, &s); rc != MPI_M_SUCCESS) return rc;
    if (!s->sampler || !s->snapshot_running) return MPI_M_NO_SNAPSHOT;
    detach_sampler(*s);
    s->sampler->flush(Ctx::current().now());
    s->snapshot_running = false;
    return MPI_M_SUCCESS;
  });
}

int MPI_M_snapshot_info(MPI_M_msid msid, int* nframes, int* frames_dropped,
                        int* phase_boundaries) {
  return guarded([&] {
    MonState& st = mon_state();
    MonSession* s = nullptr;
    if (int rc = resolve_msid(st, msid, &s); rc != MPI_M_SUCCESS) return rc;
    if (s->state != MonSession::St::suspended)
      return MPI_M_SESSION_NOT_SUSPENDED;
    if (!s->sampler) return MPI_M_NO_SNAPSHOT;
    if (nframes != MPI_M_INT_IGNORE)
      *nframes = static_cast<int>(s->sampler->frames().size());
    if (frames_dropped != MPI_M_INT_IGNORE)
      *frames_dropped = static_cast<int>(s->sampler->frames_dropped());
    if (phase_boundaries != MPI_M_INT_IGNORE)
      *phase_boundaries = static_cast<int>(s->sampler->phase_boundaries());
    return MPI_M_SUCCESS;
  });
}

int MPI_M_get_frames(MPI_M_msid msid, int max_frames, int* nframes,
                     double* t0_s, double* t1_s,
                     unsigned long* matrix_counts,
                     unsigned long* matrix_sizes, int flags) {
  return guarded([&] {
    MonState& st = mon_state();
    MonSession* s = nullptr;
    if (int rc = resolve_msid(st, msid, &s); rc != MPI_M_SUCCESS) return rc;
    if (s->state != MonSession::St::suspended)
      return MPI_M_SESSION_NOT_SUSPENDED;
    if (!s->sampler) return MPI_M_NO_SNAPSHOT;
    if (!flags_valid(flags)) return MPI_M_INVALID_FLAGS;
    if (max_frames < 1) return MPI_M_INTERNAL_FAIL;

    Ctx& ctx = Ctx::current();
    const std::size_t n = static_cast<std::size_t>(s->comm.size());
    const std::size_t K = static_cast<std::size_t>(max_frames);
    const std::size_t blob_words = frames_blob_words(n, max_frames);
    const std::size_t result_words = 2 + K * (1 + 2 * n * n);
    const int myrank = s->comm.group_rank_of_world(ctx.world_rank());

    // The blobs meet in the call's exchange slot, and rank 0 aligns them
    // into its result. A lost blob's rows read as missing; a lost
    // broadcast, as every contributor missing.
    Exchange& slot = enter_exchange(s->comm, n * blob_words);
    build_frames_blob(*s, max_frames, flags,
                      slot.words.get() +
                          static_cast<std::size_t>(myrank) * blob_words);
    const std::vector<bool> lost = lost_rows(
        ft_gather(s->comm, nullptr, blob_words * sizeof(unsigned long),
                  nullptr, 0, st.gather_timeout_s),
        n, true);
    if (myrank == 0)
      slot.result =
          assemble_frames_result(slot.words.get(), lost, max_frames, n);
    const Ctx::RecvWait heard =
        ft_bcast(s->comm, nullptr, result_words * sizeof(unsigned long), 0,
                 st.gather_timeout_s, CommKind::tool);
    count_lost(heard);
    const unsigned long none[2] = {0, static_cast<unsigned long>(n)};
    const unsigned long* result =
        heard == Ctx::RecvWait::ok ? slot.result.data() : none;
    const int missing = static_cast<int>(result[1]);

    const std::size_t W = static_cast<std::size_t>(result[0]);
    const double window_s = s->sampler->window_s();
    if (nframes != MPI_M_INT_IGNORE) *nframes = static_cast<int>(W);
    for (std::size_t w = 0; w < W; ++w) {
      const unsigned long* entry = result + 2 + w * (1 + 2 * n * n);
      const long window = static_cast<long>(entry[0]);
      if (t0_s != nullptr) t0_s[w] = static_cast<double>(window) * window_s;
      if (t1_s != nullptr)
        t1_s[w] = static_cast<double>(window + 1) * window_s;
      if (matrix_counts != MPI_M_DATA_IGNORE)
        std::copy(entry + 1, entry + 1 + n * n, matrix_counts + w * n * n);
      if (matrix_sizes != MPI_M_DATA_IGNORE)
        std::copy(entry + 1 + n * n, entry + 1 + 2 * n * n,
                  matrix_sizes + w * n * n);
    }

    if (missing == 0) refresh_derived_metrics(*s, result, n);
    leave_exchange(slot);
    if (missing > 0) {
      tele().add(Metric::mon_partial_data, tele_rank());
      return MPI_M_PARTIAL_DATA;
    }
    return MPI_M_SUCCESS;
  });
}

int MPI_M_flush(MPI_M_msid msid, const char* filename, int flags) {
  return guarded([&] {
    MonState& st = mon_state();
    MonSession* s = nullptr;
    if (int rc = resolve_msid(st, msid, &s); rc != MPI_M_SUCCESS) return rc;
    if (s->state != MonSession::St::suspended)
      return MPI_M_SESSION_NOT_SUSPENDED;
    if (!flags_valid(flags)) return MPI_M_INVALID_FLAGS;
    if (filename == nullptr) return MPI_M_INTERNAL_FAIL;

    const int myrank =
        s->comm.group_rank_of_world(Ctx::current().world_rank());
    const std::size_t n = static_cast<std::size_t>(s->comm.size());
    std::vector<unsigned long> counts(n), sizes(n);
    read_metric(*s, flags, 0, counts.data());
    read_metric(*s, flags, 1, sizes.data());

    std::ofstream os(std::string(filename) + "." + std::to_string(myrank) +
                     ".prof");
    if (!os.good()) return MPI_M_INTERNAL_FAIL;
    os << "# MPI_Monitoring profile (per-peer messages sent)\n";
    os << "# rank " << myrank << " of " << s->comm.size() << ", flags "
       << flags_string(flags) << "\n";
    os << "# peer count bytes\n";
    for (std::size_t peer = 0; peer < counts.size(); ++peer)
      os << peer << " " << counts[peer] << " " << sizes[peer] << "\n";
    return os.good() ? MPI_M_SUCCESS : MPI_M_INTERNAL_FAIL;
  });
}

int MPI_M_rootflush(MPI_M_msid msid, int root, const char* filename,
                    int flags) {
  if (root < 0) return MPI_M_INVALID_ROOT;
  return guarded([&] {
    MonState& st = mon_state();
    MonSession* s = nullptr;
    if (int rc = resolve_msid(st, msid, &s); rc != MPI_M_SUCCESS) return rc;
    if (s->state != MonSession::St::suspended)
      return MPI_M_SESSION_NOT_SUSPENDED;
    if (!flags_valid(flags)) return MPI_M_INVALID_FLAGS;
    if (filename == nullptr) return MPI_M_INTERNAL_FAIL;
    if (root >= s->comm.size()) return MPI_M_INVALID_ROOT;

    Ctx& ctx = Ctx::current();
    const int myrank = s->comm.group_rank_of_world(ctx.world_rank());
    const std::size_t n = static_cast<std::size_t>(s->comm.size());
    std::vector<unsigned long> counts(myrank == root ? n * n : 0),
        sizes(counts.size());
    const int missing =
        gather_matrices(*s, flags, root, counts.data(), sizes.data());
    if (myrank != root) return MPI_M_SUCCESS;

    // [rank] in the file names is the root's rank in MPI_COMM_WORLD.
    const std::string world_rank = std::to_string(ctx.world_rank());
    auto write_matrix = [&](const std::string& path,
                            const std::vector<unsigned long>& m) {
      std::ofstream os(path);
      if (!os.good()) return false;
      os << "# MPI_Monitoring matrix, order " << n << ", flags "
         << flags_string(flags) << "\n";
      for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
          if (j) os << " ";
          os << m[i * n + j];
        }
        os << "\n";
      }
      return os.good();
    };
    const bool ok =
        write_matrix(std::string(filename) + "_counts." + world_rank +
                         ".prof",
                     counts) &&
        write_matrix(std::string(filename) + "_sizes." + world_rank + ".prof",
                     sizes);
    if (!ok) return MPI_M_INTERNAL_FAIL;
    if (missing > 0) {
      tele().add(Metric::mon_partial_data, tele_rank());
      return MPI_M_PARTIAL_DATA;
    }
    return MPI_M_SUCCESS;
  });
}

// --- causal critical-path profiler ------------------------------------------

namespace {

/// The engine's attached profiler, or nullptr. Rank thread only.
mpim::critpath::Profiler* crit_profiler() {
  return mpim::critpath::Profiler::attached(Ctx::current().engine());
}

unsigned long clamp_ul(std::uint64_t v) {
  return static_cast<unsigned long>(v);
}

}  // namespace

int MPI_M_critpath_start() {
  return guarded([&] {
    mpim::critpath::Profiler* p = crit_profiler();
    if (p == nullptr) return MPI_M_NO_CRITPATH;
    p->arm(Ctx::current().world_rank(), true);
    return MPI_M_SUCCESS;
  });
}

int MPI_M_critpath_stop() {
  return guarded([&] {
    mpim::critpath::Profiler* p = crit_profiler();
    if (p == nullptr) return MPI_M_NO_CRITPATH;
    p->arm(Ctx::current().world_rank(), false);
    return MPI_M_SUCCESS;
  });
}

int MPI_M_critpath_info(int* events, int* dropped, int* blame_only) {
  return guarded([&] {
    mpim::critpath::Profiler* p = crit_profiler();
    if (p == nullptr) return MPI_M_NO_CRITPATH;
    const auto totals = p->local_totals(Ctx::current().world_rank());
    constexpr std::uint64_t kIntMax =
        static_cast<std::uint64_t>(std::numeric_limits<int>::max());
    if (events != nullptr)
      *events = static_cast<int>(std::min(totals.events, kIntMax));
    if (dropped != nullptr)
      *dropped = static_cast<int>(std::min(totals.dropped, kIntMax));
    if (blame_only != nullptr) *blame_only = p->blame_only() ? 1 : 0;
    return MPI_M_SUCCESS;
  });
}

int MPI_M_critpath_classes(unsigned long* late_sender_ns,
                           unsigned long* late_receiver_ns,
                           unsigned long* wait_collective_ns,
                           unsigned long* root_imbalance_ns) {
  return guarded([&] {
    mpim::critpath::Profiler* p = crit_profiler();
    if (p == nullptr) return MPI_M_NO_CRITPATH;
    const auto totals = p->local_totals(Ctx::current().world_rank());
    using namespace mpim::critpath;
    if (late_sender_ns != nullptr)
      *late_sender_ns = clamp_ul(totals.class_ns[kClassLateSender]);
    if (late_receiver_ns != nullptr)
      *late_receiver_ns = clamp_ul(totals.class_ns[kClassLateReceiver]);
    if (wait_collective_ns != nullptr)
      *wait_collective_ns = clamp_ul(totals.class_ns[kClassWaitCollective]);
    if (root_imbalance_ns != nullptr)
      *root_imbalance_ns = clamp_ul(totals.class_ns[kClassRootImbalance]);
    return MPI_M_SUCCESS;
  });
}

int MPI_M_critpath_waits(unsigned long* wait_ns, int capacity, int* count) {
  if (capacity < 0) return MPI_M_INTERNAL_FAIL;
  return guarded([&] {
    mpim::critpath::Profiler* p = crit_profiler();
    if (p == nullptr) return MPI_M_NO_CRITPATH;
    const auto waits = p->local_waits_by_peer(Ctx::current().world_rank());
    if (count != nullptr) *count = static_cast<int>(waits.size());
    if (wait_ns != nullptr) {
      const std::size_t n =
          std::min(waits.size(), static_cast<std::size_t>(capacity));
      for (std::size_t i = 0; i < n; ++i) wait_ns[i] = clamp_ul(waits[i]);
    }
    return MPI_M_SUCCESS;
  });
}

int MPI_M_critpath_dominant(int* peer, unsigned long* wait_ns) {
  return guarded([&] {
    mpim::critpath::Profiler* p = crit_profiler();
    if (p == nullptr) return MPI_M_NO_CRITPATH;
    int dom = -1;
    std::uint64_t dom_ns = 0;
    p->local_dominant(Ctx::current().world_rank(), &dom, &dom_ns);
    if (peer != nullptr) *peer = dom;
    if (wait_ns != nullptr) *wait_ns = clamp_ul(dom_ns);
    return MPI_M_SUCCESS;
  });
}
