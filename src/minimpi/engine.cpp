#include "minimpi/engine.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <thread>

#include "fault/fault_plan.h"
#include "minimpi/fiber_sched.h"
#include "support/env.h"
#include "telemetry/log.h"

namespace mpim::mpi {

using telemetry::Metric;

namespace {
// The executing rank context, owned by the scheduler of the executing
// context rather than by "the rank's thread": in thread mode every rank
// thread is its own trivial scheduler and writes its slot once at entry;
// in fiber mode one OS thread runs every rank and the fiber dispatcher
// repoints this at every context switch (Engine::run_fibers' on_resume).
thread_local Ctx* g_running_ctx = nullptr;

/// Usable stack bytes per rank fiber (rounded up to whole pages, with a
/// guard page below). mmap keeps untouched pages off the RSS, so 4096 ranks
/// cost ~1 GiB of address space, not memory.
constexpr std::size_t kFiberStackBytes = 256 * 1024;

bool pkt_matches(const PktInfo& info, int src_world, int context_id, int tag,
                 CommKind kind) {
  if (info.context_id != context_id) return false;
  if (info.kind != kind) return false;
  if (tag != kAnyTag && info.tag != tag) return false;
  if (src_world != kAnySource && info.src_world != src_world) return false;
  return true;
}
}  // namespace

const char* sched_mode_name(SchedMode mode) {
  return mode == SchedMode::fibers ? "fibers" : "threads";
}

detail::CommImpl::CommImpl(int ctx_id, std::vector<int> members,
                           int world_size)
    : context_id(ctx_id), group(std::move(members)) {
  check(!group.empty(), "empty communicator group");
  world_to_group.assign(static_cast<std::size_t>(world_size), -1);
  for (std::size_t g = 0; g < group.size(); ++g) {
    const int w = group[g];
    check(w >= 0 && w < world_size, "communicator member out of world range");
    check(world_to_group[static_cast<std::size_t>(w)] == -1,
          "duplicate world rank in communicator");
    world_to_group[static_cast<std::size_t>(w)] = static_cast<int>(g);
  }
}

namespace {

/// Applies the strict-parsed MPIM_TOPO fabric selection before the engine
/// wires itself to the cost model. Garbage is rejected with a logged warning
/// and the configured model stands; a valid spec replaces the cost model
/// with CostModel::for_fabric sized to hold the placement, keeping the
/// placement when it still fits and falling back to round-robin otherwise.
EngineConfig resolve_fabric_config(EngineConfig cfg) {
  constexpr const char* kGrammar =
      "(want tree|fattree:<k,l,osub>|dragonfly:<a,g,h>[,valiant])";
  const auto env = support::env_nonempty_string("MPIM_TOPO");
  std::optional<topo::FabricSpec> spec;
  if (env.ok()) spec = topo::parse_fabric_spec(env.value);
  if (!spec && (env.ok() || env.invalid()))
    telemetry::log(telemetry::LogLevel::warn, -1, "engine",
                   "ignoring invalid MPIM_TOPO=\"" + env.raw + "\" " +
                       kGrammar + "; using the configured fabric");
  if (!spec) return cfg;
  // "tree" keeps whatever tree model the caller configured (including its
  // custom parameters): the spec names the kind, not a replacement model.
  if (spec->kind == topo::FabricKind::tree &&
      cfg.cost_model.fabric().kind() == topo::FabricKind::tree)
    return cfg;
  if (*spec == cfg.cost_model.fabric().spec()) return cfg;
  const int np = static_cast<int>(cfg.placement.size());
  auto fab = topo::make_fabric(*spec, std::max(1, np));
  cfg.cost_model = net::CostModel::for_fabric(fab);
  bool placement_fits = !cfg.placement.empty();
  try {
    topo::validate_placement(cfg.placement, fab->hierarchy());
  } catch (const Error&) {
    placement_fits = false;
  }
  if (!placement_fits && np >= 1) {
    cfg.placement = topo::round_robin_placement(np, fab->hierarchy());
    telemetry::log(telemetry::LogLevel::info, -1, "engine",
                   "fabric \"" + spec->describe() +
                       "\": configured placement does not fit; using "
                       "round-robin over " +
                       std::to_string(fab->num_leaves()) + " PUs");
  }
  telemetry::log(telemetry::LogLevel::info, -1, "engine",
                 "fabric selected: " + fab->describe());
  return cfg;
}

}  // namespace

Engine::Engine(EngineConfig cfg)
    : cfg_(resolve_fabric_config(std::move(cfg))),
      hub_(cfg_.placement.empty() ? 1
                                  : static_cast<int>(cfg_.placement.size())),
      nic_(std::max(1, cfg_.cost_model.fabric().num_nodes())) {
  check(!cfg_.placement.empty(), "engine needs at least one rank");
  const auto tele_env = support::env_bool("MPIM_TELEMETRY");
  if (tele_env.ok()) {
    hub_.set_enabled(tele_env.value);
  } else if (tele_env.invalid()) {
    telemetry::log(telemetry::LogLevel::warn, -1, "engine",
                   "ignoring invalid MPIM_TELEMETRY=\"" + tele_env.raw +
                       "\" (want 0/1, true/false, on/off or yes/no); "
                       "telemetry stays disabled");
  }
  topo::validate_placement(cfg_.placement, cfg_.cost_model.topology());

  const int n = world_size();
  ranks_.reserve(static_cast<std::size_t>(n));
  for (int r = 0; r < n; ++r) ranks_.push_back(std::make_unique<RankState>());

  std::vector<int> world_group(static_cast<std::size_t>(n));
  for (int r = 0; r < n; ++r) world_group[static_cast<std::size_t>(r)] = r;
  world_comm_ = Comm(
      std::make_shared<const detail::CommImpl>(0, std::move(world_group), n));
  final_clocks_.assign(static_cast<std::size_t>(n), 0.0);
  dead_at_.assign(static_cast<std::size_t>(n), -1.0);
  pending_.assign(static_cast<std::size_t>(n), PendingOp{});
}

Engine::~Engine() = default;

void Engine::attach(EngineObserver& obs, unsigned events) {
  std::lock_guard lock(observers_mx_);
  observers_.push_back({&obs, nullptr});
  obs.armed_.store(events, std::memory_order_relaxed);
  rearm_locked();
}

void Engine::attach(std::shared_ptr<EngineObserver> obs, unsigned events) {
  attach(*obs, events);
  std::lock_guard lock(observers_mx_);
  observers_.back().owned = std::move(obs);
}

void Engine::detach(EngineObserver& obs) {
  std::shared_ptr<EngineObserver> owned;  // destroyed after the unlock
  std::lock_guard lock(observers_mx_);
  auto it = std::find_if(observers_.begin(), observers_.end(),
                         [&](const Attached& a) { return a.obs == &obs; });
  if (it == observers_.end()) return;
  owned = std::move(it->owned);
  observers_.erase(it);
  rearm_locked();
}

void Engine::arm(EngineObserver& obs, unsigned events) {
  std::lock_guard lock(observers_mx_);
  obs.armed_.store(events, std::memory_order_relaxed);
  rearm_locked();
}

void Engine::rearm_locked() {
  unsigned all = 0;
  for (const Attached& a : observers_)
    all |= a.obs->armed_.load(std::memory_order_relaxed);
  armed_.store(all, std::memory_order_relaxed);
}

Comm Engine::intern_comm(const std::string& key,
                         std::vector<int> world_group) {
  std::lock_guard lock(comm_mutex_);
  auto it = comm_registry_.find(key);
  if (it != comm_registry_.end()) return it->second;
  Comm comm(std::make_shared<const detail::CommImpl>(
      next_context_id_++, std::move(world_group), world_size()));
  comm_registry_.emplace(key, comm);
  return comm;
}

std::shared_ptr<void> Engine::get_or_create_tool_object(
    const std::string& key,
    const std::function<std::shared_ptr<void>()>& factory) {
  std::lock_guard lock(tool_objects_mutex_);
  auto it = tool_objects_.find(key);
  if (it != tool_objects_.end()) return it->second;
  auto obj = factory();
  tool_objects_.emplace(key, obj);
  return obj;
}

void Engine::deliver(InFlight msg, const void* buf) {
  const int dst_rank = msg.info.dst_world;
  const int src_rank = msg.info.src_world;
  const double arrival = msg.arrival_s;
  const std::size_t msg_bytes = msg.info.bytes;
  const bool carries = buf != nullptr && msg_bytes > 0;
  RankState& dst = rank_state(dst_rank);
  {
    std::lock_guard lock(dst.mutex);
    PostedRecv& post = dst.posted;
    bool landed = false;
    if (post.buf != nullptr &&
        pkt_matches(msg.info, post.src_world, post.context_id, post.tag,
                    post.kind)) {
      // The posted receive takes this message next. Land the payload in its
      // buffer when it fits; a message too large for it stays in the inbox
      // for the receive to reject. Either way the post is spent, so no later
      // message can land behind this one. memmove: ranks may share memory,
      // so the sender's buffer can overlap the one it lands in.
      if (carries && msg_bytes <= post.capacity) {
        std::memmove(post.buf, buf, msg_bytes);
        landed = true;
      }
      post = PostedRecv{};
    }
    if (carries && !landed) {
      msg.payload = std::make_unique_for_overwrite<std::byte[]>(msg_bytes);
      std::memcpy(msg.payload.get(), buf, msg_bytes);
    }
    dst.inbox.push_back(std::move(msg));
    if (hub_.enabled()) {
      hub_.registry().observe(Metric::engine_inbox_depth, dst_rank,
                              static_cast<double>(dst.inbox.size()));
      hub_.registry().gauge_add(Metric::engine_bytes_in_flight, dst_rank,
                                static_cast<std::int64_t>(msg_bytes));
      if (landed)
        hub_.registry().add(Metric::engine_direct_deliveries, src_rank);
    }
    if (cfg_.nic_contention) {
      // A blocked receiver may wake from this delivery and send as early
      // as `arrival`: feed that bound into the min-clock gate.
      std::lock_guard sched_lock(sched_.mx);
      auto& entry = sched_.entries[static_cast<std::size_t>(dst_rank)];
      if (entry.st == Sched::St::blocked) {
        sched_update_locked(dst_rank, Sched::St::pending, arrival);
      } else if (entry.st == Sched::St::pending && arrival < entry.clock) {
        sched_update_locked(dst_rank, Sched::St::pending, arrival);
      }
    }
  }
  deliveries_.fetch_add(1, std::memory_order_relaxed);
  if (fiber_ != nullptr)
    fiber_->wake(dst_rank);
  else
    dst.cv.notify_all();
}

void Engine::record_error(std::exception_ptr err) {
  std::lock_guard lock(error_mutex_);
  if (!first_error_) first_error_ = err;
}

void Engine::abort_all() {
  abort_.store(true);
  if (fiber_ != nullptr) {
    // Fiber mode: every blocked fiber re-checks the abort flag when it is
    // resumed, so promoting them all drains the world.
    fiber_->wake_all();
    return;
  }
  for (auto& st : ranks_) st->cv.notify_all();
  std::lock_guard lock(sched_.mx);
  for (auto& cv : sched_.cvs)
    if (cv) cv->notify_all();
}

void Engine::fail_run(std::exception_ptr err) {
  record_error(err);
  abort_all();
  throw AbortError();
}

void Engine::set_errmode(const Comm& comm, ErrMode mode) {
  check(!comm.is_null(), "errmode on null communicator");
  std::lock_guard lock(errmode_mutex_);
  errmodes_[comm.context_id()] = mode;
}

ErrMode Engine::errmode(const Comm& comm) const {
  check(!comm.is_null(), "errmode on null communicator");
  std::lock_guard lock(errmode_mutex_);
  auto it = errmodes_.find(comm.context_id());
  return it == errmodes_.end() ? ErrMode::fatal : it->second;
}

void Engine::revoke_comm(const Comm& comm) {
  check(!comm.is_null(), "revoke on null communicator");
  {
    std::lock_guard lock(revoke_mutex_);
    if (!revoked_.insert(comm.context_id()).second) return;  // idempotent
  }
  revoked_count_.fetch_add(1, std::memory_order_release);
  telemetry::log(telemetry::LogLevel::info, -1, "engine",
                 "communicator " + std::to_string(comm.context_id()) +
                     " revoked");
  // Revocation is progress: blocked members must wake, observe it and
  // raise CommRevokedError instead of tripping the watchdog.
  deliveries_.fetch_add(1, std::memory_order_relaxed);
  if (fiber_ != nullptr) {
    fiber_->wake_all();
    return;
  }
  for (auto& st : ranks_) st->cv.notify_all();
}

bool Engine::comm_revoked(const Comm& comm) const {
  if (revoked_count_.load(std::memory_order_acquire) == 0) return false;
  std::lock_guard lock(revoke_mutex_);
  return revoked_.count(comm.context_id()) != 0;
}

void Engine::mark_dead(int world_rank, double when_s) {
  {
    std::lock_guard lock(fail_mutex_);
    auto& slot = dead_at_[static_cast<std::size_t>(world_rank)];
    if (slot >= 0.0) return;
    slot = when_s;
  }
  dead_count_.fetch_add(1, std::memory_order_release);
  hub_.add(Metric::fault_crashes, world_rank);
  PendingOp op;
  op.what = PendingOp::What::crashed;
  op.clock_s = when_s;
  set_pending(world_rank, op);
  // Failure notification broadcast: count as progress (peers of the dead
  // rank will fail over instead of deadlocking) and wake every waiter so
  // it notices promptly.
  deliveries_.fetch_add(1, std::memory_order_relaxed);
  if (fiber_ != nullptr) {
    fiber_->wake_all();
    return;
  }
  for (auto& st : ranks_) st->cv.notify_all();
}

bool Engine::rank_dead(int world_rank) const {
  if (dead_count_.load(std::memory_order_acquire) == 0) return false;
  std::lock_guard lock(fail_mutex_);
  return dead_at_[static_cast<std::size_t>(world_rank)] >= 0.0;
}

double Engine::dead_time(int world_rank) const {
  std::lock_guard lock(fail_mutex_);
  return dead_at_[static_cast<std::size_t>(world_rank)];
}

std::vector<int> Engine::dead_ranks() const {
  std::vector<int> out;
  std::lock_guard lock(fail_mutex_);
  for (int r = 0; r < world_size(); ++r)
    if (dead_at_[static_cast<std::size_t>(r)] >= 0.0) out.push_back(r);
  return out;
}

double Engine::effective_watchdog_s() const {
  const auto env = support::env_positive_double("MPIM_WATCHDOG_S");
  if (env.ok()) return env.value;
  if (env.invalid())
    telemetry::log(telemetry::LogLevel::warn, -1, "engine",
                   "ignoring invalid MPIM_WATCHDOG_S=\"" + env.raw +
                       "\" (want a finite number > 0); using the default");
  // Bigger worlds make slower wall-clock progress on an oversubscribed
  // host, so scale the configured timeout with the world size -- but cap
  // it: an uncapped np/32 scale would mean 40+ minutes of silence before
  // a deadlock report at np=4096. The multiplier stops at 4x and the
  // scaled result never exceeds two minutes (or the configured base when
  // that is already larger). Fiber mode barely needs the watchdog -- its
  // scheduler detects a structural deadlock the moment no context can
  // run -- so the wall timeout only backstops thread mode and bounds
  // timed recovery waits.
  const double scale =
      std::min(4.0, std::max(1.0, static_cast<double>(world_size()) / 32.0));
  return std::min(cfg_.watchdog_wall_timeout_s * scale,
                  std::max(cfg_.watchdog_wall_timeout_s, 120.0));
}

void Engine::set_pending(int rank, const PendingOp& op) {
  std::lock_guard lock(pending_mutex_);
  auto& cur = pending_[static_cast<std::size_t>(rank)];
  // A crash entry is terminal: the epilogue's "exited" note must not hide
  // the crash in the report.
  if (cur.what == PendingOp::What::crashed &&
      op.what != PendingOp::What::crashed)
    return;
  cur = op;
}

void Engine::clear_pending(int rank, PendingOp::What terminal) {
  PendingOp op;
  op.what = terminal;
  set_pending(rank, op);
}

std::string Engine::deadlock_report(int reporter) const {
  std::ostringstream os;
  os << "deadlock: every live rank blocked with no message progress for "
     << watchdog_s_ << "s (detected by rank " << reporter << ")\n";
  // Snapshot the failure state before taking pending_mutex_ (the two locks
  // are never held together): a hang that follows a crash usually means a
  // survivor still depends on the dead rank, which reads very differently
  // from a logic deadlock.
  std::vector<std::pair<int, double>> failed;
  {
    std::lock_guard lock(fail_mutex_);
    for (int r = 0; r < world_size(); ++r)
      if (dead_at_[static_cast<std::size_t>(r)] >= 0.0)
        failed.emplace_back(r, dead_at_[static_cast<std::size_t>(r)]);
  }
  if (failed.empty()) {
    os << "  failed ranks: none (logic deadlock)\n";
  } else {
    os << "  failed ranks:";
    for (const auto& [r, when] : failed)
      os << " " << r << " (crashed at t=" << when << "s)";
    os << "\n  note: survivors blocked on a failed rank should shrink and"
          " continue (see docs/FAULTS.md, Recovery)\n";
  }
  std::lock_guard lock(pending_mutex_);
  for (int r = 0; r < world_size(); ++r) {
    const PendingOp& p = pending_[static_cast<std::size_t>(r)];
    os << "  rank " << r << ": ";
    switch (p.what) {
      case PendingOp::What::none:
        os << "running (not blocked in the engine)";
        break;
      case PendingOp::What::recv:
        os << "blocked in recv(src="
           << (p.src_world == kAnySource ? std::string("any")
                                         : std::to_string(p.src_world))
           << ", tag="
           << (p.tag == kAnyTag ? std::string("any") : std::to_string(p.tag))
           << ", kind=" << comm_kind_name(p.kind) << ", comm=" << p.context_id
           << ") at t=" << p.clock_s << "s";
        break;
      case PendingOp::What::exited:
        os << "exited normally";
        break;
      case PendingOp::What::crashed:
        os << "crashed (fault plan) at t=" << p.clock_s << "s";
        break;
    }
    os << "\n";
  }
  return os.str();
}

void Engine::sched_update_locked(int rank, Sched::St st, double clock) {
  auto& entry = sched_.entries[static_cast<std::size_t>(rank)];
  entry.st = st;
  entry.clock = clock;
  sched_.tree.update(rank, clock,
                     st != Sched::St::blocked && st != Sched::St::done);
  const int best = sched_.tree.min_rank();
  if (best >= 0 &&
      sched_.entries[static_cast<std::size_t>(best)].st == Sched::St::gate) {
    if (fiber_ != nullptr)
      fiber_->wake(best);
    else
      sched_.cvs[static_cast<std::size_t>(best)]->notify_all();
  }
}

SchedMode Engine::resolve_sched_mode() const {
  static const char* const kNames[] = {"threads", "fibers"};
  const auto env = support::env_choice("MPIM_SCHED", kNames, 2);
  if (env.ok()) return env.value == 1 ? SchedMode::fibers : SchedMode::threads;
  if (env.invalid())
    telemetry::log(telemetry::LogLevel::warn, -1, "engine",
                   "ignoring invalid MPIM_SCHED=\"" + env.raw +
                       "\" (want threads|fibers); using the configured \"" +
                       std::string(sched_mode_name(cfg_.sched)) +
                       "\" backend");
  return cfg_.sched;
}

void Engine::run(const std::function<void(Ctx&)>& rank_main) {
  const int n = world_size();
  run_sched_mode_ = resolve_sched_mode();
  abort_.store(false);
  blocked_.store(0);
  deliveries_.store(0);
  first_error_ = nullptr;
  watchdog_s_ = effective_watchdog_s();
  {
    std::lock_guard lock(fail_mutex_);
    dead_at_.assign(static_cast<std::size_t>(n), -1.0);
  }
  dead_count_.store(0);
  {
    std::lock_guard lock(revoke_mutex_);
    revoked_.clear();
  }
  revoked_count_.store(0);
  {
    std::lock_guard lock(pending_mutex_);
    pending_.assign(static_cast<std::size_t>(n), PendingOp{});
  }
  if (cfg_.fault_plan) cfg_.fault_plan->begin_run(n);
  for (auto& st : ranks_) {
    std::lock_guard lock(st->mutex);
    st->inbox.clear();
  }
  {
    std::lock_guard lock(tool_objects_mutex_);
    tool_objects_.clear();
  }
  ++run_count_;
  {
    std::lock_guard lock(sched_.mx);
    sched_.entries.assign(static_cast<std::size_t>(n), Sched::Entry{});
    if (sched_.cvs.size() != static_cast<std::size_t>(n)) {
      sched_.cvs.clear();
      for (int r = 0; r < n; ++r)
        sched_.cvs.push_back(std::make_unique<std::condition_variable>());
    }
    sched_.tree.reset(n);  // every rank running at clock 0: rank 0 leads
  }
  link_busy_.assign(static_cast<std::size_t>(fabric().num_links()), 0.0);
  run_ctx_.assign(static_cast<std::size_t>(n), nullptr);
  alive_.store(n);
  epoch_period_s_ = 0.0;
  for (const Attached& a : observers_) {
    const double width = a.obs->epoch_s();
    if ((a.obs->armed_.load(std::memory_order_relaxed) &
         EngineObserver::kEpoch) != 0 &&
        width > 0.0 && (epoch_period_s_ == 0.0 || width < epoch_period_s_))
      epoch_period_s_ = width;
  }
  // After the per-run resets (the critpath governor reservation interns a
  // tool object, which tool_objects_.clear() above would otherwise wipe)
  // and before any rank context exists.
  for (const Attached& a : observers_) a.obs->on_run_begin();

  if (run_sched_mode_ == SchedMode::fibers)
    run_fibers(rank_main);
  else
    run_threads(rank_main);

  max_virtual_time_ = 0.0;
  for (double c : final_clocks_) max_virtual_time_ = std::max(max_virtual_time_, c);

  // Before the rethrow: a failed run still gets its exporters finalized, so
  // everything flushed up to the failure survives in the output.
  for (const Attached& a : observers_) a.obs->on_run_end();

  if (first_error_) std::rethrow_exception(first_error_);
}

void Engine::rank_body(int r, const std::function<void(Ctx&)>& rank_main) {
  Ctx ctx(this, r);
  ctx.noise_rng_.reseed(static_cast<std::uint64_t>(r) * 0x100000001b3ULL +
                        run_count_);
  if (epoch_period_s_ > 0.0) ctx.next_epoch_s_ = epoch_period_s_;
  run_ctx_[static_cast<std::size_t>(r)] = &ctx;
  g_running_ctx = &ctx;
  try {
    rank_main(ctx);
    clear_pending(r, PendingOp::What::exited);
  } catch (const RankCrashExit& crash) {
    // A fault-plan crash kills this rank, not the run: peers observe a
    // dead rank and either degrade (ErrMode::ret, failure-aware tool
    // gathers) or fail with a typed RankFailedError.
    mark_dead(r, crash.crash_time_s);
  } catch (const AbortError&) {
    // Another rank failed first; its error is already recorded.
  } catch (...) {
    record_error(std::current_exception());
    abort_all();
  }
  g_running_ctx = nullptr;
  final_clocks_[static_cast<std::size_t>(r)] = ctx.now();
  // Final epoch flush on the rank's own context, for every exit path --
  // including a fault-plan crash, so the streaming plane keeps a
  // crashed rank's last partial epoch (exporter teardown ordering).
  if (epoch_period_s_ > 0.0)
    notify(EngineObserver::kEpoch, [&](EngineObserver& o) {
      o.on_epoch(r, ctx.now(), /*final_flush=*/true);
    });
  if (cfg_.nic_contention) {
    std::lock_guard lock(sched_.mx);
    sched_update_locked(r, Sched::St::done, ctx.now());
  }
  run_ctx_[static_cast<std::size_t>(r)] = nullptr;
  alive_.fetch_sub(1);
  if (fiber_ != nullptr) {
    // A rank exiting can turn the remaining blocked fibers into a
    // structural deadlock; the scheduler notices that instantly once this
    // fiber returns, so no broadcast is needed (and an O(n) notify per
    // exit would make teardown O(n^2) at np=4096).
    return;
  }
  // A rank exiting can turn the remaining blocked ranks into a
  // deadlock; wake them so the watchdog can notice.
  for (auto& st : ranks_) st->cv.notify_all();
}

void Engine::run_threads(const std::function<void(Ctx&)>& rank_main) {
  const int n = world_size();
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(n));
  for (int r = 0; r < n; ++r)
    threads.emplace_back([this, r, &rank_main] { rank_body(r, rank_main); });
  for (auto& t : threads) t.join();
}

void Engine::run_fibers(const std::function<void(Ctx&)>& rank_main) {
  // One OS thread drives every rank; the scheduler repoints the
  // current-context pointer at each switch so Ctx::current() and every
  // per-rank hook consumer (telemetry shards, obsplane rings, critpath
  // lanes) see the rank that is actually executing.
  fiber_ = std::make_unique<FiberSched>(
      world_size(), kFiberStackBytes,
      [this](int r) { g_running_ctx = r >= 0 ? run_ctx_[static_cast<std::size_t>(r)] : nullptr; });
  fiber_->run(
      [this, &rank_main](int r) { rank_body(r, rank_main); },
      [this](int reporter) {
        // Structural deadlock: no fiber is ready, none waits on wall time,
        // and not all are done. In thread mode the watchdog would need a
        // wall timeout to conclude this; here it is a certainty the moment
        // the ready queue drains.
        if (abort_.load()) return;
        const std::string report = deadlock_report(reporter);
        telemetry::log(telemetry::LogLevel::error, reporter, "engine",
                       report);
        record_error(std::make_exception_ptr(DeadlockError(report)));
        abort_all();
      });
  fiber_.reset();
}

// ---------------------------------------------------------------------------
// Ctx

Ctx& Ctx::current() {
  check(g_running_ctx != nullptr,
        "Ctx::current() called outside an Engine::run rank context");
  return *g_running_ctx;
}

void Ctx::advance(double seconds) {
  check(seconds >= 0.0, "cannot advance the clock backwards");
  fault::FaultPlan* plan = engine_->cfg_.fault_plan.get();
  if (plan != nullptr) seconds *= plan->slowdown(world_rank_);
  clock_ += seconds;
  fault_check();
  epoch_check();
}

void Ctx::epoch_cross() {
  const double period = engine_->epoch_period_s_;
  if (!(period > 0.0)) {
    next_epoch_s_ = std::numeric_limits<double>::infinity();
    return;
  }
  // Notify before re-arming: observers see the clock that crossed, and the
  // next boundary is the start of the epoch after the one the clock is in.
  engine_->notify(EngineObserver::kEpoch, [&](EngineObserver& o) {
    o.on_epoch(world_rank_, clock_, /*final_flush=*/false);
  });
  next_epoch_s_ = (std::floor(clock_ / period) + 1.0) * period;
}

void Ctx::record_send(const PktInfo& info) {
  int recorded = 0;
  engine_->notify(EngineObserver::kSendRecord, [&](EngineObserver& o) {
    recorded += o.on_send_record(info, world_rank_);
  });
  if (recorded != 0)
    clock_ += static_cast<double>(recorded) * kMonitorEventCostS;
}

void Ctx::compute_flops(double flops) {
  check(flops >= 0.0, "negative flop count");
  advance(flops * engine_->cfg_.flop_time_s);
}

void Ctx::fault_check() {
  fault::FaultPlan* plan = engine_->cfg_.fault_plan.get();
  if (plan == nullptr) return;
  double stall_virtual = 0.0;
  double stall_wall = 0.0;
  if (plan->take_stall(world_rank_, clock_, &stall_virtual, &stall_wall)) {
    engine_->hub_.add(Metric::fault_stalls, world_rank_);
    clock_ += stall_virtual;
    if (stall_wall > 0.0)
      std::this_thread::sleep_for(std::chrono::duration<double>(stall_wall));
  }
  const double crash = plan->crash_at(world_rank_);
  if (clock_ >= crash) {
    clock_ = crash;
    throw RankCrashExit{crash};
  }
}

void Ctx::raise_peer_dead(int peer_world, const Comm& comm, int tag,
                          const char* op) {
  const double when = engine_->dead_time(peer_world);
  clock_ = std::max(clock_, when);
  RankFailedError err(
      peer_world, when,
      "rank " + std::to_string(peer_world) + " crashed at t=" +
          std::to_string(when) + "s while rank " +
          std::to_string(world_rank_) + " was in " + op + "(peer=" +
          std::to_string(peer_world) + ", tag=" + std::to_string(tag) +
          ", comm=" + std::to_string(comm.context_id()) + ")");
  if (engine_->errmode(comm) == ErrMode::fatal)
    engine_->fail_run(std::make_exception_ptr(err));
  throw err;
}

void Ctx::raise_revoked(const Comm& comm, const char* op) {
  CommRevokedError err(
      comm.context_id(),
      "communicator " + std::to_string(comm.context_id()) +
          " was revoked while rank " + std::to_string(world_rank_) +
          " was in " + op);
  if (engine_->errmode(comm) == ErrMode::fatal)
    engine_->fail_run(std::make_exception_ptr(err));
  throw err;
}

int Ctx::ack_failures(const Comm& comm) {
  check(!comm.is_null(), "failure_ack on null communicator");
  auto& acked = ft_acked_[comm.context_id()];
  acked.resize(static_cast<std::size_t>(comm.size()), 0);
  int n = 0;
  for (int g = 0; g < comm.size(); ++g) {
    auto& slot = acked[static_cast<std::size_t>(g)];
    if (slot == 0 && engine_->rank_dead(comm.world_rank_of(g))) slot = 1;
    if (slot != 0) ++n;
  }
  return n;
}

std::vector<int> Ctx::acked_failures(const Comm& comm) const {
  check(!comm.is_null(), "get_failed on null communicator");
  std::vector<int> out;
  auto it = ft_acked_.find(comm.context_id());
  if (it == ft_acked_.end()) return out;
  for (std::size_t g = 0; g < it->second.size(); ++g)
    if (it->second[g] != 0) out.push_back(static_cast<int>(g));
  return out;
}

bool Ctx::failure_acked(const Comm& comm, int world_rank) const {
  auto it = ft_acked_.find(comm.context_id());
  if (it == ft_acked_.end()) return false;
  const int g = comm.group_rank_of_world(world_rank);
  return g >= 0 && static_cast<std::size_t>(g) < it->second.size() &&
         it->second[static_cast<std::size_t>(g)] != 0;
}

void Ctx::ack_failure_bitmap(const Comm& comm,
                             const std::vector<std::uint8_t>& dead_by_group) {
  check(dead_by_group.size() == static_cast<std::size_t>(comm.size()),
        "failure bitmap size mismatch");
  auto& acked = ft_acked_[comm.context_id()];
  acked.resize(static_cast<std::size_t>(comm.size()), 0);
  for (std::size_t g = 0; g < dead_by_group.size(); ++g)
    if (dead_by_group[g] != 0) acked[g] = 1;
}

std::uint32_t Ctx::next_coll_seq(const Comm& comm) {
  return coll_seq_[comm.context_id()]++;
}

std::uint32_t Ctx::next_mgmt_seq(const Comm& comm) {
  return mgmt_seq_[comm.context_id()]++;
}

void Ctx::send_bytes(int dst_world, const Comm& comm, int tag, CommKind kind,
                     const void* buf, std::size_t bytes) {
  if (engine_->abort_.load(std::memory_order_relaxed)) throw AbortError();
  check(!comm.is_null(), "send on null communicator");
  check(comm.contains_world(world_rank_), "sender not in communicator");
  check(comm.contains_world(dst_world), "destination not in communicator");
  fault_check();
  if (kind != CommKind::tool && engine_->comm_revoked(comm))
    raise_revoked(comm, "send");
  // Acked-dead short-circuit (ULFM failure_ack): once this rank has
  // acknowledged the peer's death, sending to it is an immediate typed
  // failure instead of silent fire-and-forget. Unacked death deliberately
  // does NOT divert the send -- whether the engine has marked a crash yet
  // is wall-clock racy, and send costs must stay a pure function of
  // virtual time. Tool-kind traffic is exempt: shrink/agree and the
  // monitoring gathers must keep sending to every member unconditionally.
  if (kind != CommKind::tool && !ft_acked_.empty()) {
    auto acked_it = ft_acked_.find(comm.context_id());
    if (acked_it != ft_acked_.end()) {
      const int g = comm.group_rank_of_world(dst_world);
      if (g >= 0 && static_cast<std::size_t>(g) < acked_it->second.size() &&
          acked_it->second[static_cast<std::size_t>(g)] != 0)
        raise_peer_dead(dst_world, comm, tag, "send");
    }
  }

  // Consult the fault plan before the send record so the packet record
  // carries the attempt count the wire actually saw. The virtual-time
  // charges are applied further down, where they always were; only the
  // degradation-window check sees a clock that excludes monitoring
  // overhead, a model choice (the NIC does not wait for the tool).
  fault::SendFaults faults;
  const bool have_faults = engine_->cfg_.fault_plan != nullptr;
  if (have_faults)
    faults = engine_->cfg_.fault_plan->on_send(world_rank_, dst_world, bytes,
                                               clock_);

  PktInfo info{world_rank_, dst_world, bytes,  kind,
               tag,         comm.context_id(), clock_, faults.attempts};
  // Stamped unconditionally (not just when a critpath observer is armed):
  // host-side bookkeeping, so clocks stay bit-identical either way, and
  // sequence numbers stay stable across profiler on/off runs.
  info.send_seq = ++send_seq_;
  const bool observed = kind != CommKind::tool;
  if (observed) record_send(info);

  telemetry::Hub& hub = engine_->hub_;
  if (hub.enabled()) {
    telemetry::Registry& reg = hub.registry();
    reg.add(Metric::engine_messages, world_rank_);
    reg.add(Metric::engine_bytes, world_rank_, bytes);
    reg.observe(Metric::engine_msg_bytes, world_rank_,
                static_cast<double>(bytes));
    if (have_faults) {
      const auto extra = static_cast<std::uint64_t>(faults.attempts - 1);
      if (extra > 0) {
        reg.add(Metric::fault_retransmits, world_rank_, extra);
        reg.add(Metric::fault_drops, world_rank_, extra);
        reg.add(Metric::fault_backoff_ns, world_rank_,
                static_cast<std::uint64_t>(faults.sender_extra_s * 1e9));
      }
      if (faults.lost) {
        reg.add(Metric::fault_lost, world_rank_);
        reg.add(Metric::fault_drops, world_rank_);
      }
    }
  }

  const auto& placement = engine_->cfg_.placement;
  const int leaf_src = placement[static_cast<std::size_t>(world_rank_)];
  const int leaf_dst = placement[static_cast<std::size_t>(dst_world)];
  const net::CostModel& cost = engine_->cfg_.cost_model;

  if (engine_->cfg_.os_noise_s > 0.0)
    clock_ += noise_rng_.uniform(0.0, engine_->cfg_.os_noise_s);

  // Hockney with a busy sender: the sender pays the serialization time
  // bytes/beta (it cannot inject two messages at once), the wire adds the
  // latency alpha on top.
  double tx = cost.serialization_time(leaf_src, leaf_dst, bytes);
  double alpha = cost.latency(leaf_src, leaf_dst);
  const bool crosses = cost.crosses_network(leaf_src, leaf_dst);

  bool lost = false;
  if (have_faults) {
    // The sender pays each failed attempt's serialization plus the
    // retransmit backoffs; the delivered copy carries the jitter and the
    // degraded bandwidth of the window it was sent in.
    tx *= faults.tx_scale;
    clock_ +=
        faults.sender_extra_s + static_cast<double>(faults.attempts - 1) * tx;
    alpha += faults.latency_extra_s;
    lost = faults.lost;
  }
  if (lost) {
    // Every retransmission was dropped: the final attempt leaves the NIC
    // but never arrives anywhere.
    if (crosses)
      engine_->nic_.record_tx(engine_->fabric().node_of(leaf_src), clock_,
                              bytes);
    const double lost_tx_start = clock_;
    clock_ += tx + cost.send_overhead();
    if (observed)
      engine_->notify(EngineObserver::kSend, [&](EngineObserver& o) {
        o.on_send(world_rank_, info, info.send_time_s, lost_tx_start,
                  /*arrival=*/-1.0, clock_);
      });
    epoch_check();
    return;
  }

  double tx_start = clock_;
  double arrival;
  if (engine_->cfg_.nic_contention && crosses) {
    arrival = contended_transfer(leaf_src, leaf_dst, tx, alpha, &tx_start);
  } else {
    arrival = clock_ + tx + alpha;
  }

  Engine::InFlight msg;
  msg.info = info;
  msg.arrival_s = arrival;

  if (crosses)
    engine_->nic_.record_tx(engine_->fabric().node_of(leaf_src), tx_start,
                            bytes);

  engine_->deliver(std::move(msg), buf);
  clock_ = tx_start + tx + cost.send_overhead();
  if (observed)
    engine_->notify(EngineObserver::kSend, [&](EngineObserver& o) {
      o.on_send(world_rank_, info, info.send_time_s, tx_start, arrival,
                clock_);
    });
  epoch_check();
}

void Ctx::rma_transfer(int from_world, int to_world, const Comm& comm,
                       std::size_t bytes) {
  if (engine_->abort_.load(std::memory_order_relaxed)) throw AbortError();
  check(comm.contains_world(from_world) && comm.contains_world(to_world),
        "RMA endpoint not in the window communicator");
  fault_check();

  record_send(PktInfo{from_world, to_world, bytes, CommKind::osc, 0,
                      comm.context_id(), clock_});
  if (engine_->hub_.enabled()) {
    engine_->hub_.registry().add(Metric::engine_messages, from_world);
    engine_->hub_.registry().add(Metric::engine_bytes, from_world, bytes);
  }

  const auto& placement = engine_->cfg_.placement;
  const int leaf_from = placement[static_cast<std::size_t>(from_world)];
  const int leaf_to = placement[static_cast<std::size_t>(to_world)];
  const net::CostModel& cost = engine_->cfg_.cost_model;
  const bool crosses = cost.crosses_network(leaf_from, leaf_to);
  const double tx = cost.serialization_time(leaf_from, leaf_to, bytes);
  const double alpha = cost.latency(leaf_from, leaf_to);
  double tx_start = clock_;
  if (engine_->cfg_.nic_contention && crosses) {
    clock_ = contended_transfer(leaf_from, leaf_to, tx, alpha, &tx_start);
  } else {
    clock_ += tx + alpha;
  }
  if (crosses)
    engine_->nic_.record_tx(engine_->fabric().node_of(leaf_from), tx_start,
                            bytes);
  epoch_check();
}

double Ctx::contended_transfer(int leaf_src, int leaf_dst, double tx_s,
                               double alpha_s, double* tx_start) {
  using namespace std::chrono_literals;
  Engine::Sched& sched = engine_->sched_;
  const int me = world_rank_;
  std::unique_lock lock(sched.mx);
  engine_->sched_update_locked(me, Engine::Sched::St::gate, clock_);
  while (sched.tree.min_rank() != me) {
    if (engine_->abort_.load()) {
      engine_->sched_update_locked(me, Engine::Sched::St::done, clock_);
      throw AbortError();
    }
    if (engine_->fiber_ != nullptr) {
      // Gate yield: sched_update_locked wakes exactly the new min-clock
      // rank, so we resume only when we hold (or may hold) the gate and
      // re-check under the lock.
      lock.unlock();
      engine_->fiber_->block(clock_);
      lock.lock();
      continue;
    }
    sched.cvs[static_cast<std::size_t>(me)]->wait_for(lock, 200ms);
  }
  // This rank now holds the earliest possible send time: reserve every
  // link of the route in virtual-time order (deterministic by
  // construction). Cut-through per hop: the head of the message reaches
  // link i after the preceding gap latency, waits for the link to free,
  // and the message is fully received once it has drained end to end. On
  // a tree fabric the route is [tx port, rx port] with the whole path
  // latency as the single gap -- the historical two-port reservation,
  // bit for bit. Links drain at their wire rate, which may exceed one
  // flow's end-to-end rate (drain_frac, EngineConfig::nic_port_beta_scale).
  net::RoutePlan plan;
  engine_->cfg_.cost_model.route_plan(leaf_src, leaf_dst, alpha_s, &plan);
  const double port_scale = std::max(1.0, engine_->cfg_.nic_port_beta_scale);
  double stage = std::max(clock_, engine_->link_busy_[static_cast<std::size_t>(
                                      plan.links[0])]);
  const double start = stage;
  engine_->link_busy_[static_cast<std::size_t>(plan.links[0])] =
      stage + tx_s * plan.drain_frac[0] / port_scale;
  for (int i = 1; i < plan.n; ++i) {
    stage = std::max(
        stage + plan.gap_alpha_s[i],
        engine_->link_busy_[static_cast<std::size_t>(plan.links[i])]);
    engine_->link_busy_[static_cast<std::size_t>(plan.links[i])] =
        stage + tx_s * plan.drain_frac[i] / port_scale;
  }
  const double arrival = stage + tx_s;

  engine_->sched_update_locked(me, Engine::Sched::St::running,
                               start + tx_s);
  *tx_start = start;
  return arrival;
}

bool Ctx::match_and_complete(int src_world, const Comm& comm, int tag,
                             CommKind kind, void* buf, std::size_t capacity,
                             Status* status) {
  // Caller holds the rank mutex.
  auto& inbox = engine_->rank_state(world_rank_).inbox;
  for (auto it = inbox.begin(); it != inbox.end(); ++it) {
    if (!pkt_matches(it->info, src_world, comm.context_id(), tag, kind))
      continue;
    check(it->info.bytes <= capacity || buf == nullptr,
          "receive buffer too small (message truncated)");
    if (buf != nullptr && it->payload != nullptr)
      std::memcpy(buf, it->payload.get(),
                  std::min(capacity, it->info.bytes));
    const double completion = std::max(clock_, it->arrival_s) + kRecvOverheadS;
    // Observed before the clock assignment so observers see the
    // pre-completion clock (the wait baseline).
    if (it->info.kind != CommKind::tool)
      engine_->notify(EngineObserver::kRecv, [&](EngineObserver& o) {
        o.on_recv(world_rank_, it->info, clock_, it->arrival_s, completion);
      });
    clock_ = completion;
    if (status != nullptr)
      *status = Status{it->info.src_world, it->info.tag, it->info.bytes};
    telemetry::Hub& hub = engine_->hub_;
    if (hub.enabled()) {
      hub.registry().observe(Metric::engine_match_s, world_rank_,
                             completion - it->arrival_s);
      hub.registry().gauge_add(Metric::engine_bytes_in_flight, world_rank_,
                               -static_cast<std::int64_t>(it->info.bytes));
    }
    inbox.erase(it);
    return true;
  }
  return false;
}

namespace {

/// Keeps Engine::blocked_ balanced on every exit path, including typed
/// failures thrown out of the wait predicate.
struct BlockedGuard {
  std::atomic<int>& counter;
  const int n;
  BlockedGuard(std::atomic<int>& c, int count) : counter(c), n(count) {
    counter.fetch_add(n);
  }
  ~BlockedGuard() { counter.fetch_sub(n); }
};

}  // namespace

template <typename Pred>
bool Ctx::wait_on_inbox(std::unique_lock<std::mutex>& lock, Pred&& ready,
                        std::chrono::steady_clock::time_point deadline) {
  using namespace std::chrono_literals;
  using Clock = std::chrono::steady_clock;
  auto& st = engine_->rank_state(world_rank_);
  // A timed wait always ends on its own: it must not let a peer's watchdog
  // declare a deadlock while it merely waits out its deadline.
  const bool timed = deadline != Clock::time_point::max();
  BlockedGuard blocked_guard(engine_->blocked_, timed ? 0 : 1);
  // Blocked ranks cannot issue sends; exclude us from the min-clock gate
  // so earlier senders are not stalled (we will resume with a clock at
  // least as large as the send that wakes us). The guard re-registers us
  // on every exit path, including teardown.
  struct SchedBlockGuard {
    Ctx* ctx;
    explicit SchedBlockGuard(Ctx* c) : ctx(c) {
      if (!enabled()) return;
      std::lock_guard sched_lock(ctx->engine_->sched_.mx);
      ctx->engine_->sched_update_locked(
          ctx->world_rank_, Engine::Sched::St::blocked, ctx->clock_);
    }
    ~SchedBlockGuard() {
      if (!enabled()) return;
      std::lock_guard sched_lock(ctx->engine_->sched_.mx);
      ctx->engine_->sched_update_locked(
          ctx->world_rank_, Engine::Sched::St::running, ctx->clock_);
    }
    bool enabled() const { return ctx->engine_->cfg_.nic_contention; }
  } sched_guard(this);
  std::uint64_t last_progress = engine_->deliveries_.load();
  double waited_s = 0.0;
  while (!ready()) {
    if (engine_->cfg_.nic_contention) {
      // Nothing in the inbox matches: any `pending` bound a delivery set
      // can be dropped, we will not wake from it. (Serialized against
      // deliver() by the rank mutex held here.)
      std::lock_guard sched_lock(engine_->sched_.mx);
      auto& entry =
          engine_->sched_.entries[static_cast<std::size_t>(world_rank_)];
      if (entry.st == Engine::Sched::St::pending)
        engine_->sched_update_locked(world_rank_, Engine::Sched::St::blocked,
                                     clock_);
    }
    if (engine_->abort_.load()) throw AbortError();
    if (timed && Clock::now() >= deadline) return false;
    if (engine_->fiber_ != nullptr) {
      // Cooperative yield: the predicate just failed under the rank mutex,
      // and nothing else can run until block() switches to the scheduler,
      // so no wakeup can be lost between the check and the switch. The
      // wall-clock watchdog below is unnecessary here -- a true deadlock
      // empties the scheduler's ready queue and is reported instantly.
      lock.unlock();
      if (timed)
        engine_->fiber_->block_until(clock_, deadline);
      else
        engine_->fiber_->block(clock_);
      lock.lock();
      continue;
    }
    if (st.cv.wait_until(lock, std::min(deadline, Clock::now() + 200ms)) ==
            std::cv_status::timeout &&
        !timed) {
      waited_s += 0.2;
      const std::uint64_t progress = engine_->deliveries_.load();
      if (progress != last_progress) {
        last_progress = progress;
        waited_s = 0.0;
      } else if (waited_s >= engine_->watchdog_s_ &&
                 engine_->blocked_.load() >= engine_->alive_.load()) {
        const std::string report = engine_->deadlock_report(world_rank_);
        telemetry::log(telemetry::LogLevel::error, world_rank_, "engine",
                       report);
        engine_->record_error(
            std::make_exception_ptr(DeadlockError(report)));
        engine_->abort_all();
        throw AbortError();
      }
    }
  }
  return true;
}

namespace {

/// Registers the blocked operation for the structured deadlock report and
/// clears it on every exit path.
struct PendingGuard {
  Engine* engine;
  int rank;
  PendingGuard(Engine* e, int r, const Engine::PendingOp& op)
      : engine(e), rank(r) {
    engine->set_pending(rank, op);
  }
  ~PendingGuard() { engine->clear_pending(rank); }
};

}  // namespace

Status Ctx::recv_bytes(int src_world, const Comm& comm, int tag, CommKind kind,
                       void* buf, std::size_t capacity) {
  Status status;
  if (recv_bytes_wait(src_world, comm, tag, kind, buf, capacity, &status,
                      std::numeric_limits<double>::infinity()) ==
      RecvWait::peer_dead)
    raise_peer_dead(src_world, comm, tag);
  fault_check();
  epoch_check();
  return status;
}

Ctx::RecvWait Ctx::recv_bytes_wait(int src_world, const Comm& comm, int tag,
                                   CommKind kind, void* buf,
                                   std::size_t capacity, Status* status,
                                   double wall_timeout_s) {
  check(!comm.is_null(), "recv on null communicator");
  check(comm.contains_world(world_rank_), "receiver not in communicator");
  check(wall_timeout_s >= 0.0, "negative receive timeout");
  fault_check();
  auto& st = engine_->rank_state(world_rank_);
  std::unique_lock lock(st.mutex);
  RecvWait outcome = RecvWait::timeout;
  const auto ready = [&] {
    if (match_and_complete(src_world, comm, tag, kind, buf, capacity,
                           status)) {
      outcome = RecvWait::ok;
      return true;
    }
    if (src_world != kAnySource && engine_->rank_dead(src_world)) {
      // The peer can never send: complete at its crash time so what
      // follows still runs at a deterministic virtual clock.
      clock_ = std::max(clock_, engine_->dead_time(src_world));
      outcome = RecvWait::peer_dead;
      return true;
    }
    if (kind != CommKind::tool && engine_->comm_revoked(comm))
      raise_revoked(comm, "recv");
    return false;
  };
  if (ready()) return outcome;
  // Post the buffer for Engine::deliver before the first wait, and retract
  // it on every way out (match, timeout, dead peer, revoke, abort). Both
  // happen under the inbox mutex, which `lock` holds at every exit.
  struct PostGuard {
    Engine::PostedRecv& slot;
    ~PostGuard() { slot = Engine::PostedRecv{}; }
  } post_guard{st.posted};
  if (buf != nullptr && capacity > 0)
    st.posted = Engine::PostedRecv{.buf = buf,
                                   .capacity = capacity,
                                   .src_world = src_world,
                                   .tag = tag,
                                   .context_id = comm.context_id(),
                                   .kind = kind};
  const Engine::PendingOp op{Engine::PendingOp::What::recv, src_world, tag,
                             kind, comm.context_id(), clock_};
  PendingGuard pending_guard(engine_, world_rank_, op);
  auto deadline = std::chrono::steady_clock::time_point::max();
  if (wall_timeout_s < std::numeric_limits<double>::infinity())
    deadline = std::chrono::steady_clock::now() +
               std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                   std::chrono::duration<double>(wall_timeout_s));
  wait_on_inbox(lock, ready, deadline);
  return outcome;
}

bool Ctx::try_recv_bytes(int src_world, const Comm& comm, int tag,
                         CommKind kind, void* buf, std::size_t capacity,
                         Status* status) {
  check(!comm.is_null(), "recv on null communicator");
  if (engine_->abort_.load(std::memory_order_relaxed)) throw AbortError();
  fault_check();
  auto& st = engine_->rank_state(world_rank_);
  std::unique_lock lock(st.mutex);
  return match_and_complete(src_world, comm, tag, kind, buf, capacity, status);
}

bool Ctx::iprobe_bytes(int src_world, const Comm& comm, int tag, CommKind kind,
                       Status* status) {
  check(!comm.is_null(), "probe on null communicator");
  if (engine_->abort_.load(std::memory_order_relaxed)) throw AbortError();
  auto& st = engine_->rank_state(world_rank_);
  std::unique_lock lock(st.mutex);
  for (const auto& msg : st.inbox) {
    if (pkt_matches(msg.info, src_world, comm.context_id(), tag, kind)) {
      if (status != nullptr)
        *status = Status{msg.info.src_world, msg.info.tag, msg.info.bytes};
      return true;
    }
  }
  return false;
}

}  // namespace mpim::mpi
