#include "mpit/runtime.h"

#include <algorithm>
#include <cstring>
#include <limits>
#include <new>

#include "obsplane/plane.h"

namespace mpim::mpit {

namespace {

constexpr std::size_t kCacheLine = 64;

std::size_t round_to_line(std::size_t bytes) {
  return (bytes + kCacheLine - 1) / kCacheLine * kCacheLine;
}

}  // namespace

Runtime::AccBlock::AccBlock(int group_size) : n(group_size) {
  const auto slots = static_cast<std::size_t>(n);
  static_assert(sizeof(std::atomic<unsigned long>) == sizeof(unsigned long));
  const std::size_t own_bytes = round_to_line(2 * slots * sizeof(unsigned long));
  const std::size_t foreign_bytes =
      round_to_line(2 * slots * sizeof(std::atomic<unsigned long>));
  raw_ = ::operator new(own_bytes + foreign_bytes, std::align_val_t{kCacheLine});
  auto* base = static_cast<std::byte*>(raw_);
  own_counts = reinterpret_cast<unsigned long*>(base);
  own_sizes = own_counts + slots;
  std::memset(base, 0, own_bytes);
  auto* foreign = base + own_bytes;
  foreign_counts = reinterpret_cast<std::atomic<unsigned long>*>(foreign);
  foreign_sizes = foreign_counts + slots;
  for (std::size_t i = 0; i < 2 * slots; ++i)
    new (foreign_counts + i) std::atomic<unsigned long>(0ul);
}

Runtime::AccBlock::~AccBlock() {
  // std::atomic<unsigned long> is trivially destructible.
  ::operator delete(raw_, std::align_val_t{kCacheLine});
}

Runtime::Runtime(mpi::Engine& engine) : engine_(engine) {
  ranks_.reserve(static_cast<std::size_t>(engine.world_size()));
  for (int r = 0; r < engine.world_size(); ++r) {
    ranks_.push_back(std::make_unique<RankState>());
    ranks_.back()->rank = r;
  }
  engine_.attach(*this, 0);  // nothing to record yet: the gate stays disarmed
  // Environment-driven streaming plane: a no-op unless MPIM_STREAM_FILE
  // is set, so tool attach cannot perturb existing runs.
  obsplane::Plane::attach_from_env(engine_);
}

Runtime::~Runtime() { engine_.detach(*this); }

Runtime& Runtime::of(mpi::Engine& engine) {
  auto* rt = engine.find_observer<Runtime>();
  if (rt == nullptr)
    throw MpitError("no mpit::Runtime attached to this engine");
  return *rt;
}

Runtime::RankState& Runtime::my_rank_state() {
  return *ranks_[static_cast<std::size_t>(mpi::Ctx::current().world_rank())];
}

int Runtime::on_send_record(const mpi::PktInfo& pkt, int caller_world) {
  if (!listeners_.empty())
    for (const EventListener& listener : listeners_) listener(pkt);
  if (pkt.kind == mpi::CommKind::tool) return 0;
  RankState& rs = *ranks_[static_cast<std::size_t>(pkt.src_world)];
  if (caller_world == pkt.src_world) {
    // The owner rebuilds its plan only between its own sends.
    return rs.plan ? record(*rs.plan, pkt, /*own=*/true) : 0;
  }
  // RMA traffic attributed from a peer's thread: the owner may be
  // rebuilding right now, and holds this mutex while it does.
  std::lock_guard lock(rs.mutex);
  return rs.plan ? record(*rs.plan, pkt, /*own=*/false) : 0;
}

int Runtime::record(const RecordingPlan& plan, const mpi::PktInfo& pkt,
                    bool own) {
  int recorded = 0;
  const auto& entries = plan.by_kind[static_cast<std::size_t>(pkt.kind)];
  const auto bytes = static_cast<unsigned long>(pkt.bytes);
  for (const RecordingPlan::Entry& e : entries) {
    const int dst = e.world_to_group[pkt.dst_world];
    if (dst < 0) continue;
    // Plain single-writer slots on the sender's own thread; the atomic
    // foreign slots when a peer thread attributes RMA traffic here.
    if (own) {
      e.own_counts[dst] += 1;
      e.own_sizes[dst] += bytes;
    } else {
      e.foreign_counts[dst].fetch_add(1, std::memory_order_relaxed);
      e.foreign_sizes[dst].fetch_add(bytes, std::memory_order_relaxed);
    }
    recorded += e.weight;
  }
  for (ObserverSlot* slot : plan.observers) {
    std::lock_guard lock(slot->mutex);
    slot->fn(pkt);
  }
  return recorded;
}

void Runtime::rebuild_plan(RankState& rs) {
  const bool was_recording = rs.plan != nullptr;
  if (!was_recording) rs.plan = std::make_unique<RecordingPlan>();
  RecordingPlan& plan = *rs.plan;
  for (auto& bucket : plan.by_kind) bucket.clear();
  plan.observers.clear();
  bool recording = false;
  for (auto& [id, s] : rs.sessions) {
    if (s.observer.fn) {
      plan.observers.push_back(&s.observer);
      recording = true;
    }
    for (Handle& h : s.handles) {
      if (h.freed || !h.started || h.telemetry_metric >= 0) continue;
      // The sender-membership test moves from the per-packet path to here:
      // this plan belongs to one fixed sender rank.
      if (!h.comm.contains_world(rs.rank)) continue;
      auto& bucket = plan.by_kind[static_cast<std::size_t>(h.kind)];
      auto it = std::find_if(bucket.begin(), bucket.end(),
                             [&](const RecordingPlan::Entry& e) {
                               return e.own_counts == h.acc->own_counts;
                             });
      if (it != bucket.end()) {
        ++it->weight;  // same accumulator: fuse, keep the record count
      } else {
        bucket.push_back({h.comm.world_to_group_table().data(),
                          h.acc->own_counts, h.acc->own_sizes,
                          h.acc->foreign_counts, h.acc->foreign_sizes, 1});
        recording = true;
      }
    }
  }
  if (!recording) rs.plan.reset();
  if (recording != was_recording) {
    nonempty_plans_.fetch_add(recording ? 1 : -1, std::memory_order_relaxed);
    update_armed();
  }
}

void Runtime::update_armed() {
  // Serialized so the last transition always wins: each caller updates the
  // plan count (or listener list) first, then recomputes under the lock.
  std::lock_guard lock(armed_mutex_);
  const bool record = !listeners_.empty() ||
                      nonempty_plans_.load(std::memory_order_relaxed) > 0;
  engine_.arm(*this, record ? mpi::EngineObserver::kSendRecord : 0u);
}

std::shared_ptr<Runtime::AccBlock> Runtime::intern_acc(RankState& rs,
                                                       const mpi::Comm& comm,
                                                       mpi::CommKind kind) {
  std::shared_ptr<AccBlock> found;
  std::erase_if(rs.acc_registry, [&](AccKey& key) {
    auto live = key.block.lock();
    if (!live) return true;  // prune: every handle on it is gone
    if (!found && key.context_id == comm.context_id() && key.kind == kind)
      found = std::move(live);
    return false;
  });
  if (found) return found;
  auto block = std::make_shared<AccBlock>(comm.size());
  rs.acc_registry.push_back({comm.context_id(), kind, block});
  return block;
}

int Runtime::session_create() {
  RankState& rs = my_rank_state();
  std::lock_guard lock(rs.mutex);
  if (rs.next_session == std::numeric_limits<int>::max())
    throw MpitError("pvar session ids exhausted");
  const int id = rs.next_session++;
  rs.sessions.try_emplace(id);
  return id;
}

void Runtime::session_free(int session) {
  RankState& rs = my_rank_state();
  std::lock_guard lock(rs.mutex);
  auto it = rs.sessions.find(session);
  if (it == rs.sessions.end()) throw MpitError("invalid pvar session");
  rs.sessions.erase(it);
  rebuild_plan(rs);
}

void Runtime::set_session_observer(int session, PktObserver observer) {
  RankState& rs = my_rank_state();
  std::lock_guard lock(rs.mutex);
  // No call is in flight: a peer's thread calls observers only under
  // rs.mutex, and this rank's own sends are not running.
  live_session(rs, session).observer.fn = std::move(observer);
  rebuild_plan(rs);
}

Runtime::Session& Runtime::live_session(RankState& rs, int session) {
  auto it = rs.sessions.find(session);
  if (it == rs.sessions.end()) throw MpitError("invalid pvar session");
  return it->second;
}

Runtime::Handle& Runtime::resolve(RankState& rs, int session, int handle) {
  Session& s = live_session(rs, session);
  if (handle < 0 || handle >= static_cast<int>(s.handles.size()))
    throw MpitError("invalid pvar handle");
  Handle& h = s.handles[static_cast<std::size_t>(handle)];
  if (h.freed) throw MpitError("pvar handle already freed");
  return h;
}

int Runtime::handle_alloc(int session, int pvar_index, const mpi::Comm& comm) {
  const PvarInfo& info = pvar_info(pvar_index);
  if (comm.is_null()) throw MpitError("handle_alloc on null communicator");
  RankState& rs = my_rank_state();
  std::lock_guard lock(rs.mutex);
  Session& s = live_session(rs, session);
  Handle h;
  h.comm = comm;
  h.kind = info.kind;
  h.is_size = info.is_size;
  if (info.klass == PvarClass::telemetry) {
    h.telemetry_metric = info.metric;
    h.values.assign(1, 0ul);  // [0] = reset baseline
  } else {
    h.acc = intern_acc(rs, comm, info.kind);
    h.values.assign(static_cast<std::size_t>(comm.size()), 0ul);
  }
  s.handles.push_back(std::move(h));
  return static_cast<int>(s.handles.size()) - 1;
}

void Runtime::handle_free(int session, int handle) {
  RankState& rs = my_rank_state();
  std::lock_guard lock(rs.mutex);
  Handle& h = resolve(rs, session, handle);
  const bool was_recording = h.started && h.telemetry_metric < 0;
  h.freed = true;
  h.acc.reset();
  h.values.clear();
  h.values.shrink_to_fit();
  if (was_recording) rebuild_plan(rs);
}

void Runtime::handle_start(int session, int handle) {
  RankState& rs = my_rank_state();
  std::lock_guard lock(rs.mutex);
  Handle& h = resolve(rs, session, handle);
  if (h.started) throw MpitError("pvar handle already started");
  h.started = true;
  if (h.telemetry_metric >= 0) return;  // never in a plan
  // Bias out the accumulator level so only traffic from now on is visible.
  for (std::size_t d = 0; d < h.values.size(); ++d)
    h.values[d] -= h.acc->read(h.is_size, static_cast<int>(d));
  rebuild_plan(rs);
}

void Runtime::handle_stop(int session, int handle) {
  RankState& rs = my_rank_state();
  std::lock_guard lock(rs.mutex);
  Handle& h = resolve(rs, session, handle);
  if (!h.started) throw MpitError("pvar handle not started");
  h.started = false;
  if (h.telemetry_metric >= 0) return;
  // Freeze the started window into the bias; the value no longer follows
  // the shared accumulator.
  for (std::size_t d = 0; d < h.values.size(); ++d)
    h.values[d] += h.acc->read(h.is_size, static_cast<int>(d));
  rebuild_plan(rs);
}

int Runtime::handle_read(int session, int handle, unsigned long* out,
                         int capacity) {
  RankState& rs = my_rank_state();
  std::lock_guard lock(rs.mutex);
  Handle& h = resolve(rs, session, handle);
  const int n = static_cast<int>(h.values.size());
  if (out != nullptr) {
    if (capacity < n) throw MpitError("pvar read buffer too small");
    if (h.telemetry_metric >= 0) {
      // Read-through: the registry is the backend, MPI_T the front.
      const auto live = static_cast<unsigned long>(
          engine_.telemetry().registry().scalar_value(
              h.telemetry_metric, mpi::Ctx::current().world_rank()));
      out[0] = live - h.values[0];
    } else {
      for (int d = 0; d < n; ++d)
        out[d] = h.values[static_cast<std::size_t>(d)] +
                 (h.started ? h.acc->read(h.is_size, d) : 0ul);
    }
  }
  return n;
}

void Runtime::handle_reset(int session, int handle) {
  RankState& rs = my_rank_state();
  std::lock_guard lock(rs.mutex);
  Handle& h = resolve(rs, session, handle);
  if (h.telemetry_metric >= 0) {
    // The backing metric is shared; reset moves this handle's baseline.
    h.values[0] = static_cast<unsigned long>(
        engine_.telemetry().registry().scalar_value(
            h.telemetry_metric, mpi::Ctx::current().world_rank()));
    return;
  }
  for (std::size_t d = 0; d < h.values.size(); ++d)
    h.values[d] =
        h.started ? 0ul - h.acc->read(h.is_size, static_cast<int>(d)) : 0ul;
}

void Runtime::handle_write(int session, int handle,
                           const unsigned long* values, int count) {
  RankState& rs = my_rank_state();
  std::lock_guard lock(rs.mutex);
  Handle& h = resolve(rs, session, handle);
  if (h.telemetry_metric >= 0)
    throw MpitError("pvar handle_write: telemetry handles are read-only");
  if (h.started)
    throw MpitError("pvar handle_write requires a stopped handle");
  if (count != static_cast<int>(h.values.size()))
    throw MpitError("pvar handle_write value count mismatch");
  // A stopped handle's value IS its bias, so seeding is a plain copy; no
  // plan rebuild (stopped handles are not in the plan).
  for (int d = 0; d < count; ++d)
    h.values[static_cast<std::size_t>(d)] =
        values[static_cast<std::size_t>(d)];
}

void Runtime::add_event_listener(EventListener listener) {
  listeners_.push_back(std::move(listener));
  update_armed();  // listeners record even when every plan is empty
}

int Runtime::handle_count(int session, int handle) {
  RankState& rs = my_rank_state();
  std::lock_guard lock(rs.mutex);
  return static_cast<int>(resolve(rs, session, handle).values.size());
}

}  // namespace mpim::mpit
