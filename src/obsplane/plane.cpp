#include "obsplane/plane.h"

#include <algorithm>
#include <climits>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <iterator>
#include <limits>
#include <ostream>
#include <sstream>

#include "critpath/critpath.h"
#include "fault/fault_plan.h"
#include "introspect/analyzer.h"
#include "introspect/snapshot.h"
#include "support/env.h"
#include "telemetry/log.h"

namespace mpim::obsplane {

namespace {

using telemetry::kCatalog;
using telemetry::Metric;

// Registry counter behind each metric slot, index == slot; a slot is named
// by its metric's catalog key. The synthetic last slot (kSlotCollectives)
// counts depth-0 collective spans seen at the span sink.
constexpr Metric kSlotMetrics[] = {
    Metric::engine_messages,    Metric::engine_bytes,
    Metric::fault_retransmits,  Metric::fault_drops,
    Metric::fault_lost,         Metric::fault_backoff_ns,
    Metric::fault_crashes,      Metric::mon_gather_timeouts,
    Metric::mon_dead_skips,     Metric::mon_rebinds,
    Metric::reorder_applied,    Metric::reorder_identity,
    Metric::introspect_boundaries,
    Metric::critpath_events,    Metric::critpath_wait_ns};
static_assert(std::size(kSlotMetrics) == kMetricSlots);

/// Slot of `m`; a metric without a slot does not compile (the scan runs off
/// the array in constant evaluation).
constexpr int slot_of(Metric m) {
  int s = 0;
  while (kSlotMetrics[s] != m) ++s;
  return s;
}

constexpr int kSlotRetransmits = slot_of(Metric::fault_retransmits);
constexpr int kSlotDeadSkips = slot_of(Metric::mon_dead_skips);
constexpr int kSlotRebinds = slot_of(Metric::mon_rebinds);
constexpr int kSlotReorderApplied = slot_of(Metric::reorder_applied);
constexpr int kSlotReorderIdentity = slot_of(Metric::reorder_identity);

const char* derived_event_name(int slot) {
  switch (slot) {
    case kSlotDeadSkips:
      return "dead_skip";
    case kSlotRebinds:
      return "rebind";
    case kSlotReorderApplied:
      return "reorder";
    case kSlotReorderIdentity:
      return "identity_fallback";
    default:
      return nullptr;
  }
}

constexpr std::size_t kMaxEventLane = 8192;
/// Bounded per-series bucket windows (merged epochs) kept in the store.
constexpr std::size_t kStoreWindows = 256;

}  // namespace

const char* Plane::slot_name(int slot) {
  if (slot < 0 || slot >= kAllSlots) return "?";
  if (slot == kSlotCollectives) return "collectives";
  // Catalog keys view string literals, so data() is NUL-terminated.
  return kCatalog[kSlotMetrics[slot]].key.data();
}

Plane::Plane(mpi::Engine& engine, PlaneConfig cfg)
    : engine_(engine), cfg_(std::move(cfg)), nranks_(engine.world_size()) {
  if (cfg_.epoch_s <= 0.0) cfg_.epoch_s = 1.0e-3;
  if (cfg_.ring_capacity < 2) cfg_.ring_capacity = 2;

  producers_.reserve(static_cast<std::size_t>(nranks_));
  for (int r = 0; r < nranks_; ++r)
    producers_.push_back(std::make_unique<Producer>(cfg_.ring_capacity));
  node_tx_cum_.assign(static_cast<std::size_t>(engine_.nic().num_nodes()), 0);

  if (!cfg_.stream_path.empty()) {
    stream_ = std::fopen(cfg_.stream_path.c_str(), "wb");
    if (!stream_)
      telemetry::log(telemetry::LogLevel::warn, -1, "obsplane",
                     "cannot open stream file " + cfg_.stream_path);
  }
  std::lock_guard<std::mutex> lk(drain_mx_);
  write_run_start_locked();
}

Plane::~Plane() {
  if (stream_) {
    std::fflush(stream_);
    std::fclose(stream_);
    stream_ = nullptr;
  }
}

void Plane::write_run_start_locked() {
  std::ostringstream os;
  os << "{\"type\":\"run_start\",\"job\":\"" << telemetry::json_escape(cfg_.job)
     << "\",\"ranks\":" << nranks_ << ",\"epoch_s\":" << std::setprecision(12)
     << cfg_.epoch_s << ",\"version\":1}";
  stream_line_locked(os.str());
  wrote_run_start_ = true;
  if (stream_) std::fflush(stream_);
}

std::shared_ptr<Plane> Plane::attach(mpi::Engine& engine, PlaneConfig cfg) {
  if (attached(engine)) return nullptr;
  auto plane = std::make_shared<Plane>(engine, std::move(cfg));
  Plane* p = plane.get();
  engine.telemetry().set_enabled(true);
  engine.telemetry().set_span_sink(
      [p](int rank, const telemetry::SpanRec& rec) { p->on_span(rank, rec); });
  engine.attach(plane, mpi::EngineObserver::kEpoch);
  return plane;
}

std::shared_ptr<Plane> Plane::attach_from_env(mpi::Engine& engine) {
  const auto path = support::env_nonempty_string("MPIM_STREAM_FILE");
  if (path.invalid()) {
    telemetry::log(telemetry::LogLevel::warn, -1, "obsplane",
                   "ignoring invalid MPIM_STREAM_FILE=\"" + path.raw +
                       "\" (want a file path with at least one non-space "
                       "character); streaming stays off");
    return nullptr;
  }
  if (!path.ok() || attached(engine)) return nullptr;
  PlaneConfig cfg;
  cfg.stream_path = path.value;
  const auto eps = support::env_positive_double("MPIM_STREAM_EPOCH_S");
  if (eps.ok()) {
    cfg.epoch_s = eps.value;
  } else if (eps.invalid()) {
    telemetry::log(telemetry::LogLevel::warn, -1, "obsplane",
                   "ignoring invalid MPIM_STREAM_EPOCH_S=\"" + eps.raw +
                       "\" (want a positive number of virtual seconds); "
                       "using default");
  }
  const auto prom = support::env_nonempty_string("MPIM_PROM_FILE");
  if (prom.ok()) {
    cfg.prom_path = prom.value;
  } else if (prom.invalid()) {
    telemetry::log(telemetry::LogLevel::warn, -1, "obsplane",
                   "ignoring invalid MPIM_PROM_FILE=\"" + prom.raw +
                       "\" (want a file path with at least one non-space "
                       "character); exposition stays off");
  }
  return attach(engine, std::move(cfg));
}

Plane* Plane::attached(mpi::Engine& engine) {
  return engine.find_observer<Plane>();
}

// ---------------------------------------------------------------- producers

bool Plane::push(int rank, const StreamEvent& ev0) {
  Producer& p = *producers_[static_cast<std::size_t>(rank)];
  const std::uint64_t head = p.head.load(std::memory_order_relaxed);
  const std::uint64_t tail = p.tail.load(std::memory_order_acquire);
  StreamEvent ev = ev0;
  ev.rank = rank;
  ev.seq = p.seq++;
  if (head - tail >= p.cap) {
    p.dropped.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  std::memcpy(p.slot(head), &ev, sizeof ev);
  p.head.store(head + 1, std::memory_order_release);
  return true;
}

void Plane::on_epoch(int rank, double now_s, bool final_flush) {
  if (rank < 0 || rank >= nranks_) return;
  if (finalized_.load(std::memory_order_acquire)) return;
  Producer& p = *producers_[static_cast<std::size_t>(rank)];
  const double eps = cfg_.epoch_s;
  const long cur = static_cast<long>(now_s / eps);
  long e = final_flush ? cur : cur - 1;
  if (e < 0) e = 0;

  const auto& reg = engine_.telemetry().registry();
  for (int s = 0; s < kMetricSlots; ++s) {
    const std::uint64_t v = reg.counter_value(kSlotMetrics[s], rank);
    const std::uint64_t d = v - p.shadow[static_cast<std::size_t>(s)];
    if (d == 0) continue;
    StreamEvent ev;
    ev.kind = StreamEvent::Kind::metric;
    ev.id = static_cast<std::int16_t>(s);
    ev.epoch = e;
    ev.t0_s = now_s;
    ev.a = d;
    push(rank, ev);
    p.shadow[static_cast<std::size_t>(s)] = v;
  }
  if (p.coll != p.coll_shadow) {
    StreamEvent ev;
    ev.kind = StreamEvent::Kind::metric;
    ev.id = static_cast<std::int16_t>(kSlotCollectives);
    ev.epoch = e;
    ev.t0_s = now_s;
    ev.a = p.coll - p.coll_shadow;
    push(rank, ev);
    p.coll_shadow = p.coll;
  }
  // The release store publishes every push above: a consumer that observes
  // this epoch also observes its events (watermark is snapshotted before
  // the rings are drained).
  p.reported.store(e, std::memory_order_release);
  if (final_flush) p.final_flag.store(true, std::memory_order_release);
  try_drain();
}

void Plane::on_frame(int rank, const introspect::Frame& f) {
  if (rank < 0 || rank >= nranks_) return;
  if (finalized_.load(std::memory_order_acquire)) return;
  const introspect::FrameTotals tot = introspect::frame_totals(f);
  StreamEvent ev;
  ev.kind = StreamEvent::Kind::frame;
  ev.rank = rank;
  ev.epoch = static_cast<long>(f.t0_s / cfg_.epoch_s);
  ev.t0_s = f.t0_s;
  ev.t1_s = f.t1_s;
  ev.aux = f.boundary ? 1 : 0;
  ev.id = static_cast<std::int16_t>(
      std::min<int>(tot.top_peer, std::numeric_limits<std::int16_t>::max()));
  ev.a = tot.bytes;
  ev.b = tot.msgs;
  std::lock_guard<std::mutex> lk(frame_mx_);
  ++frame_attempted_;
  if (frame_q_.size() >= cfg_.ring_capacity) {
    frame_dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  frame_q_.push_back(ev);
}

void Plane::on_span(int rank, const telemetry::SpanRec& rec) {
  if (rank < 0 || rank >= nranks_) return;
  if (finalized_.load(std::memory_order_acquire)) return;
  if (rec.cat == 'C') {
    if (rec.depth == 0) ++producers_[static_cast<std::size_t>(rank)]->coll;
    return;
  }
  if (rec.cat != 'S' && rec.cat != 'R' && rec.cat != 'P') return;
  StreamEvent ev;
  ev.kind = StreamEvent::Kind::span;
  ev.aux = static_cast<std::uint8_t>(rec.cat);
  ev.epoch = static_cast<long>(rec.t0_s / cfg_.epoch_s);
  ev.t0_s = rec.t0_s;
  ev.t1_s = rec.t1_s;
  ev.a = static_cast<std::uint64_t>(rec.a);
  ev.b = static_cast<std::uint64_t>(rec.b);
  static_assert(StreamEvent::kNameCap >= telemetry::SpanRec::kNameCap);
  std::memcpy(ev.name, rec.name, telemetry::SpanRec::kNameCap);
  push(rank, ev);
}

// ----------------------------------------------------------------- consumer

void Plane::try_drain() {
  std::unique_lock<std::mutex> lk(drain_mx_, std::try_to_lock);
  if (!lk.owns_lock()) return;
  drain_locked();
}

long Plane::watermark_locked() const {
  long wm = LONG_MAX;
  bool any_live = false;
  long max_final = -1;
  for (const auto& p : producers_) {
    const long r = p->reported.load(std::memory_order_acquire);
    if (p->final_flag.load(std::memory_order_acquire)) {
      max_final = std::max(max_final, r);
      continue;  // finished/crashed ranks never hold the watermark back
    }
    wm = std::min(wm, r);
    any_live = true;
  }
  return any_live ? wm : max_final;
}

void Plane::drain_locked() {
  // Snapshot watermarks BEFORE draining rings: a producer stores events
  // before advancing its reported epoch, so every event belonging to an
  // epoch <= the snapshot is already in its ring when we get here.
  const long wm = watermark_locked();

  for (auto& up : producers_) {
    Producer& p = *up;
    const std::uint64_t head = p.head.load(std::memory_order_acquire);
    std::uint64_t tail = p.tail.load(std::memory_order_relaxed);
    while (tail != head) {
      StreamEvent ev;
      std::memcpy(&ev, p.slot(tail), sizeof ev);
      apply_locked(ev);
      ++tail;
      ingested_.fetch_add(1, std::memory_order_relaxed);
    }
    p.tail.store(tail, std::memory_order_release);
  }
  {
    std::lock_guard<std::mutex> lk(frame_mx_);
    while (!frame_q_.empty()) {
      apply_locked(frame_q_.front());
      frame_q_.pop_front();
      ingested_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  derive_crash_events_locked();
  if (wm >= 0) emit_upto_locked(wm);
  mirror_counters_locked();
  update_mem_gauge_locked();
  if (stream_) std::fflush(stream_);
}

void Plane::add_event_locked(long epoch, int rank, double t_s,
                             const char* what, const char* name) {
  EventRec ev;
  ev.epoch = epoch;
  ev.rank = rank;
  ev.t_s = t_s;
  ev.what = what;
  if (name != nullptr) ev.name = name;
  if (events_.size() < kMaxEventLane) events_.push_back(ev);
  pending_events_[epoch].push_back(std::move(ev));
}

void Plane::apply_locked(const StreamEvent& ev) {
  const int merge = merge_.load(std::memory_order_relaxed);
  switch (ev.kind) {
    case StreamEvent::Kind::metric: {
      const auto [it, fresh] = series_.try_emplace({ev.rank, ev.id});
      Series& s = it->second;
      const std::uint64_t before = fresh ? 0 : series_bytes(s);
      const long me = ev.epoch / merge;
      if (!s.buckets.empty() && s.buckets.back().first >= me) {
        s.buckets.back().second += ev.a;
      } else {
        s.buckets.emplace_back(me, ev.a);
        while (s.buckets.size() > kStoreWindows) s.buckets.pop_front();
      }
      s.hist.observe(ev.a);
      s.sketch.observe(ev.a);
      s.total += ev.a;
      series_bytes_ = series_bytes_ - before + series_bytes(s);
      if (ev.id == kSlotRetransmits) retransmits_by_epoch_[ev.epoch] += ev.a;
      if (const char* what = derived_event_name(ev.id); what != nullptr)
        add_event_locked(ev.epoch, ev.rank, ev.t0_s, what, nullptr);
      break;
    }
    case StreamEvent::Kind::frame: {
      if (ev.aux != 0)
        add_event_locked(ev.epoch, ev.rank, ev.t0_s, "phase", nullptr);
      mismatch_by_epoch_[ev.epoch] += ev.a;
      break;
    }
    case StreamEvent::Kind::span: {
      if (ev.aux == 'S')
        add_event_locked(ev.epoch, ev.rank, ev.t0_s, "session", ev.name);
      break;
    }
  }
  if (stream_) {
    pending_[ev.epoch].push_back(ev);
    ++pending_size_;
  }
}

std::uint64_t Plane::series_bytes(const Series& s) {
  return sizeof(Series) +
         s.buckets.size() * sizeof(std::pair<long, std::uint64_t>) +
         s.sketch.stored() * 16;
}

void Plane::derive_crash_events_locked() {
  if (engine_.dead_ranks().empty()) return;
  for (int r : engine_.dead_ranks()) {
    if (dead_seen_.count(r) != 0) continue;
    dead_seen_.insert(r);
    const double t = engine_.dead_time(r);
    add_event_locked(static_cast<long>(t / cfg_.epoch_s), r, t, "crash",
                     nullptr);
  }
}

void Plane::emit_upto_locked(long watermark) {
  // Events for epochs at or below the watermark (including late arrivals
  // for epochs already emitted: the stream may carry out-of-order epoch
  // blocks and the viewer tolerates them).
  std::vector<long> ready;
  for (const auto& kv : pending_)
    if (kv.first <= watermark) ready.push_back(kv.first);
  for (const auto& kv : pending_events_)
    if (kv.first <= watermark &&
        std::find(ready.begin(), ready.end(), kv.first) == ready.end())
      ready.push_back(kv.first);
  std::sort(ready.begin(), ready.end());
  for (long e : ready) emit_epoch_locked(e);
  emitted_upto_ = std::max(emitted_upto_, watermark);
}

void Plane::emit_epoch_locked(long e) {
  const double eps = cfg_.epoch_s;
  epochs_emitted_.fetch_add(1, std::memory_order_relaxed);
  std::size_t n = 0;
  if (stream_) {
    std::ostringstream os;
    os << std::setprecision(12);
    os << "{\"type\":\"epoch\",\"e\":" << e << ",\"t0\":" << e * eps
       << ",\"t1\":" << (e + 1) * eps << "}";
    stream_line_locked(os.str());
  }
  auto it = pending_.find(e);
  if (it != pending_.end()) {
    if (stream_) {
      for (const StreamEvent& ev : it->second) {
        std::ostringstream os;
        os << std::setprecision(12);
        switch (ev.kind) {
          case StreamEvent::Kind::metric:
            os << "{\"type\":\"metric\",\"e\":" << e << ",\"rank\":" << ev.rank
               << ",\"name\":\"" << slot_name(ev.id) << "\",\"delta\":" << ev.a
               << "}";
            break;
          case StreamEvent::Kind::frame:
            os << "{\"type\":\"frame\",\"e\":" << e << ",\"rank\":" << ev.rank
               << ",\"t0\":" << ev.t0_s << ",\"t1\":" << ev.t1_s
               << ",\"bytes\":" << ev.a << ",\"msgs\":" << ev.b
               << ",\"top_peer\":" << ev.id
               << ",\"boundary\":" << (ev.aux != 0 ? 1 : 0) << "}";
            break;
          case StreamEvent::Kind::span:
            os << "{\"type\":\"span\",\"e\":" << e << ",\"rank\":" << ev.rank
               << ",\"cat\":\"" << static_cast<char>(ev.aux) << "\",\"name\":\""
               << telemetry::json_escape(ev.name) << "\",\"t0\":" << ev.t0_s
               << ",\"t1\":" << ev.t1_s << "}";
            break;
        }
        stream_line_locked(os.str());
        ++n;
      }
    }
    pending_size_ -= it->second.size();
    pending_.erase(it);
  }
  auto et = pending_events_.find(e);
  if (et != pending_events_.end()) {
    if (stream_) {
      for (const EventRec& ev : et->second) {
        std::ostringstream os;
        os << std::setprecision(12);
        os << "{\"type\":\"event\",\"e\":" << e << ",\"rank\":" << ev.rank
           << ",\"what\":\"" << telemetry::json_escape(ev.what) << "\"";
        if (!ev.name.empty())
          os << ",\"name\":\"" << telemetry::json_escape(ev.name) << "\"";
        os << ",\"t\":" << ev.t_s << "}";
        stream_line_locked(os.str());
        ++n;
      }
    }
    pending_events_.erase(et);
  }
  // Per-node NIC transmit deltas since the last emitted epoch (utilization
  // rows for the live view).
  if (stream_) {
    net::NicCounters& nic = engine_.nic();
    for (int node = 0; node < nic.num_nodes(); ++node) {
      const std::uint64_t cum = nic.bytes_until(node, (e + 1) * eps);
      const std::uint64_t prev = node_tx_cum_[static_cast<std::size_t>(node)];
      if (cum > prev) {
        std::ostringstream os;
        os << "{\"type\":\"link\",\"e\":" << e << ",\"node\":" << node
           << ",\"tx\":" << (cum - prev) << "}";
        stream_line_locked(os.str());
        node_tx_cum_[static_cast<std::size_t>(node)] = cum;
        ++n;
      }
    }
    std::ostringstream os;
    os << "{\"type\":\"epoch_end\",\"e\":" << e << ",\"n\":" << n
       << ",\"drops\":" << events_dropped() << "}";
    stream_line_locked(os.str());
  }
}

void Plane::stream_line_locked(const std::string& line) {
  if (!stream_) return;
  std::fwrite(line.data(), 1, line.size(), stream_);
  std::fputc('\n', stream_);
}

void Plane::mirror_counters_locked() {
  auto& hub = engine_.telemetry();
  const std::uint64_t ing = ingested_.load(std::memory_order_relaxed);
  if (ing > mirrored_ingested_) {
    hub.add(Metric::obsplane_events, 0, ing - mirrored_ingested_);
    mirrored_ingested_ = ing;
  }
  const std::uint64_t drp = events_dropped();
  if (drp > mirrored_dropped_) {
    hub.add(Metric::obsplane_drops, 0, drp - mirrored_dropped_);
    mirrored_dropped_ = drp;
  }
  const std::uint64_t ep = epochs_emitted_.load(std::memory_order_relaxed);
  if (ep > mirrored_epochs_) {
    hub.add(Metric::obsplane_epochs, 0, ep - mirrored_epochs_);
    mirrored_epochs_ = ep;
  }
  hub.gauge_set(Metric::obsplane_series, 0,
                static_cast<std::int64_t>(series_.size()));
  hub.gauge_set(Metric::obsplane_window_merge, 0,
                merge_.load(std::memory_order_relaxed));
}

void Plane::update_mem_gauge_locked() {
  const std::uint64_t mem =
      static_cast<std::uint64_t>(nranks_) * cfg_.ring_capacity *
          sizeof(StreamEvent) +
      series_bytes_ + pending_size_ * sizeof(StreamEvent);
  mem_bytes_.store(mem, std::memory_order_relaxed);
  engine_.telemetry().gauge_set(Metric::obsplane_mem_bytes, 0,
                                static_cast<std::int64_t>(mem));
}

void Plane::on_run_begin() {
  std::lock_guard<std::mutex> lk(drain_mx_);
  if (!finalize_done_) return;  // first run, or finalize never happened
  // Re-arm for another run on the same engine: virtual clocks restart at 0,
  // so per-run epoch state resets; registry counters are cumulative across
  // runs, so producer shadows persist.
  for (auto& p : producers_) {
    p->reported.store(-1, std::memory_order_relaxed);
    p->final_flag.store(false, std::memory_order_relaxed);
  }
  series_.clear();
  series_bytes_ = 0;
  pending_.clear();
  pending_size_ = 0;
  pending_events_.clear();
  retransmits_by_epoch_.clear();
  mismatch_by_epoch_.clear();
  events_.clear();
  dead_seen_.clear();
  std::fill(node_tx_cum_.begin(), node_tx_cum_.end(), 0);
  emitted_upto_ = -1;
  findings_.clear();
  finalize_done_ = false;
  finalized_.store(false, std::memory_order_release);
  write_run_start_locked();
}

void Plane::finalize() {
  std::lock_guard<std::mutex> lk(drain_mx_);
  if (finalize_done_) return;
  finalize_done_ = true;
  // Rank threads are joined by the time the run ends, so every producer
  // had its final flush; treat them all as final and drain fully.
  for (auto& p : producers_)
    p->final_flag.store(true, std::memory_order_release);
  drain_locked();
  // Emit whatever the watermark logic left pending (e.g. nothing reported).
  if (!pending_.empty() || !pending_events_.empty()) {
    long last = emitted_upto_;
    if (!pending_.empty()) last = std::max(last, pending_.rbegin()->first);
    if (!pending_events_.empty())
      last = std::max(last, pending_events_.rbegin()->first);
    emit_upto_locked(last);
  }

  findings_ = correlate(build_correlate_input_locked());
  // Fold in the critical-path profiler's blame verdicts. report() is lazy
  // and idempotent per run, so it is ready whichever observer's run end
  // fires first.
  if (critpath::Profiler* prof = critpath::Profiler::attached(engine_)) {
    const critpath::BlameReport& rep = prof->report();
    if (rep.valid && rep.dominant_rank >= 0 && rep.total_wait_ns > 0) {
      Finding f;
      f.kind = "wait_state_dominant";
      f.subject = "rank " + std::to_string(rep.dominant_rank);
      f.e0 = 0;
      f.e1 = emitted_upto_;
      f.text = "critpath: rank " + std::to_string(rep.dominant_rank) +
               " causes the most waiting (" +
               std::to_string(
                   rep.ranks[static_cast<std::size_t>(rep.dominant_rank)]
                       .caused_ns) +
               " ns charged to peers); dominant wait state " +
               critpath::wait_class_name(rep.dominant_class) + ", " +
               std::to_string(rep.total_wait_ns) + " ns waited in total" +
               (rep.blame_only ? " [blame-only: rings refused]" : "");
      findings_.push_back(std::move(f));
    }
    if (rep.valid && rep.critical_link.wait_ns > 0) {
      const critpath::LinkBlame& lb = rep.critical_link;
      Finding f;
      f.kind = "critical_link";
      f.subject = "link " + std::to_string(lb.src) + "->" +
                  std::to_string(lb.dst);
      f.e0 = 0;
      f.e1 = emitted_upto_;
      f.text = "critpath: link " + std::to_string(lb.src) + "->" +
               std::to_string(lb.dst) + " carries the largest wait (" +
               std::to_string(lb.wait_ns) + " ns over " +
               std::to_string(lb.bytes) + " bytes" +
               (lb.cross_node ? ", cross-node)" : ", intra-node)");
      findings_.push_back(std::move(f));
    }
  }
  auto& hub = engine_.telemetry();
  for (const Finding& f : findings_) {
    telemetry::log(telemetry::LogLevel::info, -1, "obsplane", f.text);
    if (stream_) {
      std::ostringstream os;
      os << "{\"type\":\"finding\",\"kind\":\"" << telemetry::json_escape(f.kind)
         << "\",\"subject\":\"" << telemetry::json_escape(f.subject)
         << "\",\"e0\":" << f.e0 << ",\"e1\":" << f.e1 << ",\"text\":\""
         << telemetry::json_escape(f.text) << "\"}";
      stream_line_locked(os.str());
    }
  }
  if (!findings_.empty())
    hub.add(Metric::obsplane_findings, 0, findings_.size());

  if (stream_) {
    std::ostringstream os;
    os << "{\"type\":\"run_end\",\"epochs\":"
       << epochs_emitted_.load(std::memory_order_relaxed)
       << ",\"events\":" << ingested_.load(std::memory_order_relaxed)
       << ",\"drops\":" << events_dropped()
       << ",\"findings\":" << findings_.size() << "}";
    stream_line_locked(os.str());
    std::fflush(stream_);
  }
  mirror_counters_locked();
  update_mem_gauge_locked();
  if (!cfg_.prom_path.empty()) {
    std::ofstream f(cfg_.prom_path, std::ios::trunc);
    if (f) write_prometheus_locked(f);
  }
  finalized_.store(true, std::memory_order_release);
}

CorrelateInput Plane::build_correlate_input_locked() const {
  CorrelateInput in;
  in.epoch_s = cfg_.epoch_s;
  in.max_epoch = emitted_upto_;
  in.plan = engine_.config().fault_plan.get();
  in.nic = &engine_.nic();
  const auto& placement = engine_.config().placement;
  in.node_of_rank.reserve(placement.size());
  // fabric().node_of, not topology().node_of: on fat-tree / dragonfly
  // hierarchies depth 1 is a pod / router group, not the NIC domain.
  for (int leaf : placement)
    in.node_of_rank.push_back(engine_.fabric().node_of(leaf));
  in.retransmits_by_epoch = retransmits_by_epoch_;
  in.mismatch_by_epoch = mismatch_by_epoch_;
  in.events = events_;
  return in;
}

// ----------------------------------------------------------- governor rung

void Plane::widen_windows() {
  std::lock_guard<std::mutex> lk(drain_mx_);
  const int merge = merge_.load(std::memory_order_relaxed) * 2;
  merge_.store(merge, std::memory_order_relaxed);
  series_bytes_ = 0;
  for (auto& kv : series_) {
    Series& s = kv.second;
    std::deque<std::pair<long, std::uint64_t>> rekeyed;
    for (const auto& b : s.buckets) {
      const long me = b.first / 2;
      if (!rekeyed.empty() && rekeyed.back().first == me)
        rekeyed.back().second += b.second;
      else
        rekeyed.emplace_back(me, b.second);
    }
    s.buckets.swap(rekeyed);
    series_bytes_ += series_bytes(s);
  }
  engine_.telemetry().gauge_set(Metric::obsplane_window_merge, 0, merge);
}

// ------------------------------------------------------------------ queries

std::uint64_t Plane::events_attempted() const {
  // Exact once rank threads are quiescent (joins synchronize); a mid-run
  // read is a monotone approximation.
  std::uint64_t n = 0;
  for (const auto& p : producers_) n += p->seq;
  std::lock_guard<std::mutex> lk(frame_mx_);
  return n + frame_attempted_;
}

std::uint64_t Plane::events_dropped() const {
  std::uint64_t n = frame_dropped_.load(std::memory_order_relaxed);
  for (const auto& p : producers_)
    n += p->dropped.load(std::memory_order_relaxed);
  return n;
}

std::size_t Plane::series_count() const {
  std::lock_guard<std::mutex> lk(drain_mx_);
  return series_.size();
}

namespace {
int slot_by_name(const std::string& metric) {
  for (int s = 0; s < kAllSlots; ++s)
    if (metric == Plane::slot_name(s)) return s;
  return -1;
}
}  // namespace

std::vector<std::pair<long, std::uint64_t>> Plane::series_buckets(
    int rank, const std::string& metric) const {
  std::vector<std::pair<long, std::uint64_t>> out;
  const int slot = slot_by_name(metric);
  if (slot < 0) return out;
  std::lock_guard<std::mutex> lk(drain_mx_);
  const auto it = series_.find({rank, slot});
  if (it == series_.end()) return out;
  out.assign(it->second.buckets.begin(), it->second.buckets.end());
  return out;
}

std::uint64_t Plane::series_quantile(int rank, const std::string& metric,
                                     double q) const {
  const int slot = slot_by_name(metric);
  if (slot < 0) return 0;
  std::lock_guard<std::mutex> lk(drain_mx_);
  const auto it = series_.find({rank, slot});
  if (it == series_.end()) return 0;
  return it->second.sketch.quantile(q);
}

std::vector<Finding> Plane::findings() const {
  std::lock_guard<std::mutex> lk(drain_mx_);
  return findings_;
}

// --------------------------------------------------------------- prometheus

void Plane::write_prometheus(std::ostream& os) {
  std::lock_guard<std::mutex> lk(drain_mx_);
  write_prometheus_locked(os);
}

void Plane::write_prometheus_locked(std::ostream& os) const {
  os << "# mpim streaming plane exposition (job " << cfg_.job << ")\n";
  for (int s = 0; s < kAllSlots; ++s) {
    bool any = false;
    for (int r = 0; r < nranks_; ++r) {
      const auto it = series_.find({r, s});
      if (it == series_.end()) continue;
      if (!any) {
        os << "# TYPE mpim_stream_" << slot_name(s) << "_total counter\n";
        any = true;
      }
      os << "mpim_stream_" << slot_name(s) << "_total{job=\"" << cfg_.job
         << "\",rank=\"" << r << "\"} " << it->second.total << "\n";
    }
    if (!any) continue;
    for (int r = 0; r < nranks_; ++r) {
      const auto it = series_.find({r, s});
      if (it == series_.end()) continue;
      for (double q : {0.5, 0.99}) {
        os << "mpim_stream_" << slot_name(s) << "_epoch_delta{job=\""
           << cfg_.job << "\",rank=\"" << r << "\",quantile=\"" << q << "\"} "
           << it->second.sketch.quantile(q) << "\n";
      }
    }
  }
  // The plane's own counters, under their catalog names.
  const auto self = [&](Metric m, std::uint64_t v) {
    const telemetry::MetricSpec& spec = kCatalog[m];
    os << "# TYPE " << spec.name << " "
       << (spec.kind == telemetry::MetricKind::counter ? "counter" : "gauge")
       << "\n"
       << spec.name << "{job=\"" << cfg_.job << "\"} " << v << "\n";
  };
  self(Metric::obsplane_events, ingested_.load(std::memory_order_relaxed));
  self(Metric::obsplane_drops, events_dropped());
  self(Metric::obsplane_epochs,
       epochs_emitted_.load(std::memory_order_relaxed));
  self(Metric::obsplane_window_merge,
       static_cast<std::uint64_t>(merge_.load(std::memory_order_relaxed)));
}

}  // namespace mpim::obsplane
