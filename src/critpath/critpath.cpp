#include "critpath/critpath.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <unordered_map>

#include "telemetry/log.h"

namespace mpim::critpath {

namespace {

using telemetry::Metric;

/// Hook-side telemetry mirror flush cadence, in events per lane.
constexpr std::uint64_t kTelemetryFlushBatch = 64;

/// Telemetry counter of each per-class accumulator, by class index.
constexpr Metric kClassMetric[kNumClasses] = {
    Metric::critpath_late_sender_ns, Metric::critpath_late_receiver_ns,
    Metric::critpath_wait_collective_ns, Metric::critpath_root_imbalance_ns};

/// Virtual seconds -> whole nanoseconds, round-to-nearest. Inputs are
/// non-negative, so +0.5-and-truncate matches llround without the libm
/// call (this runs in the capture hooks, under the rank mutex).
std::uint64_t to_ns(double seconds) {
  if (!(seconds > 0.0)) return 0;
  return static_cast<std::uint64_t>(seconds * 1e9 + 0.5);
}

int class_index(WaitClass c) {
  switch (c) {
    case WaitClass::late_sender: return kClassLateSender;
    case WaitClass::late_receiver: return kClassLateReceiver;
    case WaitClass::wait_at_collective: return kClassWaitCollective;
    case WaitClass::imbalance_at_root: return kClassRootImbalance;
    case WaitClass::none: break;
  }
  return -1;
}

WaitClass class_at(int idx) {
  switch (idx) {
    case kClassLateSender: return WaitClass::late_sender;
    case kClassLateReceiver: return WaitClass::late_receiver;
    case kClassWaitCollective: return WaitClass::wait_at_collective;
    case kClassRootImbalance: return WaitClass::imbalance_at_root;
    default: return WaitClass::none;
  }
}

/// Dominant class of a per-class ns array. late_receiver dwell is
/// informational (never charged as wait), so it only wins when no charged
/// class saw any time at all.
WaitClass dominant_of(const std::array<std::uint64_t, kNumClasses>& ns) {
  int best = -1;
  std::uint64_t best_ns = 0;
  for (int c = 0; c < kNumClasses; ++c) {
    if (c == kClassLateReceiver) continue;
    if (ns[static_cast<std::size_t>(c)] > best_ns) {
      best_ns = ns[static_cast<std::size_t>(c)];
      best = c;
    }
  }
  if (best < 0 && ns[kClassLateReceiver] > 0) best = kClassLateReceiver;
  return class_at(best);
}

}  // namespace

const char* wait_class_name(WaitClass c) {
  switch (c) {
    case WaitClass::none: return "none";
    case WaitClass::late_sender: return "late_sender";
    case WaitClass::late_receiver: return "late_receiver";
    case WaitClass::wait_at_collective: return "wait_at_collective";
    case WaitClass::imbalance_at_root: return "imbalance_at_root";
  }
  return "?";
}

Profiler::Profiler(mpi::Engine& engine, Config cfg)
    : engine_(engine), cfg_(std::move(cfg)) {
  const int n = engine_.world_size();
  lanes_.resize(static_cast<std::size_t>(n));
  node_of_rank_.resize(static_cast<std::size_t>(n));
  const auto& placement = engine_.config().placement;
  // fabric().node_of, not topology().node_of: on fat-tree / dragonfly
  // hierarchies depth 1 is a pod / router group, not the NIC domain.
  for (int r = 0; r < n; ++r)
    node_of_rank_[static_cast<std::size_t>(r)] =
        engine_.fabric().node_of(placement[static_cast<std::size_t>(r)]);
}

std::shared_ptr<Profiler> Profiler::attach(mpi::Engine& engine, Config cfg) {
  if (Profiler* old = attached(engine)) engine.detach(*old);
  auto prof = std::shared_ptr<Profiler>(new Profiler(engine, std::move(cfg)));
  engine.attach(prof, mpi::EngineObserver::kSend | mpi::EngineObserver::kRecv);
  return prof;
}

Profiler* Profiler::attached(mpi::Engine& engine) {
  return engine.find_observer<Profiler>();
}

void Profiler::on_run_begin() {
  // Main thread, after per-run engine resets, before rank threads exist:
  // everything written here happens-before every capture hook.
  std::size_t cap = cfg_.ring_capacity;
  blame_only_ = false;
  if (cfg_.reserve) {
    const std::size_t want = cap * static_cast<std::size_t>(lanes_.size());
    const std::size_t granted = cfg_.reserve(want, sizeof(Event));
    if (granted < want) {
      cap = granted / std::max<std::size_t>(lanes_.size(), 1);
      if (cap < 16) {  // too small to be useful: keep the blame, drop the path
        cap = 0;
        blame_only_ = true;
      }
      telemetry::log(telemetry::LogLevel::info, -1, "critpath",
                     "governor trimmed event rings: wanted " +
                         std::to_string(want) + " frames, granted " +
                         std::to_string(granted) +
                         (blame_only_ ? " -> blame-only mode" : ""));
    }
  }
  for (std::size_t r = 0; r < lanes_.size(); ++r) {
    Lane& ln = lanes_[r];
    ln.cap = cap;
    ln.ring.clear();
    if (cap > 0) ln.ring.reserve(cap);
    ln.head = 0;
    ln.pushed = 0;
    ln.dropped = 0;
    ln.armed = true;  // MPI_M_critpath_stop/start toggle it per rank
    ln.events = 0;
    ln.comm_ns = 0;
    ln.wait_ns = 0;
    ln.class_ns = {};
    ln.mismatch_wait_ns = 0;
    ln.mark_wait_ns = 0;
    ln.mark_mismatch_ns = 0;
    ln.pend_events = 0;
    ln.pend_dropped = 0;
    ln.pend_wait = 0;
    ln.pend_class = {};
    ln.wait_by_peer.assign(lanes_.size(), 0);
    ln.bytes_from_peer.assign(lanes_.size(), 0);
    ln.wait_by_comm.clear();
    ln.phases.clear();
    ln.last_coll_ctx = -1;
    ln.last_coll_tag = 0;
    ln.coll_wait_streak = 0;
    ln.cache_phase = -1;
    ln.cache_phase_cell = nullptr;  // phases.clear() freed the nodes
    ln.cache_ctx = -1;
    ln.cache_ctx_cell = nullptr;
  }
  finalized_ = false;
  report_ = BlameReport{};
  engine_.telemetry().gauge_set(Metric::critpath_blame_only, 0,
                                blame_only_ ? 1 : 0);
}

void Profiler::on_run_end() {
  // All rank threads joined: safe to aggregate across lanes. Drain the
  // batched telemetry mirror first so hub counters are exact.
  for (std::size_t r = 0; r < lanes_.size(); ++r)
    flush_lane_telemetry(static_cast<int>(r), lanes_[r]);
  report();
}

void Profiler::flush_lane_telemetry(int rank, Lane& ln) {
  telemetry::Hub& hub = engine_.telemetry();
  if (ln.pend_events) hub.add(Metric::critpath_events, rank, ln.pend_events);
  if (ln.pend_dropped)
    hub.add(Metric::critpath_dropped, rank, ln.pend_dropped);
  if (ln.pend_wait) hub.add(Metric::critpath_wait_ns, rank, ln.pend_wait);
  for (int c = 0; c < kNumClasses; ++c) {
    const auto ci = static_cast<std::size_t>(c);
    if (ln.pend_class[ci])
      hub.add(kClassMetric[ci], rank, ln.pend_class[ci]);
  }
  ln.pend_events = 0;
  ln.pend_dropped = 0;
  ln.pend_wait = 0;
  ln.pend_class = {};
}

Event* Profiler::next_slot(Lane& ln) {
  if (ln.cap == 0) return nullptr;  // blame-only mode
  Event* ev;
  if (ln.ring.size() < ln.cap) {
    ev = &ln.ring.emplace_back();
  } else {
    // head tracks pushed % cap without the per-event 64-bit divide.
    ev = &ln.ring[ln.head];
    ++ln.dropped;
    ++ln.pend_dropped;
  }
  ++ln.pushed;
  if (++ln.head == ln.cap) ln.head = 0;
  return ev;
}

void Profiler::charge_phase(Lane& ln, double when_s, WaitClass cls,
                            std::uint64_t ns) {
  int phase = static_cast<int>(std::floor(when_s / kPhaseS));
  if (phase < 0) phase = 0;
  PhaseCell* cellp = ln.cache_phase_cell;
  if (phase != ln.cache_phase || cellp == nullptr) {
    int key = phase;
    if (ln.phases.size() >= kMaxPhases && ln.phases.count(key) == 0)
      key = ln.phases.rbegin()->first;  // bounded: fold into the last cell
    cellp = &ln.phases[key];
    ln.cache_phase = phase;
    ln.cache_phase_cell = cellp;
  }
  PhaseCell& cell = *cellp;
  const int ci = class_index(cls);
  if (ci >= 0) cell.class_ns[static_cast<std::size_t>(ci)] += ns;
  if (cls != WaitClass::late_receiver) cell.wait_ns += ns;
}

void Profiler::on_send(int rank, const mpi::PktInfo& pkt, double t0,
                       double tx_start, double arrival, double t1) {
  Lane& ln = lane(rank);
  if (!ln.armed) return;
  ++ln.events;
  ln.comm_ns += to_ns(t1 - t0);
  // Filled in place (overwrite slots carry stale data: every field is set).
  if (Event* ev = next_slot(ln)) {
    ev->kind = Event::Kind::send;
    ev->wait = WaitClass::none;
    ev->comm_kind = pkt.kind;
    ev->peer = pkt.dst_world;
    ev->context_id = pkt.context_id;
    ev->tag = pkt.tag;
    ev->send_seq = pkt.send_seq;
    ev->bytes = pkt.bytes;
    ev->t0 = t0;
    ev->t1 = t1;
    ev->arrival = arrival;
  }
  (void)tx_start;
  if (++ln.pend_events >= kTelemetryFlushBatch) flush_lane_telemetry(rank, ln);
}

void Profiler::on_recv(int rank, const mpi::PktInfo& pkt, double pre,
                       double arrival, double t1) {
  Lane& ln = lane(rank);
  if (!ln.armed) return;
  ++ln.events;
  ln.comm_ns += to_ns(t1 - pre);
  const int src = pkt.src_world;
  if (src >= 0 && static_cast<std::size_t>(src) < ln.bytes_from_peer.size())
    ln.bytes_from_peer[static_cast<std::size_t>(src)] += pkt.bytes;

  WaitClass cls = WaitClass::none;
  const double wait_s = arrival - pre;
  if (wait_s > 0.0) {
    // The receiver's clock stalled until the message arrived.
    if (pkt.kind == mpi::CommKind::coll) {
      if (pkt.context_id == ln.last_coll_ctx && pkt.tag == ln.last_coll_tag) {
        ++ln.coll_wait_streak;
      } else {
        ln.last_coll_ctx = pkt.context_id;
        ln.last_coll_tag = pkt.tag;
        ln.coll_wait_streak = 1;
      }
      cls = ln.coll_wait_streak >= 2 ? WaitClass::imbalance_at_root
                                     : WaitClass::wait_at_collective;
    } else {
      cls = WaitClass::late_sender;
    }
    const std::uint64_t w = to_ns(wait_s);
    ln.wait_ns += w;
    const int ci = class_index(cls);
    ln.class_ns[static_cast<std::size_t>(ci)] += w;
    if (src >= 0 && static_cast<std::size_t>(src) < ln.wait_by_peer.size()) {
      ln.wait_by_peer[static_cast<std::size_t>(src)] += w;
      if (node_of_rank_[static_cast<std::size_t>(src)] !=
          node_of_rank_[static_cast<std::size_t>(rank)])
        ln.mismatch_wait_ns += w;
    }
    if (pkt.context_id != ln.cache_ctx || ln.cache_ctx_cell == nullptr) {
      ln.cache_ctx_cell = &ln.wait_by_comm[pkt.context_id];
      ln.cache_ctx = pkt.context_id;
    }
    *ln.cache_ctx_cell += w;
    charge_phase(ln, t1, cls, w);
    ln.pend_wait += w;
    ln.pend_class[static_cast<std::size_t>(ci)] += w;
  } else {
    // The message dwelled in the inbox waiting for the receiver.
    const double dwell_s = pre - arrival;
    if (dwell_s > 0.0) {
      cls = WaitClass::late_receiver;
      const std::uint64_t d = to_ns(dwell_s);
      ln.class_ns[kClassLateReceiver] += d;
      charge_phase(ln, t1, cls, d);
      ln.pend_class[kClassLateReceiver] += d;
    }
    if (pkt.kind != mpi::CommKind::coll) {
      // A non-waiting p2p recv does not break a collective's streak, but a
      // non-waiting collective recv of a different op does.
    } else if (pkt.context_id != ln.last_coll_ctx ||
               pkt.tag != ln.last_coll_tag) {
      ln.last_coll_ctx = pkt.context_id;
      ln.last_coll_tag = pkt.tag;
      ln.coll_wait_streak = 0;
    }
  }

  if (Event* ev = next_slot(ln)) {
    ev->kind = Event::Kind::recv;
    ev->wait = cls;
    ev->comm_kind = pkt.kind;
    ev->peer = src;
    ev->context_id = pkt.context_id;
    ev->tag = pkt.tag;
    ev->send_seq = pkt.send_seq;
    ev->bytes = pkt.bytes;
    ev->t0 = pre;
    ev->t1 = t1;
    ev->arrival = arrival;
  }
  if (++ln.pend_events >= kTelemetryFlushBatch) flush_lane_telemetry(rank, ln);
}

void Profiler::arm(int rank, bool on) { lane(rank).armed = on; }
bool Profiler::armed(int rank) const { return lane(rank).armed; }

Profiler::LocalTotals Profiler::local_totals(int rank) const {
  const Lane& ln = lane(rank);
  LocalTotals out;
  out.events = ln.events;
  out.dropped = ln.dropped;
  out.comm_ns = ln.comm_ns;
  out.wait_ns = ln.wait_ns;
  out.class_ns = ln.class_ns;
  out.mismatch_wait_ns = ln.mismatch_wait_ns;
  return out;
}

std::vector<std::uint64_t> Profiler::local_waits_by_peer(int rank) const {
  return lane(rank).wait_by_peer;
}

void Profiler::local_dominant(int rank, int* peer,
                              std::uint64_t* wait_ns) const {
  const Lane& ln = lane(rank);
  int best = -1;
  std::uint64_t best_ns = 0;
  for (std::size_t p = 0; p < ln.wait_by_peer.size(); ++p) {
    if (ln.wait_by_peer[p] > best_ns) {
      best_ns = ln.wait_by_peer[p];
      best = static_cast<int>(p);
    }
  }
  if (peer != nullptr) *peer = best;
  if (wait_ns != nullptr) *wait_ns = best_ns;
}

std::uint64_t Profiler::wait_since_mark(int rank) const {
  const Lane& ln = lane(rank);
  return ln.wait_ns - ln.mark_wait_ns;
}

std::uint64_t Profiler::mismatch_since_mark(int rank) const {
  const Lane& ln = lane(rank);
  return ln.mismatch_wait_ns - ln.mark_mismatch_ns;
}

void Profiler::mark(int rank) {
  Lane& ln = lane(rank);
  ln.mark_wait_ns = ln.wait_ns;
  ln.mark_mismatch_ns = ln.mismatch_wait_ns;
}

const BlameReport& Profiler::report() {
  if (!finalized_) {
    const auto t0 = std::chrono::steady_clock::now();
    finalize_locked();
    extract_host_s_ =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    finalized_ = true;
  }
  return report_;
}

void Profiler::finalize_locked() {
  const int n = static_cast<int>(lanes_.size());
  BlameReport rep;
  rep.valid = true;
  rep.blame_only = blame_only_;
  rep.ranks.resize(static_cast<std::size_t>(n));

  // Per-rank totals and the cross-rank caused/link aggregation. A wait in
  // lane r charged to peer p appears once as r's own wait and once as p's
  // caused wait, which is what makes the blame shares sum exactly to the
  // total communication time.
  for (int r = 0; r < n; ++r) {
    const Lane& ln = lanes_[static_cast<std::size_t>(r)];
    RankBlame& rb = rep.ranks[static_cast<std::size_t>(r)];
    rb.rank = r;
    rb.comm_ns = ln.comm_ns;
    rb.class_ns = ln.class_ns;
    rb.own_wait_ns = ln.wait_ns;
    rb.dead = engine_.rank_dead(r);
    rep.total_comm_ns += ln.comm_ns;
    rep.total_wait_ns += ln.wait_ns;
    rb.dominant_class = dominant_of(ln.class_ns);
    for (int p = 0; p < n; ++p) {
      const std::uint64_t w = ln.wait_by_peer[static_cast<std::size_t>(p)];
      if (w == 0) continue;
      rep.ranks[static_cast<std::size_t>(p)].caused_ns += w;
      if (w > rb.dominant_peer_ns) {
        rb.dominant_peer_ns = w;
        rb.dominant_peer = p;
      }
      LinkBlame link;
      link.src = p;
      link.dst = r;
      link.wait_ns = w;
      link.bytes = ln.bytes_from_peer[static_cast<std::size_t>(p)];
      link.cross_node = node_of_rank_[static_cast<std::size_t>(p)] !=
                        node_of_rank_[static_cast<std::size_t>(r)];
      rep.links.push_back(link);
    }
    for (const auto& [phase, cell] : ln.phases) {
      PhaseBlame pb;
      pb.rank = r;
      pb.phase = phase;
      pb.wait_ns = cell.wait_ns;
      pb.dominant_class = dominant_of(cell.class_ns);
      rep.phases.push_back(pb);
    }
  }

  std::uint64_t best_caused = 0;
  std::array<std::uint64_t, kNumClasses> global_class{};
  for (RankBlame& rb : rep.ranks) {
    rb.blame_ns = rb.comm_ns - rb.own_wait_ns + rb.caused_ns;
    if (rb.caused_ns > best_caused) {
      best_caused = rb.caused_ns;
      rep.dominant_rank = rb.rank;
    }
    for (int c = 0; c < kNumClasses; ++c)
      global_class[static_cast<std::size_t>(c)] +=
          rb.class_ns[static_cast<std::size_t>(c)];
  }
  rep.dominant_class = dominant_of(global_class);

  std::sort(rep.links.begin(), rep.links.end(),
            [](const LinkBlame& a, const LinkBlame& b) {
              if (a.wait_ns != b.wait_ns) return a.wait_ns > b.wait_ns;
              if (a.src != b.src) return a.src < b.src;
              return a.dst < b.dst;
            });
  if (!rep.links.empty()) rep.critical_link = rep.links.front();

  report_ = std::move(rep);

  // Backward critical-path extraction over the joined rings.
  std::vector<std::vector<Event>> ordered(static_cast<std::size_t>(n));
  for (int r = 0; r < n; ++r) {
    const Lane& ln = lanes_[static_cast<std::size_t>(r)];
    std::vector<Event>& out = ordered[static_cast<std::size_t>(r)];
    if (ln.cap == 0 || ln.ring.empty()) continue;
    out.reserve(ln.ring.size());
    const std::size_t sz = ln.ring.size();
    const std::size_t start =
        ln.pushed > sz ? static_cast<std::size_t>(ln.pushed % ln.cap) : 0;
    for (std::size_t i = 0; i < sz; ++i)
      out.push_back(ln.ring[(start + i) % sz]);
  }
  extract_path(ordered);
  engine_.telemetry().add(Metric::critpath_extractions, 0);
}

void Profiler::extract_path(std::vector<std::vector<Event>>& ordered) {
  const int n = static_cast<int>(lanes_.size());
  const std::vector<double>& finals = engine_.final_clocks();
  int cur = 0;
  for (int r = 1; r < n; ++r)
    if (finals[static_cast<std::size_t>(r)] >
        finals[static_cast<std::size_t>(cur)])
      cur = r;

  if (blame_only_) {
    // No rings: the path degenerates to the slowest rank's whole lane.
    PathSegment seg;
    seg.rank = report_.dominant_rank >= 0 ? report_.dominant_rank : cur;
    seg.t0 = 0.0;
    seg.t1 = finals.empty() ? 0.0
                            : finals[static_cast<std::size_t>(seg.rank)];
    report_.path.push_back(seg);
    return;
  }

  // Per-rank send index: send_seq -> position in the ordered lane.
  std::vector<std::unordered_map<std::uint64_t, std::size_t>> send_at(
      static_cast<std::size_t>(n));
  for (int r = 0; r < n; ++r)
    for (std::size_t i = 0; i < ordered[static_cast<std::size_t>(r)].size();
         ++i) {
      const Event& ev = ordered[static_cast<std::size_t>(r)][i];
      if (ev.kind == Event::Kind::send) send_at[static_cast<std::size_t>(r)][ev.send_seq] = i;
    }

  auto last_at_or_before = [&](int rank, double t) -> std::ptrdiff_t {
    const std::vector<Event>& evs = ordered[static_cast<std::size_t>(rank)];
    std::ptrdiff_t lo = 0, hi = static_cast<std::ptrdiff_t>(evs.size()) - 1,
                   best = -1;
    while (lo <= hi) {
      const std::ptrdiff_t mid = (lo + hi) / 2;
      if (evs[static_cast<std::size_t>(mid)].t1 <= t) {
        best = mid;
        lo = mid + 1;
      } else {
        hi = mid - 1;
      }
    }
    return best;
  };

  double seg_hi = finals[static_cast<std::size_t>(cur)];
  std::ptrdiff_t idx = last_at_or_before(cur, seg_hi);
  bool next_tombstone = false;
  std::vector<PathSegment> path;

  while (path.size() < kMaxPathSegments) {
    const std::vector<Event>& evs = ordered[static_cast<std::size_t>(cur)];
    // Walk this rank's program order backward to the first gating receive.
    std::ptrdiff_t gate = -1;
    for (std::ptrdiff_t i = idx; i >= 0; --i) {
      const Event& ev = evs[static_cast<std::size_t>(i)];
      if (ev.kind == Event::Kind::recv && ev.wait != WaitClass::none &&
          ev.wait != WaitClass::late_receiver && ev.arrival >= 0.0) {
        gate = i;
        break;
      }
    }
    PathSegment seg;
    seg.rank = cur;
    seg.t1 = seg_hi;
    seg.tombstoned = next_tombstone;
    next_tombstone = false;
    if (gate < 0) {
      // Program order all the way down: the path starts here.
      seg.t0 = evs.empty() ? 0.0 : std::min(evs.front().t0, seg_hi);
      if (seg.t0 < 0.0) seg.t0 = 0.0;
      path.push_back(seg);
      break;
    }
    const Event& ev = evs[static_cast<std::size_t>(gate)];
    seg.t0 = ev.t1;
    seg.via_peer = ev.peer;
    path.push_back(seg);

    // Hop the send->recv edge backward to the sender.
    const int peer = ev.peer;
    if (peer < 0 || peer >= n) break;
    auto& peer_sends = send_at[static_cast<std::size_t>(peer)];
    auto hit = peer_sends.find(ev.send_seq);
    if (hit != peer_sends.end()) {
      cur = peer;
      idx = static_cast<std::ptrdiff_t>(hit->second) - 1;
      seg_hi = ordered[static_cast<std::size_t>(peer)][hit->second].t1;
    } else {
      // The matching send is gone -- evicted, the sender disarmed, or the
      // rank died (crash/shrink). Tombstone dead ranks' edges and resume
      // in program order at the arrival time.
      cur = peer;
      seg_hi = ev.arrival;
      idx = last_at_or_before(peer, seg_hi);
      next_tombstone = engine_.rank_dead(peer);
    }
    if (seg_hi <= 0.0) break;
  }
  std::reverse(path.begin(), path.end());
  report_.path = std::move(path);
}

bool Profiler::write_csv(const std::string& path) {
  const BlameReport& rep = report();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "critpath,v1\n");
  std::fprintf(f, "total,%llu,%llu,%d,%s,%d,%.9f\n",
               static_cast<unsigned long long>(rep.total_comm_ns),
               static_cast<unsigned long long>(rep.total_wait_ns),
               rep.dominant_rank, wait_class_name(rep.dominant_class),
               rep.blame_only ? 1 : 0, kPhaseS);
  for (const RankBlame& rb : rep.ranks) {
    std::fprintf(
        f, "rank,%d,%llu,%llu,%llu,%llu,%llu,%llu,%llu,%llu,%d,%llu,%d\n",
        rb.rank, static_cast<unsigned long long>(rb.comm_ns),
        static_cast<unsigned long long>(rb.blame_ns),
        static_cast<unsigned long long>(rb.own_wait_ns),
        static_cast<unsigned long long>(rb.caused_ns),
        static_cast<unsigned long long>(rb.class_ns[kClassLateSender]),
        static_cast<unsigned long long>(rb.class_ns[kClassLateReceiver]),
        static_cast<unsigned long long>(rb.class_ns[kClassWaitCollective]),
        static_cast<unsigned long long>(rb.class_ns[kClassRootImbalance]),
        rb.dominant_peer, static_cast<unsigned long long>(rb.dominant_peer_ns),
        rb.dead ? 1 : 0);
  }
  for (const LinkBlame& lb : rep.links)
    std::fprintf(f, "link,%d,%d,%llu,%llu,%d\n", lb.src, lb.dst,
                 static_cast<unsigned long long>(lb.wait_ns),
                 static_cast<unsigned long long>(lb.bytes),
                 lb.cross_node ? 1 : 0);
  for (const PhaseBlame& pb : rep.phases)
    std::fprintf(f, "phase,%d,%d,%llu,%s\n", pb.rank, pb.phase,
                 static_cast<unsigned long long>(pb.wait_ns),
                 wait_class_name(pb.dominant_class));
  for (const PathSegment& seg : rep.path)
    std::fprintf(f, "path,%d,%.9f,%.9f,%d,%d\n", seg.rank, seg.t0, seg.t1,
                 seg.via_peer, seg.tombstoned ? 1 : 0);
  std::fclose(f);
  return true;
}

}  // namespace mpim::critpath
