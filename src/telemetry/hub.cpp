#include "telemetry/hub.h"

#include <algorithm>
#include <cstring>

#include "support/error.h"

namespace mpim::telemetry {

namespace {

void copy_name(char* dst, const char* src) {
  std::size_t i = 0;
  for (; i + 1 < SpanRec::kNameCap && src[i] != '\0'; ++i) dst[i] = src[i];
  dst[i] = '\0';
}

}  // namespace

Hub::Hub(int nranks, std::size_t span_capacity)
    : nranks_(nranks),
      span_capacity_(span_capacity == 0 ? 1 : span_capacity),
      span_soft_capacity_(span_capacity == 0 ? 1 : span_capacity),
      registry_(nranks),
      spans_(static_cast<std::size_t>(nranks)) {
  Registry& reg = registry_;
  // Latency buckets in virtual seconds; size buckets in bytes. The edges
  // are fixed so per-rank shards merge by plain bucket-wise addition.
  const std::vector<double> lat_bounds = {1e-7, 1e-6, 1e-5, 1e-4,
                                          1e-3, 1e-2, 1e-1};
  const std::vector<double> size_bounds = {64,      1024,      16 * 1024,
                                           262144,  4194304};
  const std::vector<double> depth_bounds = {1, 2, 4, 8, 16, 64};

  ids_.engine_messages =
      reg.define_counter("mpim_engine_messages_total", "messages sent");
  ids_.engine_bytes =
      reg.define_counter("mpim_engine_bytes_total", "payload bytes sent");
  ids_.engine_inbox_depth = reg.define_histogram(
      "mpim_engine_inbox_depth", "pending-op queue depth at delivery",
      depth_bounds);
  ids_.engine_match_s = reg.define_histogram(
      "mpim_engine_match_seconds", "arrival-to-match latency (virtual s)",
      lat_bounds);
  ids_.engine_msg_bytes = reg.define_histogram(
      "mpim_engine_message_bytes", "message payload size", size_bounds);
  ids_.engine_bytes_in_flight = reg.define_gauge(
      "mpim_engine_bytes_in_flight", "delivered but unmatched bytes");
  ids_.engine_direct_deliveries = reg.define_counter(
      "mpim_engine_direct_deliveries_total",
      "messages copied straight into a waiting receive's buffer");

  ids_.fault_retransmits = reg.define_counter(
      "mpim_fault_retransmits_total", "retransmit attempts (extra sends)");
  ids_.fault_drops = reg.define_counter(
      "mpim_fault_drops_total", "on-wire transmissions dropped");
  ids_.fault_lost = reg.define_counter(
      "mpim_fault_messages_lost_total",
      "messages lost after exhausting retransmits");
  ids_.fault_backoff_ns = reg.define_counter(
      "mpim_fault_backoff_ns_total", "retransmit backoff charged, virtual ns");
  ids_.fault_stalls = reg.define_counter(
      "mpim_fault_stalls_total", "rank stall faults taken");
  ids_.fault_crashes = reg.define_counter(
      "mpim_fault_crashes_total", "rank crash faults taken");

  ids_.mon_session_starts = reg.define_counter(
      "mpim_mon_session_starts_total", "MPI_M_start calls that began a session");
  ids_.mon_session_suspends = reg.define_counter(
      "mpim_mon_session_suspends_total", "monitoring session suspends");
  ids_.mon_session_resets = reg.define_counter(
      "mpim_mon_session_resets_total", "monitoring session resets");
  ids_.mon_gather_timeouts = reg.define_counter(
      "mpim_mon_gather_timeouts_total",
      "failure-aware gather receives that timed out");
  ids_.mon_partial_data = reg.define_counter(
      "mpim_mon_partial_data_total", "MPI_M_PARTIAL_DATA returns");
  ids_.mon_rebinds = reg.define_counter(
      "mpim_mon_rebinds_total",
      "monitoring sessions rebound onto a shrunk communicator");
  ids_.mon_dead_skips = reg.define_counter(
      "mpim_mon_dead_skips_total",
      "failure-aware gather receives whose peer was dead");
  ids_.gov_shed_steps = reg.define_counter(
      "mpim_governor_shed_steps_total",
      "degradation governor fidelity-shedding steps taken");
  ids_.gov_refusals = reg.define_counter(
      "mpim_governor_refusals_total",
      "monitoring reservations refused at maximum shedding");
  ids_.gov_overhead_alarms = reg.define_counter(
      "mpim_governor_overhead_alarms_total",
      "sessions whose modeled overhead exceeded MPIM_OVERHEAD_PCT");
  ids_.gov_shed_level = reg.define_gauge(
      "mpim_governor_shed_level",
      "current governor shed level (0 none .. 4 spans dropped)");
  ids_.gov_mem_bytes = reg.define_gauge(
      "mpim_governor_mem_bytes",
      "monitoring-plane bytes accounted against MPIM_MEM_BUDGET_BYTES");

  ids_.reorder_treematch_ns = reg.define_counter(
      "mpim_reorder_treematch_ns_total", "TreeMatch CPU time, ns");
  ids_.reorder_applied = reg.define_counter(
      "mpim_reorder_applied_total", "TreeMatch permutation decisions applied");
  ids_.reorder_identity = reg.define_counter(
      "mpim_reorder_identity_fallback_total", "identity permutation fallbacks");

  ids_.introspect_starts = reg.define_counter(
      "mpim_introspect_snapshot_starts_total", "MPI_M_snapshot_start calls");
  ids_.introspect_frames = reg.define_counter(
      "mpim_introspect_frames_total", "snapshot frames closed");
  ids_.introspect_frames_dropped = reg.define_counter(
      "mpim_introspect_frames_dropped_total",
      "snapshot frames evicted from the bounded ring");
  ids_.introspect_boundaries = reg.define_counter(
      "mpim_introspect_phase_boundaries_total",
      "communication phase boundaries detected");
  ids_.introspect_imbalance_milli = reg.define_gauge(
      "mpim_introspect_load_imbalance_milli",
      "send-byte load imbalance (max/mean) x1000, last analyzed window set");
  ids_.introspect_neighbor_milli = reg.define_gauge(
      "mpim_introspect_neighbor_fraction_milli",
      "fraction of bytes between deepest-level neighbors x1000");
  ids_.introspect_mismatch_hops = reg.define_gauge(
      "mpim_introspect_mismatch_byte_hops",
      "topology mismatch cost: bytes x fabric hop distance");
  ids_.introspect_gain_milli = reg.define_gauge(
      "mpim_introspect_treematch_gain_milli",
      "estimated TreeMatch cost reduction x1000");

  ids_.obsplane_events = reg.define_counter(
      "mpim_obsplane_events_total",
      "streaming-plane staged events drained into the store");
  ids_.obsplane_drops = reg.define_counter(
      "mpim_obsplane_drops_total",
      "streaming-plane staged events dropped under back-pressure");
  ids_.obsplane_epochs = reg.define_counter(
      "mpim_obsplane_epochs_total", "streaming-plane epoch blocks emitted");
  ids_.obsplane_findings = reg.define_counter(
      "mpim_obsplane_findings_total",
      "cross-layer correlation findings emitted at run end");
  ids_.obsplane_series = reg.define_gauge(
      "mpim_obsplane_series", "live (rank, metric) series in the plane store");
  ids_.obsplane_mem_bytes = reg.define_gauge(
      "mpim_obsplane_mem_bytes", "streaming-plane working-set bytes");
  ids_.obsplane_window_merge = reg.define_gauge(
      "mpim_obsplane_window_merge",
      "epochs merged per store bucket (doubles per governor widen step)");

  ids_.critpath_events = reg.define_counter(
      "mpim_critpath_events_total",
      "happens-before events captured by the critical-path profiler");
  ids_.critpath_dropped = reg.define_counter(
      "mpim_critpath_events_dropped_total",
      "critpath events evicted from the bounded per-rank ring");
  ids_.critpath_wait_ns = reg.define_counter(
      "mpim_critpath_wait_ns_total",
      "classified wait time charged at receive completions, virtual ns");
  ids_.critpath_late_sender_ns = reg.define_counter(
      "mpim_critpath_late_sender_ns_total",
      "late-sender wait time, virtual ns");
  ids_.critpath_late_receiver_ns = reg.define_counter(
      "mpim_critpath_late_receiver_ns_total",
      "late-receiver inbox dwell time, virtual ns");
  ids_.critpath_wait_collective_ns = reg.define_counter(
      "mpim_critpath_wait_collective_ns_total",
      "wait-at-collective time, virtual ns");
  ids_.critpath_root_imbalance_ns = reg.define_counter(
      "mpim_critpath_root_imbalance_ns_total",
      "imbalance-at-root wait time, virtual ns");
  ids_.critpath_extractions = reg.define_counter(
      "mpim_critpath_extractions_total",
      "backward critical-path extractions completed");
  ids_.critpath_blame_only = reg.define_gauge(
      "mpim_critpath_blame_only",
      "1 when the governor refused event rings (accumulators only)");
}

Hub::~Hub() {
  for (auto& slot : spans_) delete slot.load(std::memory_order_acquire);
}

Hub::RankSpans& Hub::ensure_rank_spans(int rank) {
  auto& slot = spans_[static_cast<std::size_t>(rank)];
  if (RankSpans* rs = slot.load(std::memory_order_acquire)) return *rs;
  std::lock_guard lock(spans_init_mutex_);
  if (RankSpans* rs = slot.load(std::memory_order_relaxed)) return *rs;
  auto rs = std::make_unique<RankSpans>(span_capacity_);
  // A ring born after a governor shed step honors the current soft cap.
  rs->ring.set_limit(span_soft_capacity_.load(std::memory_order_relaxed));
  RankSpans* raw = rs.release();
  slot.store(raw, std::memory_order_release);
  return *raw;
}

void Hub::set_span_soft_capacity(std::size_t cap) {
  const std::size_t clamped =
      std::min(cap == 0 ? std::size_t{1} : cap, span_capacity_);
  // Under the init mutex so a ring created concurrently either sees the new
  // cap at birth or is visible to this loop -- never neither.
  std::lock_guard lock(spans_init_mutex_);
  span_soft_capacity_.store(clamped, std::memory_order_relaxed);
  for (auto& slot : spans_)
    if (RankSpans* rs = slot.load(std::memory_order_acquire))
      rs->ring.set_limit(clamped);
}

bool Hub::span_begin(int rank, const char* name, char cat, double t_s) {
  if (!enabled() || spans_suppressed()) return false;
  check(rank >= 0 && rank < nranks_, "telemetry span rank out of range");
  RankSpans& rs = ensure_rank_spans(rank);
  if (rs.open_depth >= kMaxOpenSpans) return false;  // too deep: drop quietly
  OpenSpan& os = rs.open[rs.open_depth++];
  copy_name(os.name, name);
  os.cat = cat;
  os.t0_s = t_s;
  return true;
}

void Hub::span_end(int rank, double t_s, std::int64_t a, std::int64_t b) {
  check(rank >= 0 && rank < nranks_, "telemetry span rank out of range");
  RankSpans* rsp = rank_spans(rank);
  check(rsp != nullptr, "telemetry span_end without span_begin");
  RankSpans& rs = *rsp;
  check(rs.open_depth > 0, "telemetry span_end without span_begin");
  const OpenSpan& os = rs.open[--rs.open_depth];
  SpanRec rec;
  copy_name(rec.name, os.name);
  rec.cat = os.cat;
  rec.depth = static_cast<std::uint8_t>(rs.open_depth);
  rec.t0_s = os.t0_s;
  rec.t1_s = t_s;
  rec.a = a;
  rec.b = b;
  rs.ring.push(rec);
  if (span_sink_armed_.load(std::memory_order_acquire)) span_sink_(rank, rec);
}

void Hub::span_complete(int rank, const char* name, char cat, double t0_s,
                        double t1_s, std::int64_t a, std::int64_t b) {
  if (!enabled() || spans_suppressed()) return;
  check(rank >= 0 && rank < nranks_, "telemetry span rank out of range");
  RankSpans& rs = ensure_rank_spans(rank);
  SpanRec rec;
  copy_name(rec.name, name);
  rec.cat = cat;
  rec.depth = static_cast<std::uint8_t>(rs.open_depth);
  rec.t0_s = t0_s;
  rec.t1_s = t1_s;
  rec.a = a;
  rec.b = b;
  rs.ring.push(rec);
  if (span_sink_armed_.load(std::memory_order_acquire)) span_sink_(rank, rec);
}

std::vector<SpanRec> Hub::spans(int rank) const {
  check(rank >= 0 && rank < nranks_, "telemetry span rank out of range");
  const RankSpans* rs = rank_spans(rank);
  return rs != nullptr ? rs->ring.snapshot() : std::vector<SpanRec>{};
}

std::uint64_t Hub::spans_recorded() const {
  std::uint64_t n = 0;
  for (const auto& slot : spans_)
    if (const RankSpans* rs = slot.load(std::memory_order_acquire))
      n += rs->ring.pushed();
  return n;
}

std::uint64_t Hub::spans_dropped() const {
  std::uint64_t n = 0;
  for (const auto& slot : spans_)
    if (const RankSpans* rs = slot.load(std::memory_order_acquire))
      n += rs->ring.dropped();
  return n;
}

void Hub::reset() {
  registry_.reset();
  for (auto& slot : spans_) {
    if (RankSpans* rs = slot.load(std::memory_order_acquire)) {
      rs->ring.clear();
      rs->open_depth = 0;
    }
  }
}

}  // namespace mpim::telemetry
