// The standard metric catalog: every metric the simulator records, in one
// table. The Hub builds its registry from it, mpit exports its first
// kPvarMetrics rows as MPI_T pvars 6.. (src/mpit/pvar.cpp), and the
// streaming plane names its slots by row key (src/obsplane/plane.cpp).
//
// Row order is the frozen MPI_T pvar order -- row i is pvar 6 + i -- so rows
// are only ever appended, and the registry-only rows (no pvar) come last.
// Every recording site names its metric with a compile-time id,
// `Metric::<key>`, so a misspelt id does not compile.
#pragma once

#include <cstdint>
#include <span>
#include <string_view>

namespace mpim::telemetry {

enum class MetricKind : std::uint8_t { counter, gauge, histogram };

struct MetricSpec {
  std::string_view key;   ///< short name: the `Metric` id, obsplane slot name
  std::string_view name;  ///< exported name: exporters and the MPI_T pvar
  MetricKind kind = MetricKind::counter;
  std::span<const double> bounds;  ///< histogram inclusive upper edges,
                                   ///< ascending; empty otherwise
  bool is_size = false;   ///< a magnitude (bytes, ns), not an event count
  std::string_view help;
};

// Histogram edges are fixed so per-rank shards merge by bucket-wise addition.
inline constexpr double kDepthBounds[] = {1, 2, 4, 8, 16, 64};
inline constexpr double kLatencyBounds[] = {1e-7, 1e-6, 1e-5, 1e-4,
                                            1e-3, 1e-2, 1e-1};  // virtual s
inline constexpr double kSizeBounds[] = {64, 1024, 16 * 1024, 262144,
                                         4194304};  // bytes

// X(key, exported name, kind, histogram bounds, is_size, help)
#define MPIM_METRIC_CATALOG(X)                                                 \
  /* pvars 6..10: engine internals */                                          \
  X(engine_messages, "mpim_engine_messages_total", counter, {}, false,         \
    "p2p/coll/osc messages sent")                                              \
  X(engine_bytes, "mpim_engine_bytes_total", counter, {}, true,                \
    "payload bytes sent")                                                      \
  X(engine_inbox_depth, "mpim_engine_inbox_depth", histogram, kDepthBounds,    \
    false, "pending-op queue depth at delivery")                               \
  X(engine_match_s, "mpim_engine_match_seconds", histogram, kLatencyBounds,    \
    false, "arrival-to-match latency (virtual s)")                             \
  X(engine_msg_bytes, "mpim_engine_message_bytes", histogram, kSizeBounds,     \
    false, "message payload size")                                             \
  /* pvars 11..16: fault-plan outcomes */                                      \
  X(fault_retransmits, "mpim_fault_retransmits_total", counter, {}, false,     \
    "retransmit attempts (extra sends)")                                       \
  X(fault_drops, "mpim_fault_drops_total", counter, {}, false,                 \
    "on-wire transmissions dropped")                                           \
  X(fault_lost, "mpim_fault_messages_lost_total", counter, {}, false,          \
    "messages lost after exhausting retransmits")                              \
  X(fault_backoff_ns, "mpim_fault_backoff_ns_total", counter, {}, true,        \
    "retransmit backoff charged, virtual ns")                                  \
  X(fault_stalls, "mpim_fault_stalls_total", counter, {}, false,               \
    "rank stall faults taken")                                                 \
  X(fault_crashes, "mpim_fault_crashes_total", counter, {}, false,             \
    "rank crash faults taken")                                                 \
  /* pvars 17..21: mpimon session lifecycle */                                 \
  X(mon_session_starts, "mpim_mon_session_starts_total", counter, {}, false,   \
    "MPI_M_start calls that began a session")                                  \
  X(mon_session_suspends, "mpim_mon_session_suspends_total", counter, {},      \
    false, "monitoring session suspends")                                      \
  X(mon_session_resets, "mpim_mon_session_resets_total", counter, {}, false,   \
    "monitoring session resets")                                               \
  X(mon_gather_timeouts, "mpim_mon_gather_timeouts_total", counter, {},        \
    false, "failure-aware gather receives that timed out")                     \
  X(mon_partial_data, "mpim_mon_partial_data_total", counter, {}, false,       \
    "MPI_M_PARTIAL_DATA returns")                                              \
  /* pvars 22..24: reorder decisions */                                        \
  X(reorder_treematch_ns, "mpim_reorder_treematch_ns_total", counter, {},      \
    true, "TreeMatch CPU time, ns")                                            \
  X(reorder_applied, "mpim_reorder_applied_total", counter, {}, false,         \
    "TreeMatch permutation decisions applied")                                 \
  X(reorder_identity, "mpim_reorder_identity_fallback_total", counter, {},     \
    false, "identity permutation fallbacks")                                   \
  /* pvars 25..32: introspection snapshots */                                  \
  X(introspect_starts, "mpim_introspect_snapshot_starts_total", counter, {},   \
    false, "MPI_M_snapshot_start calls")                                       \
  X(introspect_frames, "mpim_introspect_frames_total", counter, {}, false,     \
    "snapshot frames closed")                                                  \
  X(introspect_frames_dropped, "mpim_introspect_frames_dropped_total",         \
    counter, {}, false, "snapshot frames evicted from the bounded ring")       \
  X(introspect_boundaries, "mpim_introspect_phase_boundaries_total", counter,  \
    {}, false, "communication phase boundaries detected")                      \
  X(introspect_imbalance_milli, "mpim_introspect_load_imbalance_milli", gauge, \
    {}, false,                                                                 \
    "send-byte load imbalance (max/mean) x1000, last analyzed window set")     \
  X(introspect_neighbor_milli, "mpim_introspect_neighbor_fraction_milli",      \
    gauge, {}, false,                                                          \
    "fraction of bytes between deepest-level neighbors x1000")                 \
  X(introspect_mismatch_hops, "mpim_introspect_mismatch_byte_hops", gauge, {}, \
    true, "topology mismatch cost: bytes x fabric hop distance")               \
  X(introspect_gain_milli, "mpim_introspect_treematch_gain_milli", gauge, {},  \
    false, "estimated TreeMatch cost reduction x1000")                         \
  /* pvars 33..39: fault recovery and the degradation governor */              \
  X(mon_rebinds, "mpim_mon_rebinds_total", counter, {}, false,                 \
    "monitoring sessions rebound onto a shrunk communicator")                  \
  X(mon_dead_skips, "mpim_mon_dead_skips_total", counter, {}, false,           \
    "failure-aware gather receives whose peer was dead")                       \
  X(gov_shed_steps, "mpim_governor_shed_steps_total", counter, {}, false,      \
    "degradation governor fidelity-shedding steps taken")                      \
  X(gov_refusals, "mpim_governor_refusals_total", counter, {}, false,          \
    "monitoring reservations refused at maximum shedding")                     \
  X(gov_overhead_alarms, "mpim_governor_overhead_alarms_total", counter, {},   \
    false, "sessions whose modeled overhead exceeded MPIM_OVERHEAD_PCT")       \
  X(gov_shed_level, "mpim_governor_shed_level", gauge, {}, false,              \
    "current governor shed level (0 none .. 4 spans dropped)")                 \
  X(gov_mem_bytes, "mpim_governor_mem_bytes", gauge, {}, true,                 \
    "monitoring-plane bytes accounted against MPIM_MEM_BUDGET_BYTES")          \
  /* pvars 40..46: streaming aggregation plane */                              \
  X(obsplane_events, "mpim_obsplane_events_total", counter, {}, false,         \
    "streaming-plane staged events drained into the store")                    \
  X(obsplane_drops, "mpim_obsplane_drops_total", counter, {}, false,           \
    "streaming-plane staged events dropped under back-pressure")               \
  X(obsplane_epochs, "mpim_obsplane_epochs_total", counter, {}, false,         \
    "streaming-plane epoch blocks emitted")                                    \
  X(obsplane_findings, "mpim_obsplane_findings_total", counter, {}, false,     \
    "cross-layer correlation findings emitted at run end")                     \
  X(obsplane_series, "mpim_obsplane_series", gauge, {}, false,                 \
    "live (rank, metric) series in the plane store")                           \
  X(obsplane_mem_bytes, "mpim_obsplane_mem_bytes", gauge, {}, true,            \
    "streaming-plane working-set bytes")                                       \
  X(obsplane_window_merge, "mpim_obsplane_window_merge", gauge, {}, false,     \
    "epochs merged per store bucket (doubles per governor widen step)")        \
  /* pvars 47..55: causal critical-path profiler */                            \
  X(critpath_events, "mpim_critpath_events_total", counter, {}, false,         \
    "happens-before events captured by the critical-path profiler")            \
  X(critpath_dropped, "mpim_critpath_events_dropped_total", counter, {},       \
    false, "critpath events evicted from the bounded per-rank ring")           \
  X(critpath_wait_ns, "mpim_critpath_wait_ns_total", counter, {}, true,        \
    "classified wait time charged at receive completions, virtual ns")         \
  X(critpath_late_sender_ns, "mpim_critpath_late_sender_ns_total", counter,    \
    {}, true, "late-sender wait time, virtual ns")                             \
  X(critpath_late_receiver_ns, "mpim_critpath_late_receiver_ns_total",         \
    counter, {}, true, "late-receiver inbox dwell time, virtual ns")           \
  X(critpath_wait_collective_ns, "mpim_critpath_wait_collective_ns_total",     \
    counter, {}, true, "wait-at-collective time, virtual ns")                  \
  X(critpath_root_imbalance_ns, "mpim_critpath_root_imbalance_ns_total",       \
    counter, {}, true, "imbalance-at-root wait time, virtual ns")              \
  X(critpath_extractions, "mpim_critpath_extractions_total", counter, {},      \
    false, "backward critical-path extractions completed")                     \
  X(critpath_blame_only, "mpim_critpath_blame_only", gauge, {}, false,         \
    "1 when the governor refused event rings (accumulators only)")             \
  /* registry only, no pvar */                                                 \
  X(engine_bytes_in_flight, "mpim_engine_bytes_in_flight", gauge, {}, true,    \
    "delivered but unmatched bytes")                                           \
  X(engine_direct_deliveries, "mpim_engine_direct_deliveries_total", counter,  \
    {}, false, "messages copied straight into a waiting receive's buffer")

/// Compile-time ids of the catalog rows: `Metric::engine_messages` is row 0.
/// Unscoped so an id converts to the registry's int id; the enumerators live
/// in namespace `metric` so they do not leak into `telemetry`.
namespace metric {
enum Id : int {
#define MPIM_METRIC_ID(key, ...) key,
  MPIM_METRIC_CATALOG(MPIM_METRIC_ID)
#undef MPIM_METRIC_ID
};
}  // namespace metric
using Metric = metric::Id;

inline constexpr MetricSpec kCatalog[] = {
#define MPIM_METRIC_ROW(key, name, kind, bounds, is_size, help) \
  {#key, name, MetricKind::kind, bounds, is_size, help},
    MPIM_METRIC_CATALOG(MPIM_METRIC_ROW)
#undef MPIM_METRIC_ROW
};

/// Rows [0, kPvarMetrics) are MPI_T pvars 6..; the rows after are
/// registry-only.
inline constexpr int kPvarMetrics = Metric::engine_bytes_in_flight;

#undef MPIM_METRIC_CATALOG

}  // namespace mpim::telemetry
