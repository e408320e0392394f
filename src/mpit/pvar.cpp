#include "mpit/pvar.h"

#include <array>

namespace mpim::mpit {

namespace {

// Names follow the Open MPI monitoring components (pml_monitoring for
// point-to-point, coll_monitoring and osc_monitoring for the others).
// Indices 0..5 are load-bearing: mpimon binds them positionally
// (mpi_monitoring.cpp), so telemetry pvars are strictly appended.
// Telemetry names must match the registry catalog in telemetry/hub.cpp:
// handle_alloc resolves the backing metric by this exact name.
constexpr mpi::CommKind kTele = mpi::CommKind::tool;  // class marker only
constexpr std::array<PvarInfo, 56> kPvars{{
    {"pml_monitoring_messages_count",
     "number of point-to-point messages sent per peer",
     mpi::CommKind::p2p, false, PvarClass::peer_monitoring},
    {"pml_monitoring_messages_size",
     "cumulated bytes of point-to-point messages sent per peer",
     mpi::CommKind::p2p, true, PvarClass::peer_monitoring},
    {"coll_monitoring_messages_count",
     "number of collective-internal messages sent per peer",
     mpi::CommKind::coll, false, PvarClass::peer_monitoring},
    {"coll_monitoring_messages_size",
     "cumulated bytes of collective-internal messages sent per peer",
     mpi::CommKind::coll, true, PvarClass::peer_monitoring},
    {"osc_monitoring_messages_count",
     "number of one-sided messages sent per peer",
     mpi::CommKind::osc, false, PvarClass::peer_monitoring},
    {"osc_monitoring_messages_size",
     "cumulated bytes of one-sided messages sent per peer",
     mpi::CommKind::osc, true, PvarClass::peer_monitoring},
    // --- telemetry re-exports (rank-local scalars), appended PR 2 ---
    {"mpim_engine_messages_total", "messages sent by the calling rank",
     kTele, false, PvarClass::telemetry},
    {"mpim_engine_bytes_total", "payload bytes sent by the calling rank",
     kTele, true, PvarClass::telemetry},
    {"mpim_engine_inbox_depth",
     "deliveries observed by the pending-op depth histogram",
     kTele, false, PvarClass::telemetry},
    {"mpim_engine_match_seconds",
     "receives observed by the match-latency histogram",
     kTele, false, PvarClass::telemetry},
    {"mpim_engine_message_bytes",
     "sends observed by the message-size histogram",
     kTele, false, PvarClass::telemetry},
    {"mpim_fault_retransmits_total", "retransmit attempts (extra sends)",
     kTele, false, PvarClass::telemetry},
    {"mpim_fault_drops_total", "on-wire transmissions dropped",
     kTele, false, PvarClass::telemetry},
    {"mpim_fault_messages_lost_total",
     "messages lost after exhausting retransmits",
     kTele, false, PvarClass::telemetry},
    {"mpim_fault_backoff_ns_total",
     "retransmit backoff charged, virtual ns",
     kTele, true, PvarClass::telemetry},
    {"mpim_fault_stalls_total", "rank stall faults taken",
     kTele, false, PvarClass::telemetry},
    {"mpim_fault_crashes_total", "rank crash faults taken",
     kTele, false, PvarClass::telemetry},
    {"mpim_mon_session_starts_total", "monitoring sessions started",
     kTele, false, PvarClass::telemetry},
    {"mpim_mon_session_suspends_total", "monitoring session suspends",
     kTele, false, PvarClass::telemetry},
    {"mpim_mon_session_resets_total", "monitoring session resets",
     kTele, false, PvarClass::telemetry},
    {"mpim_mon_gather_timeouts_total",
     "failure-aware gather receives that timed out",
     kTele, false, PvarClass::telemetry},
    {"mpim_mon_partial_data_total", "MPI_M_PARTIAL_DATA returns",
     kTele, false, PvarClass::telemetry},
    {"mpim_reorder_treematch_ns_total", "TreeMatch CPU time, ns",
     kTele, true, PvarClass::telemetry},
    {"mpim_reorder_applied_total", "TreeMatch permutation decisions applied",
     kTele, false, PvarClass::telemetry},
    {"mpim_reorder_identity_fallback_total",
     "identity permutation fallbacks",
     kTele, false, PvarClass::telemetry},
    // --- introspection snapshot analytics, appended PR 3 ---
    {"mpim_introspect_snapshot_starts_total", "MPI_M_snapshot_start calls",
     kTele, false, PvarClass::telemetry},
    {"mpim_introspect_frames_total", "snapshot frames closed",
     kTele, false, PvarClass::telemetry},
    {"mpim_introspect_frames_dropped_total",
     "snapshot frames evicted from the bounded ring",
     kTele, false, PvarClass::telemetry},
    {"mpim_introspect_phase_boundaries_total",
     "communication phase boundaries detected",
     kTele, false, PvarClass::telemetry},
    {"mpim_introspect_load_imbalance_milli",
     "send-byte load imbalance (max/mean) x1000",
     kTele, false, PvarClass::telemetry},
    {"mpim_introspect_neighbor_fraction_milli",
     "fraction of bytes between deepest-level neighbors x1000",
     kTele, false, PvarClass::telemetry},
    {"mpim_introspect_mismatch_byte_hops",
     "topology mismatch cost: bytes x fabric hop distance",
     kTele, true, PvarClass::telemetry},
    {"mpim_introspect_treematch_gain_milli",
     "estimated TreeMatch cost reduction x1000",
     kTele, false, PvarClass::telemetry},
    // --- fault recovery + degradation governor, appended PR 6 ---
    {"mpim_mon_rebinds_total",
     "monitoring sessions rebound onto a shrunk communicator",
     kTele, false, PvarClass::telemetry},
    {"mpim_mon_dead_skips_total",
     "failure-aware gather receives whose peer was dead",
     kTele, false, PvarClass::telemetry},
    {"mpim_governor_shed_steps_total",
     "degradation governor fidelity-shedding steps taken",
     kTele, false, PvarClass::telemetry},
    {"mpim_governor_refusals_total",
     "monitoring reservations refused at maximum shedding",
     kTele, false, PvarClass::telemetry},
    {"mpim_governor_overhead_alarms_total",
     "sessions whose modeled overhead exceeded MPIM_OVERHEAD_PCT",
     kTele, false, PvarClass::telemetry},
    {"mpim_governor_shed_level",
     "current governor shed level (0 none .. 4 spans dropped)",
     kTele, false, PvarClass::telemetry},
    {"mpim_governor_mem_bytes",
     "monitoring-plane bytes accounted against MPIM_MEM_BUDGET_BYTES",
     kTele, true, PvarClass::telemetry},
    // --- streaming aggregation plane, appended PR 7 ---
    {"mpim_obsplane_events_total",
     "streaming-plane staged events drained into the store",
     kTele, false, PvarClass::telemetry},
    {"mpim_obsplane_drops_total",
     "streaming-plane staged events dropped under back-pressure",
     kTele, false, PvarClass::telemetry},
    {"mpim_obsplane_epochs_total",
     "streaming-plane epoch blocks emitted",
     kTele, false, PvarClass::telemetry},
    {"mpim_obsplane_findings_total",
     "cross-layer correlation findings emitted at run end",
     kTele, false, PvarClass::telemetry},
    {"mpim_obsplane_series",
     "live (rank, metric) series in the plane store",
     kTele, false, PvarClass::telemetry},
    {"mpim_obsplane_mem_bytes",
     "streaming-plane working-set bytes",
     kTele, true, PvarClass::telemetry},
    {"mpim_obsplane_window_merge",
     "epochs merged per store bucket (doubles per governor widen step)",
     kTele, false, PvarClass::telemetry},
    // --- causal critical-path profiler, appended PR 8 ---
    {"mpim_critpath_events_total",
     "happens-before events captured by the critical-path profiler",
     kTele, false, PvarClass::telemetry},
    {"mpim_critpath_events_dropped_total",
     "critpath events evicted from the bounded per-rank ring",
     kTele, false, PvarClass::telemetry},
    {"mpim_critpath_wait_ns_total",
     "classified wait time charged at receive completions, virtual ns",
     kTele, true, PvarClass::telemetry},
    {"mpim_critpath_late_sender_ns_total",
     "late-sender wait time, virtual ns",
     kTele, true, PvarClass::telemetry},
    {"mpim_critpath_late_receiver_ns_total",
     "late-receiver inbox dwell time, virtual ns",
     kTele, true, PvarClass::telemetry},
    {"mpim_critpath_wait_collective_ns_total",
     "wait-at-collective time, virtual ns",
     kTele, true, PvarClass::telemetry},
    {"mpim_critpath_root_imbalance_ns_total",
     "imbalance-at-root wait time, virtual ns",
     kTele, true, PvarClass::telemetry},
    {"mpim_critpath_extractions_total",
     "backward critical-path extractions completed",
     kTele, false, PvarClass::telemetry},
    {"mpim_critpath_blame_only",
     "1 when the governor refused event rings (accumulators only)",
     kTele, false, PvarClass::telemetry},
}};

}  // namespace

int pvar_get_num() { return static_cast<int>(kPvars.size()); }

const PvarInfo& pvar_info(int index) {
  if (index < 0 || index >= pvar_get_num())
    throw MpitError("pvar index out of range");
  return kPvars[static_cast<std::size_t>(index)];
}

int pvar_index_by_name(const std::string& name) {
  for (int i = 0; i < pvar_get_num(); ++i)
    if (name == kPvars[static_cast<std::size_t>(i)].name) return i;
  return -1;
}

}  // namespace mpim::mpit
