#include "mpit/pvar.h"

#include <array>

#include "telemetry/catalog.h"

namespace mpim::mpit {

namespace {

constexpr int kPeerPvars = 6;

// Names follow the Open MPI monitoring components (pml_monitoring for
// point-to-point, coll_monitoring and osc_monitoring for the others).
// Indices 0..5 are load-bearing: mpimon binds them positionally
// (mpi_monitoring.cpp). The telemetry pvars follow, one per telemetry
// catalog row in catalog order; a telemetry handle reads its row's metric.
constexpr auto kPvars = [] {
  std::array<PvarInfo, kPeerPvars + telemetry::kPvarMetrics> t{{
      {"pml_monitoring_messages_count",
       "number of point-to-point messages sent per peer",
       mpi::CommKind::p2p, false},
      {"pml_monitoring_messages_size",
       "cumulated bytes of point-to-point messages sent per peer",
       mpi::CommKind::p2p, true},
      {"coll_monitoring_messages_count",
       "number of collective-internal messages sent per peer",
       mpi::CommKind::coll, false},
      {"coll_monitoring_messages_size",
       "cumulated bytes of collective-internal messages sent per peer",
       mpi::CommKind::coll, true},
      {"osc_monitoring_messages_count",
       "number of one-sided messages sent per peer", mpi::CommKind::osc,
       false},
      {"osc_monitoring_messages_size",
       "cumulated bytes of one-sided messages sent per peer",
       mpi::CommKind::osc, true},
  }};
  for (int m = 0; m < telemetry::kPvarMetrics; ++m) {
    const telemetry::MetricSpec& spec = telemetry::kCatalog[m];
    // Catalog strings view literals, so data() is NUL-terminated.
    t[static_cast<std::size_t>(kPeerPvars + m)] = {
        spec.name.data(), spec.help.data(), mpi::CommKind::tool,
        spec.is_size,     PvarClass::telemetry, m};
  }
  return t;
}();

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
