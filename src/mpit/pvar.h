// MPI Tool Information Interface (MPI_T) performance-variable registry.
//
// Mirrors the pvars the Open MPI pml/coll/osc monitoring components export
// (Bosilca et al., EuroPar'17): per-peer message counts and cumulated sizes
// for each traffic class. The introspection library (mpimon) is written
// against this interface only -- porting it to another runtime means
// reimplementing this file's backend, which is the portability argument the
// paper closes with.
#pragma once

#include <string>

#include "minimpi/types.h"
#include "support/error.h"

namespace mpim::mpit {

/// Raised on MPI_T-level misuse (bad handle, wrong state...). The mpimon
/// layer maps it to MPI_M_MPIT_FAIL.
class MpitError : public Error {
 public:
  explicit MpitError(const std::string& what) : Error(what) {}
};

/// What backs a pvar. `peer_monitoring` pvars are the original six
/// per-peer message count/size arrays accumulated by the send record;
/// `telemetry` pvars are rank-local scalars read through from the engine's
/// telemetry registry (src/telemetry/) -- same portable MPI_T front, a
/// different backend.
enum class PvarClass { peer_monitoring, telemetry };

struct PvarInfo {
  const char* name = nullptr;
  const char* description = nullptr;
  mpi::CommKind kind = mpi::CommKind::tool;  ///< peer class's traffic class
  bool is_size = false;  ///< false: message count, true: cumulated bytes/ns
  PvarClass klass = PvarClass::peer_monitoring;
  int metric = -1;  ///< telemetry class: backing registry metric id
};

/// Fixed registry, indexed 0..pvar_get_num()-1. Indices are stable across
/// releases: the original peer-monitoring pvars keep indices 0..5, and the
/// telemetry pvars 6.. are the telemetry catalog's rows in order
/// (telemetry/catalog.h), which are only ever appended.
int pvar_get_num();
const PvarInfo& pvar_info(int index);
/// -1 when unknown (MPI_T_ERR_INVALID_NAME equivalent).
int pvar_index_by_name(const std::string& name);

}  // namespace mpim::mpit
