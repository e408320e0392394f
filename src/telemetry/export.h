// Exporters for a Hub's telemetry: Chrome trace-event JSON (loadable in
// chrome://tracing / Perfetto) and per-rank CSV files. All readers; call
// them after (or between) runs.
#pragma once

#include <iosfwd>
#include <string>

#include "telemetry/hub.h"

namespace mpim::telemetry {

/// Chrome trace-event JSON: one complete ("ph":"X") event per recorded
/// span, pid 0, tid = world rank, timestamps in microseconds of virtual
/// time. Top-level "otherData" carries the merged metric totals.
void write_chrome_trace(const Hub& hub, std::ostream& os);
void write_chrome_trace_file(const Hub& hub, const std::string& path);

/// Per-rank metrics CSV with columns metric,kind,rank,field,value.
/// Counters/gauges emit one `value` row per rank; histograms emit one
/// `le=<bound>` row per bucket (`le=inf` for overflow) plus a `count` row.
void write_metrics_csv(const Hub& hub, std::ostream& os);
void write_metrics_csv_file(const Hub& hub, const std::string& path);

/// Per-rank span CSV with columns rank,name,cat,depth,t0_s,t1_s,a,b.
void write_spans_csv(const Hub& hub, std::ostream& os);
void write_spans_csv_file(const Hub& hub, const std::string& path);

}  // namespace mpim::telemetry
