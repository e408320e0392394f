// Offline report renderers shared by the profview/monview binaries and the
// tools tests: each takes a file produced by the telemetry exporters, the
// introspection snapshot layer or MPI_M_rootflush and renders a
// human-readable report to `os`.
// All readers parse strictly and throw mpim::Error on malformed input
// (missing file, bad header, truncated row, non-numeric or NaN cell).
#pragma once

#include <iosfwd>
#include <string>

namespace mpim::tools {

/// Renders a rootflush matrix file (tools::read_matrix_profile): order,
/// total volume, heaviest pair, density, the missing rows of contributors
/// the gather lost, and a per-sender table of the other rows.
void report_matrix(const std::string& path, std::ostream& os);

/// Renders the metric,kind,rank,field,value CSV written by
/// telemetry::write_metrics_csv: a scalar rollup (totals + busiest rank)
/// and a merged bucket table for each histogram.
void report_metrics(const std::string& path, std::ostream& os);

/// Renders the rank,name,cat,depth,t0_s,t1_s,a,b CSV written by
/// telemetry::write_spans_csv as a per-name duration rollup. Unlike the
/// other readers this one degrades gracefully: spans are the report's
/// optional second half, so an absent file or a bad header renders a note
/// instead of throwing, and a truncated/malformed row renders everything
/// parsed up to it plus a truncation note (a crash mid-write must not take
/// the metrics report down with it).
void report_spans(const std::string& path, std::ostream& os);

/// Renders the sectioned CSV written by critpath::Profiler::write_csv: a
/// blame summary, the per-rank blame shares, the hottest links, a
/// per-phase blame table and the extracted critical path as a rank x time
/// lane diagram.
void report_critpath(const std::string& path, std::ostream& os);

/// Renders a frames CSV written by introspect::write_frames_csv as a
/// time-resolved view: a per-window metric table (messages, bytes, load
/// imbalance, inter-window distances, phase-boundary markers) followed by
/// a text heatmap of the heaviest sender->receiver pairs over the windows.
void report_timeline(const std::string& path, std::ostream& os);

}  // namespace mpim::tools
