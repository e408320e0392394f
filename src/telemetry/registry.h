// Metrics registry: counters, gauges, fixed-bucket histograms.
//
// The metric list is fixed at construction (the engine's Hub passes the
// standard catalog, telemetry/catalog.h), so every cell lives in one
// rank-major block: a rank's cells for all metrics are contiguous and padded
// out to whole cache lines once per rank. Recording is lock-free: the hot
// path is a single relaxed fetch_add, and ranks never share a line. Reads
// merge the shards on demand; they are exact once rank threads are
// quiescent and monotone-approximate while they run.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "telemetry/catalog.h"

namespace mpim::telemetry {

class Registry {
 public:
  /// Metric id i is `metrics[i]`. Names must be non-empty and unique, and a
  /// histogram needs ascending bounds (an overflow bucket is appended). The
  /// specs are not copied: `metrics`, and the strings and bounds they view,
  /// must outlive the registry (the standard catalog is static).
  Registry(std::span<const MetricSpec> metrics, int nranks);

  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Metric id for `name`, or -1 if not in the list.
  int find(std::string_view name) const;
  int metric_count() const { return static_cast<int>(specs_.size()); }
  const MetricSpec& spec(int id) const { return specs_[check_id(id)]; }
  int nranks() const { return nranks_; }

  // --- hot path (relaxed atomics, callable from any thread) ---
  void add(int id, int rank, std::uint64_t v = 1);
  void gauge_add(int id, int rank, std::int64_t delta);
  void gauge_set(int id, int rank, std::int64_t v);
  void observe(int id, int rank, double v);

  // --- merge-on-read ---
  std::uint64_t counter_value(int id, int rank) const;
  std::uint64_t counter_total(int id) const;
  std::int64_t gauge_value(int id, int rank) const;
  std::int64_t gauge_total(int id) const;

  struct HistView {
    std::span<const double> bounds;      ///< upper edges (no overflow edge)
    std::vector<std::uint64_t> buckets;  ///< bounds.size() + 1 (overflow last)
    std::uint64_t count = 0;
  };
  HistView histogram(int id, int rank) const;
  HistView histogram_total(int id) const;

  /// Scalar view for exporters / pvar read-through: counter value, gauge
  /// value (two's-complement cast), or histogram observation count.
  std::uint64_t scalar_value(int id, int rank) const;
  std::uint64_t scalar_total(int id) const;

  void reset();

 private:
  static constexpr std::size_t kCellsPerLine = 8;
  struct alignas(kCellsPerLine * sizeof(std::uint64_t)) Line {
    std::atomic<std::uint64_t> cells[kCellsPerLine];
  };

  std::size_t check_id(int id) const;
  std::atomic<std::uint64_t>& cell(int id, int rank, std::size_t idx);
  const std::atomic<std::uint64_t>& cell(int id, int rank,
                                         std::size_t idx) const;

  std::span<const MetricSpec> specs_;
  int nranks_;
  /// first_cell_[id]: offset of metric id's first cell in a rank's block;
  /// first_cell_.back() is the cells used per rank.
  std::vector<std::size_t> first_cell_;
  std::size_t lines_per_rank_ = 0;
  /// nranks_ x lines_per_rank_ lines, rank-major, zero-initialized.
  std::unique_ptr<Line[]> lines_;
};

}  // namespace mpim::telemetry
