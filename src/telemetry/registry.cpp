#include "telemetry/registry.h"

#include <algorithm>
#include <string>

#include "support/error.h"

namespace mpim::telemetry {

Registry::Registry(std::span<const MetricSpec> metrics, int nranks)
    : specs_(metrics), nranks_(nranks) {
  check(nranks > 0, "telemetry::Registry needs at least one rank");
  first_cell_.reserve(specs_.size() + 1);
  std::size_t cells = 0;
  for (std::size_t i = 0; i < specs_.size(); ++i) {
    const MetricSpec& m = specs_[i];
    check(!m.name.empty(), "telemetry metric needs a name");
    for (std::size_t j = 0; j < i; ++j)
      if (specs_[j].name == m.name)
        fail("telemetry metric redefined: " + std::string(m.name));
    if (m.kind == MetricKind::histogram &&
        (m.bounds.empty() ||
         !std::is_sorted(m.bounds.begin(), m.bounds.end())))
      fail("histogram bounds must be non-empty and ascending: " +
           std::string(m.name));
    first_cell_.push_back(cells);
    cells += m.kind == MetricKind::histogram ? m.bounds.size() + 1 : 1;
  }
  first_cell_.push_back(cells);
  lines_per_rank_ = (cells + kCellsPerLine - 1) / kCellsPerLine;
  // Value-initialized: every cell starts at 0 (C++20 atomics hold T()).
  lines_ = std::make_unique<Line[]>(lines_per_rank_ *
                                    static_cast<std::size_t>(nranks_));
}

int Registry::find(std::string_view name) const {
  for (std::size_t i = 0; i < specs_.size(); ++i)
    if (specs_[i].name == name) return static_cast<int>(i);
  return -1;
}

std::size_t Registry::check_id(int id) const {
  check(id >= 0 && id < metric_count(), "telemetry metric id out of range");
  return static_cast<std::size_t>(id);
}

std::atomic<std::uint64_t>& Registry::cell(int id, int rank,
                                           std::size_t idx) {
  const std::size_t c = first_cell_[check_id(id)] + idx;
  check(rank >= 0 && rank < nranks_, "telemetry rank out of range");
  Line& line = lines_[static_cast<std::size_t>(rank) * lines_per_rank_ +
                      c / kCellsPerLine];
  return line.cells[c % kCellsPerLine];
}

const std::atomic<std::uint64_t>& Registry::cell(int id, int rank,
                                                 std::size_t idx) const {
  return const_cast<Registry*>(this)->cell(id, rank, idx);
}

void Registry::add(int id, int rank, std::uint64_t v) {
  cell(id, rank, 0).fetch_add(v, std::memory_order_relaxed);
}

void Registry::gauge_add(int id, int rank, std::int64_t delta) {
  cell(id, rank, 0).fetch_add(static_cast<std::uint64_t>(delta),
                              std::memory_order_relaxed);
}

void Registry::gauge_set(int id, int rank, std::int64_t v) {
  cell(id, rank, 0).store(static_cast<std::uint64_t>(v),
                          std::memory_order_relaxed);
}

void Registry::observe(int id, int rank, double v) {
  const std::span<const double> bounds = specs_[check_id(id)].bounds;
  std::size_t idx = bounds.size();  // overflow by default
  for (std::size_t i = 0; i < bounds.size(); ++i) {
    if (v <= bounds[i]) {
      idx = i;
      break;
    }
  }
  cell(id, rank, idx).fetch_add(1, std::memory_order_relaxed);
}

std::uint64_t Registry::counter_value(int id, int rank) const {
  return cell(id, rank, 0).load(std::memory_order_relaxed);
}

std::uint64_t Registry::counter_total(int id) const {
  std::uint64_t sum = 0;
  for (int r = 0; r < nranks_; ++r) sum += counter_value(id, r);
  return sum;
}

std::int64_t Registry::gauge_value(int id, int rank) const {
  return static_cast<std::int64_t>(
      cell(id, rank, 0).load(std::memory_order_relaxed));
}

std::int64_t Registry::gauge_total(int id) const {
  std::int64_t sum = 0;
  for (int r = 0; r < nranks_; ++r) sum += gauge_value(id, r);
  return sum;
}

Registry::HistView Registry::histogram(int id, int rank) const {
  const MetricSpec& m = spec(id);
  check(m.kind == MetricKind::histogram,
        "not a histogram: " + std::string(m.name));
  HistView v;
  v.bounds = m.bounds;
  v.buckets.resize(m.bounds.size() + 1);
  for (std::size_t i = 0; i < v.buckets.size(); ++i) {
    v.buckets[i] = cell(id, rank, i).load(std::memory_order_relaxed);
    v.count += v.buckets[i];
  }
  return v;
}

Registry::HistView Registry::histogram_total(int id) const {
  HistView total = histogram(id, 0);
  for (int r = 1; r < nranks_; ++r) {
    const HistView v = histogram(id, r);
    for (std::size_t i = 0; i < v.buckets.size(); ++i)
      total.buckets[i] += v.buckets[i];
    total.count += v.count;
  }
  return total;
}

std::uint64_t Registry::scalar_value(int id, int rank) const {
  if (spec(id).kind == MetricKind::histogram) return histogram(id, rank).count;
  return counter_value(id, rank);
}

std::uint64_t Registry::scalar_total(int id) const {
  std::uint64_t sum = 0;
  for (int r = 0; r < nranks_; ++r) sum += scalar_value(id, r);
  return sum;
}

void Registry::reset() {
  const std::size_t lines = lines_per_rank_ * static_cast<std::size_t>(nranks_);
  for (std::size_t l = 0; l < lines; ++l)
    for (std::atomic<std::uint64_t>& c : lines_[l].cells)
      c.store(0, std::memory_order_relaxed);
}

}  // namespace mpim::telemetry
