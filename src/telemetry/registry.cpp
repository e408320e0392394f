#include "telemetry/registry.h"

#include <algorithm>

#include "support/error.h"

namespace mpim::telemetry {

Registry::Registry(int nranks) : nranks_(nranks) {
  check(nranks > 0, "telemetry::Registry needs at least one rank");
}

int Registry::define(MetricDesc d, std::size_t cells_per_rank) {
  check(!d.name.empty(), "telemetry metric needs a name");
  check(find(d.name) < 0, "telemetry metric redefined: " + d.name);
  Metric m;
  m.desc = std::move(d);
  m.cells_per_rank = cells_per_rank;
  m.rank_stride =
      (cells_per_rank + kCellsPerLine - 1) / kCellsPerLine * kCellsPerLine;
  const std::size_t total = m.rank_stride * static_cast<std::size_t>(nranks_);
  // Value-initialized: every cell starts at 0 (C++20 atomics hold T()).
  m.cells = std::make_unique<std::atomic<std::uint64_t>[]>(total);
  metrics_.push_back(std::move(m));
  return static_cast<int>(metrics_.size()) - 1;
}

int Registry::define_counter(std::string name, std::string help) {
  MetricDesc d;
  d.name = std::move(name);
  d.help = std::move(help);
  d.kind = MetricKind::counter;
  return define(std::move(d), 1);
}

int Registry::define_gauge(std::string name, std::string help) {
  MetricDesc d;
  d.name = std::move(name);
  d.help = std::move(help);
  d.kind = MetricKind::gauge;
  return define(std::move(d), 1);
}

int Registry::define_histogram(std::string name, std::string help,
                               std::vector<double> bounds) {
  check(!bounds.empty(), "histogram needs at least one bucket bound");
  check(std::is_sorted(bounds.begin(), bounds.end()),
        "histogram bounds must be ascending");
  MetricDesc d;
  d.name = std::move(name);
  d.help = std::move(help);
  d.kind = MetricKind::histogram;
  d.bounds = std::move(bounds);
  const std::size_t cells = d.bounds.size() + 1;  // + overflow
  return define(std::move(d), cells);
}

int Registry::find(std::string_view name) const {
  for (std::size_t i = 0; i < metrics_.size(); ++i)
    if (metrics_[i].desc.name == name) return static_cast<int>(i);
  return -1;
}

std::size_t Registry::check_id(int id) const {
  check(id >= 0 && id < metric_count(), "telemetry metric id out of range");
  return static_cast<std::size_t>(id);
}

std::atomic<std::uint64_t>& Registry::cell(int id, int rank,
                                           std::size_t idx) {
  const Metric& m = metrics_[check_id(id)];
  check(rank >= 0 && rank < nranks_, "telemetry rank out of range");
  return m.cells[static_cast<std::size_t>(rank) * m.rank_stride + idx];
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
  const Metric& m = metrics_[check_id(id)];
  const std::vector<double>& bounds = m.desc.bounds;
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
  const Metric& m = metrics_[check_id(id)];
  check(m.desc.kind == MetricKind::histogram, "not a histogram: " +
                                                  m.desc.name);
  HistView v;
  v.bounds = m.desc.bounds;
  v.buckets.resize(m.cells_per_rank);
  for (std::size_t i = 0; i < m.cells_per_rank; ++i) {
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
  const Metric& m = metrics_[check_id(id)];
  if (m.desc.kind == MetricKind::histogram) return histogram(id, rank).count;
  return counter_value(id, rank);
}

std::uint64_t Registry::scalar_total(int id) const {
  std::uint64_t sum = 0;
  for (int r = 0; r < nranks_; ++r) sum += scalar_value(id, r);
  return sum;
}

void Registry::reset() {
  for (Metric& m : metrics_) {
    const std::size_t total =
        m.rank_stride * static_cast<std::size_t>(nranks_);
    for (std::size_t i = 0; i < total; ++i)
      m.cells[i].store(0, std::memory_order_relaxed);
  }
}

}  // namespace mpim::telemetry
