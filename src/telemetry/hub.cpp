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
      registry_(kCatalog, nranks),
      spans_(static_cast<std::size_t>(nranks)) {}

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
