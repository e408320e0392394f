// Fixed-capacity per-rank ring buffer for trace records.
//
// Bounded memory is the point: a long run overwrites its oldest records
// instead of growing without bound (the failure mode of a post-mortem
// tracer), and the number of overwritten records is exposed as a drop
// counter so consumers know the trace is a suffix of the run.
//
// Concurrency contract: push() is only called by the owning rank's thread.
// Readers (snapshot, counters) are exact once the rank threads have been
// joined; a mid-run snapshot may miss or tear the record currently being
// overwritten, which is acceptable for monitoring reads.
//
// Slots are raw bytes that records are memcpy'd into and out of, so a new
// ring does not value-initialize capacity records it may never hold.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <type_traits>
#include <vector>

namespace mpim::telemetry {

template <typename T>
class Ring {
  static_assert(std::is_trivially_copyable_v<T>,
                "ring slots are raw bytes: records are memcpy'd in and out");

 public:
  explicit Ring(std::size_t capacity)
      : cap_(capacity == 0 ? 1 : capacity),
        buf_(std::make_unique_for_overwrite<std::byte[]>(cap_ * sizeof(T))),
        limit_(cap_) {}

  std::size_t capacity() const { return cap_; }

  /// Effective capacity: the backing store is never reallocated (push()
  /// runs lock-free on rank threads), but a degradation governor can lower
  /// the live-record cap at runtime. Records past the limit are treated as
  /// overwritten. Shrinking the limit mid-stream may briefly interleave
  /// stale slots into a concurrent snapshot -- acceptable for an advisory
  /// trace, and the next clear() resolves it. The limit must only come
  /// down between clear()s (the governor only sheds): raised after pushes,
  /// it would let snapshot() read slots no push has written.
  std::size_t limit() const {
    return std::min(limit_.load(std::memory_order_relaxed), cap_);
  }
  void set_limit(std::size_t n) {
    limit_.store(n == 0 ? 1 : n, std::memory_order_relaxed);
  }

  void push(const T& v) {
    const std::size_t cap = limit();
    const std::uint64_t n = pushed_.load(std::memory_order_relaxed);
    std::memcpy(slot(n % cap), &v, sizeof(T));
    pushed_.store(n + 1, std::memory_order_release);
  }

  /// Total records ever pushed (including overwritten ones).
  std::uint64_t pushed() const {
    return pushed_.load(std::memory_order_acquire);
  }

  /// Records lost to wraparound (oldest-first overwrite policy).
  std::uint64_t dropped() const {
    const std::uint64_t n = pushed();
    return n > limit() ? n - limit() : 0;
  }

  /// Records currently held.
  std::size_t size() const {
    return static_cast<std::size_t>(
        std::min<std::uint64_t>(pushed(), limit()));
  }

  /// Held records, oldest first.
  std::vector<T> snapshot() const {
    const std::uint64_t n = pushed();
    const std::size_t cap = limit();
    const std::size_t held = static_cast<std::size_t>(
        std::min<std::uint64_t>(n, cap));
    std::vector<T> out;
    out.reserve(held);
    const std::uint64_t first = n - held;
    for (std::uint64_t i = first; i < n; ++i) {
      T rec;
      std::memcpy(&rec, slot(i % cap), sizeof(T));
      out.push_back(rec);
    }
    return out;
  }

  void clear() { pushed_.store(0, std::memory_order_release); }

 private:
  std::byte* slot(std::uint64_t i) const {
    return buf_.get() + static_cast<std::size_t>(i) * sizeof(T);
  }

  std::size_t cap_;
  std::unique_ptr<std::byte[]> buf_;
  std::atomic<std::size_t> limit_;
  std::atomic<std::uint64_t> pushed_{0};
};

}  // namespace mpim::telemetry
