#include "mpimon/governor.h"

#include <algorithm>
#include <limits>
#include <memory>
#include <string>

#include "minimpi/engine.h"
#include "mpimon/critpath_attach.h"
#include "obsplane/plane.h"
#include "support/env.h"
#include "telemetry/hub.h"
#include "telemetry/log.h"

namespace mpim::mon {

using telemetry::Metric;

Governor& Governor::of(mpi::Engine& engine) {
  auto obj = engine.get_or_create_tool_object(
      "mpimon:governor",
      [&engine]() -> std::shared_ptr<void> {
        return std::make_shared<Governor>(engine);
      });
  return *std::static_pointer_cast<Governor>(obj);
}

Governor::Governor(mpi::Engine& engine) : engine_(engine) {
  const auto mem = support::env_positive_u64("MPIM_MEM_BUDGET_BYTES");
  if (mem.ok()) {
    mem_budget_ = mem.value;
  } else if (mem.invalid()) {
    telemetry::log(telemetry::LogLevel::warn, -1, "governor",
                   "ignoring invalid MPIM_MEM_BUDGET_BYTES=\"" + mem.raw +
                       "\" (want an integer > 0); budget disabled");
  }
  const auto pct = support::env_positive_double("MPIM_OVERHEAD_PCT");
  if (pct.ok()) {
    overhead_pct_ = pct.value;
  } else if (pct.invalid()) {
    telemetry::log(telemetry::LogLevel::warn, -1, "governor",
                   "ignoring invalid MPIM_OVERHEAD_PCT=\"" + pct.raw +
                       "\" (want a finite number > 0); budget disabled");
  }
  if (mem_budget_ == 0) return;
  // The span rings are the monitoring plane's standing allocation: charge
  // them up front at their effective capacity. A budget smaller than the
  // rings themselves starts the run already shedding.
  telemetry::Hub& hub = engine_.telemetry();
  std::lock_guard lock(mx_);
  span_accounted_ = static_cast<std::uint64_t>(hub.nranks()) *
                    hub.span_soft_capacity() * sizeof(telemetry::SpanRec);
  level_.store(span_accounted_, std::memory_order_relaxed);
  while (level_.load(std::memory_order_relaxed) > mem_budget_ &&
         shed_step_locked(0)) {
  }
  set_mem_gauge_locked();
}

void Governor::set_mem_gauge_locked() {
  telemetry::Hub& hub = engine_.telemetry();
  hub.gauge_set(Metric::gov_mem_bytes, 0,
                static_cast<std::int64_t>(
                    level_.load(std::memory_order_relaxed)));
}

bool Governor::shed_step_locked(int rank) {
  const int lvl = shed_level_.load(std::memory_order_relaxed);
  if (lvl >= 4) return false;
  const int next = lvl + 1;
  telemetry::Hub& hub = engine_.telemetry();
  std::string what;
  switch (next) {
    case 1:
      // Host-side only: new snapshots sample coarser windows. Existing
      // samplers keep their grid; virtual clocks are untouched.
      what = "widening snapshot windows x2 for new snapshots";
      break;
    case 2: {
      const std::size_t cap = hub.span_soft_capacity();
      const std::size_t half = std::max<std::size_t>(1, cap / 2);
      hub.set_span_soft_capacity(half);
      const std::uint64_t now_accounted =
          static_cast<std::uint64_t>(hub.nranks()) * half *
          sizeof(telemetry::SpanRec);
      const std::uint64_t freed =
          span_accounted_ > now_accounted ? span_accounted_ - now_accounted
                                          : 0;
      span_accounted_ = now_accounted;
      level_.fetch_sub(std::min(freed, level_.load(std::memory_order_relaxed)),
                       std::memory_order_relaxed);
      what = "halving telemetry span rings to " + std::to_string(half) +
             " records/rank";
      break;
    }
    case 3:
      // Streaming plane: double the epochs merged per store bucket. The
      // plane halves its bucket count on the spot and re-reports its
      // working-set gauge; a detached plane makes this step a cheap no-op
      // (the ladder still advances so level 4 stays the last resort).
      if (obsplane::Plane* plane = obsplane::Plane::attached(engine_)) {
        plane->widen_windows();
        what = "widening streaming-plane store windows to " +
               std::to_string(plane->window_merge()) + " epochs/bucket";
      } else {
        what = "widening streaming-plane store windows (no plane attached)";
      }
      break;
    case 4:
      hub.set_spans_suppressed(true);
      level_.fetch_sub(
          std::min(span_accounted_, level_.load(std::memory_order_relaxed)),
          std::memory_order_relaxed);
      span_accounted_ = 0;
      what = "dropping per-packet/collective span recording";
      break;
  }
  shed_level_.store(next, std::memory_order_relaxed);
  shed_steps_.fetch_add(1, std::memory_order_relaxed);
  hub.add(Metric::gov_shed_steps, rank);
  hub.gauge_set(Metric::gov_shed_level, 0, next);
  set_mem_gauge_locked();
  telemetry::log(telemetry::LogLevel::warn, rank, "governor",
                 "memory budget pressure (" +
                     std::to_string(level_.load(std::memory_order_relaxed)) +
                     "/" + std::to_string(mem_budget_) +
                     " bytes): shed level " + std::to_string(next) + ", " +
                     what);
  return true;
}

int Governor::reserve_frames(int rank, int want_frames,
                             std::uint64_t frame_bytes) {
  if (!mem_enabled() || want_frames <= 0 || frame_bytes == 0)
    return want_frames;
  const std::uint64_t need =
      static_cast<std::uint64_t>(want_frames) * frame_bytes;
  std::lock_guard lock(mx_);
  while (level_.load(std::memory_order_relaxed) + need > mem_budget_ &&
         shed_step_locked(rank)) {
  }
  const std::uint64_t lvl = level_.load(std::memory_order_relaxed);
  const std::uint64_t room = mem_budget_ > lvl ? mem_budget_ - lvl : 0;
  const int granted = static_cast<int>(std::min<std::uint64_t>(
      static_cast<std::uint64_t>(want_frames), room / frame_bytes));
  if (granted <= 0) {
    refusals_.fetch_add(1, std::memory_order_relaxed);
    telemetry::Hub& hub = engine_.telemetry();
    hub.add(Metric::gov_refusals, rank);
    telemetry::log(telemetry::LogLevel::warn, rank, "governor",
                   "snapshot reservation refused: budget exhausted at "
                   "maximum shedding");
    return 0;
  }
  level_.fetch_add(static_cast<std::uint64_t>(granted) * frame_bytes,
                   std::memory_order_relaxed);
  set_mem_gauge_locked();
  if (granted < want_frames)
    telemetry::log(telemetry::LogLevel::warn, rank, "governor",
                   "snapshot frame reservation trimmed " +
                       std::to_string(want_frames) + " -> " +
                       std::to_string(granted) + " frames");
  return granted;
}

void Governor::release(std::uint64_t bytes) {
  if (!mem_enabled() || bytes == 0) return;
  std::lock_guard lock(mx_);
  level_.fetch_sub(std::min(bytes, level_.load(std::memory_order_relaxed)),
                   std::memory_order_relaxed);
  set_mem_gauge_locked();
}

void Governor::report_overhead(int rank, double overhead_s, double span_s) {
  if (overhead_pct_ <= 0.0 || !(span_s > 0.0)) return;
  const double pct = 100.0 * overhead_s / span_s;
  if (pct <= overhead_pct_) return;
  overhead_alarms_.fetch_add(1, std::memory_order_relaxed);
  telemetry::Hub& hub = engine_.telemetry();
  hub.add(Metric::gov_overhead_alarms, rank);
  telemetry::log(
      telemetry::LogLevel::warn, rank, "governor",
      "modeled monitoring overhead " + std::to_string(pct) +
          "% exceeds MPIM_OVERHEAD_PCT=" + std::to_string(overhead_pct_) +
          "; widening snapshot windows (virtual cost already modeled is "
          "never un-charged: clocks stay deterministic)");
  std::lock_guard lock(mx_);
  if (shed_level_.load(std::memory_order_relaxed) < 1) shed_step_locked(rank);
}

std::shared_ptr<critpath::Profiler> attach_critpath(mpi::Engine& engine,
                                                    critpath::Config cfg) {
  if (!cfg.reserve) {
    mpi::Engine* e = &engine;
    cfg.reserve = [e](std::size_t want_frames,
                      std::uint64_t frame_bytes) -> std::size_t {
      constexpr std::size_t kIntMax =
          static_cast<std::size_t>(std::numeric_limits<int>::max());
      const int want =
          static_cast<int>(std::min(want_frames, kIntMax));
      const int granted = Governor::of(*e).reserve_frames(0, want, frame_bytes);
      return granted > 0 ? static_cast<std::size_t>(granted) : 0;
    };
  }
  return critpath::Profiler::attach(engine, std::move(cfg));
}

}  // namespace mpim::mon
