#include "fault/fault_plan.h"

#include "support/error.h"
#include "support/rng.h"

namespace mpim::fault {

namespace {

bool link_matches(const LinkFault& f, int src, int dst) {
  return (f.src < 0 || f.src == src) && (f.dst < 0 || f.dst == dst);
}

bool rank_matches(const RankFault& f, int rank) {
  return f.rank < 0 || f.rank == rank;
}

}  // namespace

void FaultPlan::add(const LinkFault& fault) {
  check(fault.drop_prob >= 0.0 && fault.drop_prob < 1.0,
        "drop probability must be in [0, 1)");
  check(fault.delay_jitter_s >= 0.0, "negative delay jitter");
  check(fault.max_retransmits >= 0, "negative retransmit count");
  check(fault.retransmit_backoff_s >= 0.0, "negative retransmit backoff");
  check(fault.degrade_factor >= 1.0,
        "degrade factor must be >= 1 (a slowdown)");
  link_faults_.push_back(fault);
}

void FaultPlan::add(const RankFault& fault) {
  check(fault.crash_at_s >= 0.0, "crash time before the start of the run");
  check(fault.slowdown >= 1.0, "slowdown must be >= 1");
  check(fault.stall_virtual_s >= 0.0 && fault.stall_wall_s >= 0.0,
        "negative stall duration");
  rank_faults_.push_back(fault);
}

void FaultPlan::begin_run(int world_size) {
  check(world_size > 0, "fault plan needs a positive world size");
  world_size_ = world_size;
  link_msg_index_.assign(
      static_cast<std::size_t>(world_size) * static_cast<std::size_t>(world_size),
      0ull);
  stall_taken_.assign(static_cast<std::size_t>(world_size), 0);
}

double FaultPlan::draw(std::uint64_t a, std::uint64_t b, std::uint64_t c,
                       std::uint64_t d) const {
  std::uint64_t s = seed_ ^ (a * 0x9e3779b97f4a7c15ULL) ^
                    (b * 0xbf58476d1ce4e5b9ULL) ^ (c * 0x94d049bb133111ebULL) ^
                    (d * 0x2545f4914f6cdd1dULL);
  const std::uint64_t bits = splitmix64(s);
  return static_cast<double>(bits >> 11) * 0x1.0p-53;
}

SendFaults FaultPlan::on_send(int src, int dst, std::size_t /*bytes*/,
                              double now_s) {
  SendFaults out;
  if (link_faults_.empty()) return out;
  check(world_size_ > 0, "FaultPlan::begin_run not called");
  const std::size_t link = static_cast<std::size_t>(src) *
                               static_cast<std::size_t>(world_size_) +
                           static_cast<std::size_t>(dst);
  const std::uint64_t index = link_msg_index_[link]++;

  std::uint64_t stream = 0;  // distinct draw stream per fault entry
  for (const LinkFault& f : link_faults_) {
    ++stream;
    if (!link_matches(f, src, dst)) continue;
    if (f.delay_jitter_s > 0.0)
      out.latency_extra_s +=
          f.delay_jitter_s * draw(link, index, stream, /*attempt=*/0);
    if (f.degrade_factor > 1.0 && now_s >= f.degrade_from_s &&
        now_s < f.degrade_until_s)
      out.tx_scale *= f.degrade_factor;
    if (f.drop_prob > 0.0) {
      double backoff = f.retransmit_backoff_s;
      int attempt = 1;
      while (draw(link, index, stream, static_cast<std::uint64_t>(attempt)) <
             f.drop_prob) {
        if (attempt > f.max_retransmits) {
          out.lost = true;
          break;
        }
        out.sender_extra_s += backoff;
        backoff *= 2.0;
        ++attempt;
      }
      out.attempts += attempt - 1;
      if (out.lost) break;
    }
  }
  return out;
}

bool FaultPlan::can_fail_receives() const {
  for (const RankFault& f : rank_faults_)
    if (f.crash_at_s < kNever || (f.stall_at_s < kNever && f.stall_wall_s > 0))
      return true;
  for (const LinkFault& f : link_faults_)
    if (f.drop_prob > 0.0) return true;
  return false;
}

double FaultPlan::crash_at(int rank) const {
  double t = kNever;
  for (const RankFault& f : rank_faults_)
    if (rank_matches(f, rank) && f.crash_at_s < t) t = f.crash_at_s;
  return t;
}

double FaultPlan::slowdown(int rank) const {
  double s = 1.0;
  for (const RankFault& f : rank_faults_)
    if (rank_matches(f, rank)) s *= f.slowdown;
  return s;
}

bool FaultPlan::take_stall(int rank, double now_s, double* virtual_s,
                           double* wall_s) {
  *virtual_s = 0.0;
  *wall_s = 0.0;
  if (rank_faults_.empty()) return false;
  check(world_size_ > 0, "FaultPlan::begin_run not called");
  auto& taken = stall_taken_[static_cast<std::size_t>(rank)];
  if (taken) return false;
  bool hit = false;
  for (const RankFault& f : rank_faults_) {
    if (!rank_matches(f, rank) || now_s < f.stall_at_s) continue;
    *virtual_s += f.stall_virtual_s;
    *wall_s += f.stall_wall_s;
    hit = true;
  }
  if (hit) taken = 1;
  return hit;
}

}  // namespace mpim::fault
