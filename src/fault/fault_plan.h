// Deterministic fault injection for the virtual-time engine.
//
// A FaultPlan is a seeded description of everything that can go wrong on a
// run: per-link delay jitter, probabilistic message drop with sender
// retransmit/backoff, link-bandwidth degradation windows, rank crashes at a
// virtual time, and rank stalls/slowdowns. The engine consults the plan on
// every send and at every operation boundary, so faults are part of the
// simulated program, not of the host schedule.
//
// Determinism guarantee: every random draw is a pure function of
// (seed, src, dst, per-link message index, attempt). The per-link message
// index only advances on the sending rank's own thread (a rank's sends on a
// link are program-ordered), so the same seed and the same program produce
// bit-identical virtual clocks on every run, regardless of how the host
// scheduler interleaves rank threads.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

namespace mpim::fault {

inline constexpr double kNever = std::numeric_limits<double>::infinity();

/// Faults applied to messages on a directed link, in world-rank space.
/// src/dst of -1 are wildcards matching any rank; all matching entries are
/// applied in the order they were added.
struct LinkFault {
  int src = -1;
  int dst = -1;
  /// Uniform extra latency in [0, delay_jitter_s) per delivered message.
  double delay_jitter_s = 0.0;
  /// Per-attempt probability that a transmission is lost on the wire.
  double drop_prob = 0.0;
  /// Retransmissions the sender attempts after a loss before declaring the
  /// message lost for good.
  int max_retransmits = 8;
  /// Sender backoff before the first retransmission; doubles per attempt.
  double retransmit_backoff_s = 1.0e-6;
  /// Bandwidth degradation window: inside virtual [from, until) the
  /// serialization time of matching messages is multiplied by
  /// degrade_factor (e.g. 4.0 models a link at a quarter of its bandwidth).
  double degrade_from_s = 0.0;
  double degrade_until_s = 0.0;
  double degrade_factor = 1.0;
};

/// Faults applied to one rank (world-rank space; -1 matches every rank).
struct RankFault {
  int rank = -1;
  /// The rank dies the moment its virtual clock reaches this time.
  double crash_at_s = kNever;
  /// One-shot stall: the first time the clock crosses stall_at_s the rank
  /// pauses for stall_virtual_s of virtual time and (optionally)
  /// stall_wall_s of host wall time. The wall component exists so that
  /// wall-clock recovery timeouts (gather timeouts, watchdogs) have
  /// something real to race against; it never touches virtual clocks.
  double stall_at_s = kNever;
  double stall_virtual_s = 0.0;
  double stall_wall_s = 0.0;
  /// Multiplies every compute/advance duration of the rank (>= 1 slows).
  double slowdown = 1.0;
};

/// What the engine must do with one send. Produced by FaultPlan::on_send.
struct SendFaults {
  /// Extra virtual time the sender spends before the final transmission
  /// (retransmit backoffs). The engine additionally charges one
  /// serialization time per failed attempt.
  double sender_extra_s = 0.0;
  /// Extra one-way latency of the delivered message (delay jitter).
  double latency_extra_s = 0.0;
  /// Serialization-time multiplier (bandwidth degradation windows).
  double tx_scale = 1.0;
  /// Total transmission attempts (1 = delivered first try).
  int attempts = 1;
  /// All attempts were dropped: the message is never delivered.
  bool lost = false;
};

class FaultPlan {
 public:
  explicit FaultPlan(std::uint64_t seed) : seed_(seed) {}

  std::uint64_t seed() const { return seed_; }

  void add(const LinkFault& fault);
  void add(const RankFault& fault);

  const std::vector<LinkFault>& link_faults() const { return link_faults_; }

  /// True when the plan can make a receive fail: it crashes a rank, stalls
  /// one on the wall clock from a finite stall_at_s (a wall timeout can
  /// expire meanwhile) or drops messages. Under any other plan every
  /// message arrives; at most virtual time moves.
  bool can_fail_receives() const;

  // --- engine-facing interface ---------------------------------------------

  /// Resets the per-run state (message counters, one-shot stall flags).
  /// Called by Engine::run so repeated runs replay identical faults.
  void begin_run(int world_size);

  /// Consulted by the sending rank for every outgoing message. Mutates the
  /// (src, dst) message counter; must only be called from src's thread.
  SendFaults on_send(int src, int dst, std::size_t bytes, double now_s);

  /// Virtual time at which `rank` crashes; kNever when it does not.
  double crash_at(int rank) const;

  /// Compute-duration multiplier of `rank` (1.0 = nominal speed).
  double slowdown(int rank) const;

  /// One-shot stall: the first call with now_s >= stall_at_s returns true
  /// and the stall durations; later calls return false. Must only be
  /// called from the rank's own thread.
  bool take_stall(int rank, double now_s, double* virtual_s, double* wall_s);

 private:
  /// Deterministic uniform [0, 1) draw from the plan seed and a message
  /// identity (link, per-link index, attempt, stream discriminator).
  double draw(std::uint64_t a, std::uint64_t b, std::uint64_t c,
              std::uint64_t d) const;

  std::uint64_t seed_ = 0;
  std::vector<LinkFault> link_faults_;
  std::vector<RankFault> rank_faults_;

  int world_size_ = 0;
  std::vector<std::uint64_t> link_msg_index_;  ///< src * world_size + dst
  std::vector<std::uint8_t> stall_taken_;      ///< per rank, this run
};

}  // namespace mpim::fault
