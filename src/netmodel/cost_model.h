// Hockney-style communication cost model over a network fabric.
//
// The cost of moving `m` bytes between two processing units is
//
//     T(m) = alpha(path) + m / beta(path)
//
// with one (alpha, beta) pair per *link class* of the fabric. On the
// historical balanced tree the classes are exactly the common-ancestor
// depths (inter-node, inter-socket, intra-socket, same PU) and the lookup
// is the original depth-indexed one, bit for bit. On routed fabrics
// (fat-tree, dragonfly) inter-node paths sum the per-hop latencies of
// their route and move at the rate of the slowest link class on the path;
// the engine reserves per-link busy time along the same route, so
// oversubscribed trunk and shared global links contend deterministically.
// Rank-reordering gains in the paper come entirely from the contrast
// between intra-node and inter-node parameters; the defaults are
// calibrated to a PlaFRIM-like machine (Omni-Path 100 Gb/s shared by 24
// ranks per node, dual-socket Haswell).
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "support/matrix.h"
#include "topo/fabric.h"
#include "topo/topology.h"

namespace mpim::net {

struct LinkParams {
  double alpha_s;        ///< latency in seconds
  double beta_bytes_s;   ///< bandwidth in bytes/second
};

/// Per-link charging schedule of one transfer, produced by
/// CostModel::route_plan and consumed by the engine's contention gate.
/// Link i is reserved at max(previous stage + gap_alpha_s[i], link free
/// time) for tx_s * drain_frac[i] seconds (scaled by the engine's port
/// rate); gap_alpha_s sums exactly to the path latency so an uncontended
/// contended_transfer arrives at start + alpha + tx, identical to the
/// uncontended formula.
struct RoutePlan {
  static constexpr int kMaxLinks = topo::Fabric::kMaxRouteLinks;
  int n = 0;
  int links[kMaxLinks] = {};
  double gap_alpha_s[kMaxLinks] = {};  ///< charged before link i; [0] unused
  double drain_frac[kMaxLinks] = {};   ///< link busy time = tx_s * frac
};

class CostModel {
 public:
  /// Balanced-tree compatibility form: `params[d]` applies when the
  /// deepest common ancestor is at depth d; must provide
  /// topology.depth() + 1 entries (the last one is "same PU", used for
  /// self-messages, essentially free). Wraps the topology in a TreeFabric;
  /// costs and engine clocks are bit-identical to the pre-fabric code.
  CostModel(topo::Topology topology, std::vector<LinkParams> params,
            double send_overhead_s = 4.0e-7);

  /// Fabric form: one (alpha, beta) pair per fabric link class
  /// (fabric->num_link_classes() entries, network classes first, then the
  /// intra-node locality classes).
  CostModel(std::shared_ptr<const topo::Fabric> fabric,
            std::vector<LinkParams> class_params,
            double send_overhead_s = 4.0e-7);

  /// PlaFRIM-like defaults for a cluster(nodes, 2, 12) topology:
  ///   inter-node  : alpha = 1.5 us, beta = 6.0 GB/s (single-flow; the NIC
  ///                 contention model of the engine shares it among flows)
  ///   inter-socket: alpha = 0.7 us, beta = 8.0 GB/s
  ///   intra-socket: alpha = 0.3 us, beta = 11  GB/s
  ///   same PU     : alpha = 0.05 us, beta = 20 GB/s
  static CostModel plafrim_like(int nodes, int sockets_per_node = 2,
                                int cores_per_socket = 12);

  /// Default parameters for any fabric, chosen so a single uncontended
  /// inter-node flow is comparable across fabrics (min path beta 6 GB/s,
  /// cross-fabric path alphas within ~1.1-2.2 us) and intra-node classes
  /// match plafrim_like. Trunk/global links run at the 12.5 GB/s wire rate
  /// so contention, not the single-flow cap, is what differs per fabric.
  static CostModel for_fabric(std::shared_ptr<const topo::Fabric> fabric,
                              double send_overhead_s = 4.0e-7);

  const topo::Topology& topology() const { return fabric_->hierarchy(); }
  const topo::Fabric& fabric() const { return *fabric_; }

  /// Total transfer time for `bytes` between leaves a and b (seconds):
  /// latency + serialization.
  double transfer_time(int leaf_a, int leaf_b, std::size_t bytes) const;

  /// Path latency: the class alpha on single-class paths (all tree pairs,
  /// same-node pairs everywhere), the sum of per-hop class alphas on
  /// routed inter-node paths.
  double latency(int leaf_a, int leaf_b) const;

  /// Serialization time bytes/beta: the time the *sender* stays busy
  /// pushing the message out (store-and-forward at the injection point).
  /// beta is the slowest link class on the path. Without this, a linear
  /// broadcast would pipeline for free and beat every tree algorithm.
  double serialization_time(int leaf_a, int leaf_b, std::size_t bytes) const;

  /// Time the *sender* stays busy per message (LogP "o"): after this it may
  /// issue the next send while the message is in flight.
  double send_overhead() const { return send_overhead_s_; }

  /// Parameters of pair class / link class `d`. On a tree fabric the class
  /// index is the common-ancestor depth, preserving the historical
  /// params_at_depth semantics.
  const LinkParams& params_at_depth(int d) const;

  /// Per-link charging schedule for an inter-node transfer (see RoutePlan).
  /// `alpha_total_s` is the full path latency to spread over the gaps
  /// (callers pass latency() plus any fault-plan extra).
  void route_plan(int leaf_src, int leaf_dst, double alpha_total_s,
                  RoutePlan* out) const;

  /// True iff the two leaves live on different nodes; such transfers are
  /// counted by the NIC counters and contend for network links.
  bool crosses_network(int leaf_a, int leaf_b) const;

  /// Static cost of a whole communication pattern: sum over i,j of
  /// T(matrix(i,j), path(place[i], place[j])). This is the objective
  /// TreeMatch-style reordering reduces (tm::mapping_cost delegates here);
  /// rows with no traffic are skipped without touching the cost tables.
  double pattern_cost(const mpim::Matrix<unsigned long>& bytes_matrix,
                      const topo::Placement& placement) const;

  /// First-order link-contention bound of a pattern: every inter-node
  /// entry drops its bytes on every link of its route, and the heaviest
  /// link must drain them at its class bandwidth,
  ///   max over links of link_bytes / beta(link class).
  /// On a tree fabric the links are per-node tx/rx ports and this is
  /// exactly the historical NIC bound. pattern_cost + nic_load_cost ranks
  /// mappings the way the contention-aware engine times them; the
  /// reordering uses it to decide whether a proposed permutation actually
  /// beats the current one.
  double nic_load_cost(const mpim::Matrix<unsigned long>& bytes_matrix,
                       const topo::Placement& placement) const;

  /// Max-min fair bandwidth-sharing bound (the simgrid flow-model shape):
  /// every non-zero inter-node entry is one flow over its route, link
  /// capacities are split max-min fair among the flows crossing them
  /// (progressive filling), and the pattern is charged the slowest flow's
  /// completion time bytes/rate. Unlike nic_load_cost this sees *which*
  /// flows share a link, so oversubscribed trunks and dragonfly global
  /// links separate mappings that the per-port bound ties.
  double flow_time_cost(const mpim::Matrix<unsigned long>& bytes_matrix,
                        const topo::Placement& placement) const;

 private:
  std::shared_ptr<const topo::Fabric> fabric_;
  std::vector<LinkParams> params_;  ///< one entry per fabric link class
  double send_overhead_s_;
};

}  // namespace mpim::net
