// Fabric abstraction over the machine's network.
//
// A Fabric is the pair of (a) the locality *hierarchy* -- the balanced
// Topology tree TreeMatch partitions against and whose leaves are the
// processing units ranks are placed on -- and (b) the *network* between
// compute nodes: a set of directed links with link classes (NIC ports,
// fat-tree trunk tiers, dragonfly local/global cables) and a deterministic
// routing function enumerating the links every inter-node message
// traverses. The cost model (src/netmodel) attaches Hockney (alpha, beta)
// parameters per link class and the engine reserves per-link busy time
// along routes, so oversubscribed trunks and shared global links contend
// the way real fabrics do.
//
// Three implementations:
//   - TreeFabric: the historical balanced tree. One tx and one rx port per
//     node, every inter-node route is [tx(src), rx(dst)]; semantics (and
//     engine clocks) are bit-identical to the pre-fabric code.
//   - FatTreeFabric(k, l, osub): k-ary fat-tree with l switch levels,
//     `osub`:1 oversubscription (each switch has max(1, k/osub) parallel
//     uplinks per direction) and deterministic D-mod-k up-path selection.
//   - DragonflyFabric(a, g, h): 1D dragonfly, g groups of a routers with h
//     hosts and h global ports each, all-to-all global links between
//     groups; minimal routing by default, deterministic one-hop Valiant
//     when requested.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "topo/topology.h"

namespace mpim::topo {

enum class FabricKind { tree, fattree, dragonfly };

const char* fabric_kind_name(FabricKind kind);

/// Parsed form of a fabric selection string
/// ("tree" | "fattree:<k,l,osub>" | "dragonfly:<a,g,h>[,valiant]").
struct FabricSpec {
  FabricKind kind = FabricKind::tree;
  // fattree: k children per switch, l switch levels, osub:1 oversubscription
  int ft_k = 4;
  int ft_levels = 2;
  int ft_osub = 1;
  // dragonfly: a routers/group, g groups, h hosts (and global ports)/router
  int df_a = 4;
  int df_g = 9;
  int df_h = 2;
  bool df_valiant = false;
  // Intra-node shape shared by every fabric (the paper's dual-socket node).
  int sockets = 2;
  int cores = 12;

  bool operator==(const FabricSpec&) const = default;
  std::string describe() const;
};

/// Strict whole-string parse of a fabric selection (the MPIM_TOPO
/// grammar). Rejects unknown kinds, missing or extra
/// parameters, non-numeric / out-of-range values and dragonfly shapes
/// whose global links cannot reach every group (g - 1 > a * h). Returns
/// nullopt on garbage; callers log a warning and fall back to tree.
std::optional<FabricSpec> parse_fabric_spec(const std::string& text);

class Fabric {
 public:
  /// Longest route any implementation emits (dragonfly Valiant: 7 links).
  static constexpr int kMaxRouteLinks = 12;
  struct Route {
    int n = 0;
    int links[kMaxRouteLinks] = {};
  };

  virtual ~Fabric() = default;

  virtual FabricKind kind() const = 0;
  const FabricSpec& spec() const { return spec_; }

  /// The locality hierarchy: a balanced tree whose leaves are processing
  /// units. TreeMatch partitions against it level by level; placements
  /// index its leaves.
  const Topology& hierarchy() const { return hierarchy_; }
  int num_leaves() const { return hierarchy_.num_leaves(); }

  /// Hierarchy depth whose vertices are compute nodes (NIC domains).
  int node_level() const { return node_level_; }
  int num_nodes() const { return num_nodes_; }
  int node_of(int leaf) const {
    return hierarchy_.ancestor_index(leaf, node_level_);
  }
  bool same_node(int leaf_a, int leaf_b) const {
    return node_of(leaf_a) == node_of(leaf_b);
  }

  // --- links ---------------------------------------------------------------
  int num_links() const { return static_cast<int>(link_class_.size()); }
  int num_link_classes() const {
    return static_cast<int>(class_names_.size());
  }
  /// Classes [0, num_network_classes()) parametrize network links; the
  /// remaining classes are the intra-node locality levels (inter-socket,
  /// intra-socket, ..., same PU) in hierarchy order.
  int num_network_classes() const { return num_network_classes_; }
  const std::string& link_class_name(int cls) const;
  int link_class(int link) const;

  /// Per-class parameter index for a pair of leaves when a single class
  /// covers the whole path: always for same-node pairs (their intra
  /// class), and for *every* pair on a tree fabric (where it equals the
  /// common-ancestor depth, preserving the historical depth-indexed
  /// lookup). Returns -1 for inter-node pairs of routed fabrics; use
  /// route() there.
  int pair_class(int leaf_a, int leaf_b) const;

  /// True when pair_class() covers every pair (tree fabric): no route walk
  /// is needed to cost a transfer.
  bool single_class_paths() const { return kind() == FabricKind::tree; }

  // --- routing -------------------------------------------------------------
  /// Deterministic link sequence of an inter-node transfer, starting with
  /// the source node's NIC injection link and ending with the destination
  /// node's NIC delivery link. Empty for same-node pairs (no network).
  virtual void route(int leaf_src, int leaf_dst, Route* out) const = 0;

  /// Route used for distance and mismatch attribution: the *minimal* route
  /// even when the traffic policy detours (dragonfly Valiant), so
  /// hop_distance stays a metric (symmetric, triangle-bounded) and the
  /// mismatch analyzer measures placement quality, not routing policy.
  /// Identical to route() everywhere else.
  virtual void distance_route(int leaf_src, int leaf_dst, Route* out) const {
    route(leaf_src, leaf_dst, out);
  }

  /// Physical hop count between two leaves, the unit the introspection
  /// analyzer weighs bytes with. Same-node pairs keep the tree semantics
  /// 2 * (depth - common_ancestor_depth); inter-node pairs count the
  /// minimal-route links plus the PU-to-NIC legs on both ends. On a tree
  /// fabric this is exactly the historical Topology::hop_distance.
  int hop_distance(int leaf_a, int leaf_b) const;

  /// Locality class of a pair: the hierarchy common-ancestor depth
  /// (0 = only the machine root is shared, depth = same leaf).
  int locality(int leaf_a, int leaf_b) const {
    return hierarchy_.common_ancestor_depth(leaf_a, leaf_b);
  }

  std::string describe() const;

 protected:
  Fabric(FabricSpec spec, Topology hierarchy, int node_level,
         int num_network_classes, std::vector<std::string> network_class_names);

  /// Appends one link of class `cls`; returns its id. Ctors of subclasses
  /// enumerate their links through this.
  int add_link(int cls);

  FabricSpec spec_;
  Topology hierarchy_;
  int node_level_ = 1;
  int num_nodes_ = 1;
  int num_network_classes_ = 1;
  std::vector<std::string> class_names_;  ///< network classes then intra
  std::vector<int> link_class_;           ///< link id -> class
};

/// The historical balanced tree: link ids [0, N) are per-node tx (NIC
/// injection) ports, [N, 2N) per-node rx (delivery) ports; every
/// inter-node route is [tx(src_node), rx(dst_node)].
class TreeFabric final : public Fabric {
 public:
  explicit TreeFabric(Topology hierarchy);
  FabricKind kind() const override { return FabricKind::tree; }
  void route(int leaf_src, int leaf_dst, Route* out) const override;
};

/// k-ary fat-tree (XGFT) with `levels` switch stages above the nodes.
/// Nodes = k^levels, each with `sockets` x `cores` PUs. Tier-d trunks
/// (d = 1..levels-1, 1 nearest the root) have w = max(1, k/osub) parallel
/// links per direction per switch; the up-path picks parallel link
/// dst_node % w (D-mod-k), the down-path from the common ancestor is the
/// unique tree path with the same parallel index.
class FatTreeFabric final : public Fabric {
 public:
  FatTreeFabric(int k, int levels, int osub, int sockets = 2, int cores = 12);
  explicit FatTreeFabric(const FabricSpec& spec);
  FabricKind kind() const override { return FabricKind::fattree; }
  void route(int leaf_src, int leaf_dst, Route* out) const override;

 private:
  int node_tree_ancestor(int node, int d) const;  ///< node-tree vertex id
  int up_link(int d, int vertex, int parallel) const;
  int down_link(int d, int vertex, int parallel) const;

  int k_ = 4;
  int levels_ = 2;
  int width_ = 4;  ///< parallel trunk links per direction per switch
  std::vector<int> up_base_;    ///< per tier d (index d), 0 unused
  std::vector<int> down_base_;
};

/// 1D dragonfly: g groups of a routers; each router hosts h nodes and owns
/// h global ports; groups are connected all-to-all (g - 1 <= a * h
/// directed global links per group, global link o = (dst_g - src_g) mod g
/// - 1 attached to router o / h). Minimal routing (<= nic, local, global,
/// local, nic); with `valiant` a deterministic hash of the node pair picks
/// an intermediate group for one-hop Valiant spreading.
class DragonflyFabric final : public Fabric {
 public:
  DragonflyFabric(int a, int g, int h, bool valiant = false, int sockets = 2,
                  int cores = 12);
  explicit DragonflyFabric(const FabricSpec& spec);
  FabricKind kind() const override { return FabricKind::dragonfly; }
  void route(int leaf_src, int leaf_dst, Route* out) const override;
  /// Always minimal, Valiant or not (see Fabric::distance_route).
  void distance_route(int leaf_src, int leaf_dst, Route* out) const override;

 private:
  int local_link(int group, int from_router, int to_router) const;
  int global_link(int from_group, int to_group) const;
  int gateway_router(int from_group, int to_group) const;
  /// Router inside `to_group` where the from_group -> to_group global link
  /// lands (the owner of the reverse link under symmetric wiring).
  int landing_router(int from_group, int to_group) const;
  /// Appends the minimal route between two nodes (no NIC links).
  void minimal_between(int src_node, int dst_node, Route* out) const;

  int a_ = 4;
  int g_ = 9;
  int h_ = 2;
  bool valiant_ = false;
  int local_base_ = 0;
  int global_base_ = 0;
};

/// Builds the fabric a spec describes with at least `min_leaves`
/// processing units: tree grows its node count; fat-tree and dragonfly
/// have fixed node counts, so their cores-per-socket grows instead.
std::shared_ptr<const Fabric> make_fabric(const FabricSpec& spec,
                                          int min_leaves);

/// Wraps an existing balanced tree (the CostModel(Topology, params)
/// compatibility path).
std::shared_ptr<const Fabric> make_tree_fabric(Topology hierarchy);

}  // namespace mpim::topo
