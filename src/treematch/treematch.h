// TreeMatch-style topology-aware process placement.
//
// Given the affinity between n processes and a hierarchical machine, find
// an assignment of processes to processing-unit slots that keeps heavily
// communicating processes under deep common ancestors. The implementation
// is a deterministic top-down recursive partitioner: at every tree vertex
// the processes are split into per-child groups (group sizes = child slot
// capacities) by greedy heaviest-edge agglomeration. Because the cost
// model only depends on the depth of the common ancestor, sibling subtrees
// are interchangeable and the greedy group->child assignment loses nothing.
//
// Divergence from upstream TreeMatch (Jeannot, Mercier, Tessier, TPDS'14)
// documented in DESIGN.md: the per-level k-partite group optimization is
// replaced by this greedy, which scales to the Table-1 orders (65 536) on
// sparse affinity graphs while keeping the same hierarchy-driven structure.
#pragma once

#include <vector>

#include "netmodel/cost_model.h"
#include "support/matrix.h"
#include "topo/topology.h"
#include "treematch/affinity.h"

namespace mpim::tm {

// Every form partitions against a locality hierarchy level by level. For a
// routed fabric pass Fabric::hierarchy(): its switch tiers and dragonfly
// groups are levels too, so heavy pairs land under shallow network routes,
// not just on the same node.

/// process -> leaf (processing unit) over the whole machine. Requires
/// n <= topo.num_leaves().
std::vector<int> treematch_leaves(const AffinityGraph& affinity,
                                  const topo::Topology& topo);

/// process -> slot index, where slot s is the processing unit
/// `slot_leaves[s]`. Requires n <= slot_leaves.size(). This is the
/// rank-reordering form: slots are the cores the job already occupies.
std::vector<int> treematch_slots(const AffinityGraph& affinity,
                                 const topo::Topology& topo,
                                 const std::vector<int>& slot_leaves);

/// Convenience overloads taking the raw monitored byte matrix.
std::vector<int> treematch_leaves(const CommMatrix& bytes,
                                  const topo::Topology& topo);
std::vector<int> treematch_slots(const CommMatrix& bytes,
                                 const topo::Topology& topo,
                                 const std::vector<int>& slot_leaves);

/// Modeled total cost of running pattern `bytes` when process i sits on
/// leaf `process_to_leaf[i]` -- the objective treematch reduces. Delegates
/// to net::CostModel::pattern_cost (route-aware on routed fabrics).
double mapping_cost(const CommMatrix& bytes,
                    const std::vector<int>& process_to_leaf,
                    const net::CostModel& cost);

/// Sparse form: never materializes the dense matrix (Table-1 orders).
/// Charges each undirected edge with half its symmetrized weight per
/// direction; equal to the dense objective on symmetric patterns up to
/// floating-point association.
double mapping_cost(const AffinityGraph& affinity,
                    const std::vector<int>& process_to_leaf,
                    const net::CostModel& cost);

}  // namespace mpim::tm
