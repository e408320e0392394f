#include "treematch/treematch.h"

#include <algorithm>
#include <limits>
#include <numeric>
#include <queue>
#include <unordered_map>

#include "support/error.h"

namespace mpim::tm {

namespace {

/// Greedy partition of the graph's vertices into groups of prescribed
/// sizes (sum >= vertex count; later groups may stay underfilled when the
/// vertices run out -- callers order sizes so that packing happens first).
/// Deterministic: ties break toward smaller vertex ids.
std::vector<std::vector<int>> greedy_partition(
    const AffinityGraph& g, const std::vector<int>& sizes) {
  const int n = static_cast<int>(g.size());
  std::vector<std::vector<int>> groups(sizes.size());

  std::vector<bool> grouped(static_cast<std::size_t>(n), false);
  int remaining = n;

  // Edges sorted by weight desc (ties: vertex ids asc) for seeding.
  std::vector<Edge> edges = g.edges();
  std::sort(edges.begin(), edges.end(), [](const Edge& a, const Edge& b) {
    if (a.w != b.w) return a.w > b.w;
    return a.u != b.u ? a.u < b.u : a.v < b.v;
  });
  std::size_t edge_cursor = 0;

  // Cursor over vertex ids for zero-affinity fill.
  int id_cursor = 0;
  auto next_free_id = [&] {
    while (id_cursor < n && grouped[static_cast<std::size_t>(id_cursor)])
      ++id_cursor;
    return id_cursor;
  };

  // Connection strength of each vertex to the group currently being grown,
  // with an epoch stamp so we never clear the whole array.
  std::vector<double> conn(static_cast<std::size_t>(n), 0.0);
  std::vector<int> conn_epoch(static_cast<std::size_t>(n), -1);
  int epoch = 0;

  for (std::size_t gi = 0; gi < sizes.size() && remaining > 0; ++gi) {
    const int target = std::min(sizes[gi], remaining);
    if (target <= 0) continue;
    std::vector<int>& group = groups[gi];
    group.reserve(static_cast<std::size_t>(target));
    ++epoch;

    // Max-heap of (conn, -id) with lazy invalidation.
    using HeapItem = std::pair<double, int>;  // (weight, -vertex)
    std::priority_queue<HeapItem> heap;

    auto add_member = [&](int u) {
      group.push_back(u);
      grouped[static_cast<std::size_t>(u)] = true;
      --remaining;
      for (const auto& [v, w] : g.neighbors(u)) {
        if (grouped[static_cast<std::size_t>(v)]) continue;
        auto vi = static_cast<std::size_t>(v);
        if (conn_epoch[vi] != epoch) {
          conn_epoch[vi] = epoch;
          conn[vi] = 0.0;
        }
        conn[vi] += w;
        heap.emplace(conn[vi], -v);
      }
    };

    // Seed with the heaviest edge both of whose endpoints are free.
    while (edge_cursor < edges.size()) {
      const Edge& e = edges[edge_cursor];
      if (!grouped[static_cast<std::size_t>(e.u)] &&
          !grouped[static_cast<std::size_t>(e.v)])
        break;
      ++edge_cursor;
    }
    if (target >= 2 && edge_cursor < edges.size()) {
      add_member(edges[edge_cursor].u);
      add_member(edges[edge_cursor].v);
    } else {
      add_member(next_free_id());
    }

    while (static_cast<int>(group.size()) < target && remaining > 0) {
      int pick = -1;
      while (!heap.empty()) {
        const auto [w, neg_v] = heap.top();
        const int v = -neg_v;
        const auto vi = static_cast<std::size_t>(v);
        if (grouped[vi] || conn_epoch[vi] != epoch || conn[vi] != w) {
          heap.pop();  // stale entry
          continue;
        }
        pick = v;
        heap.pop();
        break;
      }
      if (pick < 0) pick = next_free_id();
      add_member(pick);
    }
  }
  check(remaining == 0, "greedy_partition: slot capacities too small");
  return groups;
}

/// Kernighan-Lin refinement of one group pair. Exact for the hierarchical
/// objective: sibling subtrees are interchangeable under the cost model,
/// so only the cut *between* the two groups matters. Returns true if the
/// partition improved. Deterministic (ties resolve to smallest ids).
bool kl_refine_pair(const AffinityGraph& g, std::vector<int>& a,
                    std::vector<int>& b) {
  const int n = static_cast<int>(g.size());
  if (a.empty() || b.empty()) return false;

  // side[v]: 0 in a, 1 in b, -1 elsewhere; lock[v] marks swapped vertices.
  std::vector<signed char> side(static_cast<std::size_t>(n), -1);
  std::vector<bool> locked(static_cast<std::size_t>(n), false);
  for (int v : a) side[static_cast<std::size_t>(v)] = 0;
  for (int v : b) side[static_cast<std::size_t>(v)] = 1;

  // D[v] = external - internal connection of v w.r.t. the pair.
  std::vector<double> d(static_cast<std::size_t>(n), 0.0);
  // Pair-local weight lookup table (the KL inner loop is quadratic in the
  // group sizes; per-edge adjacency scans there would dominate).
  std::unordered_map<std::uint64_t, double> pair_weight;
  auto weight_key = [n](int u, int v) {
    return static_cast<std::uint64_t>(u) * static_cast<std::uint64_t>(n) +
           static_cast<std::uint64_t>(v);
  };
  auto fill_weights = [&](const std::vector<int>& verts) {
    for (int v : verts)
      for (const auto& [u, w] : g.neighbors(v))
        if (side[static_cast<std::size_t>(u)] >= 0)
          pair_weight.emplace(weight_key(v, u), w);
  };
  fill_weights(a);
  fill_weights(b);
  auto weight = [&](int u, int v) {
    const auto it = pair_weight.find(weight_key(u, v));
    return it == pair_weight.end() ? 0.0 : it->second;
  };
  for (int v : a)
    for (const auto& [u, w] : g.neighbors(v)) {
      if (side[static_cast<std::size_t>(u)] == 1) d[static_cast<std::size_t>(v)] += w;
      if (side[static_cast<std::size_t>(u)] == 0) d[static_cast<std::size_t>(v)] -= w;
    }
  for (int v : b)
    for (const auto& [u, w] : g.neighbors(v)) {
      if (side[static_cast<std::size_t>(u)] == 0) d[static_cast<std::size_t>(v)] += w;
      if (side[static_cast<std::size_t>(u)] == 1) d[static_cast<std::size_t>(v)] -= w;
    }

  struct Swap {
    int va, vb;
    double gain;
  };
  std::vector<Swap> sequence;
  const std::size_t steps = std::min(a.size(), b.size());
  double cumulative = 0.0, best_cum = 0.0;
  std::size_t best_len = 0;

  for (std::size_t step = 0; step < steps; ++step) {
    int best_a = -1, best_b = -1;
    double best_gain = -std::numeric_limits<double>::infinity();
    for (int va : a) {
      if (locked[static_cast<std::size_t>(va)]) continue;
      for (int vb : b) {
        if (locked[static_cast<std::size_t>(vb)]) continue;
        const double gain = d[static_cast<std::size_t>(va)] +
                            d[static_cast<std::size_t>(vb)] -
                            2.0 * weight(va, vb);
        if (gain > best_gain ||
            (gain == best_gain &&
             (va < best_a || (va == best_a && vb < best_b)))) {
          best_gain = gain;
          best_a = va;
          best_b = vb;
        }
      }
    }
    if (best_a < 0) break;
    locked[static_cast<std::size_t>(best_a)] = true;
    locked[static_cast<std::size_t>(best_b)] = true;
    sequence.push_back(Swap{best_a, best_b, best_gain});
    cumulative += best_gain;
    if (cumulative > best_cum + 1e-12) {
      best_cum = cumulative;
      best_len = sequence.size();
    }
    // Update D of unlocked vertices as if the swap were applied.
    for (const auto& [u, w] : g.neighbors(best_a)) {
      const auto ui = static_cast<std::size_t>(u);
      if (locked[ui] || side[ui] < 0) continue;
      d[ui] += (side[ui] == 0 ? 2.0 : -2.0) * w;
    }
    for (const auto& [u, w] : g.neighbors(best_b)) {
      const auto ui = static_cast<std::size_t>(u);
      if (locked[ui] || side[ui] < 0) continue;
      d[ui] += (side[ui] == 1 ? 2.0 : -2.0) * w;
    }
  }

  if (best_len == 0) return false;
  for (std::size_t i = 0; i < best_len; ++i) {
    auto ita = std::find(a.begin(), a.end(), sequence[i].va);
    auto itb = std::find(b.begin(), b.end(), sequence[i].vb);
    std::iter_swap(ita, itb);
  }
  return true;
}

/// Pairwise KL over all sibling groups until a fixed point (bounded number
/// of passes). Skipped for very wide partitions (Table-1 scale) where the
/// quadratic pair enumeration would dominate, and per pair when either
/// group is large (fat-tree pods hold hundreds of slots at np=4096; the
/// KL inner loop is cubic in group size); the greedy result stands there.
void kl_refine(const AffinityGraph& g, std::vector<std::vector<int>>& groups) {
  constexpr std::size_t kMaxGroupsForRefine = 64;
  constexpr std::size_t kMaxGroupSizeForRefine = 64;
  constexpr int kMaxPasses = 4;
  if (groups.size() > kMaxGroupsForRefine) return;
  for (int pass = 0; pass < kMaxPasses; ++pass) {
    bool improved = false;
    for (std::size_t i = 0; i < groups.size(); ++i)
      for (std::size_t j = i + 1; j < groups.size(); ++j) {
        if (groups[i].size() > kMaxGroupSizeForRefine ||
            groups[j].size() > kMaxGroupSizeForRefine)
          continue;
        improved |= kl_refine_pair(g, groups[i], groups[j]);
      }
    if (!improved) break;
  }
}

struct Slot {
  int index = 0;  ///< caller-visible slot id
  int leaf = 0;   ///< processing unit
};

/// Recursive top-down placement; objects carry their global process ids.
void solve(const AffinityGraph& graph, const std::vector<int>& object_ids,
           const std::vector<Slot>& slots, int depth,
           const topo::Topology& topo, std::vector<int>& out) {
  check(object_ids.size() <= slots.size(),
        "treematch: more processes than slots in subtree");
  if (object_ids.empty()) return;
  if (object_ids.size() == 1) {
    out[static_cast<std::size_t>(object_ids[0])] = slots[0].index;
    return;
  }
  check(depth < topo.depth(), "treematch: distinct processes on one leaf");

  // Split the (leaf-sorted) slots by their depth+1 ancestor.
  struct Child {
    int vertex;
    std::vector<Slot> slots;
  };
  std::vector<Child> children;
  for (const Slot& s : slots) {
    const int v = topo.ancestor_index(s.leaf, depth + 1);
    if (children.empty() || children.back().vertex != v)
      children.push_back(Child{v, {}});
    children.back().slots.push_back(s);
  }
  if (children.size() == 1) {
    solve(graph, object_ids, children[0].slots, depth + 1, topo, out);
    return;
  }

  // Pack into the roomiest children first so heavy groups stay together
  // (ties: topology order).
  std::vector<int> order(children.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
    return children[static_cast<std::size_t>(a)].slots.size() >
           children[static_cast<std::size_t>(b)].slots.size();
  });
  std::vector<int> sizes(order.size());
  for (std::size_t i = 0; i < order.size(); ++i)
    sizes[i] = static_cast<int>(
        children[static_cast<std::size_t>(order[i])].slots.size());

  auto groups = greedy_partition(graph, sizes);
  kl_refine(graph, groups);

  for (std::size_t i = 0; i < order.size(); ++i) {
    const auto& local_group = groups[i];
    if (local_group.empty()) continue;
    const Child& child = children[static_cast<std::size_t>(order[i])];
    std::vector<int> child_objects;
    child_objects.reserve(local_group.size());
    for (int local : local_group)
      child_objects.push_back(object_ids[static_cast<std::size_t>(local)]);
    // Keep determinism independent of group formation order.
    std::sort(child_objects.begin(), child_objects.end());

    std::vector<int> local_ids;  // positions within object_ids
    local_ids.reserve(child_objects.size());
    for (int obj : child_objects) {
      const auto it =
          std::lower_bound(object_ids.begin(), object_ids.end(), obj);
      local_ids.push_back(static_cast<int>(it - object_ids.begin()));
    }
    const AffinityGraph sub = [&] {
      std::vector<int> verts = local_ids;
      return graph.induced(verts);
    }();
    solve(sub, child_objects, child.slots, depth + 1, topo, out);
  }
}

}  // namespace

std::vector<int> treematch_slots(const AffinityGraph& affinity,
                                 const topo::Topology& topo,
                                 const std::vector<int>& slot_leaves) {
  const std::size_t n = affinity.size();
  check(n <= slot_leaves.size(), "treematch: more processes than slots");

  std::vector<Slot> slots(slot_leaves.size());
  for (std::size_t s = 0; s < slot_leaves.size(); ++s)
    slots[s] = Slot{static_cast<int>(s), slot_leaves[s]};
  std::sort(slots.begin(), slots.end(),
            [](const Slot& a, const Slot& b) { return a.leaf < b.leaf; });

  std::vector<int> object_ids(n);
  std::iota(object_ids.begin(), object_ids.end(), 0);

  std::vector<int> out(n, -1);
  solve(affinity, object_ids, slots, 0, topo, out);
  for (int s : out) check(s >= 0, "treematch: unassigned process");
  return out;
}

std::vector<int> treematch_leaves(const AffinityGraph& affinity,
                                  const topo::Topology& topo) {
  std::vector<int> all_leaves(static_cast<std::size_t>(topo.num_leaves()));
  std::iota(all_leaves.begin(), all_leaves.end(), 0);
  // Slot index == leaf id when slots cover the whole machine in order.
  return treematch_slots(affinity, topo, all_leaves);
}

std::vector<int> treematch_leaves(const CommMatrix& bytes,
                                  const topo::Topology& topo) {
  return treematch_leaves(AffinityGraph::from_dense(bytes), topo);
}

std::vector<int> treematch_slots(const CommMatrix& bytes,
                                 const topo::Topology& topo,
                                 const std::vector<int>& slot_leaves) {
  return treematch_slots(AffinityGraph::from_dense(bytes), topo, slot_leaves);
}

double mapping_cost(const CommMatrix& bytes,
                    const std::vector<int>& process_to_leaf,
                    const net::CostModel& cost) {
  return cost.pattern_cost(bytes, process_to_leaf);
}

double mapping_cost(const AffinityGraph& affinity,
                    const std::vector<int>& process_to_leaf,
                    const net::CostModel& cost) {
  double total = 0.0;
  for (const Edge& e : affinity.edges()) {
    const int a = process_to_leaf[static_cast<std::size_t>(e.u)];
    const int b = process_to_leaf[static_cast<std::size_t>(e.v)];
    // The symmetrized weight is split evenly per direction, so on patterns
    // whose dense matrix is symmetric this matches pattern_cost up to
    // floating-point association.
    total += cost.latency(a, b) + cost.latency(b, a) +
             0.5 * e.w *
                 (cost.serialization_time(a, b, 1) +
                  cost.serialization_time(b, a, 1));
  }
  return total;
}

}  // namespace mpim::tm
