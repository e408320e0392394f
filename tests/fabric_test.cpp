// Fabric-layer suite: strict MPIM_TOPO spec parsing, structural
// route/hop-distance properties of all three fabric kinds, balanced-tree
// bit-identity of the fabric-backed cost model, per-link contention bounds,
// the per-link-class mismatch decomposition (and the snapshot gauge built
// on it), and hierarchical TreeMatch over fabric hierarchies.
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "introspect/analyzer.h"
#include "mpimon/mpi_monitoring.h"
#include "mpimon/session.hpp"
#include "mpimon/sim.h"
#include "netmodel/cost_model.h"
#include "reorder/reorder.h"
#include "support/matrix.h"
#include "telemetry/hub.h"
#include "topo/fabric.h"
#include "topo/topology.h"
#include "treematch/affinity.h"
#include "treematch/treematch.h"

namespace mpim {
namespace {

using topo::DragonflyFabric;
using topo::Fabric;
using topo::FabricKind;
using topo::FabricSpec;
using topo::FatTreeFabric;
using topo::parse_fabric_spec;
using topo::Topology;
using topo::TreeFabric;
using telemetry::Metric;

// --- spec parsing ------------------------------------------------------------

TEST(FabricSpecParse, AcceptsTheDocumentedGrammar) {
  auto tree = parse_fabric_spec("tree");
  ASSERT_TRUE(tree.has_value());
  EXPECT_EQ(tree->kind, FabricKind::tree);

  auto ft = parse_fabric_spec(" FatTree:4,2,2 ");
  ASSERT_TRUE(ft.has_value());
  EXPECT_EQ(ft->kind, FabricKind::fattree);
  EXPECT_EQ(ft->ft_k, 4);
  EXPECT_EQ(ft->ft_levels, 2);
  EXPECT_EQ(ft->ft_osub, 2);

  auto df = parse_fabric_spec("dragonfly:4,9,2");
  ASSERT_TRUE(df.has_value());
  EXPECT_EQ(df->kind, FabricKind::dragonfly);
  EXPECT_EQ(df->df_a, 4);
  EXPECT_EQ(df->df_g, 9);
  EXPECT_EQ(df->df_h, 2);
  EXPECT_FALSE(df->df_valiant);

  auto dv = parse_fabric_spec("dragonfly:4,9,2,valiant");
  ASSERT_TRUE(dv.has_value());
  EXPECT_TRUE(dv->df_valiant);
  auto dm = parse_fabric_spec("dragonfly:4,9,2,minimal");
  ASSERT_TRUE(dm.has_value());
  EXPECT_FALSE(dm->df_valiant);
}

TEST(FabricSpecParse, RejectsMalformedParameterLists) {
  const char* bad[] = {
      // unknown kinds and junk
      "", "torus", "mesh:2,2", "fat tree:2,2,1",
      // tree takes no parameters
      "tree:3", "tree:",
      // fattree arity and field errors
      "fattree", "fattree:", "fattree:4", "fattree:4,2", "fattree:4,2,1,9",
      "fattree:4,,1", "fattree:4,2,x", "fattree:4.0,2,1", "fattree:-4,2,1",
      "fattree: 4,2,1", "fattree:4,2,1 trailing",
      // fattree range errors
      "fattree:1,2,1", "fattree:65,2,1", "fattree:4,0,1", "fattree:4,5,1",
      "fattree:4,2,0", "fattree:64,4,1",
      // dragonfly arity and field errors
      "dragonfly", "dragonfly:", "dragonfly:4,9", "dragonfly:4,9,2,fast",
      "dragonfly:4,9,2,valiant,extra", "dragonfly:4,nine,2",
      "dragonfly:4,9,2.5", "dragonfly:+4,9,2",
      // dragonfly range / reachability errors
      "dragonfly:0,9,2", "dragonfly:65,9,2", "dragonfly:4,0,2",
      "dragonfly:4,257,2", "dragonfly:4,9,0", "dragonfly:4,9,33",
      "dragonfly:1,4,1",  // g-1 = 3 > a*h = 1: groups unreachable
  };
  for (const char* s : bad)
    EXPECT_FALSE(parse_fabric_spec(s).has_value()) << "accepted \"" << s
                                                   << "\"";
}

// --- structural properties of every fabric kind ------------------------------

std::vector<std::shared_ptr<const Fabric>> small_fabrics() {
  return {
      std::make_shared<TreeFabric>(Topology::cluster(3, 2, 3)),
      std::make_shared<FatTreeFabric>(2, 2, 1, /*sockets=*/2, /*cores=*/2),
      std::make_shared<FatTreeFabric>(4, 2, 2, /*sockets=*/1, /*cores=*/1),
      std::make_shared<DragonflyFabric>(2, 3, 2, /*valiant=*/false,
                                        /*sockets=*/1, /*cores=*/2),
      std::make_shared<DragonflyFabric>(3, 4, 2, /*valiant=*/true,
                                        /*sockets=*/1, /*cores=*/1),
  };
}

TEST(FabricProperties, HopDistanceIsSymmetricZeroIffSameLeaf) {
  for (const auto& fab : small_fabrics()) {
    SCOPED_TRACE(fab->describe());
    const int n = fab->num_leaves();
    for (int a = 0; a < n; ++a) {
      for (int b = 0; b < n; ++b) {
        const int d = fab->hop_distance(a, b);
        EXPECT_EQ(d, fab->hop_distance(b, a)) << a << "," << b;
        EXPECT_EQ(d == 0, a == b) << a << "," << b;
        EXPECT_GE(d, 0);
      }
    }
  }
}

TEST(FabricProperties, HopDistanceSatisfiesTheTriangleInequality) {
  for (const auto& fab : small_fabrics()) {
    SCOPED_TRACE(fab->describe());
    const int n = fab->num_leaves();
    for (int a = 0; a < n; ++a)
      for (int b = 0; b < n; ++b)
        for (int c = 0; c < n; ++c)
          EXPECT_LE(fab->hop_distance(a, c),
                    fab->hop_distance(a, b) + fab->hop_distance(b, c))
              << a << "," << b << "," << c;
  }
}

TEST(FabricProperties, RoutesCoverEveryPairAndStayWellFormed) {
  for (const auto& fab : small_fabrics()) {
    SCOPED_TRACE(fab->describe());
    const int n = fab->num_leaves();
    Fabric::Route r;
    for (int a = 0; a < n; ++a) {
      for (int b = 0; b < n; ++b) {
        fab->route(a, b, &r);
        if (fab->same_node(a, b)) {
          EXPECT_EQ(r.n, 0) << a << "," << b;
          continue;
        }
        ASSERT_GE(r.n, 2) << a << "," << b;
        ASSERT_LE(r.n, Fabric::kMaxRouteLinks);
        // Starts at the source NIC injection port, ends at the destination
        // NIC delivery port, and every hop names a real network link.
        EXPECT_EQ(r.links[0], fab->node_of(a));
        EXPECT_EQ(r.links[r.n - 1], fab->num_nodes() + fab->node_of(b));
        std::set<int> seen;
        for (int h = 0; h < r.n; ++h) {
          ASSERT_GE(r.links[h], 0);
          ASSERT_LT(r.links[h], fab->num_links());
          const int cls = fab->link_class(r.links[h]);
          EXPECT_GE(cls, 0);
          EXPECT_LT(cls, fab->num_network_classes());
          EXPECT_TRUE(seen.insert(r.links[h]).second)
              << "route revisits link " << r.links[h];
        }
      }
    }
  }
}

TEST(FabricProperties, PairClassCoversIntraNodeAndTreePairs) {
  for (const auto& fab : small_fabrics()) {
    SCOPED_TRACE(fab->describe());
    const int n = fab->num_leaves();
    for (int a = 0; a < n; ++a) {
      for (int b = 0; b < n; ++b) {
        const int cls = fab->pair_class(a, b);
        if (fab->same_node(a, b)) {
          EXPECT_GE(cls, fab->num_network_classes());
          EXPECT_LT(cls, fab->num_link_classes());
        } else if (fab->single_class_paths()) {
          EXPECT_EQ(cls, fab->locality(a, b));  // historical depth index
        } else {
          EXPECT_EQ(cls, -1);  // routed pair: cost via route()
        }
      }
    }
  }
}

TEST(FabricProperties, TreeFabricHopDistanceMatchesTopology) {
  const Topology t = Topology::cluster(3, 2, 3);
  const TreeFabric fab(t);
  for (int a = 0; a < t.num_leaves(); ++a)
    for (int b = 0; b < t.num_leaves(); ++b)
      EXPECT_EQ(fab.hop_distance(a, b), t.hop_distance(a, b));
}

// --- cost model: balanced-tree bit-identity ----------------------------------

TEST(FabricCostModel, TreeCostsAreBitIdenticalToDepthIndexedLookup) {
  const Topology t = Topology::cluster(3, 2, 3);
  const std::vector<net::LinkParams> params = {
      {1.5e-6, 6.0e9}, {0.7e-6, 8.0e9}, {0.3e-6, 11.0e9}, {0.05e-6, 20.0e9}};
  const net::CostModel cost(t, params);
  for (int a = 0; a < t.num_leaves(); ++a) {
    for (int b = 0; b < t.num_leaves(); ++b) {
      const auto& p =
          params[static_cast<std::size_t>(t.common_ancestor_depth(a, b))];
      for (const std::size_t bytes : {std::size_t{0}, std::size_t{1},
                                      std::size_t{4096}, std::size_t{1 << 20}}) {
        const double want =
            p.alpha_s + static_cast<double>(bytes) / p.beta_bytes_s;
        EXPECT_EQ(cost.transfer_time(a, b, bytes), want);  // bit identical
      }
      EXPECT_EQ(cost.latency(a, b), p.alpha_s);
    }
  }
}

TEST(FabricCostModel, TreePatternAndNicCostsMatchManualFormulas) {
  const Topology t = Topology::cluster(2, 2, 2);
  const net::CostModel cost = net::CostModel::plafrim_like(2, 2, 2);
  const std::size_t n = 8;
  CommMatrix bytes = CommMatrix::square(n);
  for (std::size_t i = 0; i < n; ++i)
    bytes(i, (i + 3) % n) = 1000 * (i + 1);
  topo::Placement place(n);
  for (std::size_t i = 0; i < n; ++i) place[i] = static_cast<int>(i);

  double want_pattern = 0.0;
  std::vector<double> tx(2, 0.0), rx(2, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (bytes(i, j) == 0) continue;
      want_pattern += cost.transfer_time(place[i], place[j], bytes(i, j));
      if (t.node_of(place[i]) != t.node_of(place[j])) {
        tx[static_cast<std::size_t>(t.node_of(place[i]))] +=
            static_cast<double>(bytes(i, j));
        rx[static_cast<std::size_t>(t.node_of(place[j]))] +=
            static_cast<double>(bytes(i, j));
      }
    }
  }
  double worst_bytes = 0.0;
  for (double v : tx) worst_bytes = std::max(worst_bytes, v);
  for (double v : rx) worst_bytes = std::max(worst_bytes, v);
  EXPECT_EQ(cost.pattern_cost(bytes, place), want_pattern);
  EXPECT_EQ(cost.nic_load_cost(bytes, place),
            worst_bytes / cost.params_at_depth(0).beta_bytes_s);
}

TEST(FabricCostModel, RoutePlanConservesLatencyAndDrainsFully) {
  for (const auto& fab : small_fabrics()) {
    SCOPED_TRACE(fab->describe());
    const net::CostModel cost = net::CostModel::for_fabric(fab);
    const int n = fab->num_leaves();
    net::RoutePlan plan;
    for (int a = 0; a < n; ++a) {
      for (int b = 0; b < n; ++b) {
        if (fab->same_node(a, b)) continue;
        const double alpha = cost.latency(a, b);
        cost.route_plan(a, b, alpha, &plan);
        ASSERT_GE(plan.n, 2);
        EXPECT_EQ(plan.gap_alpha_s[0], 0.0);
        double gaps = 0.0;
        bool full_rate_somewhere = false;
        for (int i = 0; i < plan.n; ++i) {
          gaps += plan.gap_alpha_s[i];
          EXPECT_GT(plan.drain_frac[i], 0.0);
          EXPECT_LE(plan.drain_frac[i], 1.0);
          if (plan.drain_frac[i] == 1.0) full_rate_somewhere = true;
          if (fab->kind() == FabricKind::tree)
            EXPECT_EQ(plan.drain_frac[i], 1.0);  // bit-identity with seed
        }
        // The slowest link on the path drains at the full serialization
        // rate and the per-hop gaps add up to the whole path latency, so
        // an uncontended transfer still arrives at start + alpha + tx.
        EXPECT_TRUE(full_rate_somewhere);
        EXPECT_DOUBLE_EQ(gaps, alpha);
      }
    }
  }
}

TEST(FabricCostModel, FlowTimeCostSeesSharingThatPerPortBoundsMiss) {
  // 4-ary 2-level fat-tree at 4:1 oversubscription: one trunk link per
  // direction per switch, so the four nodes of leaf switch 0 all sending
  // cross-pod squeeze through a single up-trunk (4 x 6 GB/s of injection
  // into 12.5 GB/s of trunk); flow time must grow well past the single-
  // flow time, while same-switch traffic never leaves the leaf switches.
  auto fab = std::make_shared<FatTreeFabric>(4, 2, 4, /*sockets=*/1,
                                             /*cores=*/1);
  const net::CostModel cost = net::CostModel::for_fabric(fab);
  const std::size_t n = static_cast<std::size_t>(fab->num_leaves());
  topo::Placement place(n);
  for (std::size_t i = 0; i < n; ++i) place[i] = static_cast<int>(i);
  const unsigned long b = 1u << 20;

  CommMatrix one = CommMatrix::square(n);
  one(0, 4) = b;
  CommMatrix shared = CommMatrix::square(n);
  for (std::size_t i = 0; i < 4; ++i) shared(i, i + 4) = b;
  CommMatrix local = CommMatrix::square(n);
  local(0, 1) = b;
  local(2, 3) = b;

  const double t_one = cost.flow_time_cost(one, place);
  const double t_shared = cost.flow_time_cost(shared, place);
  const double t_local = cost.flow_time_cost(local, place);
  EXPECT_GT(t_one, 0.0);
  EXPECT_GT(t_shared, 1.5 * t_one);  // trunk shared max-min fair
  EXPECT_LE(t_local, 1.000001 * t_one);  // disjoint same-switch pairs
}

// --- introspection: per-link-class mismatch ----------------------------------

TEST(FabricMismatch, ClassBreakdownSumsToFabricByteHops) {
  for (const auto& fab : small_fabrics()) {
    SCOPED_TRACE(fab->describe());
    const std::size_t n = static_cast<std::size_t>(fab->num_leaves());
    CommMatrix bytes = CommMatrix::square(n);
    for (std::size_t i = 0; i < n; ++i) {
      bytes(i, (i + 1) % n) = 100 + i;
      bytes(i, (i + n / 2) % n) += 13 * (i + 1);
    }
    topo::Placement place(n);
    for (std::size_t i = 0; i < n; ++i) place[i] = static_cast<int>(i);

    const std::vector<double> per_class =
        introspect::mismatch_by_link_class(bytes, *fab, place);
    ASSERT_EQ(per_class.size(),
              static_cast<std::size_t>(fab->num_link_classes()));
    double sum = 0.0;
    for (double v : per_class) sum += v;
    const double byte_hops = introspect::mismatch_byte_hops(bytes, *fab, place);
    EXPECT_DOUBLE_EQ(sum, byte_hops);
    if (fab->kind() != FabricKind::tree) continue;
    // On a tree the fabric hops are the hierarchy's tree hops.
    double tree_hops = 0.0;
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = 0; j < n; ++j)
        tree_hops += static_cast<double>(bytes(i, j)) *
                     fab->hierarchy().hop_distance(place[i], place[j]);
    EXPECT_EQ(byte_hops, tree_hops);
  }
}

TEST(FabricMismatch, ClassColumnsSurviveTheFramesCsvRoundTrip) {
  auto fab = std::make_shared<DragonflyFabric>(2, 3, 2, false, 1, 2);
  const std::size_t n = static_cast<std::size_t>(fab->num_leaves());
  std::vector<introspect::FrameMatrix> frames(2);
  for (std::size_t w = 0; w < frames.size(); ++w) {
    frames[w].window = static_cast<long>(w);
    frames[w].t0_s = 0.1 * static_cast<double>(w);
    frames[w].t1_s = 0.1 * static_cast<double>(w + 1);
    frames[w].counts = CommMatrix::square(n);
    frames[w].bytes = CommMatrix::square(n);
    frames[w].counts(0, n - 1) = 1 + w;
    frames[w].bytes(0, n - 1) = 4096 * (w + 1);
  }
  topo::Placement place(n);
  for (std::size_t i = 0; i < n; ++i) place[i] = static_cast<int>(i);
  introspect::annotate_link_class_hops(frames, *fab, place);

  const std::string path = ::testing::TempDir() + "fabric_frames.csv";
  introspect::write_frames_csv_file(path, frames);
  const auto back = introspect::read_frames_csv(path);
  ASSERT_EQ(back.size(), frames.size());
  for (std::size_t w = 0; w < frames.size(); ++w) {
    EXPECT_EQ(back[w].bytes, frames[w].bytes);
    ASSERT_EQ(back[w].class_hops.size(), frames[w].class_hops.size());
    for (std::size_t c = 0; c < frames[w].class_hops.size(); ++c)
      EXPECT_DOUBLE_EQ(back[w].class_hops[c], frames[w].class_hops[c]);
  }
  // The offline analyzer (no fabric in hand) passes the columns through.
  const auto metrics = introspect::analyze_windows(back);
  ASSERT_EQ(metrics.size(), frames.size());
  EXPECT_EQ(metrics[0].class_hops, frames[0].class_hops);
}

TEST(FabricMismatch, SnapshotGaugeCountsFabricByteHops) {
  // Half-shift traffic on a dragonfly, where tree hops and route hops
  // differ: the gauge get_frames refreshes must weigh the gathered bytes by
  // fabric hops, like the per-class columns monview --timeline adds up.
  auto fab = std::make_shared<DragonflyFabric>(2, 3, 2, false, 1, 2);
  const int n = fab->num_leaves();
  topo::Placement place(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) place[static_cast<std::size_t>(i)] = i;
  Sim sim(mpi::EngineConfig{.cost_model = net::CostModel::for_fabric(fab),
                            .placement = place});
  sim.engine().telemetry().set_enabled(true);
  constexpr int kMaxFrames = 16;
  const std::size_t cells = static_cast<std::size_t>(n) * n;
  CommMatrix summed = CommMatrix::square(static_cast<std::size_t>(n));
  sim.run([&](mpi::Ctx& ctx) {
    const mpi::Comm world = ctx.world();
    const int me = mpi::comm_rank(world);
    mon::Environment env;
    MPI_M_msid id = -1;
    ASSERT_EQ(MPI_M_start(world, &id), MPI_M_SUCCESS);
    ASSERT_EQ(MPI_M_snapshot_start(id, 1e-3, kMaxFrames, MPI_M_ALL_COMM),
              MPI_M_SUCCESS);
    std::vector<char> buf(1000, 'x');
    mpi::sendrecv(buf.data(), buf.size(), mpi::Type::Char, (me + n / 2) % n, 0,
                  buf.data(), buf.size(), (me + n / 2) % n, 0, world);
    mpi::compute(2e-3);  // close the window before suspend
    ASSERT_EQ(MPI_M_suspend(id), MPI_M_SUCCESS);
    int frames = 0;
    std::vector<unsigned long> bytes(kMaxFrames * cells);
    ASSERT_EQ(MPI_M_get_frames(id, kMaxFrames, &frames, nullptr, nullptr,
                               MPI_M_DATA_IGNORE, bytes.data(),
                               MPI_M_ALL_COMM),
              MPI_M_SUCCESS);
    if (me == 0)
      for (std::size_t i = 0; i < static_cast<std::size_t>(frames) * cells; ++i)
        summed.flat()[i % cells] += bytes[i];
    ASSERT_EQ(MPI_M_free(id), MPI_M_SUCCESS);
  });
  ASSERT_GT(summed.sum(), 0u);
  const telemetry::Hub& hub = sim.engine().telemetry();
  EXPECT_EQ(hub.registry().gauge_value(Metric::introspect_mismatch_hops, 0),
            std::llround(introspect::mismatch_byte_hops(summed, *fab, place)));
}

TEST(FabricMismatch, FabricAnalyzeWindowsFillsClassHops) {
  auto fab = std::make_shared<FatTreeFabric>(2, 2, 1, 1, 2);
  const std::size_t n = static_cast<std::size_t>(fab->num_leaves());
  std::vector<introspect::FrameMatrix> frames(1);
  frames[0].counts = CommMatrix::square(n);
  frames[0].bytes = CommMatrix::square(n);
  frames[0].bytes(0, n - 1) = 1 << 16;
  topo::Placement place(n);
  for (std::size_t i = 0; i < n; ++i) place[i] = static_cast<int>(i);
  const auto metrics = introspect::analyze_windows(frames, *fab, place);
  ASSERT_EQ(metrics.size(), 1u);
  ASSERT_EQ(metrics[0].class_hops.size(),
            static_cast<std::size_t>(fab->num_link_classes()));
  double sum = 0.0;
  for (double v : metrics[0].class_hops) sum += v;
  EXPECT_DOUBLE_EQ(metrics[0].mismatch_hops, sum);
  EXPECT_GT(sum, 0.0);
}

// --- hierarchical TreeMatch over fabric hierarchies --------------------------

TEST(FabricTreeMatch, KeepsHeavyPairsUnderShallowRoutes) {
  // 16 single-PU nodes under a 4-ary 2-level fat-tree; the affinity graph
  // pairs (0,1), (2,3), ... heavily. TreeMatch over the fabric hierarchy
  // must co-locate every heavy pair under one leaf switch (hop distance
  // 4 = nic-up, switch, nic-down + approach legs, never via the core).
  auto fab = std::make_shared<FatTreeFabric>(4, 2, 1, 1, 1);
  const int n = fab->num_leaves();
  ASSERT_EQ(n, 16);
  tm::AffinityGraph g(static_cast<std::size_t>(n));
  for (int i = 0; i + 1 < n; i += 2) g.add_edge(i, i + 1, 1e6);
  // Light noise that would mislead a locality-blind packing.
  for (int i = 0; i < n; ++i) g.add_edge(i, (i + 5) % n, 1.0);
  g.finalize();
  const std::vector<int> leaves = tm::treematch_leaves(g, fab->hierarchy());
  for (int i = 0; i + 1 < n; i += 2) {
    const int la = leaves[static_cast<std::size_t>(i)];
    const int lb = leaves[static_cast<std::size_t>(i + 1)];
    EXPECT_EQ(fab->hierarchy().common_ancestor_depth(la, lb) >= 1, true)
        << "heavy pair (" << i << "," << i + 1 << ") split across pods";
  }
}

TEST(FabricTreeMatch, SparseMappingCostTracksDenseOnSymmetricPatterns) {
  auto fab = std::make_shared<DragonflyFabric>(2, 3, 2, false, 1, 2);
  const net::CostModel cost = net::CostModel::for_fabric(fab);
  const std::size_t n = static_cast<std::size_t>(fab->num_leaves());
  CommMatrix bytes = CommMatrix::square(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t j = (i + 7) % n;
    if (i == j) continue;
    bytes(i, j) += 500 * (i + 1);
    bytes(j, i) += 500 * (i + 1);  // symmetric
  }
  std::vector<int> place(n);
  for (std::size_t i = 0; i < n; ++i) place[i] = static_cast<int>(i);
  const double dense = tm::mapping_cost(bytes, place, cost);
  const double sparse =
      tm::mapping_cost(tm::AffinityGraph::from_dense(bytes), place, cost);
  EXPECT_NEAR(sparse, dense, 1e-9 * dense);
}

TEST(FabricTreeMatch, ReorderingOnRoutedFabricReturnsAValidPermutation) {
  auto fab = std::make_shared<DragonflyFabric>(2, 3, 2, false, 1, 2);
  const net::CostModel cost = net::CostModel::for_fabric(fab);
  const std::size_t n = static_cast<std::size_t>(fab->num_leaves());
  CommMatrix bytes = CommMatrix::square(n);
  for (std::size_t i = 0; i < n; ++i)
    bytes(i, (i + n / 2) % n) = 1u << 18;  // adversarial cross-group
  topo::Placement place(n);
  for (std::size_t i = 0; i < n; ++i) place[i] = static_cast<int>(i);
  const std::vector<int> k =
      reorder::compute_reordering(bytes, fab->hierarchy(), place, &cost);
  ASSERT_EQ(k.size(), n);
  std::vector<bool> hit(n, false);
  for (int v : k) {
    ASSERT_GE(v, 0);
    ASSERT_LT(static_cast<std::size_t>(v), n);
    EXPECT_FALSE(hit[static_cast<std::size_t>(v)]);
    hit[static_cast<std::size_t>(v)] = true;
  }
}

}  // namespace
}  // namespace mpim
