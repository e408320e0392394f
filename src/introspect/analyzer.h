// Online analyzer over windowed snapshot frames: per-window derived
// metrics (load imbalance, neighbor affinity, topology mismatch cost,
// estimated TreeMatch gain), the inter-window matrix distances the phase
// detector thresholds, and the frames CSV format the timeline tools
// exchange.
#pragma once

#include <iosfwd>
#include <span>
#include <string>
#include <vector>

#include "introspect/snapshot.h"
#include "netmodel/cost_model.h"
#include "support/matrix.h"
#include "topo/topology.h"

namespace mpim::introspect {

// --- matrix/vector distances -------------------------------------------------

/// Cosine distance in [0, 2]: 1 - dot/(|a||b|). Conventions chosen for
/// phase detection: two zero vectors are identical (0); a zero vector
/// against a non-zero one is maximally different (1).
double cosine_distance(std::span<const unsigned long> a,
                       std::span<const unsigned long> b);

/// L1 distance normalized by the combined mass, in [0, 1]:
/// sum|a_i - b_i| / (sum a_i + sum b_i). Two zero vectors give 0.
double l1_distance(std::span<const unsigned long> a,
                   std::span<const unsigned long> b);

// --- per-matrix derived metrics ----------------------------------------------

/// Send-byte load imbalance: max row sum / mean row sum (>= 1), or 0 for
/// an all-zero matrix. 1.0 means perfectly balanced senders.
double load_imbalance(const CommMatrix& bytes);

/// Fraction of off-diagonal bytes whose endpoints sit on deepest-level
/// neighbor leaves (tree hop distance <= 2, e.g. same core pair/socket),
/// in [0, 1]; 0 when the matrix is empty.
double neighbor_affinity_fraction(const CommMatrix& bytes,
                                  const topo::Topology& topo,
                                  const topo::Placement& placement);

/// Topology mismatch cost: sum over pairs of bytes(i,j) * fabric hop
/// distance between the leaves of i and j (network route length plus the
/// PU<->NIC approach legs), so on fat-tree and dragonfly the metric sees how
/// deep each pair's route actually goes. On a tree fabric the fabric hop
/// distance is the hierarchy's tree hop distance.
double mismatch_byte_hops(const CommMatrix& bytes, const topo::Fabric& fabric,
                          const topo::Placement& placement);

/// Decomposition of the fabric mismatch by link class, one entry per
/// fabric.num_link_classes(): every network hop of an inter-node route
/// credits its link's class, the PU<->NIC approach legs credit the nic
/// class (index 0), and same-node pairs credit their intra-node locality
/// class with their full hop weight. The entries sum exactly to
/// mismatch_byte_hops(bytes, fabric, placement).
std::vector<double> mismatch_by_link_class(const CommMatrix& bytes,
                                           const topo::Fabric& fabric,
                                           const topo::Placement& placement);

/// Estimated fractional cost reduction TreeMatch would deliver on this
/// matrix from the current placement, in [0, 1] (0: already optimal or no
/// traffic). Runs the real TreeMatch kernel against cost.topology() plus
/// the modeled pattern cost.
double treematch_gain(const CommMatrix& bytes, const topo::Placement& placement,
                      const net::CostModel& cost);

// --- single-frame totals -----------------------------------------------------

/// Scalar summary of one sampler frame (all traffic kinds summed). The
/// streaming plane stages these instead of whole sparse matrices.
struct FrameTotals {
  unsigned long msgs = 0;
  unsigned long bytes = 0;
  int top_peer = -1;  ///< peer receiving the most bytes; -1 if none
  unsigned long top_peer_bytes = 0;
};

FrameTotals frame_totals(const Frame& frame);

// --- window sequences --------------------------------------------------------

/// One gathered window: the full per-window communication matrices (what
/// MPI_M_get_frames returns, or a frames CSV parses into).
struct FrameMatrix {
  long window = 0;
  double t0_s = 0.0;
  double t1_s = 0.0;
  CommMatrix counts;
  CommMatrix bytes;
  /// Per-link-class mismatch byte-hops of this window (see
  /// mismatch_by_link_class); empty when never annotated (pre-fabric
  /// CSVs). Survives the frames CSV round trip.
  std::vector<double> class_hops;
};

/// Fills every frame's class_hops from its byte matrix (the per-window
/// mismatch_by_link_class), so the breakdown rides along in the frames
/// CSV and offline tools can render it without the fabric.
void annotate_link_class_hops(std::vector<FrameMatrix>& frames,
                              const topo::Fabric& fabric,
                              const topo::Placement& placement);

/// Per-window metrics of a gathered sequence. Fabric-dependent fields are
/// only filled by the overload taking a fabric (offline tools run without
/// one and leave them at -1).
struct WindowMetrics {
  long window = 0;
  double t0_s = 0.0;
  double t1_s = 0.0;
  unsigned long msgs = 0;
  unsigned long bytes = 0;
  double imbalance = 0.0;
  /// Distances vs the previous window's byte matrix; -1 on the first
  /// window of a sequence (no reference to compare against).
  double cos_dist = -1.0;
  double l1_dist = -1.0;
  bool boundary = false;
  double neighbor_frac = -1.0;
  double mismatch_hops = -1.0;
  /// Per-link-class mismatch byte-hops; empty unless the fabric overload
  /// ran or the frames carried annotated columns (see FrameMatrix).
  std::vector<double> class_hops;
};

/// Analyzes a window sequence: totals, imbalance, inter-window distances
/// and phase boundaries (thresholds as in WindowSampler).
std::vector<WindowMetrics> analyze_windows(
    const std::vector<FrameMatrix>& frames);

/// Same, plus the fabric-dependent per-window metrics: neighbor_frac over
/// the fabric hierarchy, mismatch_hops in fabric hops and class_hops with
/// its per-link-class decomposition.
std::vector<WindowMetrics> analyze_windows(
    const std::vector<FrameMatrix>& frames, const topo::Fabric& fabric,
    const topo::Placement& placement);

// --- frames CSV --------------------------------------------------------------

/// Header: "window,t0_s,t1_s,src,dst,count,bytes", then the record
/// "# order <n>" (the matrix order). One row per non-zero (src, dst) cell;
/// empty windows emit a single row with src = dst = -1 and zero traffic so
/// the grid survives the round trip. Annotated frames additionally emit one
/// row per link class with src = -2, dst = the class index and the class
/// byte-hops in the bytes column.
void write_frames_csv(std::ostream& os, const std::vector<FrameMatrix>& frames);
void write_frames_csv_file(const std::string& path,
                           const std::vector<FrameMatrix>& frames);

/// Parses a frames CSV. Throws mpim::Error on a missing/empty file, a bad
/// header, a missing order record, a rank cell at or above the order, a
/// truncated row, or a non-finite/non-numeric cell.
std::vector<FrameMatrix> read_frames_csv(const std::string& path);

}  // namespace mpim::introspect
