#include "introspect/analyzer.h"

#include <cmath>
#include <fstream>
#include <sstream>

#include "introspect/snapshot.h"
#include "support/cells.h"
#include "support/error.h"
#include "treematch/treematch.h"

namespace mpim::introspect {

namespace {

double vec_norm(std::span<const unsigned long> v) {
  double s = 0.0;
  for (unsigned long x : v) s += static_cast<double>(x) * static_cast<double>(x);
  return std::sqrt(s);
}

}  // namespace

double cosine_distance(std::span<const unsigned long> a,
                       std::span<const unsigned long> b) {
  check(a.size() == b.size(), "cosine_distance: size mismatch");
  const double na = vec_norm(a);
  const double nb = vec_norm(b);
  if (na == 0.0 && nb == 0.0) return 0.0;
  if (na == 0.0 || nb == 0.0) return 1.0;
  double dot = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i)
    dot += static_cast<double>(a[i]) * static_cast<double>(b[i]);
  return 1.0 - dot / (na * nb);
}

double l1_distance(std::span<const unsigned long> a,
                   std::span<const unsigned long> b) {
  check(a.size() == b.size(), "l1_distance: size mismatch");
  double diff = 0.0, mass = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double x = static_cast<double>(a[i]);
    const double y = static_cast<double>(b[i]);
    diff += std::abs(x - y);
    mass += x + y;
  }
  return mass == 0.0 ? 0.0 : diff / mass;
}

double load_imbalance(const CommMatrix& bytes) {
  const std::size_t n = bytes.rows();
  if (n == 0) return 0.0;
  double max_row = 0.0, total = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    double row = 0.0;
    for (std::size_t j = 0; j < bytes.cols(); ++j)
      row += static_cast<double>(bytes(i, j));
    max_row = std::max(max_row, row);
    total += row;
  }
  if (total == 0.0) return 0.0;
  return max_row / (total / static_cast<double>(n));
}

double neighbor_affinity_fraction(const CommMatrix& bytes,
                                  const topo::Topology& topo,
                                  const topo::Placement& placement) {
  const std::size_t n = bytes.rows();
  check(placement.size() >= n, "placement smaller than matrix order");
  double neighbor = 0.0, total = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < bytes.cols(); ++j) {
      if (i == j) continue;
      const double v = static_cast<double>(bytes(i, j));
      if (v == 0.0) continue;
      total += v;
      if (topo.hop_distance(placement[i], placement[j]) <= 2) neighbor += v;
    }
  }
  return total == 0.0 ? 0.0 : neighbor / total;
}

double mismatch_byte_hops(const CommMatrix& bytes, const topo::Fabric& fabric,
                          const topo::Placement& placement) {
  const std::size_t n = bytes.rows();
  check(placement.size() >= n, "placement smaller than matrix order");
  double cost = 0.0;
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < bytes.cols(); ++j)
      if (i != j && bytes(i, j) != 0)
        cost += static_cast<double>(bytes(i, j)) *
                static_cast<double>(
                    fabric.hop_distance(placement[i], placement[j]));
  return cost;
}

std::vector<double> mismatch_by_link_class(const CommMatrix& bytes,
                                           const topo::Fabric& fabric,
                                           const topo::Placement& placement) {
  const std::size_t n = bytes.rows();
  check(placement.size() >= n, "placement smaller than matrix order");
  std::vector<double> per_class(
      static_cast<std::size_t>(fabric.num_link_classes()), 0.0);
  const double approach_hops = 2.0 * static_cast<double>(
      fabric.hierarchy().depth() - fabric.node_level());
  topo::Fabric::Route route;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < bytes.cols(); ++j) {
      if (i == j || bytes(i, j) == 0) continue;
      const int a = placement[i];
      const int b = placement[j];
      if (a == b) continue;  // zero hops, nothing to attribute
      const double v = static_cast<double>(bytes(i, j));
      if (fabric.same_node(a, b)) {
        per_class[static_cast<std::size_t>(fabric.pair_class(a, b))] +=
            v * static_cast<double>(fabric.hierarchy().hop_distance(a, b));
        continue;
      }
      fabric.distance_route(a, b, &route);
      for (int h = 0; h < route.n; ++h)
        per_class[static_cast<std::size_t>(
            fabric.link_class(route.links[h]))] += v;
      // PU<->NIC approach legs inside both endpoint nodes: charged to the
      // nic class so the entries sum exactly to the fabric hop total.
      per_class[0] += v * approach_hops;
    }
  }
  return per_class;
}

double treematch_gain(const CommMatrix& bytes, const topo::Placement& placement,
                      const net::CostModel& cost) {
  const std::size_t n = bytes.rows();
  if (n == 0 || bytes.sum() == 0) return 0.0;
  const double current = cost.pattern_cost(bytes, placement);
  if (current <= 0.0) return 0.0;
  // Same math as reorder::compute_reordering: TreeMatch assigns each role
  // (matrix row) to one of the slots the job already occupies; the
  // proposed placement executes role r on the leaf of its slot.
  const std::vector<int> role_to_slot =
      tm::treematch_slots(bytes, cost.topology(), placement);
  topo::Placement proposed(n);
  for (std::size_t role = 0; role < n; ++role)
    proposed[role] =
        placement[static_cast<std::size_t>(role_to_slot[role])];
  const double after = cost.pattern_cost(bytes, proposed);
  return after >= current ? 0.0 : 1.0 - after / current;
}

namespace {

std::vector<WindowMetrics> analyze_impl(const std::vector<FrameMatrix>& frames,
                                        const topo::Fabric* fabric,
                                        const topo::Placement* placement) {
  std::vector<WindowMetrics> out;
  out.reserve(frames.size());
  std::span<const unsigned long> prev;
  for (const FrameMatrix& f : frames) {
    WindowMetrics m;
    m.window = f.window;
    m.t0_s = f.t0_s;
    m.t1_s = f.t1_s;
    for (unsigned long v : f.counts.flat()) m.msgs += v;
    for (unsigned long v : f.bytes.flat()) m.bytes += v;
    m.imbalance = load_imbalance(f.bytes);
    if (!prev.empty()) {
      m.cos_dist = cosine_distance(prev, f.bytes.flat());
      m.l1_dist = l1_distance(prev, f.bytes.flat());
      m.boundary = m.cos_dist > WindowSampler::kCosineBoundary ||
                   m.l1_dist > WindowSampler::kL1Boundary;
    }
    if (fabric != nullptr) {
      m.neighbor_frac =
          neighbor_affinity_fraction(f.bytes, fabric->hierarchy(), *placement);
      m.class_hops = mismatch_by_link_class(f.bytes, *fabric, *placement);
      m.mismatch_hops = 0.0;
      for (double h : m.class_hops) m.mismatch_hops += h;
    } else {
      // Offline: pass annotated per-class columns through to the caller.
      m.class_hops = f.class_hops;
    }
    prev = f.bytes.flat();
    out.push_back(std::move(m));
  }
  return out;
}

}  // namespace

FrameTotals frame_totals(const Frame& frame) {
  FrameTotals tot;
  for (const FrameCell& c : frame.cells) {
    unsigned long cell_bytes = 0;
    for (int k = 0; k < kNumKinds; ++k) {
      tot.msgs += c.counts[k];
      cell_bytes += c.bytes[k];
    }
    tot.bytes += cell_bytes;
    if (cell_bytes > tot.top_peer_bytes ||
        (tot.top_peer < 0 && cell_bytes > 0)) {
      tot.top_peer = c.peer;
      tot.top_peer_bytes = cell_bytes;
    }
  }
  return tot;
}

std::vector<WindowMetrics> analyze_windows(
    const std::vector<FrameMatrix>& frames) {
  return analyze_impl(frames, nullptr, nullptr);
}

std::vector<WindowMetrics> analyze_windows(
    const std::vector<FrameMatrix>& frames, const topo::Fabric& fabric,
    const topo::Placement& placement) {
  return analyze_impl(frames, &fabric, &placement);
}

void annotate_link_class_hops(std::vector<FrameMatrix>& frames,
                              const topo::Fabric& fabric,
                              const topo::Placement& placement) {
  for (FrameMatrix& f : frames)
    f.class_hops = mismatch_by_link_class(f.bytes, fabric, placement);
}

void write_frames_csv(std::ostream& os,
                      const std::vector<FrameMatrix>& frames) {
  os << "window,t0_s,t1_s,src,dst,count,bytes\n# order "
     << (frames.empty() ? 0 : frames.front().bytes.rows()) << "\n";
  for (const FrameMatrix& f : frames) {
    bool any = false;
    for (std::size_t i = 0; i < f.bytes.rows(); ++i) {
      for (std::size_t j = 0; j < f.bytes.cols(); ++j) {
        if (f.counts(i, j) == 0 && f.bytes(i, j) == 0) continue;
        os << f.window << "," << f.t0_s << "," << f.t1_s << "," << i << ","
           << j << "," << f.counts(i, j) << "," << f.bytes(i, j) << "\n";
        any = true;
      }
    }
    if (!any)
      os << f.window << "," << f.t0_s << "," << f.t1_s << ",-1,-1,0,0\n";
    // Annotated per-link-class mismatch columns (src = -2, dst = class).
    // Byte-hop totals are sums of integer products, so the cast is exact
    // for any plausible magnitude.
    for (std::size_t c = 0; c < f.class_hops.size(); ++c)
      os << f.window << "," << f.t0_s << "," << f.t1_s << ",-2," << c << ",0,"
         << static_cast<unsigned long long>(f.class_hops[c] + 0.5) << "\n";
  }
}

void write_frames_csv_file(const std::string& path,
                           const std::vector<FrameMatrix>& frames) {
  std::ofstream os(path);
  check(os.good(), "cannot open frames csv for writing: " + path);
  write_frames_csv(os, frames);
  check(os.good(), "failed writing frames csv: " + path);
}

std::vector<FrameMatrix> read_frames_csv(const std::string& path) {
  std::ifstream is(path);
  check(is.good(), "cannot open frames csv: " + path);
  std::string line;
  check(static_cast<bool>(std::getline(is, line)),
        "empty frames csv: " + path);
  check(line == "window,t0_s,t1_s,src,dst,count,bytes",
        "not a frames csv (bad header): " + path);
  check(std::getline(is, line) && line.starts_with("# order "),
        "frames csv has no order record: " + path);
  const long long order =
      integral_cell(line.substr(8), "frames csv order record of " + path);
  check(order >= 1, "frames csv order below 1: " + path);

  struct Row {
    long window;
    double t0, t1;
    long src, dst;
    unsigned long count, bytes;
  };
  std::vector<Row> rows;
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    std::vector<std::string> c;
    std::stringstream ss(line);
    std::string cell;
    while (std::getline(ss, cell, ',')) c.push_back(cell);
    check(c.size() == 7, "truncated frames csv row: " + line);
    const std::string row = "frames csv row: " + line;
    Row r;
    r.window = integral_cell(c[0], row);
    r.t0 = finite_cell(c[1], row);
    r.t1 = finite_cell(c[2], row);
    r.src = integral_cell(c[3], row);
    r.dst = integral_cell(c[4], row);
    const long long count = integral_cell(c[5], row);
    const long long bytes = integral_cell(c[6], row);
    check(count >= 0 && bytes >= 0, "negative traffic in frames csv: " + line);
    r.count = static_cast<unsigned long>(count);
    r.bytes = static_cast<unsigned long>(bytes);
    const bool empty_marker = r.src == -1 && r.dst == -1;
    const bool class_row = r.src == -2 && r.dst >= 0;
    check(empty_marker || class_row || (r.src >= 0 && r.dst >= 0),
          "bad src/dst in frames csv: " + line);
    check(class_row || (r.src < order && r.dst < order),
          "frames csv rank at or above order " + std::to_string(order) +
              " in " + path + ": " + line);
    rows.push_back(r);
  }
  check(!rows.empty(), "frames csv has a header but no data: " + path);

  const auto n = static_cast<std::size_t>(order);
  // Each window becomes two dense n x n matrices. An order no run could
  // write (a corrupt file) must fail here, not wrap n * n or exhaust memory.
  const double window_bytes =
      2.0 * static_cast<double>(n) * static_cast<double>(n) *
      sizeof(unsigned long);

  std::vector<FrameMatrix> frames;
  for (const Row& r : rows) {
    if (frames.empty() || frames.back().window != r.window) {
      check(frames.empty() || frames.back().window < r.window,
            "frames csv windows out of order");
      check(static_cast<double>(frames.size() + 1) * window_bytes <= 0x1p32,
            "frames csv order " + std::to_string(n) +
                " needs over 4 GiB of window matrices: " + path);
      FrameMatrix f;
      f.window = r.window;
      f.t0_s = r.t0;
      f.t1_s = r.t1;
      f.counts = CommMatrix::square(n);
      f.bytes = CommMatrix::square(n);
      frames.push_back(std::move(f));
    }
    if (r.src == -2) {
      auto& hops = frames.back().class_hops;
      const auto cls = static_cast<std::size_t>(r.dst);
      // The writer emits a window's classes as 0, 1, 2, ...
      check(cls <= hops.size(), "frames csv link class out of order: " + path);
      if (hops.size() == cls) hops.push_back(0.0);
      hops[cls] += static_cast<double>(r.bytes);
    } else if (r.src >= 0) {
      frames.back().counts(static_cast<std::size_t>(r.src),
                           static_cast<std::size_t>(r.dst)) += r.count;
      frames.back().bytes(static_cast<std::size_t>(r.src),
                          static_cast<std::size_t>(r.dst)) += r.bytes;
    }
  }
  return frames;
}

}  // namespace mpim::introspect
