#include "tools/report.h"

#include <algorithm>
#include <fstream>
#include <iomanip>
#include <map>
#include <ostream>
#include <sstream>
#include <tuple>
#include <vector>

#include "introspect/analyzer.h"
#include "support/cells.h"
#include "support/error.h"
#include "support/table.h"
#include "tools/prof_reader.h"

namespace mpim::tools {

namespace {

std::vector<std::string> split_csv_line(const std::string& line) {
  std::vector<std::string> out;
  std::stringstream ss(line);
  std::string cell;
  while (std::getline(ss, cell, ',')) out.push_back(cell);
  return out;
}

}  // namespace

void report_metrics(const std::string& path, std::ostream& os) {
  std::ifstream is(path);
  check(is.good(), "cannot open metrics csv: " + path);
  std::string line;
  check(static_cast<bool>(std::getline(is, line)),
        "empty metrics csv: " + path);
  check(line == "metric,kind,rank,field,value",
        "not a telemetry metrics csv (bad header): " + path);

  struct Scalar {
    std::string kind;
    long long total = 0;
    long long max_value = 0;
    int max_rank = 0;
    bool any = false;
  };
  std::map<std::string, Scalar> scalars;     // insertion = catalog order lost,
  std::vector<std::string> scalar_order;     // so keep it explicitly
  std::map<std::string, std::map<std::string, long long>> hist_buckets;
  std::vector<std::string> bucket_order;  // "metric|le" in file order

  while (std::getline(is, line)) {
    if (line.empty()) continue;
    const std::vector<std::string> c = split_csv_line(line);
    const std::string row = "csv row: " + line;
    check(c.size() == 5, "malformed metrics csv row: " + line);
    const std::string& metric = c[0];
    const std::string& kind = c[1];
    const int rank = static_cast<int>(integral_cell(c[2], row));
    const std::string& field = c[3];
    const long long value = integral_cell(c[4], row);
    if (field.rfind("le=", 0) == 0) {
      auto& buckets = hist_buckets[metric];
      if (buckets.find(field) == buckets.end())
        bucket_order.push_back(metric + "|" + field);
      buckets[field] += value;
      continue;
    }
    // counter/gauge `value` rows and histogram `count` rows roll up the
    // same way: per-rank scalar, summed and max-tracked across ranks.
    Scalar& s = scalars[metric];
    if (!s.any) scalar_order.push_back(metric);
    s.kind = kind;
    s.total += value;
    if (!s.any || value > s.max_value) {
      s.max_value = value;
      s.max_rank = rank;
    }
    s.any = true;
  }

  Table t({"metric", "kind", "total", "max rank", "max value"});
  for (const std::string& name : scalar_order) {
    const Scalar& s = scalars[name];
    t.add(name, s.kind, s.total, s.max_rank, s.max_value);
  }
  os << "metrics (" << scalar_order.size() << ")\n";
  t.print(os);

  if (!bucket_order.empty()) {
    Table h({"histogram", "le", "events (all ranks)"});
    for (const std::string& key : bucket_order) {
      const std::size_t bar = key.find('|');
      const std::string metric = key.substr(0, bar);
      const std::string le = key.substr(bar + 1 + 3);  // strip "le="
      h.add(metric, le, hist_buckets[metric][key.substr(bar + 1)]);
    }
    os << "\nhistogram buckets\n";
    h.print(os);
  }
}

void report_spans(const std::string& path, std::ostream& os) {
  std::ifstream is(path);
  if (!is.good()) {
    os << "\nspans: cannot open " << path << "; skipping span report\n";
    return;
  }
  std::string line;
  if (!std::getline(is, line)) {
    os << "\nspans: " << path << " is empty; skipping span report\n";
    return;
  }
  if (line != "rank,name,cat,depth,t0_s,t1_s,a,b") {
    os << "\nspans: " << path
       << " is not a telemetry spans csv (bad header); skipping span "
          "report\n";
    return;
  }

  struct Roll {
    long long count = 0;
    double total_s = 0.0;
  };
  std::map<std::string, Roll> rolls;
  long long events = 0;
  bool truncated = false;
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    // A torn tail (crash mid-write) must not discard the rows before it:
    // stop at the first malformed row and report what parsed.
    const std::vector<std::string> c = split_csv_line(line);
    const std::string row = "csv row: " + line;
    if (c.size() != 8) {
      truncated = true;
      break;
    }
    double t0 = 0.0, t1 = 0.0;
    try {
      t0 = finite_cell(c[4], row);
      t1 = finite_cell(c[5], row);
    } catch (const std::exception&) {
      truncated = true;
      break;
    }
    Roll& r = rolls[c[1]];
    ++r.count;
    r.total_s += t1 - t0;
    ++events;
  }
  Table t({"span", "count", "total", "mean"});
  for (const auto& [name, roll] : rolls)
    t.add(name, roll.count, format_seconds(roll.total_s),
          format_seconds(roll.count ? roll.total_s / roll.count : 0.0));
  os << "\nspans (" << events << " events, " << rolls.size() << " kinds";
  if (truncated) os << ", file truncated after row " << events;
  os << ")\n";
  t.print(os);
  if (truncated)
    os << "note: " << path
       << " ends in a malformed row; rows past it were ignored\n";
}

void report_critpath(const std::string& path, std::ostream& os) {
  std::ifstream is(path);
  check(is.good(), "cannot open critpath csv: " + path);
  std::string line;
  check(static_cast<bool>(std::getline(is, line)),
        "empty critpath csv: " + path);
  check(line == "critpath,v1",
        "not a critpath csv (bad header): " + path);

  struct RankRow {
    int rank = 0;
    long long comm = 0, blame = 0, own = 0, caused = 0;
    long long ls = 0, lr = 0, wc = 0, ri = 0;
    int dom_peer = -1;
    long long dom_peer_ns = 0;
    bool dead = false;
  };
  struct Link {
    int src = 0, dst = 0;
    long long wait = 0, bytes = 0;
    bool cross = false;
  };
  struct Seg {
    int rank = 0;
    double t0 = 0.0, t1 = 0.0;
    int via = -1;
    bool tomb = false;
  };
  long long total_comm = 0, total_wait = 0;
  int dominant_rank = -1;
  std::string dominant_class = "none";
  bool blame_only = false;
  double phase_s = 1e-3;
  std::vector<RankRow> ranks;
  std::vector<Link> links;
  std::map<int, std::pair<long long, std::string>> phase_wait;  // phase->(ns, class of hottest row)
  std::map<int, long long> phase_hottest;
  std::vector<Seg> path_segs;

  while (std::getline(is, line)) {
    if (line.empty()) continue;
    const std::vector<std::string> c = split_csv_line(line);
    const std::string row = "csv row: " + line;
    check(!c.empty(), "malformed critpath csv row: " + line);
    if (c[0] == "total") {
      check(c.size() == 7, "malformed critpath total row: " + line);
      total_comm = integral_cell(c[1], row);
      total_wait = integral_cell(c[2], row);
      dominant_rank = static_cast<int>(integral_cell(c[3], row));
      dominant_class = c[4];
      blame_only = integral_cell(c[5], row) != 0;
      phase_s = finite_cell(c[6], row);
    } else if (c[0] == "rank") {
      check(c.size() == 13, "malformed critpath rank row: " + line);
      RankRow r;
      r.rank = static_cast<int>(integral_cell(c[1], row));
      r.comm = integral_cell(c[2], row);
      r.blame = integral_cell(c[3], row);
      r.own = integral_cell(c[4], row);
      r.caused = integral_cell(c[5], row);
      r.ls = integral_cell(c[6], row);
      r.lr = integral_cell(c[7], row);
      r.wc = integral_cell(c[8], row);
      r.ri = integral_cell(c[9], row);
      r.dom_peer = static_cast<int>(integral_cell(c[10], row));
      r.dom_peer_ns = integral_cell(c[11], row);
      r.dead = integral_cell(c[12], row) != 0;
      ranks.push_back(r);
    } else if (c[0] == "link") {
      check(c.size() == 6, "malformed critpath link row: " + line);
      links.push_back({static_cast<int>(integral_cell(c[1], row)),
                       static_cast<int>(integral_cell(c[2], row)),
                       integral_cell(c[3], row), integral_cell(c[4], row),
                       integral_cell(c[5], row) != 0});
    } else if (c[0] == "phase") {
      check(c.size() == 5, "malformed critpath phase row: " + line);
      const int phase = static_cast<int>(integral_cell(c[2], row));
      const long long w = integral_cell(c[3], row);
      auto& cell = phase_wait[phase];
      cell.first += w;
      if (w > phase_hottest[phase]) {
        phase_hottest[phase] = w;
        cell.second = c[4];
      }
    } else if (c[0] == "path") {
      check(c.size() == 6, "malformed critpath path row: " + line);
      path_segs.push_back({static_cast<int>(integral_cell(c[1], row)),
                           finite_cell(c[2], row), finite_cell(c[3], row),
                           static_cast<int>(integral_cell(c[4], row)),
                           integral_cell(c[5], row) != 0});
    } else {
      fail("unknown critpath csv section: " + c[0]);
    }
  }

  os << "critical path / wait states";
  if (blame_only) os << " [blame-only: event rings refused]";
  os << "\n";
  os << "communication time : " << format_seconds(1e-9 * total_comm)
     << " (all ranks)\n";
  os << "classified waiting : " << format_seconds(1e-9 * total_wait);
  if (total_comm > 0)
    os << " (" << format_sig(100.0 * total_wait / total_comm) << "% of comm)";
  os << "\n";
  os << "dominant cause     : rank " << dominant_rank << " ("
     << dominant_class << ")\n";

  // Blame shares: comm - own_wait + caused, summing to the total comm time.
  Table bt({"rank", "blame", "share", "own wait", "caused", "dominant class",
            "waits on"});
  for (const RankRow& r : ranks) {
    if (r.comm == 0 && r.blame == 0 && !r.dead) continue;
    // Same rule as the profiler: late_receiver dwell is informational, so
    // it only shows as dominant when no charged class saw any time.
    std::string cls = "-";
    const long long top = std::max({r.ls, r.wc, r.ri});
    if (top > 0) {
      if (top == r.ls) cls = "late_sender";
      else if (top == r.wc) cls = "wait_at_collective";
      else cls = "imbalance_at_root";
    } else if (r.lr > 0) {
      cls = "late_receiver";
    }
    bt.add(std::to_string(r.rank) + (r.dead ? " (dead)" : ""),
           format_seconds(1e-9 * r.blame),
           total_comm > 0
               ? format_sig(100.0 * r.blame / total_comm) + "%"
               : "-",
           format_seconds(1e-9 * r.own), format_seconds(1e-9 * r.caused),
           cls,
           r.dom_peer < 0 ? "-"
                          : std::to_string(r.dom_peer) + " (" +
                                format_seconds(1e-9 * r.dom_peer_ns) + ")");
  }
  os << "\nblame shares (sum = communication time)\n";
  bt.print(os);

  if (!links.empty()) {
    constexpr std::size_t kMaxLinks = 10;
    Table lt({"link", "wait", "bytes", "locality"});
    for (std::size_t i = 0; i < std::min(links.size(), kMaxLinks); ++i)
      lt.add(std::to_string(links[i].src) + "->" + std::to_string(links[i].dst),
             format_seconds(1e-9 * links[i].wait),
             format_bytes(static_cast<double>(links[i].bytes)),
             links[i].cross ? "cross-node" : "intra-node");
    os << "\nhottest links (wait charged src->dst)\n";
    lt.print(os);
  }

  if (!phase_wait.empty()) {
    // Hottest phases only; a long run can carry hundreds of grid cells.
    std::vector<std::pair<int, std::pair<long long, std::string>>> phases(
        phase_wait.begin(), phase_wait.end());
    std::sort(phases.begin(), phases.end(),
              [](const auto& a, const auto& b) {
                return a.second.first != b.second.first
                           ? a.second.first > b.second.first
                           : a.first < b.first;
              });
    constexpr std::size_t kMaxPhases = 12;
    if (phases.size() > kMaxPhases) phases.resize(kMaxPhases);
    std::sort(phases.begin(), phases.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    Table pt({"phase", "t0", "t1", "wait (all ranks)", "dominant class"});
    for (const auto& [phase, cell] : phases)
      pt.add(phase, format_seconds(phase * phase_s),
             format_seconds((phase + 1) * phase_s),
             format_seconds(1e-9 * cell.first), cell.second);
    os << "\nper-phase blame (top " << phases.size() << " of "
       << phase_wait.size() << " phases)\n";
    pt.print(os);
  }

  if (path_segs.empty()) {
    os << "\nno critical path extracted\n";
    return;
  }

  // Lane diagram: one row per rank on the path, time left to right.
  double tmin = path_segs.front().t0, tmax = path_segs.front().t1;
  std::map<int, std::vector<const Seg*>> by_rank;
  for (const Seg& s : path_segs) {
    tmin = std::min(tmin, s.t0);
    tmax = std::max(tmax, s.t1);
    by_rank[s.rank].push_back(&s);
  }
  constexpr int kWidth = 64;
  const double span = tmax > tmin ? tmax - tmin : 1.0;
  auto col = [&](double t) {
    int c = static_cast<int>((t - tmin) / span * (kWidth - 1));
    return std::min(std::max(c, 0), kWidth - 1);
  };
  os << "\ncritical path (" << path_segs.size() << " segments, "
     << format_seconds(tmin) << " .. " << format_seconds(tmax)
     << "; = on path, + hop in, x hop from a dead rank)\n";
  for (const auto& [rank, segs] : by_rank) {
    std::string lane(kWidth, '.');
    for (const Seg* s : segs) {
      const int c0 = col(s->t0), c1 = col(s->t1);
      for (int c = c0; c <= c1; ++c) lane[static_cast<std::size_t>(c)] = '=';
      if (s->via >= 0)
        lane[static_cast<std::size_t>(c0)] = s->tomb ? 'x' : '+';
    }
    os << "  rank " << rank << "\t|" << lane << "|\n";
  }
}

void report_matrix(const std::string& path, std::ostream& os) {
  const CommMatrix m = read_matrix_profile(path);
  const MatrixSummary s = summarize(m);
  std::ostringstream density;
  density << std::fixed << std::setprecision(1) << 100.0 * s.density << "%";
  os << "matrix order " << m.rows() << "\n"
     << "total volume        : "
     << format_bytes(static_cast<double>(s.total)) << "\n"
     << "heaviest pair       : " << s.heaviest_src << " -> " << s.heaviest_dst
     << " (" << format_bytes(static_cast<double>(s.heaviest_value)) << ")\n"
     << "off-diagonal density: " << density.str() << "\n";
  if (!s.missing_rows.empty()) {
    os << "missing rows        :";
    for (const std::size_t i : s.missing_rows) os << " " << i;
    os << " (contributors the gather lost)\n";
  }
  Table t({"sender", "total sent", "heaviest peer"});
  for (std::size_t i = 0; i < m.rows(); ++i) {
    if (missing_row(m, i)) continue;
    unsigned long row_total = 0, best_v = 0;
    std::size_t best_j = 0;
    for (std::size_t j = 0; j < m.cols(); ++j) {
      row_total += m(i, j);
      if (m(i, j) > best_v) {
        best_v = m(i, j);
        best_j = j;
      }
    }
    if (row_total)
      t.add(i, format_bytes(static_cast<double>(row_total)),
            std::to_string(best_j) + " (" +
                format_bytes(static_cast<double>(best_v)) + ")");
  }
  t.print(os);
}

void report_timeline(const std::string& path, std::ostream& os) {
  const std::vector<introspect::FrameMatrix> frames =
      introspect::read_frames_csv(path);
  const std::vector<introspect::WindowMetrics> metrics =
      introspect::analyze_windows(frames);

  Table t({"window", "t0", "t1", "msgs", "bytes", "imbalance", "cos d",
           "l1 d", "phase"});
  int boundaries = 0;
  for (const introspect::WindowMetrics& m : metrics) {
    if (m.boundary) ++boundaries;
    t.add(m.window, format_seconds(m.t0_s), format_seconds(m.t1_s), m.msgs,
          format_bytes(static_cast<double>(m.bytes)), format_sig(m.imbalance),
          m.cos_dist < 0 ? "-" : format_sig(m.cos_dist),
          m.l1_dist < 0 ? "-" : format_sig(m.l1_dist),
          m.boundary ? "*" : "");
  }
  os << "timeline (" << frames.size() << " windows, " << boundaries
     << " phase boundaries)\n";
  t.print(os);

  // Per-link-class mismatch columns, present when the producer annotated
  // the frames against a fabric (analyzer::annotate_link_class_hops).
  std::size_t num_classes = 0;
  for (const introspect::WindowMetrics& m : metrics)
    num_classes = std::max(num_classes, m.class_hops.size());
  if (num_classes == 0) {
    os << "\nno per-link-class mismatch columns (frames csv predates the "
          "fabric annotation; rerun the producer against a fabric)\n";
  } else {
    std::vector<std::string> headers = {"window"};
    for (std::size_t c = 0; c < num_classes; ++c)
      headers.push_back("class " + std::to_string(c));
    headers.push_back("total hops");
    Table ct(headers);
    for (const introspect::WindowMetrics& m : metrics) {
      std::vector<std::string> row = {std::to_string(m.window)};
      double total = 0.0;
      for (std::size_t c = 0; c < num_classes; ++c) {
        const double v = c < m.class_hops.size() ? m.class_hops[c] : 0.0;
        total += v;
        row.push_back(format_sig(v));
      }
      row.push_back(format_sig(total));
      ct.add_row(row);
    }
    os << "\nmismatch byte-hops by link class (class 0 = nic/inter-node)\n";
    ct.print(os);
  }

  // Heatmap: the heaviest sender->receiver pairs, one row each, one column
  // per window, intensity scaled to the hottest cell in the view.
  struct Pair {
    std::size_t src, dst;
    unsigned long total;
  };
  std::map<std::pair<std::size_t, std::size_t>, unsigned long> totals;
  for (const introspect::FrameMatrix& f : frames)
    for (std::size_t i = 0; i < f.bytes.rows(); ++i)
      for (std::size_t j = 0; j < f.bytes.cols(); ++j)
        if (f.bytes(i, j) != 0) totals[{i, j}] += f.bytes(i, j);
  std::vector<Pair> pairs;
  pairs.reserve(totals.size());
  for (const auto& [key, total] : totals)
    pairs.push_back({key.first, key.second, total});
  std::sort(pairs.begin(), pairs.end(), [](const Pair& a, const Pair& b) {
    return a.total != b.total ? a.total > b.total
                              : std::tie(a.src, a.dst) < std::tie(b.src, b.dst);
  });
  constexpr std::size_t kMaxPairs = 16;
  if (pairs.size() > kMaxPairs) pairs.resize(kMaxPairs);
  if (pairs.empty()) return;

  unsigned long hottest = 0;
  for (const Pair& p : pairs)
    for (const introspect::FrameMatrix& f : frames)
      hottest = std::max(hottest, f.bytes(p.src, p.dst));
  static const char kScale[] = " .:-=+*#%@";
  os << "\nheatmap (bytes per window, top " << pairs.size() << " pairs, @ = "
     << format_bytes(static_cast<double>(hottest)) << ")\n";
  for (const Pair& p : pairs) {
    os << "  " << p.src << "->" << p.dst << "\t|";
    for (const introspect::FrameMatrix& f : frames) {
      const unsigned long v = f.bytes(p.src, p.dst);
      const std::size_t level =
          v == 0 ? 0
                 : 1 + static_cast<std::size_t>(
                           static_cast<double>(v) /
                           static_cast<double>(hottest) * 8.999);
      os << kScale[std::min<std::size_t>(level, 9)];
    }
    os << "|\t" << format_bytes(static_cast<double>(p.total)) << " total\n";
  }
}

}  // namespace mpim::tools
