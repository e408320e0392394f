// Shared plumbing for the paper-reproduction bench binaries.
//
// Every binary accepts "--quick" (shrunk sweeps, for smoke runs) and
// "--csv <dir>" (also emit CSV files next to the printed tables).
#pragma once

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "minimpi/api.h"
#include "mpimon/sim.h"
#include "support/table.h"
#include "topo/topology.h"

namespace mpim::bench {

struct Options {
  bool quick = false;
  std::optional<std::string> csv_dir;
  std::string prog = "bench";  ///< binary basename, "bench_" prefix stripped
};

namespace detail {

/// Accumulates every table a run emitted so an atexit hook can mirror them
/// into <csv_dir>/BENCH_<prog>.json -- the per-PR trajectory file
/// scripts/bench_trend.py tracks alongside the google-benchmark JSONs.
struct JsonSink {
  std::string path;
  std::string prog;
  std::vector<std::pair<std::string, Table>> tables;
};

inline JsonSink& json_sink() {
  static JsonSink sink;
  return sink;
}

inline std::string json_escape(const std::string& in) {
  std::string out;
  out.reserve(in.size());
  for (char c : in) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) < 0x20) continue;  // tables are text
    out.push_back(c);
  }
  return out;
}

inline void flush_json_sink() {
  const JsonSink& sink = json_sink();
  if (sink.path.empty() || sink.tables.empty()) return;
  std::ofstream os(sink.path);
  if (!os.good()) return;
  os << "{\n  \"format\": \"mpim-bench-tables\",\n  \"program\": \""
     << json_escape(sink.prog) << "\",\n  \"tables\": [";
  bool first_table = true;
  for (const auto& [name, table] : sink.tables) {
    os << (first_table ? "\n" : ",\n") << "    {\"name\": \""
       << json_escape(name) << "\", \"header\": [";
    first_table = false;
    bool first = true;
    for (const std::string& h : table.header()) {
      os << (first ? "" : ", ") << '"' << json_escape(h) << '"';
      first = false;
    }
    os << "], \"rows\": [";
    bool first_row = true;
    for (const auto& row : table.rows()) {
      os << (first_row ? "" : ", ") << '[';
      first_row = false;
      first = true;
      for (const std::string& cell : row) {
        os << (first ? "" : ", ") << '"' << json_escape(cell) << '"';
        first = false;
      }
      os << ']';
    }
    os << "]}";
  }
  os << "\n  ]\n}\n";
}

}  // namespace detail

inline Options parse_options(int argc, char** argv) {
  Options opt;
  std::string base = argv[0];
  if (const auto slash = base.find_last_of('/'); slash != std::string::npos)
    base = base.substr(slash + 1);
  if (base.rfind("bench_", 0) == 0) base = base.substr(6);
  opt.prog = base;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") {
      opt.quick = true;
    } else if (arg == "--csv" && i + 1 < argc) {
      opt.csv_dir = argv[++i];
      // Checked before any work: the tables are written at the end.
      std::error_code ec;
      if (!std::filesystem::is_directory(*opt.csv_dir, ec)) {
        std::cerr << "--csv: not a directory: " << *opt.csv_dir << "\n";
        std::exit(2);
      }
    } else if (arg == "--help" || arg == "-h") {
      std::cout << "usage: " << argv[0] << " [--quick] [--csv <dir>]\n";
      std::exit(0);
    } else {
      std::cerr << "unknown argument: " << arg << "\n";
      std::exit(2);
    }
  }
  return opt;
}

inline void maybe_csv(const Options& opt, const Table& table,
                      const std::string& name) {
  if (!opt.csv_dir) return;
  table.write_csv_file(*opt.csv_dir + "/" + name + ".csv");
  detail::JsonSink& sink = detail::json_sink();
  if (sink.path.empty()) {
    sink.path = *opt.csv_dir + "/BENCH_" + opt.prog + ".json";
    sink.prog = opt.prog;
    std::atexit(detail::flush_json_sink);
  }
  sink.tables.emplace_back(name, table);
}

/// PlaFRIM-like engine config: `nranks` ranks over `nodes` 24-core nodes
/// with the given initial placement policy ("rr", "random", "standard").
inline mpi::EngineConfig plafrim_config(int nodes, int nranks,
                                        const std::string& mapping = "rr",
                                        unsigned long seed = 1) {
  auto cost = net::CostModel::plafrim_like(nodes);
  topo::Placement placement;
  if (mapping == "rr") {
    placement = topo::round_robin_placement(nranks, cost.topology());
  } else if (mapping == "random") {
    placement = topo::random_placement(nranks, cost.topology(), seed);
  } else if (mapping == "standard") {
    placement = topo::bynode_placement(nranks, cost.topology());
  } else {
    std::cerr << "unknown mapping " << mapping << "\n";
    std::exit(2);
  }
  mpi::EngineConfig cfg{.cost_model = std::move(cost),
                        .placement = std::move(placement)};
  cfg.watchdog_wall_timeout_s = 60.0;
  // The paper's testbed shares one Omni-Path NIC among 24 ranks per node:
  // all figure reproductions run with the contention model on. The port
  // wire rate (~12.5 GB/s) is twice the single-flow effective bandwidth.
  cfg.nic_contention = true;
  cfg.nic_port_beta_scale = 2.0;
  return cfg;
}

inline int nodes_for_ranks(int nranks) {
  return (nranks + 23) / 24;  // 24 ranks per node, like the paper
}

inline void banner(const std::string& what) {
  std::cout << "\n=== " << what << " ===\n";
}

}  // namespace mpim::bench
