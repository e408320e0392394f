// profview / monview: offline report tools.
//
//   profview <base>.<rank>.prof            per-rank row profile
//   profview --matrix <base>_sizes.N.prof  rootflush matrix + summary
//   profview --report <metrics.csv> [spans.csv]
//                                          telemetry report (monview mode)
//   profview --timeline <frames.csv>       per-window snapshot timeline
//
// The same source builds the `monview` binary, which is the report mode
// without the flag: `monview <metrics.csv> [spans.csv]` renders the files
// written by telemetry::write_metrics_csv / write_spans_csv, and
// `monview --timeline <frames.csv>` the per-window matrices written by
// introspect::write_frames_csv (or an MPI_M_get_frames dump).
#include <cstdio>
#include <cstring>
#include <iostream>

#include "support/error.h"
#include "support/table.h"
#include "tools/liveview.h"
#include "tools/prof_reader.h"
#include "tools/report.h"

namespace {

using mpim::Table;

int run_report(int argc, char** argv, int first) {
  if (first >= argc) {
    std::fprintf(stderr, "report mode needs <metrics.csv> [spans.csv]\n");
    return 2;
  }
  mpim::tools::report_metrics(argv[first], std::cout);
  if (first + 1 < argc) mpim::tools::report_spans(argv[first + 1], std::cout);
  return 0;
}

int run_live(int argc, char** argv, int first) {
  const char* path = nullptr;
  bool once = false;
  int interval_ms = 200;
  for (int i = first; i < argc; ++i) {
    if (std::strcmp(argv[i], "--once") == 0) {
      once = true;
    } else if (std::strcmp(argv[i], "--interval-ms") == 0 && i + 1 < argc) {
      interval_ms = std::atoi(argv[++i]);
    } else if (path == nullptr) {
      path = argv[i];
    } else {
      std::fprintf(stderr, "--live: unexpected argument %s\n", argv[i]);
      return 2;
    }
  }
  if (path == nullptr) {
    std::fprintf(stderr,
                 "--live needs <stream.jsonl> [--once] [--interval-ms N]\n");
    return 2;
  }
  return mpim::tools::run_live(path, once, interval_ms);
}

int run_timeline(int argc, char** argv, int first) {
  if (first >= argc) {
    std::fprintf(stderr, "--timeline needs <frames.csv>\n");
    return 2;
  }
  mpim::tools::report_timeline(argv[first], std::cout);
  return 0;
}

int run_critpath(int argc, char** argv, int first) {
  if (first >= argc) {
    std::fprintf(stderr, "--critical-path needs <critpath.csv>\n");
    return 2;
  }
  mpim::tools::report_critpath(argv[first], std::cout);
  return 0;
}

bool invoked_as_monview(const char* argv0) {
  const char* slash = std::strrchr(argv0, '/');
  const char* base = slash ? slash + 1 : argv0;
  return std::strcmp(base, "monview") == 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mpim;
  const bool monview = invoked_as_monview(argv[0]);
  if (argc < 2) {
    if (monview) {
      std::fprintf(stderr,
                   "usage: %s <metrics.csv> [spans.csv]\n"
                   "       %s --timeline <frames.csv>\n"
                   "       %s --critical-path <critpath.csv>\n"
                   "       %s --live <stream.jsonl> [--once] "
                   "[--interval-ms N]\n",
                   argv[0], argv[0], argv[0], argv[0]);
    } else {
      std::fprintf(stderr,
                   "usage: %s [--matrix] <file.prof>\n"
                   "       %s --report <metrics.csv> [spans.csv]\n"
                   "       %s --timeline <frames.csv>\n"
                   "       %s --critical-path <critpath.csv>\n"
                   "       %s --live <stream.jsonl> [--once] "
                   "[--interval-ms N]\n"
                   "  default: per-rank profile (MPI_M_flush output)\n"
                   "  --matrix: n x n matrix (MPI_M_rootflush output)\n"
                   "  --report: telemetry metrics/span report (monview)\n"
                   "  --timeline: per-window snapshot timeline + heatmap\n"
                   "  --critical-path: blame shares + wait states + path "
                   "lanes (critpath csv)\n"
                   "  --live: dashboard over an MPIM_STREAM_FILE JSONL\n",
                   argv[0], argv[0], argv[0], argv[0], argv[0]);
    }
    return 2;
  }
  try {
    if (std::strcmp(argv[1], "--timeline") == 0)
      return run_timeline(argc, argv, 2);
    if (std::strcmp(argv[1], "--critical-path") == 0)
      return run_critpath(argc, argv, 2);
    if (std::strcmp(argv[1], "--live") == 0) return run_live(argc, argv, 2);
    if (monview) return run_report(argc, argv, 1);
    if (std::strcmp(argv[1], "--report") == 0)
      return run_report(argc, argv, 2);
    if (std::strcmp(argv[1], "--matrix") == 0) {
      if (argc < 3) {
        std::fprintf(stderr, "--matrix needs a file\n");
        return 2;
      }
      tools::report_matrix(argv[2], std::cout);
      return 0;
    }

    const auto prof = tools::read_rank_profile(argv[1]);
    std::printf("rank %d of %d, flags %s\n", prof.rank, prof.comm_size,
                prof.flags.c_str());
    Table t({"peer", "messages", "bytes"});
    for (std::size_t p = 0; p < prof.counts.size(); ++p)
      if (prof.counts[p] || prof.sizes[p])
        t.add(p, prof.counts[p],
              format_bytes(static_cast<double>(prof.sizes[p])));
    t.print(std::cout);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: %s\n", monview ? "monview" : "profview",
                 e.what());
    return 1;
  }
}
