#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "minimpi/api.h"
#include "mpimon/mpi_monitoring.h"
#include "mpimon/session.hpp"
#include "mpimon/sim.h"
#include "tools/report.h"
#include "tools/prof_reader.h"

namespace mpim::tools {
namespace {

using mpi::Comm;
using mpi::Ctx;
using mpi::Type;

Sim make_sim(int nranks = 4) {
  auto cost = net::CostModel::plafrim_like(2, 1, 2);
  mpi::EngineConfig cfg{
      .cost_model = cost,
      .placement = topo::round_robin_placement(nranks, cost.topology())};
  cfg.watchdog_wall_timeout_s = 5.0;
  return Sim(std::move(cfg));
}

// --- prof_reader ------------------------------------------------------------------

TEST(ProfReader, RoundTripsFlushOutput) {
  namespace fs = std::filesystem;
  const std::string base = (fs::temp_directory_path() / "pr_rt").string();
  Sim sim = make_sim(2);
  sim.run([&](Ctx& ctx) {
    const Comm world = ctx.world();
    mon::Environment env;
    MPI_M_msid id;
    MPI_M_start(world, &id);
    if (ctx.world_rank() == 0) {
      std::vector<std::byte> b(321);
      mpi::send(b.data(), b.size(), Type::Byte, 1, 0, world);
    } else {
      std::vector<std::byte> b(321);
      mpi::recv(b.data(), b.size(), Type::Byte, 0, 0, world);
    }
    MPI_M_suspend(id);
    ASSERT_EQ(MPI_M_flush(id, base.c_str(), MPI_M_P2P_ONLY), MPI_M_SUCCESS);
    MPI_M_free(id);
  });
  const auto prof = read_rank_profile(base + ".0.prof");
  EXPECT_EQ(prof.rank, 0);
  EXPECT_EQ(prof.comm_size, 2);
  EXPECT_EQ(prof.flags, "p2p");
  EXPECT_EQ(prof.sizes[1], 321u);
  EXPECT_EQ(prof.counts[1], 1u);
  for (int r = 0; r < 2; ++r)
    std::remove((base + "." + std::to_string(r) + ".prof").c_str());
}

TEST(ProfReader, RoundTripsRootflushMatrix) {
  namespace fs = std::filesystem;
  const std::string base = (fs::temp_directory_path() / "pr_m").string();
  Sim sim = make_sim(4);
  sim.run([&](Ctx& ctx) {
    const Comm world = ctx.world();
    mon::Environment env;
    MPI_M_msid id;
    MPI_M_start(world, &id);
    mpi::barrier(world);
    MPI_M_suspend(id);
    ASSERT_EQ(MPI_M_rootflush(id, 0, base.c_str(), MPI_M_COLL_ONLY),
              MPI_M_SUCCESS);
    MPI_M_free(id);
  });
  const CommMatrix m = read_matrix_profile(base + "_counts.0.prof");
  EXPECT_EQ(m.rows(), 4u);
  EXPECT_EQ(m.sum(), 8u);  // dissemination barrier: 2 sends per rank
  const auto s = summarize(m);
  EXPECT_EQ(s.total, 8u);
  EXPECT_GT(s.density, 0.0);
  for (const char* kind : {"_counts", "_sizes"})
    std::remove((base + kind + ".0.prof").c_str());
}

TEST(ProfReader, RejectsMalformedInput) {
  namespace fs = std::filesystem;
  const std::string path = (fs::temp_directory_path() / "bad.prof").string();
  {
    std::ofstream os(path);
    os << "# header only\nnot numbers here\n";
  }
  EXPECT_THROW(read_rank_profile(path), Error);
  EXPECT_THROW(read_rank_profile("/nonexistent/file.prof"), Error);
  {
    std::ofstream os(path);
    os << "1 2 3\n4 5\n";  // ragged matrix
  }
  EXPECT_THROW(read_matrix_profile(path), Error);
  std::remove(path.c_str());
}

TEST(ProfReader, RejectsSignedCellsJunkAndBadHeadersByFileAndLine) {
  // Every cell is an unsigned decimal: "-1" is not the MPI_M_DATA_MISSING
  // sentinel, a trailing token does not end a row silently, and a bad
  // header is an mpim::Error like any other, naming the file and line.
  namespace fs = std::filesystem;
  const std::string path = (fs::temp_directory_path() / "strict.prof").string();
  const auto expect_rejected = [&](auto read, const std::string& content,
                                   int line) {
    {
      std::ofstream os(path);
      os << content;
    }
    try {
      read(path);
      ADD_FAILURE() << "accepted:\n" << content;
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find(path + ":" + std::to_string(line)),
                std::string::npos)
          << e.what();
    } catch (const std::exception& e) {
      ADD_FAILURE() << "not an mpim::Error: " << e.what();
    }
  };
  const auto matrix = [](const std::string& p) { read_matrix_profile(p); };
  const auto rank = [](const std::string& p) { read_rank_profile(p); };
  expect_rejected(matrix, "# MPI_Monitoring matrix, order 2\n0 -1\n5 0\n", 2);
  expect_rejected(matrix, "0 1\n2 3x\n", 2);
  expect_rejected(matrix, "0 1\n2 +3\n", 2);
  expect_rejected(matrix, "0 18446744073709551616\n1 0\n", 1);
  // A lost contributor's row is all MPI_M_DATA_MISSING, never part of one.
  expect_rejected(matrix, "0 5\n18446744073709551615 3\n", 2);
  const std::string header = "# rank 0 of 2, flags all\n";
  expect_rejected(rank, header + "0 0 0\n1 -3 8\n", 3);
  expect_rejected(rank, header + "0 1 2 junk\n1 0 0\n", 2);
  expect_rejected(rank, "# rank 0 of X\n0 0 0\n", 1);
  expect_rejected(rank, "# rank -1 of 2\n0 0 0\n1 0 0\n", 1);
  std::remove(path.c_str());
}

// --- report CSV ingestion -----------------------------------------------------

/// Writes `content` to a temp file and returns its path (caller removes).
std::string write_temp_csv(const std::string& name,
                           const std::string& content) {
  namespace fs = std::filesystem;
  const std::string path = (fs::temp_directory_path() / name).string();
  std::ofstream os(path);
  os << content;
  return path;
}

TEST(Report, RendersMetricsAndSpans) {
  const std::string metrics = write_temp_csv(
      "rep_m.csv",
      "metric,kind,rank,field,value\n"
      "mpim_engine_messages_total,counter,0,value,5\n"
      "mpim_engine_messages_total,counter,1,value,9\n"
      "mpim_send_wait_seconds,histogram,0,le=0.001,3\n");
  const std::string spans = write_temp_csv(
      "rep_s.csv",
      "rank,name,cat,depth,t0_s,t1_s,a,b\n"
      "0,halo.sweep,C,0,0.5,1.5,0,0\n"
      "1,halo.sweep,C,0,0.25,0.75,0,0\n");
  std::ostringstream os;
  report_metrics(metrics, os);
  report_spans(spans, os);
  const std::string out = os.str();
  EXPECT_NE(out.find("mpim_engine_messages_total"), std::string::npos);
  EXPECT_NE(out.find("14"), std::string::npos);  // summed over ranks
  EXPECT_NE(out.find("histogram buckets"), std::string::npos);
  EXPECT_NE(out.find("halo.sweep"), std::string::npos);
  EXPECT_NE(out.find("2 events"), std::string::npos);
  std::remove(metrics.c_str());
  std::remove(spans.c_str());
}

TEST(Report, RejectsEmptyFilesAndMissingPaths) {
  const std::string empty = write_temp_csv("rep_empty.csv", "");
  std::ostringstream os;
  EXPECT_THROW(report_metrics(empty, os), Error);
  EXPECT_THROW(report_timeline(empty, os), Error);
  EXPECT_THROW(report_metrics("/nonexistent/m.csv", os), Error);
  EXPECT_THROW(report_timeline("/nonexistent/f.csv", os), Error);
  std::remove(empty.c_str());
}

TEST(Report, RejectsForeignHeaders) {
  const std::string wrong = write_temp_csv("rep_hdr.csv", "a,b,c\n1,2,3\n");
  std::ostringstream os;
  EXPECT_THROW(report_metrics(wrong, os), Error);
  EXPECT_THROW(report_timeline(wrong, os), Error);
  std::remove(wrong.c_str());
}

TEST(Report, RejectsTruncatedRows) {
  const std::string m = write_temp_csv(
      "rep_trunc_m.csv",
      "metric,kind,rank,field,value\nmpim_x_total,counter,0,value\n");
  const std::string f = write_temp_csv(
      "rep_trunc_f.csv",
      "window,t0_s,t1_s,src,dst,count,bytes\n# order 2\n0,0.0,0.001,0,1,2\n");
  std::ostringstream os;
  EXPECT_THROW(report_metrics(m, os), Error);
  EXPECT_THROW(report_timeline(f, os), Error);
  for (const std::string& p : {m, f}) std::remove(p.c_str());
}

TEST(Report, RejectsNonFiniteAndNonNumericCells) {
  const std::string m = write_temp_csv(
      "rep_nan_m.csv",
      "metric,kind,rank,field,value\nmpim_x_total,counter,0,value,nan\n");
  const std::string f = write_temp_csv(
      "rep_nan_f.csv",
      "window,t0_s,t1_s,src,dst,count,bytes\n# order 2\n"
      "0,0.0,0.001,0,1,2,oops\n");
  std::ostringstream os;
  EXPECT_THROW(report_metrics(m, os), Error);
  EXPECT_THROW(report_timeline(f, os), Error);
  // A fractional count is numeric but not an integer: also rejected.
  const std::string frac = write_temp_csv(
      "rep_frac_m.csv",
      "metric,kind,rank,field,value\nmpim_x_total,counter,0,value,1.5\n");
  EXPECT_THROW(report_metrics(frac, os), Error);
  for (const std::string& p : {m, f, frac}) std::remove(p.c_str());
}

// --- spans degrade gracefully ------------------------------------------------
// Spans are the *optional* half of `profview --report <metrics> [spans]`: a
// run cut short by a crash leaves the spans CSV absent or torn mid-row, and
// that must never take the metrics report down with it.

TEST(Report, SpansMissingFileDegradesToANote) {
  std::ostringstream os;
  report_spans("/nonexistent/spans.csv", os);  // must not throw
  EXPECT_NE(os.str().find("cannot open"), std::string::npos);
  EXPECT_NE(os.str().find("skipping span report"), std::string::npos);
}

TEST(Report, SpansEmptyOrForeignFileDegradesToANote) {
  const std::string empty = write_temp_csv("rep_sp_empty.csv", "");
  std::ostringstream os1;
  report_spans(empty, os1);
  EXPECT_NE(os1.str().find("skipping span report"), std::string::npos);

  const std::string wrong = write_temp_csv("rep_sp_hdr.csv", "a,b,c\n1,2,3\n");
  std::ostringstream os2;
  report_spans(wrong, os2);
  EXPECT_NE(os2.str().find("not a telemetry spans csv"), std::string::npos);
  std::remove(empty.c_str());
  std::remove(wrong.c_str());
}

TEST(Report, SpansTruncatedMidRowRendersTheParsedPrefix) {
  // Two complete rows, then a tear mid-row (missing columns) -- the report
  // renders what parsed and says where the file tore.
  const std::string s = write_temp_csv(
      "rep_sp_torn.csv",
      "rank,name,cat,depth,t0_s,t1_s,a,b\n"
      "0,halo.sweep,C,0,0.5,1.5,0,0\n"
      "1,halo.sweep,C,0,0.25,0.75,0,0\n"
      "1,halo.swe");
  std::ostringstream os;
  report_spans(s, os);
  const std::string out = os.str();
  EXPECT_NE(out.find("halo.sweep"), std::string::npos);
  EXPECT_NE(out.find("2 events"), std::string::npos);
  EXPECT_NE(out.find("truncated"), std::string::npos);
  std::remove(s.c_str());
}

TEST(Report, SpansNonNumericCellCountsAsTruncation) {
  const std::string s = write_temp_csv(
      "rep_sp_nan.csv",
      "rank,name,cat,depth,t0_s,t1_s,a,b\n"
      "0,halo.sweep,C,0,0.5,1.5,0,0\n"
      "0,halo.sweep,C,0,0.5,inf,0,0\n");
  std::ostringstream os;
  report_spans(s, os);  // must not throw; first row still renders
  const std::string out = os.str();
  EXPECT_NE(out.find("halo.sweep"), std::string::npos);
  EXPECT_NE(out.find("truncated"), std::string::npos);
  std::remove(s.c_str());
}

TEST(Report, TimelineHandlesASingleWindow) {
  const std::string f = write_temp_csv(
      "rep_one_f.csv",
      "window,t0_s,t1_s,src,dst,count,bytes\n"
      "# order 2\n"
      "3,0.003,0.004,0,1,2,2048\n"
      "3,0.003,0.004,1,0,1,512\n");
  std::ostringstream os;
  report_timeline(f, os);
  const std::string out = os.str();
  EXPECT_NE(out.find("1 windows"), std::string::npos);
  EXPECT_NE(out.find("0 phase boundaries"), std::string::npos);
  EXPECT_NE(out.find("0->1"), std::string::npos);  // heatmap row
  EXPECT_NE(out.find("KB"), std::string::npos);
  std::remove(f.c_str());
}

TEST(ProfReader, MatrixReportLeavesMissingRowsOutOfTheTotals) {
  // MPI_M_rootflush fills the row of a contributor the gather lost with
  // MPI_M_DATA_MISSING: that row is missing, not 2^64 - 1 bytes per peer.
  namespace fs = std::filesystem;
  const std::string path =
      (fs::temp_directory_path() / "missing_row.prof").string();
  {
    std::ofstream os(path);
    os << "# MPI_Monitoring matrix, order 2, flags p2p|coll|osc\n"
          "0 5\n"
          "18446744073709551615 18446744073709551615\n";
  }
  const MatrixSummary s = summarize(read_matrix_profile(path));
  EXPECT_EQ(s.total, 5u);
  EXPECT_EQ(s.missing_rows, std::vector<std::size_t>{1});
  EXPECT_EQ(s.heaviest_src, 0u);
  EXPECT_EQ(s.heaviest_dst, 1u);
  EXPECT_EQ(s.heaviest_value, 5u);
  EXPECT_DOUBLE_EQ(s.density, 1.0);
  std::ostringstream os;
  report_matrix(path, os);
  const std::string out = os.str();
  EXPECT_NE(out.find("total volume        : 5 B\n"), std::string::npos)
      << out;
  EXPECT_NE(out.find("missing rows        : 1 "), std::string::npos) << out;
  EXPECT_EQ(out.find("TB"), std::string::npos) << out;  // no sentinel sums
  std::remove(path.c_str());
}

TEST(ProfReader, SummaryFindsHeaviestPair) {
  CommMatrix m = CommMatrix::square(3);
  m(0, 1) = 10;
  m(2, 0) = 99;
  m(1, 1) = 1000;  // diagonal ignored
  const auto s = summarize(m);
  EXPECT_EQ(s.total, 109u);
  EXPECT_EQ(s.heaviest_src, 2u);
  EXPECT_EQ(s.heaviest_dst, 0u);
  EXPECT_EQ(s.heaviest_value, 99u);
  EXPECT_NEAR(s.density, 2.0 / 6.0, 1e-12);
}

}  // namespace
}  // namespace mpim::tools
