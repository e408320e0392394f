#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.h"

#include "support/env.h"
#include "support/matrix.h"
#include "support/rng.h"
#include "support/stats.h"
#include "support/table.h"

namespace mpim {
namespace {

// --- rng ---------------------------------------------------------------------

TEST(Rng, DeterministicForEqualSeeds) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) equal += (a() == b());
  EXPECT_LT(equal, 4);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformU64RespectsBounds) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform_u64(10, 20);
    EXPECT_GE(v, 10u);
    EXPECT_LE(v, 20u);
  }
}

TEST(Rng, UniformU64CoversRange) {
  Rng rng(5);
  bool seen[5] = {};
  for (int i = 0; i < 200; ++i) seen[rng.uniform_u64(0, 4)] = true;
  for (bool s : seen) EXPECT_TRUE(s);
}

TEST(Rng, UniformMeanIsCentered) {
  Rng rng(17);
  double acc = 0.0;
  constexpr int n = 20000;
  for (int i = 0; i < n; ++i) acc += rng.uniform();
  EXPECT_NEAR(acc / n, 0.5, 0.01);
}

TEST(Rng, ShuffleIsAPermutation) {
  std::vector<int> v{0, 1, 2, 3, 4, 5, 6, 7};
  Rng rng(3);
  shuffle(v, rng);
  std::vector<int> sorted = v;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
}

// --- stats -------------------------------------------------------------------

TEST(Stats, MeanVarianceBasics) {
  const std::vector<double> xs{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(stats::mean(xs), 2.5);
  EXPECT_NEAR(stats::variance(xs), 5.0 / 3.0, 1e-12);
  EXPECT_NEAR(stats::stddev(xs), std::sqrt(5.0 / 3.0), 1e-12);
}

TEST(Stats, MedianOddEven) {
  EXPECT_DOUBLE_EQ(stats::median(std::vector<double>{3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(stats::median(std::vector<double>{4.0, 1.0, 2.0, 3.0}),
                   2.5);
}

TEST(Stats, NormalQuantileKnownValues) {
  EXPECT_NEAR(stats::normal_quantile(0.5), 0.0, 1e-9);
  EXPECT_NEAR(stats::normal_quantile(0.975), 1.959964, 1e-5);
  EXPECT_NEAR(stats::normal_quantile(0.025), -1.959964, 1e-5);
  EXPECT_NEAR(stats::normal_quantile(0.84134474), 1.0, 1e-5);
}

TEST(Stats, TQuantileApproachesNormal) {
  EXPECT_NEAR(stats::t_quantile(0.975, 1e9), stats::normal_quantile(0.975),
              1e-6);
}

TEST(Stats, TQuantileKnownValues) {
  // Reference values from standard t tables.
  EXPECT_NEAR(stats::t_quantile(0.975, 10), 2.228, 5e-3);
  EXPECT_NEAR(stats::t_quantile(0.975, 30), 2.042, 5e-3);
  EXPECT_NEAR(stats::t_quantile(0.95, 20), 1.725, 5e-3);
}

TEST(Stats, WelchDetectsClearDifference) {
  std::vector<double> a(50), b(50);
  Rng rng(1);
  for (auto& x : a) x = 10.0 + rng.uniform();
  for (auto& x : b) x = 0.0 + rng.uniform();
  const auto res = stats::welch_interval(a, b);
  EXPECT_TRUE(res.significant);
  EXPECT_NEAR(res.mean_diff, 10.0, 0.2);
}

TEST(Stats, WelchInsignificantForSameDistribution) {
  std::vector<double> a(100), b(100);
  Rng rng(2);
  for (auto& x : a) x = rng.uniform();
  for (auto& x : b) x = rng.uniform();
  const auto res = stats::welch_interval(a, b);
  EXPECT_FALSE(res.significant);
}

TEST(Stats, WelchDegenerateConstantSamples) {
  const std::vector<double> a{2.0, 2.0, 2.0};
  const std::vector<double> b{2.0, 2.0};
  const auto res = stats::welch_interval(a, b);
  EXPECT_FALSE(res.significant);
  EXPECT_DOUBLE_EQ(res.mean_diff, 0.0);
}

// --- matrix ------------------------------------------------------------------

TEST(Matrix, IndexingAndFlatLayoutRowMajor) {
  Matrix<int> m(2, 3);
  m(0, 0) = 1;
  m(0, 2) = 3;
  m(1, 1) = 5;
  EXPECT_EQ(m.flat()[0], 1);
  EXPECT_EQ(m.flat()[2], 3);
  EXPECT_EQ(m.flat()[4], 5);
}

TEST(Matrix, OutOfRangeThrows) {
  Matrix<int> m(2, 2);
  EXPECT_THROW(m(2, 0), Error);
  EXPECT_THROW(m(0, 2), Error);
}

TEST(Matrix, SymmetrizedAddsTranspose) {
  CommMatrix m = CommMatrix::square(2);
  m(0, 1) = 3;
  m(1, 0) = 5;
  const CommMatrix s = m.symmetrized();
  EXPECT_EQ(s(0, 1), 8u);
  EXPECT_EQ(s(1, 0), 8u);
  EXPECT_EQ(s(0, 0), 0u);
}

TEST(Matrix, SumAndRowView) {
  Matrix<unsigned long> m(2, 2, 1ul);
  EXPECT_EQ(m.sum(), 4ul);
  m.row(1)[0] = 10;
  EXPECT_EQ(m(1, 0), 10ul);
}

// --- table -------------------------------------------------------------------

TEST(Table, PrintsAlignedColumns) {
  Table t({"name", "value"});
  t.add("x", 1);
  t.add("longer", 2.5);
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("longer"), std::string::npos);
  EXPECT_EQ(t.row_count(), 2u);
}

TEST(Table, CsvEscapesSpecials) {
  Table t({"a"});
  t.add_row({"va\"l,ue"});
  std::ostringstream os;
  t.write_csv(os);
  EXPECT_NE(os.str().find("\"va\"\"l,ue\""), std::string::npos);
}

TEST(Table, RowArityMismatchThrows) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), Error);
}

// --- bench options ------------------------------------------------------------

/// A path under the temp directory that does not exist.
std::string missing_dir() {
  const auto dir =
      std::filesystem::temp_directory_path() / "mpim_no_such_csv_dir";
  std::filesystem::remove_all(dir);
  return dir.string();
}

TEST(Table, CsvFileErrorNamesThePath) {
  Table t({"a"});
  const std::string path = missing_dir() + "/table.csv";
  try {
    t.write_csv_file(path);
    ADD_FAILURE() << "wrote into a directory that does not exist";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(path), std::string::npos)
        << e.what();
  }
}

TEST(BenchOptions, MissingCsvDirectoryExitsTwoBeforeAnyWork) {
  std::string prog = "bench_fig5_collectives";
  std::string flag = "--csv";
  std::string dir = missing_dir();
  std::vector<char*> argv = {prog.data(), flag.data(), dir.data()};
  EXPECT_EXIT(bench::parse_options(3, argv.data()),
              testing::ExitedWithCode(2), "not a directory: " + dir);

  // An existing directory is accepted as given.
  dir = std::filesystem::temp_directory_path().string();
  argv = {prog.data(), flag.data(), dir.data()};
  const bench::Options opt = bench::parse_options(3, argv.data());
  EXPECT_EQ(opt.csv_dir, dir);
  EXPECT_EQ(opt.prog, "fig5_collectives");
}

TEST(Formatting, HumanReadableHelpers) {
  EXPECT_EQ(format_bytes(1500.0), "1.5 KB");
  EXPECT_EQ(format_seconds(0.0123), "12.3 ms");
  EXPECT_EQ(format_seconds(2.5e-6), "2.5 us");
  EXPECT_EQ(format_sig(3.14159, 3), "3.14");
}

// --- strict keyword environment parsing --------------------------------------

TEST(EnvChoice, MatchesWholeKeywordsCaseInsensitively) {
  static const char* const kLevels[] = {"debug", "info", "warn", "error"};
  const auto parse = [&](const char* text) {
    ::setenv("MPIM_TEST_ENV_C", text, 1);
    return support::env_choice("MPIM_TEST_ENV_C", kLevels, 4);
  };

  ::unsetenv("MPIM_TEST_ENV_C");
  EXPECT_EQ(support::env_choice("MPIM_TEST_ENV_C", kLevels, 4).status,
            support::EnvValue<int>::Status::unset);

  EXPECT_EQ(parse("debug").value, 0);
  EXPECT_EQ(parse("error").value, 3);
  EXPECT_EQ(parse("WARN").value, 2);     // case-insensitive
  EXPECT_EQ(parse(" info ").value, 1);   // surrounding whitespace tolerated

  EXPECT_TRUE(parse("warning").invalid());  // no prefix/suffix matching
  EXPECT_TRUE(parse("war").invalid());
  EXPECT_TRUE(parse("warn error").invalid());  // one keyword only
  EXPECT_TRUE(parse("2").invalid());           // numbers are not keywords
  EXPECT_TRUE(parse("").invalid());
  EXPECT_TRUE(parse("   ").invalid());
  EXPECT_EQ(parse("banana").raw, "banana");  // raw text kept for diagnostics
  ::unsetenv("MPIM_TEST_ENV_C");
}

TEST(EnvBool, AcceptsTheFourSpellingPairsAndNothingElse) {
  const auto parse = [](const char* text) {
    ::setenv("MPIM_TEST_ENV_B", text, 1);
    return support::env_bool("MPIM_TEST_ENV_B");
  };

  ::unsetenv("MPIM_TEST_ENV_B");
  EXPECT_EQ(support::env_bool("MPIM_TEST_ENV_B").status,
            support::EnvValue<bool>::Status::unset);

  for (const char* yes : {"1", "true", "on", "yes", "TRUE", "On", " yes "}) {
    const auto v = parse(yes);
    EXPECT_TRUE(v.ok()) << yes;
    EXPECT_TRUE(v.value) << yes;
  }
  for (const char* no : {"0", "false", "off", "no", "FALSE", "Off"}) {
    const auto v = parse(no);
    EXPECT_TRUE(v.ok()) << no;
    EXPECT_FALSE(v.value) << no;
  }

  // Garbage must be invalid, never guessed at: MPIM_TELEMETRY=2 silently
  // enabling (or disabling) telemetry is exactly the bug class this blocks.
  for (const char* bad : {"2", "-1", "enable", "truee", "y", "t", "on off",
                          "", "   ", "1;echo", "\ttrue false"}) {
    const auto v = parse(bad);
    EXPECT_TRUE(v.invalid()) << "\"" << bad << "\"";
  }
  EXPECT_EQ(parse("maybe").raw, "maybe");  // raw text kept for the warn log
  ::unsetenv("MPIM_TEST_ENV_B");
}

TEST(EnvNonemptyString, RejectsBlankPathsKeepsEverythingElseVerbatim) {
  const auto parse = [](const char* text) {
    ::setenv("MPIM_TEST_ENV_S", text, 1);
    return support::env_nonempty_string("MPIM_TEST_ENV_S");
  };

  ::unsetenv("MPIM_TEST_ENV_S");
  EXPECT_EQ(support::env_nonempty_string("MPIM_TEST_ENV_S").status,
            support::EnvValue<std::string>::Status::unset);

  // Blank values would silently create a file named "" or "   ".
  for (const char* bad : {"", " ", "   ", "\t", " \t\n "})
    EXPECT_TRUE(parse(bad).invalid()) << "\"" << bad << "\"";

  // Anything with substance is kept verbatim -- no trimming, so relative
  // paths with embedded or leading spaces still round-trip.
  EXPECT_EQ(parse("run.jsonl").value, "run.jsonl");
  EXPECT_EQ(parse("/tmp/a b/c.csv").value, "/tmp/a b/c.csv");
  EXPECT_EQ(parse(" padded.txt ").value, " padded.txt ");
  EXPECT_EQ(parse("-").value, "-");
  ::unsetenv("MPIM_TEST_ENV_S");
}

}  // namespace
}  // namespace mpim
