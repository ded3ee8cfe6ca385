// Tests for utility components: RNG, statistics, tables, flags, parallel.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <numeric>

#include "util/flags.h"
#include "util/parallel.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/table.h"

namespace grw {
namespace {

TEST(RngTest, DeterministicPerSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
  Rng c(43);
  bool differs = false;
  Rng a2(42);
  for (int i = 0; i < 100; ++i) differs |= (a2() != c());
  EXPECT_TRUE(differs);
}

TEST(RngTest, UniformIntRespectsBounds) {
  Rng rng(7);
  for (int bound : {1, 2, 3, 7, 1000}) {
    for (int i = 0; i < 2000; ++i) {
      const uint64_t x = rng.UniformInt(bound);
      EXPECT_LT(x, static_cast<uint64_t>(bound));
    }
  }
}

TEST(RngTest, UniformIntIsRoughlyUniform) {
  Rng rng(11);
  const int bound = 10;
  std::vector<uint64_t> hits(bound, 0);
  const uint64_t n = 200000;
  for (uint64_t i = 0; i < n; ++i) hits[rng.UniformInt(bound)]++;
  for (int i = 0; i < bound; ++i) {
    EXPECT_NEAR(static_cast<double>(hits[i]) / n, 0.1, 0.01);
  }
}

TEST(RngTest, UniformRealInUnitInterval) {
  Rng rng(13);
  double sum = 0;
  for (int i = 0; i < 100000; ++i) {
    const double x = rng.UniformReal();
    ASSERT_GE(x, 0.0);
    ASSERT_LT(x, 1.0);
    sum += x;
  }
  EXPECT_NEAR(sum / 100000, 0.5, 0.01);
}

TEST(RngTest, DerivedSeedsDiffer) {
  EXPECT_NE(DeriveSeed(1, 0), DeriveSeed(1, 1));
  EXPECT_NE(DeriveSeed(1, 0), DeriveSeed(2, 0));
  EXPECT_EQ(DeriveSeed(5, 9), DeriveSeed(5, 9));
}

TEST(StatsTest, RunningStatMatchesClosedForms) {
  RunningStat stat;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) stat.Add(x);
  EXPECT_EQ(stat.Count(), 8u);
  EXPECT_DOUBLE_EQ(stat.Mean(), 5.0);
  EXPECT_DOUBLE_EQ(stat.Variance(), 4.0);
  EXPECT_DOUBLE_EQ(stat.Stddev(), 2.0);
  EXPECT_NEAR(stat.SampleVariance(), 32.0 / 7.0, 1e-12);
}

TEST(StatsTest, NrmseCombinesBiasAndVariance) {
  // All estimates equal to truth -> 0.
  EXPECT_DOUBLE_EQ(Nrmse({2.0, 2.0, 2.0}, 2.0), 0.0);
  // Constant bias: NRMSE = |bias| / truth.
  EXPECT_DOUBLE_EQ(Nrmse({3.0, 3.0}, 2.0), 0.5);
  // Pure variance around the truth.
  EXPECT_DOUBLE_EQ(Nrmse({1.0, 3.0}, 2.0), 0.5);
  EXPECT_TRUE(std::isnan(Nrmse({}, 1.0)));
  EXPECT_TRUE(std::isnan(Nrmse({1.0}, 0.0)));
}

TEST(StatsTest, MeanAndStddev) {
  EXPECT_DOUBLE_EQ(Mean({1.0, 2.0, 3.0}), 2.0);
  EXPECT_DOUBLE_EQ(SampleStddev({1.0, 2.0, 3.0}), 1.0);
  EXPECT_DOUBLE_EQ(SampleStddev({5.0}), 0.0);
}

TEST(TableTest, RendersAlignedRowsAndCsv) {
  Table table("demo");
  table.SetHeader({"name", "value"});
  table.AddRow({"alpha", Table::Int(42)});
  table.AddRow({"beta", Table::Num(3.14159, 2)});
  const std::string out = table.ToString();
  EXPECT_NE(out.find("demo"), std::string::npos);
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("3.14"), std::string::npos);

  const std::string path =
      (std::filesystem::temp_directory_path() / "grw_table_test.csv")
          .string();
  ASSERT_TRUE(table.WriteCsv(path));
  std::ifstream f(path);
  std::string line;
  std::getline(f, line);
  EXPECT_EQ(line, "name,value");
  std::filesystem::remove(path);
}

TEST(TableTest, Formatters) {
  EXPECT_EQ(Table::Int(-5), "-5");
  EXPECT_EQ(Table::Num(1.25, 2), "1.25");
  EXPECT_EQ(Table::Num(std::nan(""), 2), "n/a");
  EXPECT_EQ(Table::Duration(0.0194), "19.4 ms");
  EXPECT_EQ(Table::Duration(20.6), "20.6 s");
  EXPECT_EQ(Table::Duration(5e-5), "50.0 us");
}

TEST(FlagsTest, ParsesAllForms) {
  const char* argv[] = {"prog",     "--steps", "100",  "--paper",
                        "--name=x", "pos1",    "--f",  "2.5"};
  Flags flags(8, const_cast<char**>(argv));
  EXPECT_EQ(flags.GetInt("steps", 0), 100);
  EXPECT_TRUE(flags.GetBool("paper"));
  EXPECT_FALSE(flags.GetBool("absent"));
  EXPECT_EQ(flags.GetString("name", ""), "x");
  EXPECT_DOUBLE_EQ(flags.GetDouble("f", 0.0), 2.5);
  ASSERT_EQ(flags.positional().size(), 1u);
  EXPECT_EQ(flags.positional()[0], "pos1");
  EXPECT_EQ(flags.GetInt("missing", -7), -7);
}

TEST(ParallelSortTest, MatchesStdSortAtAnyThreadCount) {
  // Above the serial cutoff with duplicates, across thread counts that
  // exercise the even, odd, and degenerate merge trees.
  Rng rng(123);
  std::vector<uint64_t> base(200000);
  for (auto& v : base) v = rng.UniformInt(5000);
  std::vector<uint64_t> expected = base;
  std::sort(expected.begin(), expected.end());
  for (unsigned threads : {1u, 2u, 3u, 5u, 8u, 16u}) {
    std::vector<uint64_t> got = base;
    ParallelSort(got, threads);
    EXPECT_EQ(got, expected) << "threads=" << threads;
  }
}

TEST(ParallelSortTest, SmallAndEmptyInputs) {
  std::vector<int> empty;
  ParallelSort(empty);
  EXPECT_TRUE(empty.empty());
  std::vector<int> small = {5, 3, 9, 1, 1};
  ParallelSort(small, 8);
  EXPECT_EQ(small, (std::vector<int>{1, 1, 3, 5, 9}));
}

TEST(ParallelSortTest, SortsPairsLexicographically) {
  // The builder sorts (node, neighbor) half-edge pairs; ordering must be
  // the std::pair lexicographic one.
  Rng rng(7);
  std::vector<std::pair<uint32_t, uint32_t>> pairs(100000);
  for (auto& p : pairs) {
    p = {static_cast<uint32_t>(rng.UniformInt(300)),
         static_cast<uint32_t>(rng.UniformInt(300))};
  }
  auto expected = pairs;
  std::sort(expected.begin(), expected.end());
  ParallelSort(pairs);
  EXPECT_EQ(pairs, expected);
}

TEST(StatsTest, ChiSquareStatisticMatchesHandComputation) {
  // obs {12, 8}, exp {10, 10}: (2^2 + 2^2) / 10 = 0.8.
  EXPECT_DOUBLE_EQ(ChiSquareStatistic({12.0, 8.0}, {10.0, 10.0}), 0.8);
  // Perfect fit.
  EXPECT_DOUBLE_EQ(ChiSquareStatistic({5.0, 5.0}, {5.0, 5.0}), 0.0);
  // Zero-expected cells are skipped, not divided by.
  EXPECT_DOUBLE_EQ(ChiSquareStatistic({3.0, 12.0}, {0.0, 10.0}), 0.4);
}

TEST(StatsTest, ChiSquareCriticalValueApproximatesTables) {
  // Wilson-Hilferty vs table values for the 0.05 upper tail (z = 1.645):
  // df=10 -> 18.31, df=30 -> 43.77, df=100 -> 124.34.
  EXPECT_NEAR(ChiSquareCriticalValue(10, 1.645), 18.31, 0.3);
  EXPECT_NEAR(ChiSquareCriticalValue(30, 1.645), 43.77, 0.4);
  EXPECT_NEAR(ChiSquareCriticalValue(100, 1.645), 124.34, 0.8);
  // Monotone in both arguments.
  EXPECT_LT(ChiSquareCriticalValue(10, 1.645),
            ChiSquareCriticalValue(10, 3.09));
  EXPECT_LT(ChiSquareCriticalValue(10, 1.645),
            ChiSquareCriticalValue(20, 1.645));
}

}  // namespace
}  // namespace grw
