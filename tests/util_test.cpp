#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>

#include <gtest/gtest.h>

#include "util/contracts.hpp"
#include "util/csv.hpp"
#include "util/flags.hpp"
#include "util/stats.hpp"

namespace rrnet::util {
namespace {

TEST(Accumulator, EmptyHasNaNMeanAndZeroCount) {
  Accumulator acc;
  EXPECT_EQ(acc.count(), 0u);
  EXPECT_TRUE(acc.empty());
  EXPECT_TRUE(std::isnan(acc.mean()));
  EXPECT_EQ(acc.variance(), 0.0);
}

TEST(Accumulator, SingleValue) {
  Accumulator acc;
  acc.add(42.0);
  EXPECT_EQ(acc.count(), 1u);
  EXPECT_DOUBLE_EQ(acc.mean(), 42.0);
  EXPECT_DOUBLE_EQ(acc.variance(), 0.0);
  EXPECT_DOUBLE_EQ(acc.min(), 42.0);
  EXPECT_DOUBLE_EQ(acc.max(), 42.0);
}

TEST(Accumulator, MeanAndVarianceMatchClosedForm) {
  Accumulator acc;
  for (int i = 1; i <= 100; ++i) acc.add(static_cast<double>(i));
  EXPECT_DOUBLE_EQ(acc.mean(), 50.5);
  // Var of 1..100 (sample): n(n+1)/12 with n=101 -> 841.66...
  EXPECT_NEAR(acc.variance(), 841.6666667, 1e-6);
  EXPECT_DOUBLE_EQ(acc.min(), 1.0);
  EXPECT_DOUBLE_EQ(acc.max(), 100.0);
  EXPECT_NEAR(acc.sum(), 5050.0, 1e-9);
}

TEST(Accumulator, SummaryCi95) {
  Accumulator acc;
  for (int i = 0; i < 100; ++i) acc.add(i % 2 == 0 ? 1.0 : -1.0);
  const Summary s = acc.summary();
  EXPECT_EQ(s.count, 100u);
  EXPECT_NEAR(s.mean, 0.0, 1e-12);
  EXPECT_NEAR(s.ci95, 1.96 * s.stddev / 10.0, 1e-12);
}

TEST(Summary, Ci95PinnedToZeroBelowTwoSamples) {
  Accumulator empty;
  EXPECT_EQ(empty.summary().ci95, 0.0);
  EXPECT_EQ(empty.summary().stddev, 0.0);
  Accumulator one;
  one.add(3.5);
  const Summary s = one.summary();
  EXPECT_EQ(s.ci95, 0.0);
  EXPECT_EQ(s.stddev, 0.0);
  EXPECT_DOUBLE_EQ(s.mean, 3.5);
}

TEST(CellToString, NonFiniteDoublesRenderEmpty) {
  EXPECT_EQ(cell_to_string(Cell{std::numeric_limits<double>::quiet_NaN()}), "");
  EXPECT_EQ(cell_to_string(Cell{std::numeric_limits<double>::infinity()}), "");
  EXPECT_EQ(cell_to_string(Cell{-std::numeric_limits<double>::infinity()}), "");
  EXPECT_EQ(cell_to_string(Cell{1.5}, 2), "1.50");
}

TEST(Table, EmptyAccumulatorSerializesAsEmptyCsvCells) {
  // Regression: the NaN mean of an empty Accumulator used to be written
  // verbatim into sweep CSVs, producing "nan" cells that broke plotting.
  const Summary s = Accumulator{}.summary();
  Table table({"x", "mean", "ci95"});
  table.add_row({std::int64_t{1}, s.mean, s.ci95});
  std::ostringstream os;
  table.write_csv(os, 2);
  EXPECT_EQ(os.str(), "x,mean,ci95\n1,,0.00\n");
}

TEST(RatioCounter, Basics) {
  RatioCounter rc;
  EXPECT_TRUE(std::isnan(rc.ratio()));
  rc.add(true);
  rc.add(false);
  rc.add(true);
  rc.add(true);
  EXPECT_EQ(rc.hits(), 3u);
  EXPECT_EQ(rc.total(), 4u);
  EXPECT_DOUBLE_EQ(rc.ratio(), 0.75);
}

TEST(Csv, EscapePlainAndSpecial) {
  EXPECT_EQ(csv_escape("plain"), "plain");
  EXPECT_EQ(csv_escape("a,b"), "\"a,b\"");
  EXPECT_EQ(csv_escape("say \"hi\""), "\"say \"\"hi\"\"\"");
  EXPECT_EQ(csv_escape("two\nlines"), "\"two\nlines\"");
}

TEST(Table, RejectsMismatchedRow) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({Cell{std::int64_t{1}}}), ContractViolation);
}

TEST(Table, CsvRoundtripContent) {
  Table t({"x", "name", "value"});
  t.add_row({Cell{std::int64_t{1}}, Cell{std::string{"alpha"}}, Cell{0.5}});
  t.add_row({Cell{std::int64_t{2}}, Cell{std::string{"b,c"}}, Cell{1.25}});
  std::ostringstream oss;
  t.write_csv(oss, 2);
  EXPECT_EQ(oss.str(), "x,name,value\n1,alpha,0.50\n2,\"b,c\",1.25\n");
}

TEST(Table, PrettyAlignsColumns) {
  Table t({"metric", "v"});
  t.add_row({Cell{std::string{"delivery"}}, Cell{0.95}});
  std::ostringstream oss;
  t.write_pretty(oss, 2);
  const std::string out = oss.str();
  EXPECT_NE(out.find("metric"), std::string::npos);
  EXPECT_NE(out.find("0.95"), std::string::npos);
  EXPECT_NE(out.find("----"), std::string::npos);
}

TEST(Table, AtAccessorBoundsChecked) {
  Table t({"a"});
  t.add_row({Cell{1.0}});
  EXPECT_THROW(static_cast<void>(t.at(1, 0)), ContractViolation);
  EXPECT_THROW(static_cast<void>(t.at(0, 1)), ContractViolation);
  EXPECT_DOUBLE_EQ(std::get<double>(t.at(0, 0)), 1.0);
}

// Shape checks resolve columns by name: the sweep tables grew counter
// columns per protocol, which silently shifted every hard-coded index for
// the second protocol's series (the fig1/fig3/fig4 verdict bug).
TEST(Table, ColumnIndexByName) {
  Table t({"x", "a_delivery", "a_extra", "b_delivery"});
  EXPECT_EQ(t.column_index("x"), 0u);
  EXPECT_EQ(t.column_index("b_delivery"), 3u);
  EXPECT_THROW(static_cast<void>(t.column_index("missing")),
               ContractViolation);
}

TEST(Flags, ParsesKeyValueForms) {
  const char* argv[] = {"prog", "--alpha=1.5", "--name", "bench", "--on"};
  Flags flags(5, argv);
  EXPECT_DOUBLE_EQ(flags.get_double("alpha", 0.0), 1.5);
  EXPECT_EQ(flags.get_string("name", ""), "bench");
  EXPECT_TRUE(flags.get_bool("on", false));
}

// A token that is neither a flag nor a flag's value must not be dropped
// silently: "--nodes 100 200" would otherwise run with 100 nodes.
TEST(Flags, RejectsStrayToken) {
  const char* argv[] = {"prog", "--nodes", "100", "200"};
  try {
    Flags flags(4, argv);
    FAIL() << "expected throw";
  } catch (const ContractViolation& e) {
    EXPECT_NE(std::string(e.what()).find("'200'"), std::string::npos);
  }
}

TEST(Flags, FallbacksWhenAbsent) {
  const char* argv[] = {"prog"};
  Flags flags(1, argv);
  EXPECT_EQ(flags.get_int("n", 42), 42);
  EXPECT_FALSE(flags.has("n"));
}

TEST(Flags, TypeErrorsThrow) {
  const char* argv[] = {"prog", "--n=abc", "--b=maybe"};
  Flags flags(3, argv);
  EXPECT_THROW(static_cast<void>(flags.get_int("n", 0)),
               ContractViolation);
  EXPECT_THROW(static_cast<void>(flags.get_bool("b", false)),
               ContractViolation);
}

TEST(Contracts, MacrosThrowWithLocation) {
  try {
    RRNET_EXPECTS(1 == 2);
    FAIL() << "expected throw";
  } catch (const ContractViolation& e) {
    EXPECT_NE(std::string(e.what()).find("1 == 2"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("precondition"), std::string::npos);
  }
  EXPECT_THROW(RRNET_ENSURES(false), ContractViolation);
  EXPECT_THROW(RRNET_ASSERT(false), ContractViolation);
  EXPECT_NO_THROW(RRNET_EXPECTS(true));
}

// Property sweep: Welford matches two-pass computation on assorted scales.
class AccumulatorScaleTest : public ::testing::TestWithParam<double> {};

TEST_P(AccumulatorScaleTest, MatchesTwoPassAtScale) {
  const double scale = GetParam();
  std::vector<double> xs;
  Accumulator acc;
  for (int i = 0; i < 500; ++i) {
    const double x = scale * (std::sin(0.1 * i) + 2.0);
    xs.push_back(x);
    acc.add(x);
  }
  double mean = 0.0;
  for (double x : xs) mean += x;
  mean /= static_cast<double>(xs.size());
  double var = 0.0;
  for (double x : xs) var += (x - mean) * (x - mean);
  var /= static_cast<double>(xs.size() - 1);
  EXPECT_NEAR(acc.mean(), mean, std::abs(mean) * 1e-12 + 1e-12);
  EXPECT_NEAR(acc.variance(), var, std::abs(var) * 1e-9 + 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Scales, AccumulatorScaleTest,
                         ::testing::Values(1e-9, 1e-3, 1.0, 1e3, 1e9));

}  // namespace
}  // namespace rrnet::util
