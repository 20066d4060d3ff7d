// Nearest-rank percentile shared by the bench binaries and gtpload, and the
// no-fake-zero JSON field helper shared by the bench writers.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "bench_util.hpp"

namespace gtpar::bench {
namespace {

TEST(Percentile, EmptyInputYieldsZero) {
  std::vector<double> v;
  EXPECT_EQ(percentile(v, 0.5), 0.0);
}

TEST(Percentile, SingleElement) {
  std::vector<double> v{42.0};
  EXPECT_EQ(percentile(v, 0.0), 42.0);
  EXPECT_EQ(percentile(v, 0.5), 42.0);
  EXPECT_EQ(percentile(v, 1.0), 42.0);
}

TEST(Percentile, BoundaryQuantiles) {
  std::vector<double> v{5, 1, 4, 2, 3};
  EXPECT_EQ(percentile(v, 0.0), 1.0) << "q=0 is the minimum";
  EXPECT_EQ(percentile(v, 1.0), 5.0) << "q=1 is the maximum";
  EXPECT_EQ(percentile(v, -0.5), 1.0) << "clamped below";
  EXPECT_EQ(percentile(v, 2.0), 5.0) << "clamped above";
}

TEST(Percentile, NearestRankOnTenElements) {
  std::vector<double> v{10, 9, 8, 7, 6, 5, 4, 3, 2, 1};
  // Nearest-rank: rank = ceil(q * n), 1-based.
  EXPECT_EQ(percentile(v, 0.5), 5.0);    // ceil(5) = 5th
  EXPECT_EQ(percentile(v, 0.99), 10.0);  // ceil(9.9) = 10th
  EXPECT_EQ(percentile(v, 0.90), 9.0);   // ceil(9) = 9th
  EXPECT_EQ(percentile(v, 0.001), 1.0);  // ceil(0.01) -> rank 1
}

TEST(Percentile, SortsItsInput) {
  std::vector<double> v{3, 1, 2};
  (void)percentile(v, 0.5);
  EXPECT_EQ(v, (std::vector<double>{1, 2, 3}));
}

TEST(Percentile, Duplicates) {
  std::vector<double> v{1, 1, 1, 9};
  EXPECT_EQ(percentile(v, 0.5), 1.0);
  EXPECT_EQ(percentile(v, 0.75), 1.0);
  EXPECT_EQ(percentile(v, 0.76), 9.0);
}

TEST(NumOrNull, IntegerFieldIsNumberOrNull) {
  EXPECT_EQ(num_or_null(true, std::uint64_t{0}), "0");
  EXPECT_EQ(num_or_null(true, std::uint64_t{18446744073709551615ull}),
            "18446744073709551615");
  EXPECT_EQ(num_or_null(false, std::uint64_t{42}), "null");
}

TEST(NumOrNull, RealFieldKeepsPrecisionOrIsNull) {
  EXPECT_EQ(num_or_null(true, 5.0), "5.00");
  EXPECT_EQ(num_or_null(true, 0.0), "0.00") << "a measured zero stays a zero";
  EXPECT_EQ(num_or_null(true, 2.345, 1), "2.3");
  EXPECT_EQ(num_or_null(false, 0.0), "null") << "no figure is not a zero";
}

}  // namespace
}  // namespace gtpar::bench
