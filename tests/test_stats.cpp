#include "util/stats.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

namespace mlio::util {
namespace {

TEST(RunningStats, MatchesDirectComputation) {
  RunningStats s;
  const std::vector<double> xs = {1.0, 2.0, 3.0, 4.0, 10.0};
  for (const double x : xs) s.add(x);
  EXPECT_EQ(s.count(), 5u);
  EXPECT_DOUBLE_EQ(s.mean(), 4.0);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 10.0);
  EXPECT_DOUBLE_EQ(s.sum(), 20.0);
  double var = 0;
  for (const double x : xs) var += (x - 4.0) * (x - 4.0);
  var /= 5.0;
  EXPECT_NEAR(s.variance(), var, 1e-12);
}

TEST(RunningStats, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(RunningStats, MergeEqualsSequential) {
  RunningStats a, b, all;
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.lognormal(0, 1);
    (i < 400 ? a : b).add(x);
    all.add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-6);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(RunningStats, MergeWithEmpty) {
  RunningStats a, b;
  a.add(3.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 1u);
  b.merge(a);
  EXPECT_EQ(b.count(), 1u);
  EXPECT_DOUBLE_EQ(b.mean(), 3.0);
}

TEST(ReservoirQuantiles, ExactForSmallInputs) {
  ReservoirQuantiles q(100);
  for (int i = 1; i <= 99; ++i) q.add(i);
  EXPECT_DOUBLE_EQ(q.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(q.quantile(1.0), 99.0);
  EXPECT_NEAR(q.quantile(0.5), 50.0, 1.0);
  EXPECT_NEAR(q.quantile(0.25), 25.5, 1.0);
  const FiveNumber f = q.five_number();
  EXPECT_EQ(f.count, 99u);
  EXPECT_LE(f.min, f.q1);
  EXPECT_LE(f.q1, f.median);
  EXPECT_LE(f.median, f.q3);
  EXPECT_LE(f.q3, f.max);
}

TEST(ReservoirQuantiles, ApproximatesLargeStreams) {
  ReservoirQuantiles q(2048, 7);
  Rng rng(99);
  for (int i = 0; i < 200000; ++i) q.add(rng.uniform_real(0.0, 100.0));
  EXPECT_NEAR(q.quantile(0.5), 50.0, 4.0);
  EXPECT_NEAR(q.quantile(0.9), 90.0, 4.0);
  EXPECT_EQ(q.count(), 200000u);
  // five_number() sorts once for all three interior quantiles: same bits.
  const FiveNumber f = q.five_number();
  EXPECT_EQ(f.q1, q.quantile(0.25));
  EXPECT_EQ(f.median, q.quantile(0.5));
  EXPECT_EQ(f.q3, q.quantile(0.75));
}

TEST(ReservoirQuantiles, MergePreservesCountAndRange) {
  ReservoirQuantiles a(512, 1), b(512, 2);
  Rng rng(3);
  for (int i = 0; i < 5000; ++i) a.add(rng.uniform_real(0, 10));
  for (int i = 0; i < 7000; ++i) b.add(rng.uniform_real(20, 30));
  a.merge(b);
  EXPECT_EQ(a.count(), 12000u);
  EXPECT_LT(a.quantile(0.0), 10.0);
  EXPECT_GT(a.quantile(1.0), 20.0);
  // Median of the merged stream sits between the two clusters' masses.
  const double med = a.quantile(0.5);
  EXPECT_GT(med, 5.0);
  EXPECT_LT(med, 30.0);
}

TEST(ReservoirQuantiles, EmptyFiveNumberIsZero) {
  ReservoirQuantiles q;
  const FiveNumber f = q.five_number();
  EXPECT_EQ(f.count, 0u);
  EXPECT_DOUBLE_EQ(f.median, 0.0);
}

}  // namespace
}  // namespace mlio::util
