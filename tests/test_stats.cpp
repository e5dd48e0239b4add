#include "util/stats.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "util/byte_io.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

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

/// Distinct hash keys for observation i, as Analysis derives them.
std::uint64_t key_of(std::uint64_t i) {
  std::uint64_t state = i;
  return splitmix64(state);
}

std::vector<std::byte> bytes_of(const BottomKSample& q) {
  ByteWriter w;
  q.save(w);
  return w.take();
}

TEST(BottomKSample, ExactForSmallInputs) {
  BottomKSample q(100);
  for (int i = 1; i <= 99; ++i) q.add(key_of(static_cast<std::uint64_t>(i)), i);
  EXPECT_DOUBLE_EQ(q.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(q.quantile(1.0), 99.0);
  // Every observation is in the sample: quantiles interpolate all of them.
  EXPECT_DOUBLE_EQ(q.quantile(0.5), 50.0);
  EXPECT_DOUBLE_EQ(q.quantile(0.25), 25.5);
  const FiveNumber f = q.five_number();
  EXPECT_EQ(f.count, 99u);
  EXPECT_LE(f.min, f.q1);
  EXPECT_LE(f.q1, f.median);
  EXPECT_LE(f.median, f.q3);
  EXPECT_LE(f.q3, f.max);
}

TEST(BottomKSample, ApproximatesLargeStreams) {
  BottomKSample q(2048);
  Rng rng(99);
  for (std::uint64_t i = 0; i < 200000; ++i) q.add(key_of(i), rng.uniform_real(0.0, 100.0));
  EXPECT_NEAR(q.quantile(0.5), 50.0, 4.0);
  EXPECT_NEAR(q.quantile(0.9), 90.0, 4.0);
  EXPECT_EQ(q.count(), 200000u);
  // five_number() sorts once for all three interior quantiles: same bits.
  const FiveNumber f = q.five_number();
  EXPECT_EQ(f.q1, q.quantile(0.25));
  EXPECT_EQ(f.median, q.quantile(0.5));
  EXPECT_EQ(f.q3, q.quantile(0.75));
}

TEST(BottomKSample, MergePreservesCountAndRange) {
  BottomKSample a(512), b(512);
  Rng rng(3);
  for (std::uint64_t i = 0; i < 5000; ++i) a.add(key_of(i), rng.uniform_real(0, 10));
  for (std::uint64_t i = 5000; i < 12000; ++i) b.add(key_of(i), rng.uniform_real(20, 30));
  a.merge(b);
  EXPECT_EQ(a.count(), 12000u);
  EXPECT_LT(a.quantile(0.0), 10.0);
  EXPECT_GT(a.quantile(1.0), 20.0);
  // The uniform sample puts 7/12 of its mass in the upper cluster.
  const double med = a.quantile(0.5);
  EXPECT_GT(med, 20.0);
  EXPECT_LT(med, 30.0);
}

TEST(BottomKSample, EmptyFiveNumberIsZero) {
  BottomKSample q;
  const FiveNumber f = q.five_number();
  EXPECT_EQ(f.count, 0u);
  EXPECT_DOUBLE_EQ(f.median, 0.0);
}

TEST(BottomKSample, StateIsOrderAndCutFree) {
  // The sample is the k smallest (key, value) pairs of the observed
  // multiset, so shuffled adds and any split into merged parts, merged in
  // any order, serialize to the same bytes — duplicate keys included.
  std::vector<std::pair<std::uint64_t, double>> obs;
  Rng rng(17);
  for (std::uint64_t i = 0; i < 3000; ++i) {
    obs.emplace_back(key_of(i % 2500), rng.uniform_real(0, 1000));
  }
  BottomKSample sequential(256);
  for (const auto& [k, x] : obs) sequential.add(k, x);
  const std::vector<std::byte> expected = bytes_of(sequential);

  for (int trial = 0; trial < 20; ++trial) {
    std::vector<std::pair<std::uint64_t, double>> shuffled = obs;
    for (std::size_t i = shuffled.size(); i > 1; --i) {
      std::swap(shuffled[i - 1], shuffled[rng.uniform_u64(0, i - 1)]);
    }
    std::vector<BottomKSample> parts(1 + rng.uniform_u64(0, 6), BottomKSample(256));
    for (const auto& [k, x] : shuffled) parts[rng.uniform_u64(0, parts.size() - 1)].add(k, x);
    BottomKSample merged(256);
    while (!parts.empty()) {
      const std::size_t i = rng.uniform_u64(0, parts.size() - 1);
      merged.merge(parts[i]);
      parts.erase(parts.begin() + static_cast<std::ptrdiff_t>(i));
    }
    EXPECT_EQ(bytes_of(merged), expected) << "trial " << trial;
  }
}

TEST(BottomKSample, RoundTripsAndRejectsBadSampleSize) {
  BottomKSample q(64);
  for (std::uint64_t i = 0; i < 100; ++i) q.add(key_of(i), static_cast<double>(i));
  const std::vector<std::byte> bytes = bytes_of(q);
  BottomKSample loaded;
  ByteReader r(bytes);
  loaded.load(r);
  EXPECT_EQ(bytes_of(loaded), bytes);
  // A restored sample keeps accepting observations exactly like the original.
  q.add(0, -1.0);
  loaded.add(0, -1.0);
  EXPECT_EQ(bytes_of(loaded), bytes_of(q));

  // count 100 > capacity 64 requires a full sample; claim one entry fewer.
  ByteWriter w;
  w.u64(64);
  w.u64(100);
  w.f64(0.0);
  w.f64(1.0);
  w.u64(63);
  for (std::uint64_t i = 0; i < 63; ++i) {
    w.u64(i);
    w.f64(0.5);
  }
  const std::vector<std::byte> bad = w.take();
  ByteReader rb(bad);
  EXPECT_THROW(loaded.load(rb), FormatError);
}

TEST(ExactSum, ExactPast64BitsAndOrderFree) {
  ExactSum a;
  ExactSum b;
  const std::uint64_t big = ~0ull;
  a.add(big);
  a.add(big);
  a.add(3);
  b.add(3);
  b.add(big);
  b.add(big);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.high(), 2u);
  EXPECT_EQ(a.low(), 1u);  // 2 * (2^64 - 1) + 3 = 2^65 + 1
  EXPECT_DOUBLE_EQ(a.value(), 2.0 * 18446744073709551616.0);

  ExactSum p;
  p.add_product(big, big);
  EXPECT_EQ(p.high(), big - 1);
  EXPECT_EQ(p.low(), 1u);

  ByteWriter w;
  a.save(w);
  const std::vector<std::byte> bytes = w.take();
  ASSERT_EQ(bytes.size(), ExactSum::kSerializedSize);
  ExactSum loaded;
  ByteReader r(bytes);
  loaded.load(r);
  EXPECT_EQ(loaded, a);
}

}  // namespace
}  // namespace mlio::util
