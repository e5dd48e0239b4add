#include "util/stats.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "util/byte_io.hpp"
#include "util/flat_map.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace mlio::util {
namespace {

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

// --- The value-ordered sample ------------------------------------------------

using Obs = std::pair<std::uint64_t, double>;

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// The reference: the k smallest observations under (key, value bits), their
/// values sorted, interpolated with the documented formula.
struct Reference {
  std::vector<double> values;  // the sample's values, ascending
  double min = 0, max = 0;
  std::uint64_t count = 0;

  Reference(std::vector<Obs> obs, std::size_t k) : count(obs.size()) {
    if (obs.empty()) return;
    std::sort(obs.begin(), obs.end(), [](const Obs& a, const Obs& b) {
      if (a.first != b.first) return a.first < b.first;
      return std::bit_cast<std::uint64_t>(a.second) < std::bit_cast<std::uint64_t>(b.second);
    });
    min = max = obs.front().second;
    for (const Obs& o : obs) {
      min = std::min(min, o.second);
      max = std::max(max, o.second);
    }
    obs.resize(std::min(obs.size(), k));
    for (const Obs& o : obs) values.push_back(o.second);
    std::sort(values.begin(), values.end());
  }

  double quantile(double q) const {
    if (values.empty()) return 0.0;
    if (q <= 0.0) return min;
    if (q >= 1.0) return max;
    const double pos = q * static_cast<double>(values.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return values[lo] * (1.0 - frac) + values[hi] * frac;
  }
};

void expect_matches(const BottomKSample& q, const std::vector<Obs>& obs, std::size_t k,
                    const std::string& what) {
  const Reference ref(obs, k);
  const FiveNumber f = q.five_number();
  EXPECT_EQ(f.count, ref.count) << what;
  EXPECT_TRUE(same_bits(f.min, ref.min)) << what;
  EXPECT_TRUE(same_bits(f.max, ref.max)) << what;
  if (!ref.values.empty()) {
    EXPECT_TRUE(same_bits(f.q1, ref.quantile(0.25))) << what;
    EXPECT_TRUE(same_bits(f.median, ref.quantile(0.5))) << what;
    EXPECT_TRUE(same_bits(f.q3, ref.quantile(0.75))) << what;
  }
  for (const double at : {0.0, 0.1, 0.25, 0.5, 0.6, 0.75, 0.99, 1.0}) {
    EXPECT_TRUE(same_bits(q.quantile(at), ref.quantile(at))) << what << " q=" << at;
  }
}

/// Sequential adds of `obs` in the given order: the bytes any other path
/// must reproduce.
std::vector<std::byte> bytes_by_adds(const std::vector<Obs>& obs, std::size_t k) {
  BottomKSample q(k);
  for (const auto& [key, x] : obs) q.add(key, x);
  return bytes_of(q);
}

TEST(BottomKSample, ValueOrderedPathsMatchSortedReference) {
  // Random sequences of add, merge (ordered or not, into empty or not),
  // copy and load, around and across the capacity: every intermediate
  // boxplot and quantile equals the sorted reference bit for bit, and the
  // bytes equal a plain sequence of adds.
  constexpr std::size_t k = 32;
  Rng rng(2024);
  for (int trial = 0; trial < 300; ++trial) {
    const std::string what = "trial " + std::to_string(trial);
    // Sizes k-1, k and k+1, then anything up to 3k.
    const std::uint64_t n =
        trial < 3 ? k - 1 + static_cast<std::uint64_t>(trial) : rng.uniform_u64(0, 3 * k);
    const bool ties = rng.uniform_u64(0, 2) == 0;
    std::vector<Obs> obs;
    for (std::uint64_t i = 0; i < n; ++i) {
      const double x = ties ? static_cast<double>(rng.uniform_u64(0, 5))
                            : rng.uniform_real(0.0, 1000.0);
      obs.emplace_back(key_of(ties ? i % 7 : i), x);
    }

    // Cut into parts; each part is built its own way.
    std::vector<std::vector<Obs>> cuts(1 + rng.uniform_u64(0, 4));
    for (const Obs& o : obs) cuts[rng.uniform_u64(0, cuts.size() - 1)].push_back(o);
    std::vector<BottomKSample> parts;
    for (std::vector<Obs>& cut : cuts) {
      switch (rng.uniform_u64(0, 3)) {
        case 0:  // ascending adds: stays value-ordered below capacity
          std::sort(cut.begin(), cut.end(),
                    [](const Obs& a, const Obs& b) { return a.second < b.second; });
          break;
        case 1:  // descending adds: out of order from the second add on
          std::sort(cut.begin(), cut.end(),
                    [](const Obs& a, const Obs& b) { return a.second > b.second; });
          break;
        default:
          break;  // arrival order
      }
      BottomKSample part(k);
      for (const auto& [key, x] : cut) part.add(key, x);
      expect_matches(part, cut, k, what + " part");
      if (rng.uniform_u64(0, 2) == 0) {  // through the canonical bytes
        const std::vector<std::byte> bytes = bytes_of(part);
        BottomKSample loaded;
        ByteReader r(bytes);
        loaded.load(r);
        expect_matches(loaded, cut, k, what + " loaded part");
        part = loaded;
      }
      parts.push_back(part);
    }

    // Fold the parts in a random order, into an empty sample or a copy of
    // the first part, checking every intermediate state.
    std::vector<std::size_t> order(parts.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    for (std::size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[rng.uniform_u64(0, i - 1)]);
    }
    const bool from_empty = rng.uniform_u64(0, 1) == 0;
    BottomKSample acc = from_empty ? BottomKSample(k) : parts[order.front()];
    std::vector<Obs> seen = from_empty ? std::vector<Obs>{} : cuts[order.front()];
    for (std::size_t i = from_empty ? 0 : 1; i < order.size(); ++i) {
      acc.merge(parts[order[i]]);
      seen.insert(seen.end(), cuts[order[i]].begin(), cuts[order[i]].end());
      expect_matches(acc, seen, k, what + " fold step " + std::to_string(i));
      if (rng.uniform_u64(0, 3) == 0) {  // a copy carries on like its source
        const BottomKSample copy = acc;
        EXPECT_EQ(bytes_of(copy), bytes_of(acc)) << what;
        acc = copy;
      }
    }
    EXPECT_EQ(bytes_of(acc), bytes_by_adds(obs, k)) << what;
    expect_matches(acc, obs, k, what + " folded");

    // A merged or loaded sample keeps accepting adds like a fresh one.
    const double late = rng.uniform_real(-10.0, 1010.0);
    acc.add(key_of(n + 1), late);
    obs.emplace_back(key_of(n + 1), late);
    expect_matches(acc, obs, k, what + " late add");
    EXPECT_EQ(bytes_of(acc), bytes_by_adds(obs, k)) << what;
  }
}

TEST(BottomKSample, MergeAtTheCapacityEdges) {
  // Unions that end at k - 1 (stays ordered), exactly k (becomes the heap)
  // and k + 1 (drops the largest key): each matches the reference.
  constexpr std::size_t k = 16;
  for (const std::size_t total : {k - 1, k, k + 1}) {
    for (std::size_t left = 0; left <= total; ++left) {
      std::vector<Obs> a_obs;
      std::vector<Obs> b_obs;
      for (std::size_t i = 0; i < total; ++i) {
        const Obs o{key_of(i), static_cast<double>((i * 7) % total)};
        (i < left ? a_obs : b_obs).push_back(o);
      }
      BottomKSample a(k);
      BottomKSample b(k);
      for (const auto& [key, x] : a_obs) a.add(key, x);
      for (const auto& [key, x] : b_obs) b.add(key, x);
      a.merge(b);
      std::vector<Obs> all = a_obs;
      all.insert(all.end(), b_obs.begin(), b_obs.end());
      const std::string what = "total " + std::to_string(total) + " left " + std::to_string(left);
      expect_matches(a, all, k, what);
      EXPECT_EQ(bytes_of(a), bytes_by_adds(all, k)) << what;
    }
  }
}

TEST(BottomKSample, OrderByValueChangesNoState) {
  // Below capacity, in arrival order, from a merge, and full: ordering by
  // value moves no quantile and no byte, and the ordered sample merges and
  // adds exactly like the unordered one.
  constexpr std::size_t k = 32;
  Rng rng(77);
  for (const std::uint64_t n : {0u, 1u, 5u, 31u, 32u, 90u}) {
    std::vector<Obs> obs;
    for (std::uint64_t i = 0; i < n; ++i) obs.emplace_back(key_of(i), rng.uniform_real(0, 100));
    BottomKSample plain(k);
    for (const auto& [key, x] : obs) plain.add(key, x);
    BottomKSample ordered = plain;
    ordered.order_by_value();
    const std::string what = "n " + std::to_string(n);
    EXPECT_EQ(bytes_of(ordered), bytes_of(plain)) << what;
    expect_matches(ordered, obs, k, what);
    BottomKSample other(k);
    other.add(key_of(1000), 50.5);
    BottomKSample into_plain = other;
    BottomKSample into_ordered = other;
    into_plain.merge(plain);
    into_ordered.merge(ordered);
    EXPECT_EQ(bytes_of(into_ordered), bytes_of(into_plain)) << what;
    ordered.add(key_of(2000), 1.5);
    plain.add(key_of(2000), 1.5);
    EXPECT_EQ(bytes_of(ordered), bytes_of(plain)) << what;
  }
}

// --- FlatU64Map ----------------------------------------------------------------

std::map<std::uint64_t, std::uint64_t> contents(const FlatU64Map<std::uint64_t>& m) {
  std::map<std::uint64_t, std::uint64_t> out;
  for (const auto& [key, value] : m) {
    EXPECT_TRUE(out.emplace(key, value).second) << "key " << key << " visited twice";
  }
  return out;
}

TEST(FlatU64Map, ExtremeKeys) {
  FlatU64Map<std::uint64_t> m;
  EXPECT_TRUE(m.empty());
  m[0] = 5;
  m[std::numeric_limits<std::uint64_t>::max()] = 7;
  EXPECT_EQ(m.size(), 2u);
  const auto [zero, zero_new] = m.try_emplace(0, 99);
  EXPECT_FALSE(zero_new);
  EXPECT_EQ(*zero, 5u);
  const auto [top, top_new] = m.try_emplace(std::numeric_limits<std::uint64_t>::max(), 99);
  EXPECT_FALSE(top_new);
  EXPECT_EQ(*top, 7u);
  EXPECT_EQ(contents(m),
            (std::map<std::uint64_t, std::uint64_t>{
                {0, 5}, {std::numeric_limits<std::uint64_t>::max(), 7}}));
}

TEST(FlatU64Map, GrowsThroughRehashesAndIteratesEachKeyOnce) {
  // Sequential ids, a large stride and random keys, with repeats: the map
  // agrees with std::map after every rehash boundary.
  FlatU64Map<std::uint64_t> m;
  std::map<std::uint64_t, std::uint64_t> ref;
  Rng rng(8);
  for (std::uint64_t i = 0; i < 20000; ++i) {
    std::uint64_t key = 0;
    switch (i % 3) {
      case 0: key = i / 3; break;
      case 1: key = (i / 3) << 40; break;
      default: key = rng.next(); break;
    }
    if (i % 5 == 0) key = i / 10;  // a repeat of an earlier sequential id
    m[key] += i;
    ref[key] += i;
    if ((i & (i + 1)) == 0) {  // i = 2^j - 1
      ASSERT_EQ(m.size(), ref.size());
      ASSERT_EQ(contents(m), ref) << "after " << i + 1 << " inserts";
    }
  }
  EXPECT_EQ(m.size(), ref.size());
  EXPECT_EQ(contents(m), ref);
  for (const auto& [key, value] : ref) {
    const auto [found, inserted] = m.try_emplace(key);
    EXPECT_FALSE(inserted);
    EXPECT_EQ(*found, value);
  }
}

TEST(FlatU64Map, CopyIsIndependent) {
  FlatU64Map<std::uint64_t> a;
  for (std::uint64_t i = 0; i < 100; ++i) a[i * 3] = i;
  FlatU64Map<std::uint64_t> b = a;
  const auto before = contents(a);
  auto expected_b = before;
  b[0] += 1000;
  expected_b[0] += 1000;
  for (std::uint64_t i = 0; i < 200; ++i) {  // forces a rehash in b
    b[i * 5 + 1] = 1;
    expected_b[i * 5 + 1] = 1;
  }
  EXPECT_EQ(contents(a), before);
  EXPECT_EQ(contents(b), expected_b);
  a[7] = 7;  // and the source's inserts do not reach the copy
  EXPECT_EQ(contents(b).count(7), 0u);
}

TEST(FlatU64Map, ClearThenReuse) {
  FlatU64Map<std::uint64_t> m;
  for (std::uint64_t i = 0; i < 1000; ++i) m[i] = i;
  m.clear();
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.begin(), m.end());
  for (std::uint64_t i = 500; i < 1500; ++i) {
    const auto [value, inserted] = m.try_emplace(i, i + 1);
    EXPECT_TRUE(inserted) << i;
    EXPECT_EQ(*value, i + 1);
  }
  EXPECT_EQ(m.size(), 1000u);
  std::map<std::uint64_t, std::uint64_t> ref;
  for (std::uint64_t i = 500; i < 1500; ++i) ref[i] = i + 1;
  EXPECT_EQ(contents(m), ref);
}

TEST(FlatU64Map, ClearAfterShrinkingUseEmptiesTheIndex) {
  // One large fill grows the index; later small fills clear only their own
  // slots.  Every clear must leave no slot behind: old keys are gone and
  // each refill matches std::map.
  FlatU64Map<std::uint64_t> m;
  EXPECT_EQ(m.find(3), nullptr);  // no index yet
  Rng rng(31);
  for (std::uint64_t i = 0; i < 5000; ++i) m[rng.next()] = i;
  std::vector<std::uint64_t> previous;
  for (const auto& [key, value] : m) previous.push_back(key);
  for (int round = 0; round < 50; ++round) {
    m.clear();
    EXPECT_TRUE(m.empty());
    for (const std::uint64_t key : previous) ASSERT_EQ(m.find(key), nullptr) << round;
    previous.clear();
    std::map<std::uint64_t, std::uint64_t> ref;
    const std::uint64_t n = rng.uniform_u64(0, 600);
    for (std::uint64_t i = 0; i < n; ++i) {
      // Small keys repeat, so some inserts find an entry.
      const std::uint64_t key = i % 3 == 0 ? rng.uniform_u64(0, 40) : rng.next();
      m[key] += i;
      ref[key] += i;
      previous.push_back(key);
    }
    ASSERT_EQ(contents(m), ref) << round;
    for (const auto& [key, value] : ref) {
      const std::uint64_t* found = m.find(key);
      ASSERT_NE(found, nullptr);
      EXPECT_EQ(*found, value);
    }
  }
}

TEST(FlatU64Map, TryEmplaceConsumesArgumentsOnlyOnInsert) {
  FlatU64Map<std::string> m;
  std::string first = "climate";
  EXPECT_TRUE(m.try_emplace(9, std::move(first)).second);
  std::string second = "biology";
  const auto [value, inserted] = m.try_emplace(9, std::move(second));
  EXPECT_FALSE(inserted);
  EXPECT_EQ(*value, "climate");
  EXPECT_EQ(second, "biology");  // not moved from
}

}  // namespace
}  // namespace mlio::util
