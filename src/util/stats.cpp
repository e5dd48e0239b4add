#include "util/stats.hpp"

#include <algorithm>
#include <cmath>

#include "util/byte_io.hpp"
#include "util/error.hpp"

namespace mlio::util {

void RunningStats::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

void RunningStats::merge(const RunningStats& other) {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const auto na = static_cast<double>(n_);
  const auto nb = static_cast<double>(other.n_);
  const double delta = other.mean_ - mean_;
  const double total = na + nb;
  mean_ += delta * nb / total;
  m2_ += other.m2_ + delta * delta * na * nb / total;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
  n_ += other.n_;
}

void RunningStats::save(ByteWriter& w) const {
  w.u64(n_);
  w.f64(mean_);
  w.f64(m2_);
  w.f64(min_);
  w.f64(max_);
}

void RunningStats::load(ByteReader& r) {
  n_ = r.u64();
  mean_ = r.f64();
  m2_ = r.f64();
  min_ = r.f64();
  max_ = r.f64();
}

double RunningStats::variance() const {
  return n_ >= 2 ? m2_ / static_cast<double>(n_) : 0.0;
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

ReservoirQuantiles::ReservoirQuantiles(std::size_t capacity, std::uint64_t seed)
    : capacity_(capacity), rng_(Rng::stream(seed, 0x5eed)) {
  MLIO_ASSERT(capacity_ > 0);
  sample_.reserve(std::min<std::size_t>(capacity_, 1024));
}

void ReservoirQuantiles::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  if (sample_.size() < capacity_) {
    sample_.push_back(x);
  } else {
    const std::uint64_t j = rng_.uniform_u64(0, n_ - 1);
    if (j < capacity_) sample_[static_cast<std::size_t>(j)] = x;
  }
}

void ReservoirQuantiles::merge(const ReservoirQuantiles& other) {
  // Weighted merge: feed the other reservoir's samples, each standing in for
  // other.n_/|other.sample_| observations.  This keeps quantiles approximately
  // right while remaining deterministic.
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
  const std::uint64_t weight =
      std::max<std::uint64_t>(1, other.n_ / std::max<std::size_t>(1, other.sample_.size()));
  for (double x : other.sample_) {
    for (std::uint64_t w = 0; w < weight; ++w) {
      ++n_;
      if (sample_.size() < capacity_) {
        sample_.push_back(x);
      } else {
        const std::uint64_t j = rng_.uniform_u64(0, n_ - 1);
        if (j < capacity_) sample_[static_cast<std::size_t>(j)] = x;
      }
    }
  }
  // n_ now over-counts by construction of the weighting; correct it exactly.
  n_ = n_ - weight * other.sample_.size() + other.n_;
}

void ReservoirQuantiles::save(ByteWriter& w) const {
  w.u64(capacity_);
  rng_.save(w);
  w.u64(n_);
  w.f64(min_);
  w.f64(max_);
  w.u64(sample_.size());
  for (const double x : sample_) w.f64(x);
}

std::uint64_t ReservoirQuantiles::serialized_size() const {
  return 8 + Rng::serialized_size() + 8 * (4 + sample_.size());
}

void ReservoirQuantiles::load(ByteReader& r) {
  const std::uint64_t capacity = r.u64();
  if (capacity == 0) throw FormatError("ReservoirQuantiles: zero capacity");
  capacity_ = static_cast<std::size_t>(capacity);
  rng_.load(r);
  n_ = r.u64();
  min_ = r.f64();
  max_ = r.f64();
  const std::uint64_t sample_size = r.u64();
  if (sample_size > capacity || sample_size > n_) {
    throw FormatError("ReservoirQuantiles: sample larger than capacity or count");
  }
  sample_.clear();
  sample_.reserve(static_cast<std::size_t>(sample_size));
  for (std::uint64_t i = 0; i < sample_size; ++i) sample_.push_back(r.f64());
}

namespace {

/// Linear interpolation at interior q over an already sorted, non-empty
/// sample.
double interpolate(const std::vector<double>& sorted, double q) {
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

}  // namespace

double ReservoirQuantiles::quantile(double q) const {
  MLIO_ASSERT(q >= 0.0 && q <= 1.0);
  if (sample_.empty()) return 0.0;
  if (q <= 0.0) return min_;
  if (q >= 1.0) return max_;
  std::vector<double> sorted(sample_);
  std::sort(sorted.begin(), sorted.end());
  return interpolate(sorted, q);
}

FiveNumber ReservoirQuantiles::five_number() const {
  FiveNumber f;
  f.count = n_;
  if (n_ == 0) return f;
  f.min = min_;
  f.max = max_;
  if (sample_.empty()) return f;
  // One sorted copy serves all three interior quantiles.
  std::vector<double> sorted(sample_);
  std::sort(sorted.begin(), sorted.end());
  f.q1 = interpolate(sorted, 0.25);
  f.median = interpolate(sorted, 0.5);
  f.q3 = interpolate(sorted, 0.75);
  return f;
}

}  // namespace mlio::util
