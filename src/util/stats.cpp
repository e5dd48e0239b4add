#include "util/stats.hpp"

#include <algorithm>
#include <bit>
#include <span>

#include "util/byte_io.hpp"
#include "util/error.hpp"

namespace mlio::util {

BottomKSample::BottomKSample(std::size_t capacity) : capacity_(capacity) {
  MLIO_ASSERT(capacity_ > 0);
}

bool BottomKSample::less(const Entry& a, const Entry& b) {
  if (a.key != b.key) return a.key < b.key;
  return std::bit_cast<std::uint64_t>(a.value) < std::bit_cast<std::uint64_t>(b.value);
}

void BottomKSample::offer(const Entry& e) {
  if (sample_.size() < capacity_) {
    if (!sample_.empty() && e.value < sample_.back().value) ordered_ = false;
    sample_.push_back(e);
    if (sample_.size() == capacity_) {
      std::make_heap(sample_.begin(), sample_.end(), less);
      ordered_ = false;
    }
  } else if (less(e, sample_.front())) {
    std::pop_heap(sample_.begin(), sample_.end(), less);
    sample_.back() = e;
    std::push_heap(sample_.begin(), sample_.end(), less);
  }
}

void BottomKSample::add(std::uint64_t key, double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  offer(Entry{key, x});
}

void BottomKSample::merge(const BottomKSample& other) {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    min_ = other.min_;
    max_ = other.max_;
  } else {
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
  }
  n_ += other.n_;
  // A full sample is a heap: offering each entry costs O(log k) only for the
  // few that displace one.  Otherwise select the k smallest of the union.
  if (sample_.size() == capacity_) {
    for (const Entry& e : other.sample_) offer(e);
    return;
  }
  if (sample_.size() + other.sample_.size() < capacity_) {
    merge_by_value(other);
    return;
  }
  sample_.insert(sample_.end(), other.sample_.begin(), other.sample_.end());
  const auto kth = sample_.begin() + static_cast<std::ptrdiff_t>(capacity_);
  if (sample_.size() > capacity_) {
    std::nth_element(sample_.begin(), kth, sample_.end(), less);
    sample_.erase(kth, sample_.end());
  }
  std::make_heap(sample_.begin(), sample_.end(), less);
  ordered_ = false;
}

void BottomKSample::order_by_value() {
  if (ordered_ || sample_.size() == capacity_) return;
  std::sort(sample_.begin(), sample_.end(), by_value);
  ordered_ = true;
}

void BottomKSample::merge_by_value(const BottomKSample& other) {
  order_by_value();
  std::span<const Entry> src = other.sample_;
  if (!other.ordered_) {
    // `other` is const (a shared shard may be read by other threads), so
    // its entries are ordered in a per-thread buffer reused across cells.
    thread_local std::vector<Entry> buffer;
    buffer.assign(other.sample_.begin(), other.sample_.end());
    std::sort(buffer.begin(), buffer.end(), by_value);
    src = buffer;
  }
  // Merge from the back into the grown vector: the write position stays
  // above every unread entry of this sample.
  std::size_t i = sample_.size();
  std::size_t j = src.size();
  sample_.resize(i + j);
  for (std::size_t out = i + j; j > 0;) {
    if (i > 0 && by_value(src[j - 1], sample_[i - 1])) {
      sample_[--out] = sample_[--i];
    } else {
      sample_[--out] = src[--j];
    }
  }
}

void BottomKSample::save(ByteWriter& w) const {
  std::vector<Entry> sorted(sample_);
  std::sort(sorted.begin(), sorted.end(), less);
  w.u64(capacity_);
  w.u64(n_);
  w.f64(min_);
  w.f64(max_);
  w.u64(sorted.size());
  for (const Entry& e : sorted) {
    w.u64(e.key);
    w.f64(e.value);
  }
}

std::uint64_t BottomKSample::serialized_size() const { return 8 * 5 + 16 * sample_.size(); }

void BottomKSample::load(ByteReader& r) {
  const std::uint64_t capacity = r.u64();
  if (capacity == 0) throw FormatError("BottomKSample: zero capacity");
  const std::uint64_t n = r.u64();
  const double lo = r.f64();
  const double hi = r.f64();
  const std::uint64_t sample_size = r.u64();
  if (sample_size != std::min(n, capacity)) {
    throw FormatError("BottomKSample: sample size is not min(count, capacity)");
  }
  capacity_ = static_cast<std::size_t>(capacity);
  n_ = n;
  min_ = lo;
  max_ = hi;
  sample_.clear();
  sample_.reserve(static_cast<std::size_t>(sample_size));
  for (std::uint64_t i = 0; i < sample_size; ++i) {
    const std::uint64_t key = r.u64();
    sample_.push_back(Entry{key, r.f64()});
  }
  ordered_ = sample_.size() < capacity_;
  if (ordered_) {
    std::sort(sample_.begin(), sample_.end(), by_value);
  } else {
    std::make_heap(sample_.begin(), sample_.end(), less);
  }
}

std::vector<double> BottomKSample::sorted_values() const {
  std::vector<double> values;
  values.reserve(sample_.size());
  for (const Entry& e : sample_) values.push_back(e.value);
  std::sort(values.begin(), values.end());
  return values;
}

void ExactSum::save(ByteWriter& w) const {
  w.u64(low());
  w.u64(high());
}

void ExactSum::load(ByteReader& r) {
  const std::uint64_t lo = r.u64();
  v_ = static_cast<Value>(r.u64()) << 64 | lo;
}

namespace {

/// Linear interpolation at interior q over n >= 1 values, ascending under
/// `at`.
template <class At>
double interpolate(std::size_t n, double q, At at) {
  const double pos = q * static_cast<double>(n - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, n - 1);
  const double frac = pos - static_cast<double>(lo);
  return at(lo) * (1.0 - frac) + at(hi) * frac;
}

template <class At>
void fill_quartiles(FiveNumber& f, std::size_t n, At at) {
  f.q1 = interpolate(n, 0.25, at);
  f.median = interpolate(n, 0.5, at);
  f.q3 = interpolate(n, 0.75, at);
}

}  // namespace

double BottomKSample::quantile(double q) const {
  MLIO_ASSERT(q >= 0.0 && q <= 1.0);
  if (sample_.empty()) return 0.0;
  if (q <= 0.0) return min_;
  if (q >= 1.0) return max_;
  if (ordered_) {
    return interpolate(sample_.size(), q, [this](std::size_t i) { return sample_[i].value; });
  }
  const std::vector<double> sorted = sorted_values();
  return interpolate(sorted.size(), q, [&sorted](std::size_t i) { return sorted[i]; });
}

FiveNumber BottomKSample::five_number() const {
  FiveNumber f;
  f.count = n_;
  if (n_ == 0) return f;
  f.min = min_;
  f.max = max_;
  if (sample_.empty()) return f;
  if (ordered_) {
    fill_quartiles(f, sample_.size(), [this](std::size_t i) { return sample_[i].value; });
    return f;
  }
  // One sorted copy serves all three interior quantiles.
  const std::vector<double> sorted = sorted_values();
  fill_quartiles(f, sorted.size(), [&sorted](std::size_t i) { return sorted[i]; });
  return f;
}

}  // namespace mlio::util
