// Streaming statistics: moments and quantiles.
//
// The performance analysis (§3.4) needs boxplot five-number summaries per
// (layer, interface, transfer-bin) cell.  Cells can hold millions of samples
// at large scale, so quantiles come from a deterministic reservoir sample
// (Vitter's algorithm R driven by a seeded Rng) and are exact whenever the
// cell fits in the reservoir.
#pragma once

#include <cstdint>
#include <vector>

#include "util/rng.hpp"

namespace mlio::util {

class ByteReader;
class ByteWriter;

/// Welford running moments plus min/max.  Mergeable.
class RunningStats {
 public:
  void add(double x);
  void merge(const RunningStats& other);

  /// Exact state round-trip (load(save(x)) == x bit-for-bit).
  void save(ByteWriter& w) const;
  void load(ByteReader& r);

  std::uint64_t count() const { return n_; }
  double mean() const { return n_ ? mean_ : 0.0; }
  double variance() const;  ///< population variance; 0 when n < 2
  double stddev() const;
  double min() const { return n_ ? min_ : 0.0; }
  double max() const { return n_ ? max_ : 0.0; }
  double sum() const { return n_ ? mean_ * static_cast<double>(n_) : 0.0; }

 private:
  std::uint64_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Boxplot summary.
struct FiveNumber {
  double min = 0, q1 = 0, median = 0, q3 = 0, max = 0;
  std::uint64_t count = 0;
};

/// Deterministic reservoir sampler with exact quantiles for small inputs.
class ReservoirQuantiles {
 public:
  explicit ReservoirQuantiles(std::size_t capacity = 4096, std::uint64_t seed = 1);

  void add(double x);
  void merge(const ReservoirQuantiles& other);

  /// Exact state round-trip: capacity, counts, min/max, the full reservoir
  /// sample, and the Rng position all survive, so a restored sampler is
  /// indistinguishable from the original — adds and merges continue
  /// bit-identically.  Part of the Analysis snapshot fidelity guarantee.
  void save(ByteWriter& w) const;
  /// Throws FormatError on a structurally invalid payload (e.g. a sample
  /// larger than its capacity or than the observation count).
  void load(ByteReader& r);
  /// Byte count save() would write, from container sizes alone.
  std::uint64_t serialized_size() const;

  std::uint64_t count() const { return n_; }
  bool empty() const { return n_ == 0; }
  std::size_t capacity() const { return capacity_; }

  /// Quantile q in [0,1] by linear interpolation over the reservoir.
  double quantile(double q) const;
  FiveNumber five_number() const;

 private:
  std::size_t capacity_;
  Rng rng_;
  std::vector<double> sample_;
  std::uint64_t n_ = 0;
  double min_ = 0.0;
  double max_ = 0.0;
};

}  // namespace mlio::util
