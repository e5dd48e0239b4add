// Fixed-bin histogram over a BinSpec, with CDF extraction and merging.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "util/bins.hpp"

namespace mlio::util {

class ByteReader;
class ByteWriter;

/// Counting histogram over a BinSpec.  Mergeable (for parallel accumulation)
/// and convertible to a CDF in percent.  Counts are 64-bit; `add` may carry a
/// weight so the same type serves both "number of calls" and "bytes moved".
class Histogram {
 public:
  explicit Histogram(const BinSpec& spec);

  /// Record `weight` observations of size `bytes`.
  void add(std::uint64_t bytes, std::uint64_t weight = 1);
  /// Record `weight` observations directly into bin `bin`.
  void add_to_bin(std::size_t bin, std::uint64_t weight = 1);
  /// Fold a dense per-bin weight array in one pass: bin `b` gains
  /// `weights[b]`.  Branch-free (zero weights add zero), so the compiler
  /// vectorizes the whole fold; `weights.size()` must not exceed the bin
  /// count.  Equivalent to add_to_bin per nonzero entry.
  void add_bins(std::span<const std::uint64_t> weights);

  void merge(const Histogram& other);

  /// Serialize the counts.  The BinSpec itself is not stored (specs are
  /// static presets owned by the enclosing accumulator); `load` restores
  /// into a histogram already constructed over the same spec and throws
  /// FormatError on a bin-count or total mismatch.
  void save(ByteWriter& w) const;
  void load(ByteReader& r);
  /// Byte count save() would write, from container sizes alone.
  std::uint64_t serialized_size() const;

  std::uint64_t count(std::size_t bin) const { return counts_.at(bin); }
  std::uint64_t total() const { return total_; }
  std::size_t size() const { return counts_.size(); }
  const BinSpec& spec() const { return *spec_; }

  /// Cumulative distribution in percent: cdf()[i] = 100 * P(size <= bin i).
  /// All entries are 0 when the histogram is empty.
  std::vector<double> cdf_percent() const;
  /// Per-bin share in percent.
  std::vector<double> share_percent() const;

 private:
  const BinSpec* spec_;  // non-owning; BinSpec presets are static
  std::vector<std::uint64_t> counts_;
  std::uint64_t total_ = 0;
};

}  // namespace mlio::util
