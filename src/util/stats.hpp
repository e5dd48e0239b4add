// Streaming statistics: quantiles and exact sums.
//
// The performance analysis (§3.4) needs boxplot five-number summaries per
// (layer, interface, transfer-bin) cell.  Cells can hold millions of samples
// at large scale, so quantiles come from a keyed bottom-k sample that is
// exact whenever the cell fits in it.  The sample and the exact sums are
// order-free: any cut of a stream into shards, folded in any order, gives
// the same bits.
#pragma once

#include <cstdint>
#include <vector>


namespace mlio::util {

class ByteReader;
class ByteWriter;

/// Boxplot summary.
struct FiveNumber {
  double min = 0, q1 = 0, median = 0, q3 = 0, max = 0;
  std::uint64_t count = 0;
};

/// Keyed bottom-k sample (Cohen & Kaplan, "Summarizing data using bottom-k
/// sketches", PODC 2007) with exact count, min and max.  Every observation
/// carries a 64-bit key, a hash of a stable identity.  The sample is the k
/// observations with the smallest (key, value bits) — a total order, so the
/// sample is a function of the observed multiset alone: add order, cut
/// points and merge association never change a bit of the state.
/// Quantiles are exact while count() <= k and come from a uniform sample of
/// the observations beyond that (the keys are hashes).
///
/// In memory a sample below capacity is usually kept in value order, so a
/// boxplot reads it in place: add() only notes when an observation arrives
/// out of order, and merge() of two samples whose union stays below k merges
/// them by value.  That order is invisible outside the class: quantiles are
/// the same bits either way and save() writes the canonical key order.
class BottomKSample {
 public:
  static constexpr std::size_t kDefaultCapacity = 4096;

  explicit BottomKSample(std::size_t capacity = kDefaultCapacity);

  void add(std::uint64_t key, double x);
  /// Keeps the k smallest of the union: associative and commutative.
  void merge(const BottomKSample& other);
  /// Put a sample below capacity into value order now (a no-op when full or
  /// already ordered), so readers and merges of it need not sort a copy.
  /// The state is unchanged: quantiles and save() are the same bits.
  void order_by_value();

  /// Canonical state serialization: the sample is written sorted, so equal
  /// states produce equal bytes whatever path built them.
  void save(ByteWriter& w) const;
  /// Throws FormatError on a structurally invalid payload (a sample size
  /// other than min(count, capacity)).
  void load(ByteReader& r);
  /// Byte count save() would write, from container sizes alone.
  std::uint64_t serialized_size() const;

  std::uint64_t count() const { return n_; }
  bool empty() const { return n_ == 0; }
  std::size_t capacity() const { return capacity_; }

  /// Quantile q in [0,1] by linear interpolation over the sample.
  double quantile(double q) const;
  /// Never mutates, so concurrent readers of one shared sample are safe.
  FiveNumber five_number() const;

 private:
  struct Entry {
    std::uint64_t key;
    double value;
  };
  /// (key, value bits) order; the sample holds its k smallest entries.
  static bool less(const Entry& a, const Entry& b);
  static bool by_value(const Entry& a, const Entry& b) { return a.value < b.value; }
  /// Keep `e` if it is among the k smallest seen (count/min/max untouched).
  void offer(const Entry& e);
  /// Merges `other`'s entries by value; the union must stay below capacity.
  void merge_by_value(const BottomKSample& other);
  std::vector<double> sorted_values() const;

  std::size_t capacity_;
  /// Below capacity: in value order while ordered_, else arbitrary.  Once
  /// full: a max-heap under less().
  std::vector<Entry> sample_;
  bool ordered_ = true;
  std::uint64_t n_ = 0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Exact sum of unsigned integers (bytes, node-seconds) in 128 bits: every
/// order and grouping of the same addends gives the same bits, which a
/// double sum does not.  Converted to double only when read.
class ExactSum {
 public:
  void add(std::uint64_t v) { v_ += v; }
  /// Adds a * b without overflow (the product fits 128 bits).
  void add_product(std::uint64_t a, std::uint64_t b) { v_ += static_cast<Value>(a) * b; }
  void merge(const ExactSum& other) { v_ += other.v_; }

  double value() const { return static_cast<double>(v_); }
  /// Implicit, so a byte or node-second total reads as a double.
  operator double() const { return value(); }
  std::uint64_t low() const { return static_cast<std::uint64_t>(v_); }
  std::uint64_t high() const { return static_cast<std::uint64_t>(v_ >> 64); }
  bool operator==(const ExactSum&) const = default;

  void save(ByteWriter& w) const;
  void load(ByteReader& r);
  static constexpr std::uint64_t kSerializedSize = 16;

 private:
  __extension__ using Value = unsigned __int128;
  Value v_ = 0;
};

}  // namespace mlio::util
