#include "util/histogram.hpp"

#include <numeric>

#include "util/byte_io.hpp"
#include "util/error.hpp"

namespace mlio::util {

Histogram::Histogram(const BinSpec& spec) : spec_(&spec), counts_(spec.size(), 0) {}

void Histogram::add(std::uint64_t bytes, std::uint64_t weight) {
  add_to_bin(spec_->index_of(bytes), weight);
}

void Histogram::add_to_bin(std::size_t bin, std::uint64_t weight) {
  MLIO_ASSERT(bin < counts_.size());
  counts_[bin] += weight;
  total_ += weight;
}

void Histogram::add_bins(std::span<const std::uint64_t> weights) {
  MLIO_ASSERT(weights.size() <= counts_.size());
  std::uint64_t sum = 0;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    counts_[i] += weights[i];
    sum += weights[i];
  }
  total_ += sum;
}

void Histogram::save(ByteWriter& w) const {
  w.u64(counts_.size());
  for (const std::uint64_t c : counts_) w.u64(c);
  w.u64(total_);
}

std::uint64_t Histogram::serialized_size() const { return 8 * (1 + counts_.size() + 1); }

void Histogram::load(ByteReader& r) {
  const std::uint64_t n = r.u64();
  if (n != counts_.size()) throw FormatError("Histogram: bin count mismatch");
  for (auto& c : counts_) c = r.u64();
  total_ = r.u64();
  const std::uint64_t sum = std::accumulate(counts_.begin(), counts_.end(), std::uint64_t{0});
  if (sum != total_) throw FormatError("Histogram: total does not match bin sum");
}

void Histogram::merge(const Histogram& other) {
  if (other.counts_.size() != counts_.size()) {
    throw ConfigError("Histogram::merge: bin count mismatch");
  }
  for (std::size_t i = 0; i < counts_.size(); ++i) counts_[i] += other.counts_[i];
  total_ += other.total_;
}

std::vector<double> Histogram::cdf_percent() const {
  std::vector<double> out(counts_.size(), 0.0);
  if (total_ == 0) return out;
  std::uint64_t running = 0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    running += counts_[i];
    out[i] = 100.0 * static_cast<double>(running) / static_cast<double>(total_);
  }
  return out;
}

std::vector<double> Histogram::share_percent() const {
  std::vector<double> out(counts_.size(), 0.0);
  if (total_ == 0) return out;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    out[i] = 100.0 * static_cast<double>(counts_[i]) / static_cast<double>(total_);
  }
  return out;
}

}  // namespace mlio::util
