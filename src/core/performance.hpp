// §3.4 — delivered I/O performance of single-shared files.
//
// Only rank == -1 records are trusted (all processes participated, so the
// min/max-reduced timestamps bound the collective transfer and
// BYTES / TIME is the aggregate bandwidth the job observed).  Observations
// are grouped by (layer, managing interface POSIX|STDIO, transfer-size bin)
// and summarized as boxplot five-number statistics — Figs. 11 (Summit) and
// 12 (Cori).
#pragma once

#include <cstdint>
#include <vector>

#include "core/dataset.hpp"
#include "util/bins.hpp"
#include "util/stats.hpp"

namespace mlio::util {
class ByteReader;
class ByteWriter;
}  // namespace mlio::util

namespace mlio::core {

class Performance {
 public:
  Performance();

  /// `log_key` identifies the log (observation_log_key); each observation's
  /// sample key mixes in the file's record id and the direction, so a cell's
  /// bottom-k sample is a function of which observations it saw, never of
  /// their order or of how the stream was cut.
  void add(const FileSummary& file, std::uint64_t log_key);
  void merge(const Performance& other);
  /// Value-order every cell below capacity (BottomKSample::order_by_value).
  void order_samples();

  /// Canonical serialization of every sample cell.
  void save(util::ByteWriter& w) const;
  void load(util::ByteReader& r);
  /// Byte count save() would write, from container sizes alone.
  std::uint64_t serialized_size() const;

  /// Five-number summary of MB/s for one cell.  `iface`: 0 POSIX, 1 STDIO.
  util::FiveNumber cell(Layer layer, std::size_t iface, std::size_t transfer_bin,
                        bool read) const;
  /// Median POSIX/STDIO bandwidth ratio for a bin (0 when either is empty).
  double posix_over_stdio(Layer layer, std::size_t transfer_bin, bool read) const;

  static const util::BinSpec& bins() { return util::BinSpec::transfer_bins_perf(); }

  std::uint64_t observations() const { return observations_; }

 private:
  std::size_t slot(Layer layer, std::size_t iface, std::size_t bin, bool read) const;

  std::vector<util::BottomKSample> cells_;
  std::uint64_t observations_ = 0;
};

/// The per-log part of a performance observation's sample key: splitmix64
/// over (facility, job id).  The facility is the job's "machine" tag, so two
/// systems' job ids never share keys.
std::uint64_t observation_log_key(const darshan::JobRecord& job);

}  // namespace mlio::core
