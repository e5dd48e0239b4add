// §3.2.1 — I/O access patterns per storage layer.
//
// One streaming, mergeable accumulator covering:
//   Table 3  — file counts and read/write volumes per layer;
//   Table 4  — files with > 1 TB transfer per layer and direction;
//   Fig. 3   — CDF of per-file transfer size (coarse bins);
//   Fig. 4   — CDF of per-process request sizes (10 Darshan bins);
//   Fig. 5   — Fig. 4 restricted to jobs with > 1,024 processes.
#pragma once

#include <array>
#include <cstdint>

#include "core/dataset.hpp"
#include "util/histogram.hpp"
#include "util/stats.hpp"

namespace mlio::util {
class ByteReader;
class ByteWriter;
}  // namespace mlio::util

namespace mlio::core {

class AccessPatterns {
 public:
  AccessPatterns();

  void add(const darshan::JobRecord& job, const FileSummary& file);
  void merge(const AccessPatterns& other);

  void save(util::ByteWriter& w) const;
  void load(util::ByteReader& r);
  /// Byte count save() would write, from container sizes alone.
  std::uint64_t serialized_size() const;

  struct LayerStats {
    std::uint64_t files = 0;
    std::uint64_t read_files = 0;   ///< files with bytes_read > 0
    std::uint64_t write_files = 0;  ///< files with bytes_written > 0
    util::ExactSum bytes_read;
    util::ExactSum bytes_written;
    std::uint64_t huge_read_files = 0;   ///< transfer > 1 TB (Table 4)
    std::uint64_t huge_write_files = 0;
    util::Histogram read_transfer;   ///< per-file transfer bins (Fig. 3)
    util::Histogram write_transfer;
    util::Histogram read_requests;   ///< per-call request bins (Fig. 4)
    util::Histogram write_requests;
    util::Histogram read_requests_large;   ///< > 1,024-process jobs (Fig. 5)
    util::Histogram write_requests_large;

    LayerStats();
    void merge(const LayerStats& other);
  };

  const LayerStats& layer(Layer l) const {
    return layers_[static_cast<std::size_t>(l)];
  }

 private:
  std::array<LayerStats, kLayerCount> layers_;
};

}  // namespace mlio::core
