// §3.2.2 — usage of storage system layers.
//
//   Table 5 — jobs touching files exclusively on the PFS, exclusively on the
//             in-system layer, or both (aggregated across all of a job's
//             Darshan logs);
//   Fig. 6  — read-only / read-write / write-only classification of files
//             (POSIX+STDIO population) per layer;
//   Fig. 7  — in-system usage by science domain (read/write volume and job
//             counts).
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <string>

#include "core/dataset.hpp"
#include "util/flat_map.hpp"
#include "util/stats.hpp"

namespace mlio::util {
class ByteReader;
class ByteWriter;
}  // namespace mlio::util

namespace mlio::core {

class LayerUsage {
 public:
  /// Call once per log with that log's summaries.
  void add_log(const darshan::JobRecord& job, const std::vector<FileSummary>& files);
  void merge(const LayerUsage& other);

  /// Canonical serialization (the job maps are emitted in sorted key
  /// order).
  void save(util::ByteWriter& w) const;
  void load(util::ByteReader& r);
  /// Byte count save() would write, from container sizes alone.
  std::uint64_t serialized_size() const;

  struct JobExclusivity {
    std::uint64_t pfs_only = 0;
    std::uint64_t insys_only = 0;
    std::uint64_t both = 0;
  };
  JobExclusivity job_exclusivity() const;

  struct ClassCounts {
    std::uint64_t read_only = 0;
    std::uint64_t read_write = 0;
    std::uint64_t write_only = 0;
    std::uint64_t total() const { return read_only + read_write + write_only; }
    /// Fig. 6's headline: share of files that are RO or WO (percent).
    double ro_or_wo_percent() const;
  };
  const ClassCounts& classes(Layer layer) const {
    return classes_[static_cast<std::size_t>(layer)];
  }

  struct DomainUsage {
    util::ExactSum insys_bytes_read;
    util::ExactSum insys_bytes_written;
    std::uint64_t insys_logs = 0;  ///< logs from this domain touching the layer
  };
  /// Ordered by domain name for stable output.
  const std::map<std::string, DomainUsage>& domains() const { return domains_; }
  /// Distinct jobs that touched the in-system layer.
  std::uint64_t insys_jobs() const;

 private:
  void note_insys_job(std::uint64_t job_id, std::string domain);

  // Bit 0: touched in-system; bit 1: touched PFS.
  util::FlatU64Map<std::uint8_t> job_mask_;
  // Distinct in-system jobs (job_id -> domain; the least name seen, so the
  // map is order-free even if a job's logs disagreed).
  util::FlatU64Map<std::string> insys_job_domain_;
  std::array<ClassCounts, kLayerCount> classes_{};
  std::map<std::string, DomainUsage> domains_;
};

}  // namespace mlio::core
