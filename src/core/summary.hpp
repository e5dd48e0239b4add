// Table 2 — census of the Darshan collection: logs, jobs, files, node-hours,
// plus the logs-per-job range quoted in §3.1.
#pragma once

#include <cstdint>

#include "core/dataset.hpp"
#include "util/flat_map.hpp"
#include "util/stats.hpp"

namespace mlio::util {
class ByteReader;
class ByteWriter;
}  // namespace mlio::util

namespace mlio::core {

class Summary {
 public:
  void add_log(const darshan::JobRecord& job, const std::vector<FileSummary>& files);
  void merge(const Summary& other);

  /// Canonical serialization (per-job map emitted in sorted key order) —
  /// identical state always produces identical bytes.
  void save(util::ByteWriter& w) const;
  void load(util::ByteReader& r);
  /// Byte count save() would write, from container sizes alone.
  std::uint64_t serialized_size() const;

  std::uint64_t logs() const { return logs_; }
  std::uint64_t jobs() const { return per_job_logs_.size(); }
  std::uint64_t files() const { return files_; }
  double node_hours() const { return node_seconds_.value() / 3600.0; }
  /// Exact node-seconds (elapsed seconds × nodes, summed over logs).
  const util::ExactSum& node_seconds() const { return node_seconds_; }
  std::uint64_t min_logs_per_job() const;
  std::uint64_t max_logs_per_job() const;

 private:
  std::uint64_t logs_ = 0;
  std::uint64_t files_ = 0;
  util::ExactSum node_seconds_;
  util::FlatU64Map<std::uint64_t> per_job_logs_;
};

}  // namespace mlio::core
