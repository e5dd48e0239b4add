// Table 2 — census of the Darshan collection: logs, jobs, files, node-hours,
// plus the logs-per-job range quoted in §3.1.
#pragma once

#include <cstdint>
#include <unordered_map>

#include "core/dataset.hpp"

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
  double node_hours() const { return node_hours_; }
  std::uint64_t min_logs_per_job() const;
  std::uint64_t max_logs_per_job() const;

  /// Replaces the node-hours accumulator.  Node-hours is the one
  /// association-sensitive floating-point sum in the whole analysis state;
  /// the parallel tree merge (Analysis::merge_ordered) restores the
  /// canonical left-fold association by re-summing the shard values in
  /// partition order and patching the result through here.
  void set_node_hours(double v) { node_hours_ = v; }

 private:
  std::uint64_t logs_ = 0;
  std::uint64_t files_ = 0;
  double node_hours_ = 0;
  std::unordered_map<std::uint64_t, std::uint64_t> per_job_logs_;
};

}  // namespace mlio::core
