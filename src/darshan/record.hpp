// In-memory representation of a Darshan log: job record, mount table, name
// map, and per-module file records.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "darshan/dxt.hpp"
#include "darshan/module.hpp"
#include "util/flat_map.hpp"

namespace mlio::darshan {

/// Shared-file records carry this rank (all ranks of the job participated;
/// the analysis in §3.4 only trusts these for bandwidth math).
inline constexpr std::int32_t kSharedRank = -1;

/// Stable 64-bit record id derived from the file path (FNV-1a).
std::uint64_t hash_record_id(std::string_view path);

/// Job-level metadata (one per log).
struct JobRecord {
  std::uint64_t job_id = 0;
  std::uint32_t user_id = 0;
  std::uint32_t nprocs = 1;
  std::uint32_t nnodes = 1;
  std::int64_t start_time = 0;  ///< Unix seconds at MPI_Init
  std::int64_t end_time = 0;    ///< Unix seconds at MPI_Finalize
  std::string exe;
  /// Free-form metadata (e.g. "domain" joined from the scheduler log, as the
  /// paper does by merging Darshan records with scheduler/NEWT data).
  std::map<std::string, std::string> metadata;
};

/// A mounted file system visible to the job; the analysis attributes each
/// file to a storage layer by longest-prefix match against this table.
struct MountEntry {
  std::string prefix;   ///< e.g. "/gpfs/alpine"
  std::string fs_type;  ///< e.g. "gpfs", "lustre", "xfs", "dwfs"
};

/// One instrumented file within one module.
struct FileRecord {
  std::uint64_t record_id = 0;
  std::int32_t rank = kSharedRank;
  ModuleId module = ModuleId::kPosix;
  std::vector<std::int64_t> counters;   ///< sized counter_count(module)
  std::vector<double> fcounters;        ///< sized fcounter_count(module)

  FileRecord() = default;
  FileRecord(std::uint64_t id, std::int32_t r, ModuleId m);

  std::int64_t c(std::size_t idx) const { return counters[idx]; }
  double f(std::size_t idx) const { return fcounters[idx]; }
};

/// A complete parsed (or about-to-be-written) Darshan log.
struct LogData {
  JobRecord job;
  std::vector<MountEntry> mounts;
  /// Record id -> path.  Insertion order is serialization order; a repeated
  /// id keeps its first path, as the body walker's map does.
  util::FlatU64Map<std::string> names;
  std::vector<FileRecord> records;
  /// DXT trace segments (empty unless tracing was enabled; §2.2).
  std::vector<DxtRecord> dxt;

  /// Path for a record id, or empty view if unknown.
  std::string_view path_of(std::uint64_t record_id) const {
    const std::string* p = names.find(record_id);
    return p != nullptr ? std::string_view(*p) : std::string_view{};
  }
};

bool operator==(const JobRecord& a, const JobRecord& b);
bool operator==(const MountEntry& a, const MountEntry& b);
bool operator==(const FileRecord& a, const FileRecord& b);
bool operator==(const LogData& a, const LogData& b);

}  // namespace mlio::darshan
