// Instrumentation runtime: the piece of Darshan that lives inside a job.
//
// The simulator reports I/O events here (opens, batched reads/writes, stat
// calls); the runtime accumulates per-(module, file, rank) records exactly
// the way Darshan's wrappers update counters, and finalize() performs the
// shared-record reduction: when every rank of the job touched a file, the
// per-rank records collapse into one record with rank == -1 (additive
// counters summed, start timestamps min-reduced, end timestamps max-reduced,
// and the F_*_TIME counters max-reduced — "slowest rank" semantics, so that
// BYTES/TIME on a shared record is the aggregate bandwidth the job saw).
//
// All timestamps are seconds relative to job start (as in Darshan F_
// counters).
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "darshan/counters.hpp"
#include "darshan/record.hpp"

namespace mlio::darshan {

/// Opaque handle returned by open_file; avoids re-hashing the path per event.
struct FileHandle {
  std::uint64_t record_id = 0;
  ModuleId module = ModuleId::kPosix;
};

/// One I/O segment fanned out over a contiguous run of rank rows — the bulk
/// alternative to a per-rank open_file/record_reads/record_meta loop.  The
/// segment's bytes split as `per_rank_bytes` per row, with the leading
/// `n_plus_one` rows carrying one extra byte (the remainder fan-out of
/// bytes = n_ranks * per_rank_bytes + n_plus_one).  Rows are ranks
/// rank0 .. rank0 + n_ranks - 1; a pre-reduced shared record is one row with
/// rank0 == kSharedRank.  Rows whose byte count is zero are skipped entirely
/// (no open, no record) unless they are the segment's only row.
struct RankSegment {
  std::int32_t rank0 = 0;
  std::uint32_t n_ranks = 1;
  std::uint32_t n_plus_one = 0;
  std::uint64_t per_rank_bytes = 0;
  std::uint64_t op_size = 1;     ///< per-call request size (0 treated as 1)
  double start = 0;              ///< segment start, relative seconds
  double elapsed = 0;            ///< modeled transfer time of the whole segment
  bool sequential = true;
  std::uint64_t meta_ops = 0;    ///< per-row metadata ops (0: none)
  double meta_elapsed = 0;       ///< per-row metadata seconds
};

/// Cap on traced events per (file, module) batch, mirroring DXT's bounded
/// trace buffers.
inline constexpr std::uint32_t kDxtEventsPerBatch = 16;

struct RuntimeOptions {
  /// Capture DXT traces for POSIX and MPI-IO (never STDIO, as in real
  /// Darshan).  Off by default — DXT was disabled on both study systems.
  bool enable_dxt = false;
};

class Runtime {
 public:
  /// `job.start_time/end_time` may be filled later via finalize().
  Runtime(JobRecord job, std::vector<MountEntry> mounts, const RuntimeOptions& opts = {});

  /// Intern a path: hash it and register its name once.  Subsequent events
  /// reference the returned id with no further hashing or allocation; the
  /// returned id equals hash_record_id(path).
  std::uint64_t intern_path(std::string_view path);

  /// Register a file open by `rank` at time `t` (relative seconds).
  /// Re-opening is fine: OPENS increments, the earliest open timestamp wins.
  FileHandle open_file(ModuleId module, std::int32_t rank, std::string_view path, double t);
  /// Same, for a path already interned via intern_path.
  FileHandle open_file(ModuleId module, std::int32_t rank, std::uint64_t path_id, double t);

  /// Record `n_ops` read operations of `op_size` bytes each by `rank`,
  /// spanning [start, start+elapsed] seconds.  `sequential` marks the batch
  /// as sequential accesses (updates SEQ/CONSEC counters for POSIX).
  void record_reads(const FileHandle& h, std::int32_t rank, std::uint64_t op_size,
                    std::uint64_t n_ops, double start, double elapsed, bool sequential = true);
  /// Same for writes.
  void record_writes(const FileHandle& h, std::int32_t rank, std::uint64_t op_size,
                     std::uint64_t n_ops, double start, double elapsed, bool sequential = true);
  /// Metadata time (stat/seek/sync) attributed to `rank`.
  void record_meta(const FileHandle& h, std::int32_t rank, std::uint64_t n_ops, double elapsed);

  /// Bulk fan-out of one read segment over a rank range (see RankSegment):
  /// every emitted row opens the file at seg.start, transfers its byte share
  /// split into op_size ops plus a tail op, and charges seg.meta_ops metadata
  /// operations.  Byte-identical to the equivalent per-rank
  /// open_file/record_reads/record_meta sequence, but the (module, file,
  /// rank) row is resolved at most once, the request-size bin and both op
  /// splits (per_rank and per_rank+1) are computed once, and counter deltas
  /// shared by all rows are built once and applied per row.
  void record_reads_ranks(ModuleId module, std::uint64_t path_id, const RankSegment& seg);
  /// Same for writes.
  void record_writes_ranks(ModuleId module, std::uint64_t path_id, const RankSegment& seg);

  /// Attach a Lustre geometry record for `path` (stripe settings the file was
  /// created with); rank is irrelevant for geometry and stored as -1.
  void record_lustre(std::string_view path, std::int64_t stripe_size, std::int64_t stripe_width,
                     std::int64_t stripe_offset, std::int64_t mdts, std::int64_t osts);

  /// Attach a Recommendation-4 SSD extension record for `path` (files on
  /// flash-backed layers).  waf is the modeled write-amplification factor.
  void record_ssd(std::string_view path, std::uint64_t rewrite_bytes,
                  std::uint64_t seq_write_bytes, std::uint64_t random_write_bytes,
                  std::uint64_t static_bytes, std::uint64_t dynamic_bytes, double waf);

  /// Harvest the spent records of a recycled scratch log (emptying it): new
  /// records drain the harvested pool and reuse its counter buffers instead
  /// of allocating.  Call once, before reporting events, with the same
  /// LogData later passed to finalize_into.
  void adopt_scratch(LogData& scratch);

  /// Number of live (pre-reduction) records — for tests.
  std::size_t live_records() const { return records_.size(); }

  /// Close out the log: set job start/end epoch, reduce shared records, and
  /// return the finished LogData.  The runtime is empty afterwards.
  LogData finalize(std::int64_t start_epoch, std::int64_t end_epoch);

  /// Same, but fills `out` in place, recycling its vectors' capacity — for
  /// hot loops that execute millions of jobs through one scratch LogData.
  void finalize_into(std::int64_t start_epoch, std::int64_t end_epoch, LogData& out);

 private:
  struct Key {
    std::uint64_t record_id;
    std::int32_t rank;
    std::uint8_t module;
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const noexcept;
  };

  FileRecord& fetch(ModuleId module, std::uint64_t record_id, std::int32_t rank);
  std::size_t fetch_index(ModuleId module, std::uint64_t record_id, std::int32_t rank);
  /// Fresh zeroed record, drawing buffers from the recycling pool when
  /// possible.
  FileRecord new_record(std::uint64_t record_id, std::int32_t rank, ModuleId module);
  static void reduce_into(FileRecord& shared, const FileRecord& rank_rec);
  /// Key-sorted single-pass record grouping/reduction.
  void finalize_records_sorted(LogData& log);

  void trace_batch(const FileHandle& h, std::int32_t rank, DxtOp op, std::uint64_t op_size,
                   std::uint64_t n_ops, double start, double elapsed);

  void record_ranks(ModuleId module, std::uint64_t path_id, const RankSegment& seg,
                    bool is_read);

  /// Memoized record indices for the rank rows of one (module, file): the
  /// executor emits many segments against the same rank range (read mix,
  /// write mix, MPI-IO→POSIX mirror), so after the first segment the fan-out
  /// does no hash-map lookups at all.  Two entries cover the worst case per
  /// file (primary module + POSIX mirror); rows are resolved lazily so a
  /// skipped (zero-byte) rank never creates a record.
  struct RankRowCache {
    std::uint64_t record_id = 0;
    std::int32_t rank0 = 0;
    std::uint8_t module = 0xff;
    std::vector<std::size_t> rows;
  };
  static constexpr std::size_t kNoRow = static_cast<std::size_t>(-1);
  std::vector<std::size_t>& rank_rows(ModuleId module, std::uint64_t record_id,
                                      std::int32_t rank0, std::uint32_t n_ranks);

  JobRecord job_;
  std::vector<MountEntry> mounts_;
  RuntimeOptions opts_;
  // DXT state: per (module, record) trace plus a per (module, record, rank)
  // offset cursor.
  std::unordered_map<std::uint64_t, DxtRecord> dxt_;
  std::unordered_map<std::uint64_t, std::uint64_t> dxt_offsets_;
  std::unordered_map<std::uint64_t, std::string> names_;
  /// Compact sort handle used by finalize_into so ordering shuffles 16-byte
  /// keys instead of whole FileRecords.
  struct SortKey {
    std::uint64_t record_id;
    std::uint32_t idx;
    std::int32_t rank;
    std::uint8_t module;
  };

  std::unordered_map<Key, std::size_t, KeyHash> index_;
  std::vector<FileRecord> records_;
  std::vector<FileRecord> pool_;   ///< spent records awaiting buffer reuse
  std::vector<SortKey> order_;     ///< finalize sort scratch
  std::array<RankRowCache, 2> row_cache_;
  std::size_t row_cache_victim_ = 0;
};

}  // namespace mlio::darshan
