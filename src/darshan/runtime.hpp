// Instrumentation runtime: the piece of Darshan that lives inside a job.
//
// The simulator reports I/O events here (opens, batched reads/writes, stat
// calls); the runtime accumulates per-(module, file, rank) rows exactly the
// way Darshan's wrappers update counters, and closing the log performs the
// shared-record reduction: when every rank of the job touched a file, the
// per-rank rows collapse into one record with rank == -1 (additive counters
// summed, start timestamps min-reduced, end timestamps max-reduced, and the
// F_*_TIME counters max-reduced — "slowest rank" semantics, so that
// BYTES/TIME on a shared record is the aggregate bandwidth the job saw).
//
// The rows live in one flat table, the write-side mirror of the read
// kernel's LogBody.  Each (module, file) is a group found once per event
// (once per RankSegment) through a per-module map keyed by record id; its
// rows sit in dense rank slots, slot = rank + 1, so the shared rank comes
// first and the rows are already in rank order; and every row's counter and
// fcounter words lie in one buffer of 64 KiB chunks, in the words layout of
// the log's record blocks.  Closing a log sorts the groups, not the rows, by
// (module, record id), reduces each all-rank group in rank order, and
// either writes the uncompressed log body straight from the table
// (write_body, the ingest path: no LogData is built) or fills a LogData
// (finalize_into, the reference path).  Both emit the same records in the
// same order, so write_log_body of finalize_into's LogData is write_body's
// bytes.  One runtime runs job after job (begin, events, close); its
// buffers are kept across jobs but trimmed to the last job's use, so their
// retained capacity follows the current job, not the largest one so far.
//
// All timestamps are seconds relative to job start (as in Darshan F_
// counters).
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "darshan/counters.hpp"
#include "darshan/record.hpp"
#include "util/byte_io.hpp"
#include "util/flat_map.hpp"

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
  /// An idle runtime; begin() starts its first job.
  Runtime() = default;
  /// A runtime with its first job begun.
  Runtime(JobRecord job, std::vector<MountEntry> mounts, const RuntimeOptions& opts = {});

  /// Start a job, discarding whatever the previous one left.  The job's
  /// start_time/end_time are set when the log is closed.  Throws ConfigError
  /// when job.nprocs is 0.
  void begin(JobRecord job, std::span<const MountEntry> mounts, const RuntimeOptions& opts = {});

  /// Intern a path: hash it and register its name once.  Subsequent events
  /// reference the returned id with no further hashing or allocation; the
  /// returned id equals hash_record_id(path).
  std::uint64_t intern_path(std::string_view path);

  /// Register a file open by `rank` at time `t` (relative seconds).
  /// Re-opening is fine: OPENS increments, the earliest open timestamp wins.
  /// Every entry point taking a rank throws ConfigError for a rank outside
  /// [kSharedRank, nprocs).
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
  /// open_file/record_reads/record_meta sequence, but the (module, file)
  /// group is found once, the request-size bin and both op splits
  /// (per_rank and per_rank+1) are computed once, and counter deltas shared
  /// by all rows are built once and applied per row.
  void record_reads_ranks(ModuleId module, std::uint64_t path_id, const RankSegment& seg);
  /// Same for writes.
  void record_writes_ranks(ModuleId module, std::uint64_t path_id, const RankSegment& seg);

  /// Attach a Lustre geometry record for an interned path (stripe settings
  /// the file was created with); rank is irrelevant for geometry and stored
  /// as -1.
  void record_lustre(std::uint64_t path_id, std::int64_t stripe_size, std::int64_t stripe_width,
                     std::int64_t stripe_offset, std::int64_t mdts, std::int64_t osts);

  /// Attach a Recommendation-4 SSD extension record for an interned path
  /// (files on flash-backed layers).  waf is the modeled write-amplification
  /// factor.
  void record_ssd(std::uint64_t path_id, std::uint64_t rewrite_bytes,
                  std::uint64_t seq_write_bytes, std::uint64_t random_write_bytes,
                  std::uint64_t static_bytes, std::uint64_t dynamic_bytes, double waf);

  /// Number of live (pre-reduction) rows — for tests.
  std::size_t live_records() const { return rows_; }
  /// Words the row buffer keeps for the next job: at most twice the chunks
  /// the last closed job used, plus 128 KiB — for tests of that bound.
  std::size_t retained_words() const { return chunks_.size() * kChunkWords; }

  /// The job record; once the log is closed, with its start and end epochs.
  const JobRecord& job() const { return job_; }

  /// Close the log: set job start/end epoch, reduce shared records, and
  /// return the finished LogData.  The runtime is empty afterwards.
  LogData finalize(std::int64_t start_epoch, std::int64_t end_epoch);

  /// Same, but fills `out` in place, recycling its records' counter storage.
  void finalize_into(std::int64_t start_epoch, std::int64_t end_epoch, LogData& out);

  /// Close the log like finalize_into, but write its uncompressed body into
  /// `body` (cleared first) straight from the table: the bytes
  /// write_log_body would write for finalize_into's LogData.  job() stays
  /// valid until the next begin.
  void write_body(std::int64_t start_epoch, std::int64_t end_epoch, util::ByteWriter& body);

 private:
  /// Words per chunk of the row buffer: 64 KiB, so a chunk is a plain heap
  /// block, and a large job grows the buffer chunk by chunk, never copying.
  static constexpr std::size_t kChunkWords = 8192;

  /// One (module, file): its rank slots are slots_[first_slot ..
  /// first_slot + n_slots), slot = rank + 1, each the row's word offset
  /// plus one (kNoRow: the rank has no row).
  struct Group {
    std::uint64_t record_id = 0;
    std::uint32_t first_slot = 0;
    std::uint32_t n_slots = 0;
    std::uint32_t n_rows = 0;
    ModuleId module = ModuleId::kPosix;
    std::uint8_t n_counters = 0;
    std::uint8_t n_words = 0;
  };
  struct Row;

  void check_ranks(std::int64_t lo, std::int64_t hi) const;
  Group& group_of(ModuleId module, std::uint64_t record_id);
  /// The group's slots [0, n) made addressable; the pointer is valid until
  /// the next call.
  std::uint32_t* slots_for(Group& g, std::size_t n);
  /// The row in `slot`, created zeroed (start/end timestamps unset) on
  /// first use; valid until the next row is created.
  Row row_at(Group& g, std::uint32_t* slots, std::size_t slot);
  Row fetch(ModuleId module, std::uint64_t record_id, std::int32_t rank);
  std::uint64_t* word_at(std::size_t off) const {
    return chunks_[off / kChunkWords].get() + off % kChunkWords;
  }

  void trace_batch(const FileHandle& h, std::int32_t rank, DxtOp op, std::uint64_t op_size,
                   std::uint64_t n_ops, double start, double elapsed);
  void record_ranks(ModuleId module, std::uint64_t path_id, const RankSegment& seg,
                    bool is_read);

  /// Set the epochs and sort each module's groups by record id.
  void close(std::int64_t start_epoch, std::int64_t end_epoch);
  /// Whether finalize collapses `g` into one shared record.
  bool reduced(const Group& g) const;
  /// Call emit(rank, words) for each record group `g` finalizes into, in
  /// rank order (a shared record's words live for the call only).
  template <class Emit>
  void emit_group(const Group& g, const Emit& emit) const;
  /// The DXT traces sorted by (module, record id), moved out of dxt_.
  void take_dxt(std::vector<DxtRecord>& out);
  /// Empty the table, keeping its buffers.
  void clear();
  /// After a closed log: trim the buffers to what this job used, then clear.
  void reset();

  JobRecord job_;
  std::vector<MountEntry> mounts_;
  RuntimeOptions opts_;
  // DXT state: per (module, record) trace plus a per (module, record, rank)
  // offset cursor.
  std::unordered_map<std::uint64_t, DxtRecord> dxt_;
  std::unordered_map<std::uint64_t, std::uint64_t> dxt_offsets_;
  /// Record id -> path.  The body lists names in this map's iteration order
  /// (the golden digests pin it), so each job starts a fresh map: a cleared
  /// one keeps its bucket count and can iterate in another order.
  std::unordered_map<std::uint64_t, std::string> names_;

  /// Per module: record id -> the group's index in groups_[module].
  std::array<util::FlatU64Map<std::uint32_t>, kModuleCount> group_index_;
  std::array<std::vector<Group>, kModuleCount> groups_;
  std::vector<std::uint32_t> slots_;
  /// Every row's words: its module's counters, then its fcounters' bit
  /// patterns (as a record block stores them).  Word offset `off` lies in
  /// chunk off / kChunkWords; the job has used n_words_ of them.
  std::vector<std::unique_ptr<std::uint64_t[]>> chunks_;
  std::size_t n_words_ = 0;
  std::size_t rows_ = 0;
};

}  // namespace mlio::darshan
