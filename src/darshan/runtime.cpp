#include "darshan/runtime.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <string>

#include "darshan/log_format.hpp"
#include "util/bins.hpp"
#include "util/error.hpp"

namespace mlio::darshan {

namespace {

// Shared fcounter layout for POSIX/MPI-IO/STDIO: [0..2] start timestamps
// (min-reduced, -1 = unset), [3..5] end timestamps (max-reduced), [6..8]
// accumulated times (max-reduced across ranks: slowest-rank semantics).
constexpr std::size_t kFirstEndIdx = 3;
constexpr std::size_t kFirstTimeIdx = 6;

/// The word of an unset start/end timestamp.
constexpr std::uint64_t kUnsetStamp = std::bit_cast<std::uint64_t>(-1.0);

/// Slot value of a rank with no row (a row's slot holds its offset + 1).
constexpr std::uint32_t kNoRow = 0;

/// What a table buffer may keep beyond twice the last job's use.  Below it
/// a buffer is never trimmed, so the common small jobs reuse it unchanged.
constexpr std::size_t kRetainFloorBytes = 128 * 1024;

/// Empty `v` for the next job.  When it holds more than twice what this job
/// used plus kRetainFloorBytes, its storage is first cut to the larger of
/// twice this job's use and the floor; returns whether it was.
template <class T>
bool trim(std::vector<T>& v) {
  const std::size_t used = v.size();
  const std::size_t floor = kRetainFloorBytes / sizeof(T);
  const bool over = v.capacity() > 2 * used + floor;
  if (over) {
    std::vector<T> fresh;
    fresh.reserve(std::max(2 * used, floor));
    v.swap(fresh);
  }
  v.clear();
  return over;
}

}  // namespace

/// One row of the table: its module's counters, then its fcounters' bit
/// patterns.
struct Runtime::Row {
  std::uint64_t* w;
  std::size_t nc;

  std::int64_t& c(std::size_t i) const { return reinterpret_cast<std::int64_t&>(w[i]); }
  double f(std::size_t i) const { return std::bit_cast<double>(w[nc + i]); }
  void set_f(std::size_t i, double v) const { w[nc + i] = std::bit_cast<std::uint64_t>(v); }
  void add_f(std::size_t i, double v) const { set_f(i, f(i) + v); }
  void stamp_min(std::size_t i, double t) const {
    const double s = f(i);
    if (s < 0.0 || t < s) set_f(i, t);
  }
  void stamp_max(std::size_t i, double t) const { set_f(i, std::max(f(i), t)); }
};

Runtime::Runtime(JobRecord job, std::vector<MountEntry> mounts, const RuntimeOptions& opts) {
  begin(std::move(job), mounts, opts);
}

void Runtime::begin(JobRecord job, std::span<const MountEntry> mounts,
                    const RuntimeOptions& opts) {
  if (job.nprocs == 0) throw util::ConfigError("Runtime: nprocs must be >= 1");
  clear();
  job_ = std::move(job);
  mounts_.assign(mounts.begin(), mounts.end());
  opts_ = opts;
}

void Runtime::clear() {
  for (auto& index : group_index_) index.clear();
  for (auto& groups : groups_) groups.clear();
  slots_.clear();
  n_words_ = 0;
  rows_ = 0;
  // A new map, not a cleared one (`names_ = {}` would clear it too): the
  // body lists names in iteration order, which follows the bucket count.
  names_ = decltype(names_)();
  dxt_.clear();
  dxt_offsets_.clear();
}

void Runtime::reset() {
  // Buffers follow the job just closed: one that a larger job grew is cut
  // back to this job's use, so a worker does not keep the largest job's
  // table for the rest of its life.
  for (std::size_t m = 0; m < kModuleCount; ++m) {
    if (trim(groups_[m])) group_index_[m] = {};
  }
  trim(slots_);
  // The same rule for the row buffer, counted in chunks.
  const std::size_t used_chunks = (n_words_ + kChunkWords - 1) / kChunkWords;
  const std::size_t floor_chunks = kRetainFloorBytes / (8 * kChunkWords);
  if (chunks_.size() > 2 * used_chunks + floor_chunks) {
    chunks_.resize(std::max(2 * used_chunks, floor_chunks));
    chunks_.shrink_to_fit();
  }
  clear();
}

void Runtime::check_ranks(std::int64_t lo, std::int64_t hi) const {
  // Dense rank slots rely on this bound, and so does the shared-record
  // reduction, which counts a group's rows against nprocs.
  if (lo < kSharedRank || hi >= static_cast<std::int64_t>(job_.nprocs)) {
    throw util::ConfigError("Runtime: rank " + std::to_string(lo < kSharedRank ? lo : hi) +
                            " outside [-1, nprocs = " + std::to_string(job_.nprocs) + ")");
  }
}

Runtime::Group& Runtime::group_of(ModuleId module, std::uint64_t record_id) {
  const auto m = static_cast<std::size_t>(module);
  std::vector<Group>& groups = groups_[m];
  const auto [index, inserted] =
      group_index_[m].try_emplace(record_id, static_cast<std::uint32_t>(groups.size()));
  if (inserted) {
    Group& g = groups.emplace_back();
    g.record_id = record_id;
    g.module = module;
    g.n_counters = static_cast<std::uint8_t>(counter_count(module));
    g.n_words = static_cast<std::uint8_t>(g.n_counters + fcounter_count(module));
    g.first_slot = static_cast<std::uint32_t>(slots_.size());
    return g;
  }
  return groups[*index];
}

std::uint32_t* Runtime::slots_for(Group& g, std::size_t n) {
  if (n > g.n_slots) {
    if (g.first_slot + g.n_slots != slots_.size()) {
      // Another group's slots follow: move this group's to the end, where
      // they can grow.
      const std::size_t at = slots_.size();
      slots_.resize(at + g.n_slots);
      std::copy_n(slots_.data() + g.first_slot, g.n_slots, slots_.data() + at);
      g.first_slot = static_cast<std::uint32_t>(at);
    }
    MLIO_ASSERT(g.first_slot + n < std::numeric_limits<std::uint32_t>::max());
    slots_.resize(g.first_slot + n, kNoRow);
    g.n_slots = static_cast<std::uint32_t>(n);
  }
  return slots_.data() + g.first_slot;
}

Runtime::Row Runtime::row_at(Group& g, std::uint32_t* slots, std::size_t slot) {
  std::uint32_t& at = slots[slot];
  if (at == kNoRow) {
    // A row never straddles two chunks: one that would starts the next.
    std::size_t off = n_words_;
    if (off % kChunkWords + g.n_words > kChunkWords) off += kChunkWords - off % kChunkWords;
    MLIO_ASSERT(off + g.n_words < std::numeric_limits<std::uint32_t>::max());
    if (off / kChunkWords == chunks_.size()) {
      chunks_.push_back(std::make_unique_for_overwrite<std::uint64_t[]>(kChunkWords));
    }
    std::uint64_t* const w = word_at(off);
    const std::size_t nf = g.n_words - g.n_counters;
    std::fill_n(w, g.n_words, std::uint64_t{0});
    std::fill_n(w + g.n_counters, std::min(nf, kFirstTimeIdx), kUnsetStamp);
    n_words_ = off + g.n_words;
    at = static_cast<std::uint32_t>(off + 1);
    g.n_rows += 1;
    rows_ += 1;
  }
  return Row{word_at(at - 1), g.n_counters};
}

Runtime::Row Runtime::fetch(ModuleId module, std::uint64_t record_id, std::int32_t rank) {
  check_ranks(rank, rank);
  Group& g = group_of(module, record_id);
  const auto slot = static_cast<std::size_t>(rank + 1);
  return row_at(g, slots_for(g, slot + 1), slot);
}

std::uint64_t Runtime::intern_path(std::string_view path) {
  const std::uint64_t rid = hash_record_id(path);
  names_.try_emplace(rid, path);  // allocates the name only on first sight
  return rid;
}

FileHandle Runtime::open_file(ModuleId module, std::int32_t rank, std::string_view path,
                              double t) {
  return open_file(module, rank, intern_path(path), t);
}

FileHandle Runtime::open_file(ModuleId module, std::int32_t rank, std::uint64_t path_id,
                              double t) {
  const Row rec = fetch(module, path_id, rank);
  switch (module) {
    case ModuleId::kPosix: rec.c(posix::OPENS) += 1; break;
    case ModuleId::kMpiIo: rec.c(mpiio::INDEP_OPENS) += 1; break;
    case ModuleId::kStdio: rec.c(stdio::OPENS) += 1; break;
    case ModuleId::kLustre:
    case ModuleId::kSsdExt:
      return FileHandle{path_id, module};  // synthetic records carry no open counts
  }
  rec.stamp_min(posix::F_OPEN_START_TIMESTAMP, t);
  return FileHandle{path_id, module};
}

void Runtime::record_reads(const FileHandle& h, std::int32_t rank, std::uint64_t op_size,
                           std::uint64_t n_ops, double start, double elapsed, bool sequential) {
  check_ranks(rank, rank);
  if (n_ops == 0) return;
  if (h.module == ModuleId::kLustre || h.module == ModuleId::kSsdExt) {
    throw util::ConfigError("geometry/extension records carry no I/O operations");
  }
  const Row rec = fetch(h.module, h.record_id, rank);
  const auto ops = static_cast<std::int64_t>(n_ops);
  const auto bytes = static_cast<std::int64_t>(op_size * n_ops);
  const std::size_t bin = util::BinSpec::darshan_request_bins().index_of(op_size);

  switch (h.module) {
    case ModuleId::kPosix:
      rec.c(posix::READS) += ops;
      rec.c(posix::BYTES_READ) += bytes;
      rec.c(posix::SIZE_READ_0_100 + bin) += ops;
      if (sequential) {
        rec.c(posix::SEQ_READS) += ops;
        rec.c(posix::CONSEC_READS) += ops > 0 ? ops - 1 : 0;
      }
      rec.c(posix::MAX_BYTE_READ) =
          std::max(rec.c(posix::MAX_BYTE_READ), rec.c(posix::BYTES_READ) - 1);
      break;
    case ModuleId::kMpiIo:
      rec.c(mpiio::INDEP_READS) += ops;
      rec.c(mpiio::BYTES_READ) += bytes;
      rec.c(mpiio::SIZE_READ_AGG_0_100 + bin) += ops;
      break;
    default:
      rec.c(stdio::READS) += ops;
      rec.c(stdio::BYTES_READ) += bytes;
      rec.c(stdio::MAX_BYTE_READ) =
          std::max(rec.c(stdio::MAX_BYTE_READ), rec.c(stdio::BYTES_READ) - 1);
      break;
  }
  rec.stamp_min(posix::F_READ_START_TIMESTAMP, start);
  rec.stamp_max(posix::F_READ_END_TIMESTAMP, start + elapsed);
  rec.add_f(posix::F_READ_TIME, elapsed);
  trace_batch(h, rank, DxtOp::kRead, op_size, n_ops, start, elapsed);
}

void Runtime::record_writes(const FileHandle& h, std::int32_t rank, std::uint64_t op_size,
                            std::uint64_t n_ops, double start, double elapsed, bool sequential) {
  check_ranks(rank, rank);
  if (n_ops == 0) return;
  if (h.module == ModuleId::kLustre || h.module == ModuleId::kSsdExt) {
    throw util::ConfigError("geometry/extension records carry no I/O operations");
  }
  const Row rec = fetch(h.module, h.record_id, rank);
  const auto ops = static_cast<std::int64_t>(n_ops);
  const auto bytes = static_cast<std::int64_t>(op_size * n_ops);
  const std::size_t bin = util::BinSpec::darshan_request_bins().index_of(op_size);

  switch (h.module) {
    case ModuleId::kPosix:
      rec.c(posix::WRITES) += ops;
      rec.c(posix::BYTES_WRITTEN) += bytes;
      rec.c(posix::SIZE_WRITE_0_100 + bin) += ops;
      if (sequential) {
        rec.c(posix::SEQ_WRITES) += ops;
        rec.c(posix::CONSEC_WRITES) += ops > 0 ? ops - 1 : 0;
      }
      rec.c(posix::MAX_BYTE_WRITTEN) =
          std::max(rec.c(posix::MAX_BYTE_WRITTEN), rec.c(posix::BYTES_WRITTEN) - 1);
      break;
    case ModuleId::kMpiIo:
      rec.c(mpiio::INDEP_WRITES) += ops;
      rec.c(mpiio::BYTES_WRITTEN) += bytes;
      rec.c(mpiio::SIZE_WRITE_AGG_0_100 + bin) += ops;
      break;
    default:
      rec.c(stdio::WRITES) += ops;
      rec.c(stdio::BYTES_WRITTEN) += bytes;
      rec.c(stdio::MAX_BYTE_WRITTEN) =
          std::max(rec.c(stdio::MAX_BYTE_WRITTEN), rec.c(stdio::BYTES_WRITTEN) - 1);
      break;
  }
  rec.stamp_min(posix::F_WRITE_START_TIMESTAMP, start);
  rec.stamp_max(posix::F_WRITE_END_TIMESTAMP, start + elapsed);
  rec.add_f(posix::F_WRITE_TIME, elapsed);
  trace_batch(h, rank, DxtOp::kWrite, op_size, n_ops, start, elapsed);
}

void Runtime::trace_batch(const FileHandle& h, std::int32_t rank, DxtOp op,
                          std::uint64_t op_size, std::uint64_t n_ops, double start,
                          double elapsed) {
  // DXT semantics: POSIX and MPI-IO only, bounded events per batch.
  if (!opts_.enable_dxt || h.module == ModuleId::kStdio) return;
  const std::uint64_t dkey = h.record_id ^ (static_cast<std::uint64_t>(h.module) << 61);
  DxtRecord& rec = dxt_[dkey];
  rec.record_id = h.record_id;
  rec.module = h.module;
  const std::uint64_t okey =
      dkey ^ (static_cast<std::uint64_t>(static_cast<std::uint32_t>(rank)) * 0x9e3779b9ull);
  std::uint64_t& cursor = dxt_offsets_[okey];

  const std::uint64_t traced = std::min<std::uint64_t>(n_ops, kDxtEventsPerBatch);
  const double per_op = traced > 0 ? elapsed / static_cast<double>(traced) : 0.0;
  for (std::uint64_t i = 0; i < traced; ++i) {
    DxtEvent e;
    e.op = op;
    e.rank = rank;
    e.offset = cursor;
    e.length = op_size;
    e.start = start + static_cast<double>(i) * per_op;
    e.end = e.start + per_op;
    rec.events.push_back(e);
    cursor += op_size;
  }
  // Untraced ops still advance the cursor so later batches stay sequential.
  cursor += (n_ops - traced) * op_size;
}

void Runtime::record_meta(const FileHandle& h, std::int32_t rank, std::uint64_t n_ops,
                          double elapsed) {
  if (h.module == ModuleId::kLustre || h.module == ModuleId::kSsdExt) {
    throw util::ConfigError("geometry/extension records carry no I/O operations");
  }
  const Row rec = fetch(h.module, h.record_id, rank);
  const auto ops = static_cast<std::int64_t>(n_ops);
  if (h.module == ModuleId::kPosix) rec.c(posix::STATS) += ops;
  if (h.module == ModuleId::kStdio) rec.c(stdio::FLUSHES) += ops;
  rec.add_f(posix::F_META_TIME, elapsed);
}

void Runtime::record_reads_ranks(ModuleId module, std::uint64_t path_id,
                                 const RankSegment& seg) {
  record_ranks(module, path_id, seg, /*is_read=*/true);
}

void Runtime::record_writes_ranks(ModuleId module, std::uint64_t path_id,
                                  const RankSegment& seg) {
  record_ranks(module, path_id, seg, /*is_read=*/false);
}

void Runtime::record_ranks(ModuleId module, std::uint64_t path_id, const RankSegment& seg,
                           bool is_read) {
  if (module == ModuleId::kLustre || module == ModuleId::kSsdExt) {
    throw util::ConfigError("geometry/extension records carry no I/O operations");
  }
  if (seg.n_ranks == 0) return;
  check_ranks(seg.rank0, std::int64_t{seg.rank0} + seg.n_ranks - 1);
  // A zero-byte fan-out over several rows emits none of them (see below).
  if (seg.per_rank_bytes == 0 && seg.n_plus_one == 0 && seg.n_ranks > 1) return;

  const std::uint64_t op = std::max<std::uint64_t>(1, seg.op_size);
  const auto& bins = util::BinSpec::darshan_request_bins();
  const std::size_t op_bin = bins.index_of(op);

  // The fan-out has only two byte variants — per_rank + 1 for the first
  // n_plus_one rows, per_rank for the rest — so both op splits (and the
  // request bin of each tail) are computed once instead of per rank.
  struct Variant {
    std::int64_t ops = 0;
    std::int64_t bytes = 0;  ///< ops * op, the main batch's byte delta
    std::uint64_t tail = 0;
    std::size_t tail_bin = 0;
  };
  auto split = [&](std::uint64_t rank_bytes) {
    Variant v;
    v.ops = static_cast<std::int64_t>(rank_bytes / op);
    v.bytes = v.ops * static_cast<std::int64_t>(op);
    v.tail = rank_bytes % op;
    v.tail_bin = v.tail > 0 ? bins.index_of(v.tail) : 0;
    return v;
  };
  const Variant plus = split(seg.per_rank_bytes + 1);
  const Variant base = split(seg.per_rank_bytes);

  const bool dxt = opts_.enable_dxt && module != ModuleId::kStdio;
  const FileHandle h{path_id, module};
  const DxtOp dxt_op = is_read ? DxtOp::kRead : DxtOp::kWrite;
  const auto meta_ops = static_cast<std::int64_t>(seg.meta_ops);

  // Counter slots shared by every row, resolved once instead of switching
  // on the module per row.  The updates below are the exact set
  // record_reads/record_writes/open_file/record_meta perform: the integer
  // counter order is irrelevant and the fcounter operations (stamp_min,
  // stamp_max, one += per batch) are applied in the same sequence, so the
  // output stays bit-identical to the per-rank loop.
  std::size_t open_idx = 0, ops_idx = 0, bytes_idx = 0, size0_idx = 0;
  std::size_t seq_idx = 0, consec_idx = 0, max_idx = 0, meta_idx = 0;
  bool has_bins = false, has_seq = false, has_max = false, has_meta = false;
  switch (module) {
    case ModuleId::kPosix:
      open_idx = posix::OPENS;
      ops_idx = is_read ? posix::READS : posix::WRITES;
      bytes_idx = is_read ? posix::BYTES_READ : posix::BYTES_WRITTEN;
      size0_idx = is_read ? posix::SIZE_READ_0_100 : posix::SIZE_WRITE_0_100;
      seq_idx = is_read ? posix::SEQ_READS : posix::SEQ_WRITES;
      consec_idx = is_read ? posix::CONSEC_READS : posix::CONSEC_WRITES;
      max_idx = is_read ? posix::MAX_BYTE_READ : posix::MAX_BYTE_WRITTEN;
      meta_idx = posix::STATS;
      has_bins = true;
      has_seq = seg.sequential;
      has_max = true;
      has_meta = true;
      break;
    case ModuleId::kMpiIo:
      open_idx = mpiio::INDEP_OPENS;
      ops_idx = is_read ? mpiio::INDEP_READS : mpiio::INDEP_WRITES;
      bytes_idx = is_read ? mpiio::BYTES_READ : mpiio::BYTES_WRITTEN;
      size0_idx = is_read ? mpiio::SIZE_READ_AGG_0_100 : mpiio::SIZE_WRITE_AGG_0_100;
      has_bins = true;
      break;
    default:
      open_idx = stdio::OPENS;
      ops_idx = is_read ? stdio::READS : stdio::WRITES;
      bytes_idx = is_read ? stdio::BYTES_READ : stdio::BYTES_WRITTEN;
      max_idx = is_read ? stdio::MAX_BYTE_READ : stdio::MAX_BYTE_WRITTEN;
      meta_idx = stdio::FLUSHES;
      has_max = true;
      has_meta = true;
      break;
  }
  const std::size_t fstart_idx =
      is_read ? posix::F_READ_START_TIMESTAMP : posix::F_WRITE_START_TIMESTAMP;
  const std::size_t fend_idx =
      is_read ? posix::F_READ_END_TIMESTAMP : posix::F_WRITE_END_TIMESTAMP;
  const std::size_t ftime_idx = is_read ? posix::F_READ_TIME : posix::F_WRITE_TIME;

  auto apply = [&](const Row& rec, std::int64_t ops, std::int64_t bytes, std::size_t bin,
                   double elapsed) {
    rec.c(ops_idx) += ops;
    rec.c(bytes_idx) += bytes;
    if (has_bins) rec.c(size0_idx + bin) += ops;
    if (has_seq) {
      rec.c(seq_idx) += ops;
      rec.c(consec_idx) += ops - 1;
    }
    if (has_max) rec.c(max_idx) = std::max(rec.c(max_idx), rec.c(bytes_idx) - 1);
    rec.stamp_min(fstart_idx, seg.start);
    rec.stamp_max(fend_idx, seg.start + elapsed);
    rec.add_f(ftime_idx, elapsed);
  };

  // The group is found once; its rank slots cover the whole range up front,
  // so the rows below are plain slot reads.
  Group& g = group_of(module, path_id);
  std::uint32_t* const slots =
      slots_for(g, static_cast<std::size_t>(seg.rank0 + 1) + seg.n_ranks);
  auto emit_row = [&](std::uint32_t r, const Variant& v) {
    const std::int32_t rank = seg.rank0 + static_cast<std::int32_t>(r);
    const Row rec = row_at(g, slots, static_cast<std::size_t>(rank + 1));

    // Open: counter + earliest-open timestamp, as open_file does.
    rec.c(open_idx) += 1;
    rec.stamp_min(posix::F_OPEN_START_TIMESTAMP, seg.start);

    if (v.ops > 0) apply(rec, v.ops, v.bytes, op_bin, seg.elapsed);
    if (v.tail > 0) apply(rec, 1, static_cast<std::int64_t>(v.tail), v.tail_bin, 0.0);
    if (seg.meta_ops > 0) {
      if (has_meta) rec.c(meta_idx) += meta_ops;
      rec.add_f(posix::F_META_TIME, seg.meta_elapsed);
    }
    if (dxt) {
      if (v.ops > 0) {
        trace_batch(h, rank, dxt_op, op, static_cast<std::uint64_t>(v.ops), seg.start,
                    seg.elapsed);
      }
      if (v.tail > 0) trace_batch(h, rank, dxt_op, v.tail, 1, seg.start, 0.0);
    }
  };

  // The leading n_plus_one rows always carry at least one byte; the base
  // rows are all-or-nothing — a zero-byte row is skipped entirely (never
  // opened) unless it is the segment's only row, matching the per-rank
  // loop's skip condition.
  for (std::uint32_t r = 0; r < seg.n_plus_one && r < seg.n_ranks; ++r) emit_row(r, plus);
  if (seg.per_rank_bytes > 0 || seg.n_ranks == 1) {
    for (std::uint32_t r = seg.n_plus_one; r < seg.n_ranks; ++r) emit_row(r, base);
  }
}

void Runtime::record_lustre(std::uint64_t path_id, std::int64_t stripe_size,
                            std::int64_t stripe_width, std::int64_t stripe_offset,
                            std::int64_t mdts, std::int64_t osts) {
  const Row rec = fetch(ModuleId::kLustre, path_id, kSharedRank);
  rec.c(lustre::STRIPE_SIZE) = stripe_size;
  rec.c(lustre::STRIPE_WIDTH) = stripe_width;
  rec.c(lustre::STRIPE_OFFSET) = stripe_offset;
  rec.c(lustre::MDTS) = mdts;
  rec.c(lustre::OSTS) = osts;
}

void Runtime::record_ssd(std::uint64_t path_id, std::uint64_t rewrite_bytes,
                         std::uint64_t seq_write_bytes, std::uint64_t random_write_bytes,
                         std::uint64_t static_bytes, std::uint64_t dynamic_bytes, double waf) {
  const Row rec = fetch(ModuleId::kSsdExt, path_id, kSharedRank);
  rec.c(ssdext::REWRITE_BYTES) += static_cast<std::int64_t>(rewrite_bytes);
  rec.c(ssdext::SEQ_WRITE_BYTES) += static_cast<std::int64_t>(seq_write_bytes);
  rec.c(ssdext::RANDOM_WRITE_BYTES) += static_cast<std::int64_t>(random_write_bytes);
  rec.c(ssdext::STATIC_BYTES) += static_cast<std::int64_t>(static_bytes);
  rec.c(ssdext::DYNAMIC_BYTES) += static_cast<std::int64_t>(dynamic_bytes);
  rec.c(ssdext::WAF_X1000) =
      std::max(rec.c(ssdext::WAF_X1000), static_cast<std::int64_t>(waf * 1000.0));
}

void Runtime::close(std::int64_t start_epoch, std::int64_t end_epoch) {
  job_.start_time = start_epoch;
  job_.end_time = end_epoch;
  // Record order is (module, record id, rank): each module's groups are
  // sorted by record id, and a group's slots are already in rank order.
  for (auto& groups : groups_) {
    std::sort(groups.begin(), groups.end(),
              [](const Group& a, const Group& b) { return a.record_id < b.record_id; });
  }
}

bool Runtime::reduced(const Group& g) const {
  return g.module != ModuleId::kLustre && g.module != ModuleId::kSsdExt && job_.nprocs > 1 &&
         g.n_rows == job_.nprocs;
}

template <class Emit>
void Runtime::emit_group(const Group& g, const Emit& emit) const {
  const std::uint32_t* const slots = slots_.data() + g.first_slot;
  if (!reduced(g)) {
    // Partial access keeps its per-rank records (the paper's §3.4
    // explicitly excludes these from performance analysis).
    for (std::size_t s = 0; s < g.n_slots; ++s) {
      if (slots[s] != kNoRow) emit(static_cast<std::int32_t>(s) - 1, word_at(slots[s] - 1));
    }
    return;
  }
  // Every rank of the job touched the file: collapse the rows, in rank
  // order, into one shared record.  All counters are additive except at
  // most two max-reduced slots per module.
  const std::size_t nc = g.n_counters;
  const std::size_t nw = g.n_words;
  std::size_t max_slots[2];
  std::size_t n_max = 0;
  switch (g.module) {
    case ModuleId::kPosix:
      max_slots[n_max++] = posix::MAX_BYTE_READ;
      max_slots[n_max++] = posix::MAX_BYTE_WRITTEN;
      break;
    case ModuleId::kStdio:
      max_slots[n_max++] = stdio::MAX_BYTE_READ;
      max_slots[n_max++] = stdio::MAX_BYTE_WRITTEN;
      break;
    default:
      break;
  }
  std::array<std::uint64_t, 64> shared;
  std::fill_n(shared.begin(), nw, std::uint64_t{0});
  std::fill_n(shared.begin() + static_cast<std::ptrdiff_t>(nc),
              std::min(nw - nc, kFirstTimeIdx), kUnsetStamp);
  const Row out{shared.data(), nc};
  for (std::size_t s = 0; s < g.n_slots; ++s) {
    if (slots[s] == kNoRow) continue;
    const std::uint64_t* const row = word_at(slots[s] - 1);
    std::int64_t saved[2] = {0, 0};
    for (std::size_t m = 0; m < n_max; ++m) saved[m] = out.c(max_slots[m]);
    // A branchless (vectorizable) add over the whole array, then the max
    // slots fixed up from their saved values.
    for (std::size_t i = 0; i < nc; ++i) shared[i] += row[i];
    for (std::size_t m = 0; m < n_max; ++m) {
      out.c(max_slots[m]) = std::max(saved[m], static_cast<std::int64_t>(row[max_slots[m]]));
    }
    for (std::size_t i = 0; i < nw - nc; ++i) {
      const double f = std::bit_cast<double>(row[nc + i]);
      if (i < kFirstEndIdx) {
        if (f >= 0.0) out.stamp_min(i, f);
      } else {
        out.stamp_max(i, f);
      }
    }
  }
  emit(kSharedRank, shared.data());
}

void Runtime::take_dxt(std::vector<DxtRecord>& out) {
  out.clear();
  out.reserve(dxt_.size());
  for (auto& [key, rec] : dxt_) {
    (void)key;
    out.push_back(std::move(rec));
  }
  std::sort(out.begin(), out.end(), [](const DxtRecord& a, const DxtRecord& b) {
    if (a.module != b.module) return a.module < b.module;
    return a.record_id < b.record_id;
  });
}

LogData Runtime::finalize(std::int64_t start_epoch, std::int64_t end_epoch) {
  LogData log;
  finalize_into(start_epoch, end_epoch, log);
  return log;
}

void Runtime::finalize_into(std::int64_t start_epoch, std::int64_t end_epoch, LogData& out) {
  close(start_epoch, end_epoch);
  out.job = job_;
  out.mounts = mounts_;
  // The names go in the hash map's iteration order: write_log_body emits
  // them in insertion order, and the golden frame digests in test_executor
  // pin that order (a hashtable artifact, not first-sight order).
  out.names.clear();
  out.names.reserve(names_.size());
  for (auto& [id, path] : names_) out.names.try_emplace(id, std::move(path));
  take_dxt(out.dxt);

  // Records are reused element-wise, so their counter storage survives.
  std::size_t n = 0;
  for (const auto& groups : groups_) {
    for (const Group& g : groups) {
      const std::size_t nc = g.n_counters;
      const std::size_t nf = g.n_words - nc;
      emit_group(g, [&](std::int32_t rank, const std::uint64_t* words) {
        if (n == out.records.size()) out.records.emplace_back();
        FileRecord& rec = out.records[n++];
        rec.record_id = g.record_id;
        rec.rank = rank;
        rec.module = g.module;
        rec.counters.resize(nc);
        rec.fcounters.resize(nf);
        for (std::size_t i = 0; i < nc; ++i) {
          rec.counters[i] = static_cast<std::int64_t>(words[i]);
        }
        for (std::size_t i = 0; i < nf; ++i) {
          rec.fcounters[i] = std::bit_cast<double>(words[nc + i]);
        }
      });
    }
  }
  out.records.resize(n);
  reset();
}

void Runtime::write_body(std::int64_t start_epoch, std::int64_t end_epoch,
                         util::ByteWriter& body) {
  close(start_epoch, end_epoch);
  body.clear();
  write_job(body, job_);
  write_mounts(body, mounts_);
  write_names(body, names_);

  // A region's header counts its records, so count them first.
  std::array<std::uint32_t, kModuleCount> n_records{};
  for (std::size_t m = 0; m < kModuleCount; ++m) {
    for (const Group& g : groups_[m]) n_records[m] += reduced(g) ? 1 : g.n_rows;
  }
  body.u32(static_cast<std::uint32_t>(
      std::count_if(n_records.begin(), n_records.end(), [](std::uint32_t n) { return n > 0; })));
  for (std::size_t m = 0; m < kModuleCount; ++m) {
    if (n_records[m] == 0) continue;
    write_region_header(body, static_cast<ModuleId>(m), n_records[m]);
    for (const Group& g : groups_[m]) {
      emit_group(g, [&](std::int32_t rank, const std::uint64_t* words) {
        write_record_block(body, g.record_id, rank, {words, g.n_words}, g.n_counters);
      });
    }
  }

  std::vector<DxtRecord> dxt;
  take_dxt(dxt);
  write_dxt_region(body, dxt);
  reset();
}

}  // namespace mlio::darshan
