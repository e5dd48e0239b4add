#include "darshan/runtime.hpp"

#include <algorithm>

#include "util/bins.hpp"
#include "util/error.hpp"

namespace mlio::darshan {

namespace {

// Shared fcounter layout for POSIX/MPI-IO/STDIO: [0..2] start timestamps
// (min-reduced, -1 = unset), [3..5] end timestamps (max-reduced), [6..8]
// accumulated times (max-reduced across ranks: slowest-rank semantics).
constexpr std::size_t kFirstEndIdx = 3;
constexpr std::size_t kFirstTimeIdx = 6;

void init_fcounters(FileRecord& rec) {
  for (std::size_t i = 0; i < rec.fcounters.size() && i < kFirstTimeIdx; ++i) {
    rec.fcounters[i] = -1.0;
  }
}

void stamp_min(double& slot, double t) {
  if (slot < 0.0 || t < slot) slot = t;
}

void stamp_max(double& slot, double t) { slot = std::max(slot, t); }

}  // namespace

std::size_t Runtime::KeyHash::operator()(const Key& k) const noexcept {
  std::uint64_t h = k.record_id;
  h ^= (static_cast<std::uint64_t>(static_cast<std::uint32_t>(k.rank)) << 8) ^ k.module;
  h *= 0x9e3779b97f4a7c15ull;
  return static_cast<std::size_t>(h ^ (h >> 32));
}

Runtime::Runtime(JobRecord job, std::vector<MountEntry> mounts, const RuntimeOptions& opts)
    : job_(std::move(job)), mounts_(std::move(mounts)), opts_(opts) {
  if (job_.nprocs == 0) throw util::ConfigError("Runtime: nprocs must be >= 1");
}

FileRecord Runtime::new_record(std::uint64_t record_id, std::int32_t rank, ModuleId module) {
  if (pool_.empty()) {
    FileRecord rec(record_id, rank, module);
    init_fcounters(rec);
    return rec;
  }
  // Reuse a spent record's counter buffers (assign reallocates only if the
  // recycled capacity is short).
  FileRecord rec = std::move(pool_.back());
  pool_.pop_back();
  rec.record_id = record_id;
  rec.rank = rank;
  rec.module = module;
  rec.counters.assign(counter_count(module), 0);
  rec.fcounters.assign(fcounter_count(module), 0.0);
  init_fcounters(rec);
  return rec;
}

std::size_t Runtime::fetch_index(ModuleId module, std::uint64_t record_id, std::int32_t rank) {
  const Key key{record_id, rank, static_cast<std::uint8_t>(module)};
  const auto [it, inserted] = index_.try_emplace(key, records_.size());
  if (inserted) records_.push_back(new_record(record_id, rank, module));
  return it->second;
}

void Runtime::adopt_scratch(LogData& scratch) {
  // O(1): steal the emitted records of the previous run; new_record reuses
  // their counter buffers.  Deliberately nothing more — stashing the
  // reduced-away husks as well was measured slower than letting them free:
  // the per-record shuttle costs more than the allocations it saves, and an
  // uncapped carry would grow the pool to the largest job ever seen.
  pool_.swap(scratch.records);
  scratch.records.clear();
  // Pre-size the tables from the previous run: jobs in a stream are rarely
  // the same size, but the previous run's record count is a good-enough
  // hint to skip most rehash/regrow churn, and a one-job-sized overshoot is
  // harmless (unlike a high-water mark, it resets every job).
  const std::size_t hint = std::max(pool_.size(), scratch.prior_live_records);
  records_.reserve(hint);
  index_.reserve(hint + hint / 4);
}

FileRecord& Runtime::fetch(ModuleId module, std::uint64_t record_id, std::int32_t rank) {
  return records_[fetch_index(module, record_id, rank)];
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
  const std::uint64_t rid = path_id;
  FileRecord& rec = fetch(module, rid, rank);
  switch (module) {
    case ModuleId::kPosix: rec.counters[posix::OPENS] += 1; break;
    case ModuleId::kMpiIo: rec.counters[mpiio::INDEP_OPENS] += 1; break;
    case ModuleId::kStdio: rec.counters[stdio::OPENS] += 1; break;
    case ModuleId::kLustre:
    case ModuleId::kSsdExt: break;  // synthetic records carry no open counts
  }
  if (module != ModuleId::kLustre) {
    stamp_min(rec.fcounters[posix::F_OPEN_START_TIMESTAMP], t);
  }
  return FileHandle{rid, module};
}

void Runtime::record_reads(const FileHandle& h, std::int32_t rank, std::uint64_t op_size,
                           std::uint64_t n_ops, double start, double elapsed, bool sequential) {
  if (n_ops == 0) return;
  FileRecord& rec = fetch(h.module, h.record_id, rank);
  const auto ops = static_cast<std::int64_t>(n_ops);
  const auto bytes = static_cast<std::int64_t>(op_size * n_ops);
  const std::size_t bin = util::BinSpec::darshan_request_bins().index_of(op_size);

  switch (h.module) {
    case ModuleId::kPosix:
      rec.counters[posix::READS] += ops;
      rec.counters[posix::BYTES_READ] += bytes;
      rec.counters[posix::SIZE_READ_0_100 + bin] += ops;
      if (sequential) {
        rec.counters[posix::SEQ_READS] += ops;
        rec.counters[posix::CONSEC_READS] += ops > 0 ? ops - 1 : 0;
      }
      rec.counters[posix::MAX_BYTE_READ] =
          std::max(rec.counters[posix::MAX_BYTE_READ], rec.counters[posix::BYTES_READ] - 1);
      break;
    case ModuleId::kMpiIo:
      rec.counters[mpiio::INDEP_READS] += ops;
      rec.counters[mpiio::BYTES_READ] += bytes;
      rec.counters[mpiio::SIZE_READ_AGG_0_100 + bin] += ops;
      break;
    case ModuleId::kStdio:
      rec.counters[stdio::READS] += ops;
      rec.counters[stdio::BYTES_READ] += bytes;
      rec.counters[stdio::MAX_BYTE_READ] =
          std::max(rec.counters[stdio::MAX_BYTE_READ], rec.counters[stdio::BYTES_READ] - 1);
      break;
    case ModuleId::kLustre:
    case ModuleId::kSsdExt:
      throw util::ConfigError("geometry/extension records carry no I/O operations");
  }
  stamp_min(rec.fcounters[posix::F_READ_START_TIMESTAMP], start);
  stamp_max(rec.fcounters[posix::F_READ_END_TIMESTAMP], start + elapsed);
  rec.fcounters[posix::F_READ_TIME] += elapsed;
  trace_batch(h, rank, DxtOp::kRead, op_size, n_ops, start, elapsed);
}

void Runtime::record_writes(const FileHandle& h, std::int32_t rank, std::uint64_t op_size,
                            std::uint64_t n_ops, double start, double elapsed, bool sequential) {
  if (n_ops == 0) return;
  FileRecord& rec = fetch(h.module, h.record_id, rank);
  const auto ops = static_cast<std::int64_t>(n_ops);
  const auto bytes = static_cast<std::int64_t>(op_size * n_ops);
  const std::size_t bin = util::BinSpec::darshan_request_bins().index_of(op_size);

  switch (h.module) {
    case ModuleId::kPosix:
      rec.counters[posix::WRITES] += ops;
      rec.counters[posix::BYTES_WRITTEN] += bytes;
      rec.counters[posix::SIZE_WRITE_0_100 + bin] += ops;
      if (sequential) {
        rec.counters[posix::SEQ_WRITES] += ops;
        rec.counters[posix::CONSEC_WRITES] += ops > 0 ? ops - 1 : 0;
      }
      rec.counters[posix::MAX_BYTE_WRITTEN] = std::max(
          rec.counters[posix::MAX_BYTE_WRITTEN], rec.counters[posix::BYTES_WRITTEN] - 1);
      break;
    case ModuleId::kMpiIo:
      rec.counters[mpiio::INDEP_WRITES] += ops;
      rec.counters[mpiio::BYTES_WRITTEN] += bytes;
      rec.counters[mpiio::SIZE_WRITE_AGG_0_100 + bin] += ops;
      break;
    case ModuleId::kStdio:
      rec.counters[stdio::WRITES] += ops;
      rec.counters[stdio::BYTES_WRITTEN] += bytes;
      rec.counters[stdio::MAX_BYTE_WRITTEN] = std::max(
          rec.counters[stdio::MAX_BYTE_WRITTEN], rec.counters[stdio::BYTES_WRITTEN] - 1);
      break;
    case ModuleId::kLustre:
    case ModuleId::kSsdExt:
      throw util::ConfigError("geometry/extension records carry no I/O operations");
  }
  stamp_min(rec.fcounters[posix::F_WRITE_START_TIMESTAMP], start);
  stamp_max(rec.fcounters[posix::F_WRITE_END_TIMESTAMP], start + elapsed);
  rec.fcounters[posix::F_WRITE_TIME] += elapsed;
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
  FileRecord& rec = fetch(h.module, h.record_id, rank);
  const auto ops = static_cast<std::int64_t>(n_ops);
  switch (h.module) {
    case ModuleId::kPosix: rec.counters[posix::STATS] += ops; break;
    case ModuleId::kStdio: rec.counters[stdio::FLUSHES] += ops; break;
    case ModuleId::kMpiIo: break;
    case ModuleId::kLustre:
    case ModuleId::kSsdExt:
      throw util::ConfigError("geometry/extension records carry no I/O operations");
  }
  rec.fcounters[posix::F_META_TIME] += elapsed;
}

std::vector<std::size_t>& Runtime::rank_rows(ModuleId module, std::uint64_t record_id,
                                             std::int32_t rank0, std::uint32_t n_ranks) {
  for (RankRowCache& e : row_cache_) {
    if (e.record_id == record_id && e.module == static_cast<std::uint8_t>(module) &&
        e.rank0 == rank0 && e.rows.size() == n_ranks) {
      return e.rows;
    }
  }
  RankRowCache& e = row_cache_[row_cache_victim_];
  row_cache_victim_ = (row_cache_victim_ + 1) % row_cache_.size();
  e.record_id = record_id;
  e.module = static_cast<std::uint8_t>(module);
  e.rank0 = rank0;
  e.rows.assign(n_ranks, kNoRow);
  return e.rows;
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

  auto apply = [&](FileRecord& rec, std::int64_t ops, std::int64_t bytes, std::size_t bin,
                   double elapsed) {
    rec.counters[ops_idx] += ops;
    rec.counters[bytes_idx] += bytes;
    if (has_bins) rec.counters[size0_idx + bin] += ops;
    if (has_seq) {
      rec.counters[seq_idx] += ops;
      rec.counters[consec_idx] += ops - 1;
    }
    if (has_max) {
      rec.counters[max_idx] = std::max(rec.counters[max_idx], rec.counters[bytes_idx] - 1);
    }
    stamp_min(rec.fcounters[fstart_idx], seg.start);
    stamp_max(rec.fcounters[fend_idx], seg.start + elapsed);
    rec.fcounters[ftime_idx] += elapsed;
  };

  std::vector<std::size_t>& rows = rank_rows(module, path_id, seg.rank0, seg.n_ranks);
  auto emit_row = [&](std::uint32_t r, const Variant& v) {
    const std::int32_t rank = seg.rank0 + static_cast<std::int32_t>(r);
    std::size_t idx = rows[r];
    if (idx == kNoRow) rows[r] = idx = fetch_index(module, path_id, rank);
    FileRecord& rec = records_[idx];

    // Open: counter + earliest-open timestamp, as open_file does.
    rec.counters[open_idx] += 1;
    stamp_min(rec.fcounters[posix::F_OPEN_START_TIMESTAMP], seg.start);

    if (v.ops > 0) apply(rec, v.ops, v.bytes, op_bin, seg.elapsed);
    if (v.tail > 0) {
      apply(rec, 1, static_cast<std::int64_t>(v.tail), v.tail_bin, 0.0);
    }
    if (seg.meta_ops > 0) {
      if (has_meta) rec.counters[meta_idx] += meta_ops;
      rec.fcounters[posix::F_META_TIME] += seg.meta_elapsed;
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

void Runtime::record_lustre(std::string_view path, std::int64_t stripe_size,
                            std::int64_t stripe_width, std::int64_t stripe_offset,
                            std::int64_t mdts, std::int64_t osts) {
  const std::uint64_t rid = hash_record_id(path);
  names_.try_emplace(rid, std::string(path));
  FileRecord& rec = fetch(ModuleId::kLustre, rid, kSharedRank);
  rec.counters[lustre::STRIPE_SIZE] = stripe_size;
  rec.counters[lustre::STRIPE_WIDTH] = stripe_width;
  rec.counters[lustre::STRIPE_OFFSET] = stripe_offset;
  rec.counters[lustre::MDTS] = mdts;
  rec.counters[lustre::OSTS] = osts;
}

void Runtime::record_ssd(std::string_view path, std::uint64_t rewrite_bytes,
                         std::uint64_t seq_write_bytes, std::uint64_t random_write_bytes,
                         std::uint64_t static_bytes, std::uint64_t dynamic_bytes, double waf) {
  const std::uint64_t rid = hash_record_id(path);
  names_.try_emplace(rid, std::string(path));
  FileRecord& rec = fetch(ModuleId::kSsdExt, rid, kSharedRank);
  rec.counters[ssdext::REWRITE_BYTES] += static_cast<std::int64_t>(rewrite_bytes);
  rec.counters[ssdext::SEQ_WRITE_BYTES] += static_cast<std::int64_t>(seq_write_bytes);
  rec.counters[ssdext::RANDOM_WRITE_BYTES] += static_cast<std::int64_t>(random_write_bytes);
  rec.counters[ssdext::STATIC_BYTES] += static_cast<std::int64_t>(static_bytes);
  rec.counters[ssdext::DYNAMIC_BYTES] += static_cast<std::int64_t>(dynamic_bytes);
  rec.counters[ssdext::WAF_X1000] =
      std::max(rec.counters[ssdext::WAF_X1000], static_cast<std::int64_t>(waf * 1000.0));
}

void Runtime::reduce_into(FileRecord& shared, const FileRecord& rank_rec) {
  MLIO_ASSERT(shared.module == rank_rec.module);
  // All counters are additive except at most two max-reduced slots per
  // module: run a branchless (vectorizable) add over the whole array, then
  // fix the max slots up from their saved values.
  std::size_t max_slots[2];
  std::size_t n_max = 0;
  switch (shared.module) {
    case ModuleId::kPosix:
      max_slots[n_max++] = posix::MAX_BYTE_READ;
      max_slots[n_max++] = posix::MAX_BYTE_WRITTEN;
      break;
    case ModuleId::kStdio:
      max_slots[n_max++] = stdio::MAX_BYTE_READ;
      max_slots[n_max++] = stdio::MAX_BYTE_WRITTEN;
      break;
    case ModuleId::kSsdExt:
      max_slots[n_max++] = ssdext::WAF_X1000;
      break;
    case ModuleId::kMpiIo:
    case ModuleId::kLustre:
      break;
  }
  std::int64_t saved[2] = {0, 0};
  for (std::size_t s = 0; s < n_max; ++s) saved[s] = shared.counters[max_slots[s]];
  std::int64_t* dst = shared.counters.data();
  const std::int64_t* src = rank_rec.counters.data();
  const std::size_t n = shared.counters.size();
  for (std::size_t i = 0; i < n; ++i) dst[i] += src[i];
  for (std::size_t s = 0; s < n_max; ++s) {
    shared.counters[max_slots[s]] = std::max(saved[s], rank_rec.counters[max_slots[s]]);
  }
  for (std::size_t i = 0; i < shared.fcounters.size(); ++i) {
    if (i < kFirstEndIdx) {
      if (rank_rec.fcounters[i] >= 0.0) stamp_min(shared.fcounters[i], rank_rec.fcounters[i]);
    } else if (i < kFirstTimeIdx) {
      stamp_max(shared.fcounters[i], rank_rec.fcounters[i]);
    } else {
      shared.fcounters[i] = std::max(shared.fcounters[i], rank_rec.fcounters[i]);
    }
  }
}

LogData Runtime::finalize(std::int64_t start_epoch, std::int64_t end_epoch) {
  LogData log;
  finalize_into(start_epoch, end_epoch, log);
  return log;
}

void Runtime::finalize_into(std::int64_t start_epoch, std::int64_t end_epoch, LogData& out) {
  LogData& log = out;
  log.job = job_;
  log.job.start_time = start_epoch;
  log.job.end_time = end_epoch;
  log.mounts = std::move(mounts_);
  // Move the names in the hash map's iteration order: write_body emits them
  // in insertion order, and the golden frame digests in test_executor pin
  // that order (a hashtable artifact, not first-sight order).
  log.names.clear();
  log.names.reserve(names_.size());
  for (auto& [id, path] : names_) log.names.try_emplace(id, std::move(path));
  names_.clear();
  log.dxt.clear();
  log.dxt.reserve(dxt_.size());
  for (auto& [key, rec] : dxt_) {
    (void)key;
    log.dxt.push_back(std::move(rec));
  }
  std::sort(log.dxt.begin(), log.dxt.end(), [](const DxtRecord& a, const DxtRecord& b) {
    if (a.module != b.module) return a.module < b.module;
    return a.record_id < b.record_id;
  });
  dxt_.clear();
  dxt_offsets_.clear();

  finalize_records_sorted(log);

  // Reduced-away husks and unused pool leftovers are freed here rather than
  // recycled: only the emitted records round-trip through adopt_scratch
  // (see there for why).
  pool_.clear();
  log.prior_live_records = records_.size();

  index_.clear();
  records_.clear();
  // Cached row indices point into the cleared records_ vector.
  for (RankRowCache& e : row_cache_) {
    e.module = 0xff;
    e.rows.clear();
  }
}

void Runtime::finalize_records_sorted(LogData& log) {
  // Sort compact keys (not the 64-byte records) into the final (module,
  // record id, rank) order: every (module, record id) group becomes a
  // contiguous run, so the shared-record collapse needs no per-log hash map
  // of index vectors, and no second sort — a reduced shared record inherits
  // its run's position (kSharedRank sorts before every explicit rank).
  // Ranks are created in ascending order per record, so the rank-ascending
  // reduction below adds fcounters in the same order the grouped version
  // did (bit-identical floats).
  order_.clear();
  order_.reserve(records_.size());
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const FileRecord& rec = records_[i];
    order_.push_back(SortKey{rec.record_id, static_cast<std::uint32_t>(i), rec.rank,
                             static_cast<std::uint8_t>(rec.module)});
  }
  std::sort(order_.begin(), order_.end(), [](const SortKey& a, const SortKey& b) {
    if (a.module != b.module) return a.module < b.module;
    if (a.record_id != b.record_id) return a.record_id < b.record_id;
    return a.rank < b.rank;
  });

  log.records.clear();
  log.records.reserve(records_.size());
  for (std::size_t lo = 0; lo < order_.size();) {
    std::size_t hi = lo + 1;
    while (hi < order_.size() && order_[hi].module == order_[lo].module &&
           order_[hi].record_id == order_[lo].record_id) {
      ++hi;
    }
    FileRecord& first = records_[order_[lo].idx];
    const std::size_t n_ranks = hi - lo;
    const bool already_shared = n_ranks == 1 && first.rank == kSharedRank;
    const bool all_ranks = job_.nprocs > 1 && n_ranks == job_.nprocs;
    if (already_shared || first.module == ModuleId::kLustre ||
        first.module == ModuleId::kSsdExt) {
      log.records.push_back(std::move(first));
    } else if (all_ranks) {
      // Every rank of the job touched the file: collapse into one shared
      // record.
      FileRecord shared = new_record(first.record_id, kSharedRank, first.module);
      for (std::size_t i = lo; i < hi; ++i) reduce_into(shared, records_[order_[i].idx]);
      log.records.push_back(std::move(shared));
    } else {
      // Partial access: keep per-rank records (the paper's §3.4 explicitly
      // excludes these from performance analysis).
      for (std::size_t i = lo; i < hi; ++i) {
        log.records.push_back(std::move(records_[order_[i].idx]));
      }
    }
    lo = hi;
  }
}

}  // namespace mlio::darshan
