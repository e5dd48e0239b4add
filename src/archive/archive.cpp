#include "archive/archive.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <system_error>

#include "util/byte_io.hpp"
#include "util/compress.hpp"
#include "util/error.hpp"

namespace mlio::archive {

namespace {

constexpr const char* kManifestName = "manifest.bin";

std::string part_name(std::uint64_t id, const char* ext) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "p%06llu.%s", static_cast<unsigned long long>(id), ext);
  return buf;
}

void append_segment_header(std::vector<std::byte>& out, std::uint64_t partition_id) {
  util::ByteWriter w;
  w.u32(kSegmentMagic);
  w.u16(kSegmentVersion);
  w.u16(0);
  w.u64(partition_id);
  const auto view = w.view();
  out.insert(out.end(), view.begin(), view.end());
}

/// Validate a segment file against its manifest entry and return its bytes.
std::vector<std::byte> checked_segment(util::Vfs& vfs, const std::filesystem::path& path,
                                       const PartitionInfo& p) {
  const std::vector<std::byte> bytes = vfs.read_file(path);
  if (bytes.size() != p.segment_bytes) {
    throw util::FormatError("segment " + path.string() + ": size mismatch (truncated?)");
  }
  if (util::crc32(bytes) != p.segment_crc) {
    throw util::FormatError("segment " + path.string() + ": CRC mismatch");
  }
  util::ByteReader r(bytes);
  if (r.u32() != kSegmentMagic) throw util::FormatError("segment: bad magic");
  if (r.u16() != kSegmentVersion) throw util::FormatError("segment: unsupported version");
  (void)r.u16();
  if (r.u64() != p.id) throw util::FormatError("segment: partition id mismatch");
  return bytes;
}

}  // namespace

Archive::Archive(std::filesystem::path dir, Manifest manifest, util::Vfs& vfs)
    : dir_(std::move(dir)), manifest_(std::move(manifest)), vfs_(&vfs) {}

Archive Archive::create(const std::filesystem::path& dir, util::Vfs& vfs) {
  if (vfs.exists(dir / kManifestName)) {
    throw util::ConfigError("archive already exists at " + dir.string());
  }
  vfs.create_directories(dir);
  Archive a(dir, Manifest{}, vfs);
  a.publish_manifest(Manifest{});
  return a;
}

Archive Archive::open(const std::filesystem::path& dir, util::Vfs& vfs) {
  return Archive(dir, read_manifest_bytes(vfs.read_file(dir / kManifestName)), vfs);
}

Archive Archive::open_or_create(const std::filesystem::path& dir, util::Vfs& vfs) {
  if (vfs.exists(dir / kManifestName)) return open(dir, vfs);
  return create(dir, vfs);
}

std::filesystem::path Archive::manifest_path() const { return dir_ / kManifestName; }

void Archive::reload() { manifest_ = read_manifest_bytes(vfs_->read_file(manifest_path())); }

std::filesystem::path Archive::segment_path(std::uint64_t id) const {
  return dir_ / part_name(id, "seg");
}
std::filesystem::path Archive::index_path(std::uint64_t id) const {
  return dir_ / part_name(id, "idx");
}
std::filesystem::path Archive::snapshot_path(std::uint64_t id) const {
  return dir_ / part_name(id, "snap");
}

void Archive::publish_manifest(Manifest next) {
  next.generation = manifest_.generation + 1;
  vfs_->write_file_atomic(dir_ / kManifestName, write_manifest_bytes(next));
  manifest_ = std::move(next);
}

Archive::PartitionWriter::PartitionWriter(Archive& owner, std::uint64_t id)
    : owner_(&owner), id_(id) {
  append_segment_header(segment_, id_);
}

Archive::PartitionWriter Archive::begin_partition() {
  return PartitionWriter(*this, manifest_.next_partition_id);
}

Archive::PartitionWriter Archive::begin_partition_at(std::uint64_t id) {
  return PartitionWriter(*this, id);
}

void Archive::PartitionWriter::append_frame(const darshan::JobRecord& job,
                                            std::span<const std::byte> frame) {
  MLIO_ASSERT(owner_ != nullptr);
  IndexEntry e;
  e.offset = segment_.size();
  e.size = frame.size();
  e.job_id = job.job_id;
  segment_.insert(segment_.end(), frame.begin(), frame.end());
  if (entries_.empty()) {
    job_id_min_ = job_id_max_ = job.job_id;
  } else {
    job_id_min_ = std::min(job_id_min_, job.job_id);
    job_id_max_ = std::max(job_id_max_, job.job_id);
  }
  entries_.push_back(e);
}

PartitionInfo Archive::PartitionWriter::seal() {
  MLIO_ASSERT(owner_ != nullptr);
  Archive& a = *owner_;
  PendingPartition pending = finish();  // spends the writer
  a.stage_partition_files(pending);
  return a.commit_group({&pending, 1}).front();
}

Archive::PendingPartition Archive::PartitionWriter::finish() {
  MLIO_ASSERT(owner_ != nullptr);
  owner_ = nullptr;

  PendingPartition out;
  out.info.id = id_;
  out.info.log_count = entries_.size();
  out.info.job_id_min = job_id_min_;
  out.info.job_id_max = job_id_max_;
  out.info.segment_bytes = segment_.size();
  out.info.segment_crc = util::crc32(segment_);
  out.index = write_index_bytes(id_, entries_);
  out.segment = std::move(segment_);
  return out;
}

void Archive::PendingPartition::attach_snapshot(const core::Analysis& shard) {
  snapshot = core::write_snapshot_bytes(shard, info.data_generation);
  info.has_snapshot = true;
  info.snapshot_generation = info.data_generation;
  info.snapshot_crc = util::crc32(snapshot);
}

void Archive::stage_partition_files(PendingPartition& p) const {
  vfs_->write_file_atomic(segment_path(p.info.id), p.segment);
  vfs_->write_file_atomic(index_path(p.info.id), p.index);
  if (p.info.has_snapshot) vfs_->write_file_atomic(snapshot_path(p.info.id), p.snapshot);
  // Staged payloads are on disk; drop the buffers so a large batch holds
  // only its in-flight builds in memory.
  std::vector<std::byte>().swap(p.segment);
  std::vector<std::byte>().swap(p.index);
  std::vector<std::byte>().swap(p.snapshot);
}

std::vector<PartitionInfo> Archive::commit_group(std::span<const PendingPartition> group) {
  if (group.empty()) return {};
  const std::uint64_t gen = manifest_.generation + 1;  // publish_manifest stamps this
  std::uint64_t expect_id = manifest_.next_partition_id;
  for (const PendingPartition& p : group) {
    if (p.info.id != expect_id) {
      throw util::ConfigError("commit_group: partition " + std::to_string(p.info.id) +
                              " does not extend the manifest (expected " +
                              std::to_string(expect_id) + ")");
    }
    expect_id += 1;
    if (p.info.data_generation != 0 && p.info.data_generation != gen) {
      throw util::ConfigError("commit_group: partition " + std::to_string(p.info.id) +
                              " was built against a stale generation (" +
                              std::to_string(p.info.data_generation) + " != " +
                              std::to_string(gen) + ")");
    }
    if (p.info.has_snapshot && p.info.snapshot_generation != gen) {
      throw util::ConfigError("commit_group: partition " + std::to_string(p.info.id) +
                              " carries a snapshot stamped for a stale generation");
    }
  }

  std::vector<PartitionInfo> committed;
  committed.reserve(group.size());
  Manifest next = manifest_;
  for (const PendingPartition& p : group) {
    PartitionInfo info = p.info;
    info.data_generation = gen;
    next.partitions.push_back(info);
    committed.push_back(info);
  }
  next.next_partition_id = expect_id;
  // Manifest last: until this one write lands, every staged file of the
  // group is unreferenced garbage — readers see the whole group or nothing.
  publish_manifest(std::move(next));
  return committed;
}

void Archive::scan_partition(const PartitionInfo& p,
                             const std::function<void(const darshan::LogData&)>& fn,
                             ScanScratch& scratch, const ScanOptions& opts) const {
  scan_bodies(
      p,
      [&](std::span<const std::byte> body) {
        darshan::read_log_body_into(body, scratch.io, scratch.log);
        fn(scratch.log);
      },
      scratch, opts);
}

void Archive::scan_bodies(const PartitionInfo& p,
                          const std::function<void(std::span<const std::byte>)>& fn,
                          ScanScratch& scratch, const ScanOptions& opts) const {
  const std::vector<std::byte> bytes = checked_segment(*vfs_, segment_path(p.id), p);
  const std::vector<IndexEntry> entries =
      read_index_bytes(vfs_->read_file(index_path(p.id)), p.id);
  if (entries.size() != p.log_count) {
    throw util::FormatError("index of partition " + std::to_string(p.id) + ": count mismatch");
  }
  scan_frames(bytes, entries, kSegmentHeaderBytes, fn, scratch, opts,
              "partition " + std::to_string(p.id));
}

std::optional<core::Analysis> Archive::load_snapshot(const PartitionInfo& p) const {
  if (!p.has_snapshot || p.snapshot_generation != p.data_generation) return std::nullopt;
  std::vector<std::byte> bytes;
  try {
    bytes = vfs_->read_file(snapshot_path(p.id));
  } catch (const util::IoError&) {
    return std::nullopt;
  }
  if (util::crc32(bytes) != p.snapshot_crc) return std::nullopt;
  try {
    std::uint64_t tag = 0;
    core::Analysis shard = core::read_snapshot_bytes(bytes, &tag);
    if (tag != p.data_generation) return std::nullopt;
    return shard;
  } catch (const util::FormatError&) {
    return std::nullopt;
  }
}

Archive::SnapshotReceipt Archive::write_snapshot_file(const PartitionInfo& p,
                                                      const core::Analysis& shard) const {
  const std::vector<std::byte> bytes = core::write_snapshot_bytes(shard, p.data_generation);
  vfs_->write_file_atomic(snapshot_path(p.id), bytes);
  return SnapshotReceipt{p.id, p.data_generation, util::crc32(bytes)};
}

std::size_t Archive::commit_snapshots(std::span<const SnapshotReceipt> receipts) {
  std::size_t registered = 0;
  Manifest next = manifest_;
  for (const SnapshotReceipt& r : receipts) {
    const auto it = std::find_if(next.partitions.begin(), next.partitions.end(),
                                 [&](const PartitionInfo& p) { return p.id == r.partition_id; });
    if (it == next.partitions.end() || it->data_generation != r.data_generation) continue;
    it->has_snapshot = true;
    it->snapshot_generation = r.data_generation;
    it->snapshot_crc = r.crc;
    registered += 1;
  }
  if (registered > 0) publish_manifest(std::move(next));
  return registered;
}

PartitionInfo Archive::build_merged_partition(const CompactionPlan& plan, std::uint64_t id) {
  const auto& parts = manifest_.partitions;
  PartitionWriter writer = begin_partition_at(id);
  darshan::JobRecord job;  // the writer keys its index on the job id alone
  for (std::size_t k = plan.first; k < plan.first + plan.count; ++k) {
    const PartitionInfo& src = parts[k];
    const std::vector<std::byte> bytes = checked_segment(*vfs_, segment_path(src.id), src);
    for (const IndexEntry& e : read_index_bytes(vfs_->read_file(index_path(src.id)), src.id)) {
      // Subtraction form: `offset + size` can wrap u64 on hostile input.
      if (e.offset < kSegmentHeaderBytes || e.offset > bytes.size() ||
          e.size > bytes.size() - e.offset) {
        throw util::FormatError("compact: index entry out of segment bounds");
      }
      job.job_id = e.job_id;
      writer.append_frame(job, std::span<const std::byte>(bytes).subspan(
                                   static_cast<std::size_t>(e.offset),
                                   static_cast<std::size_t>(e.size)));
    }
  }
  PendingPartition merged = writer.finish();
  PartitionInfo& np = merged.info;
  np.level = plan.target_level;
  // Window union: window_min 0 ("unwindowed history") dominates the min,
  // so a merge that swallows a batch partition stays honest about reaching
  // past the oldest window.
  np.window_min = parts[plan.first].window_min;
  np.window_max = parts[plan.first].window_max;
  for (std::size_t k = plan.first + 1; k < plan.first + plan.count; ++k) {
    np.window_min = std::min(np.window_min, parts[k].window_min);
    np.window_max = std::max(np.window_max, parts[k].window_max);
  }
  np.data_generation = manifest_.generation + 1;  // the generation compact() publishes
  stage_partition_files(merged);
  return np;
}

void Archive::gc_partitions(std::span<const CompactedRun> runs,
                            std::vector<std::filesystem::path>* deferred_gc) {
  // Old files go only after the manifest no longer references them.  A
  // failed removal is deliberately non-fatal — the compact is already
  // durably committed and the leftovers are unreferenced garbage — but it
  // is never silent: each failure is logged and kept in gc_errors().
  // An MVCC host passes `deferred_gc` to take over the removals instead:
  // pinned readers may still be scanning the replaced segments.
  for (const CompactedRun& run : runs) {
    for (const PartitionInfo& input : run.inputs) {
      for (const std::filesystem::path& path :
           {segment_path(input.id), index_path(input.id), snapshot_path(input.id)}) {
        if (deferred_gc != nullptr) {
          deferred_gc->push_back(path);
          continue;
        }
        try {
          vfs_->remove(path);
        } catch (const util::IoError& e) {
          gc_errors_.emplace_back(e.what());
          std::fprintf(stderr, "archive: compact gc: %s\n", e.what());
        }
      }
    }
  }
}

std::vector<Archive::CompactedRun> Archive::compact(
    std::span<const CompactionPlan> plans, std::vector<std::filesystem::path>* deferred_gc) {
  const std::vector<PartitionInfo>& parts = manifest_.partitions;
  std::size_t next_free = 0;  // the lowest index the next plan may start at
  for (const CompactionPlan& plan : plans) {
    if (plan.count < 2 || plan.first < next_free || plan.first > parts.size() ||
        plan.count > parts.size() - plan.first) {
      throw util::ConfigError("compact: run [" + std::to_string(plan.first) + ", +" +
                              std::to_string(plan.count) +
                              ") is not an ascending, non-overlapping mergeable range of the " +
                              std::to_string(parts.size()) + "-partition manifest");
    }
    next_free = plan.first + plan.count;
  }
  gc_errors_.clear();
  if (plans.empty()) return {};

  // Build each run's partition in plan order and splice it in at the run's
  // position; the partitions between runs keep their places.  The next
  // manifest is built as a value and replaces the in-memory one only once
  // its write lands: a failure anywhere before that (staging or the
  // manifest write itself) leaves this handle as it was, so a retry
  // allocates the same ids and writes the same bytes.
  std::vector<CompactedRun> runs;
  Manifest next = manifest_;
  next.partitions.clear();
  auto kept_from = parts.begin();
  for (const CompactionPlan& plan : plans) {
    const auto run_begin = parts.begin() + static_cast<std::ptrdiff_t>(plan.first);
    const auto run_end = run_begin + static_cast<std::ptrdiff_t>(plan.count);
    next.partitions.insert(next.partitions.end(), kept_from, run_begin);
    runs.push_back(CompactedRun{build_merged_partition(plan, next.next_partition_id++),
                                {run_begin, run_end}});
    next.partitions.push_back(runs.back().merged);
    kept_from = run_end;
  }
  next.partitions.insert(next.partitions.end(), kept_from, parts.end());
  publish_manifest(std::move(next));
  gc_partitions(runs, deferred_gc);
  return runs;
}

Archive::VerifyReport Archive::verify(bool deep) const {
  VerifyReport rep;
  rep.partitions = manifest_.partitions.size();
  for (const PartitionInfo& p : manifest_.partitions) {
    const std::string tag = "partition " + std::to_string(p.id);
    std::vector<std::byte> bytes;
    std::vector<IndexEntry> entries;
    bool data_ok = true;
    try {
      bytes = checked_segment(*vfs_, segment_path(p.id), p);
      entries = read_index_bytes(vfs_->read_file(index_path(p.id)), p.id);
      if (entries.size() != p.log_count) throw util::FormatError(tag + ": index count mismatch");
      std::uint64_t prev_end = kSegmentHeaderBytes;
      for (const IndexEntry& e : entries) {
        // Subtraction form: `offset + size` can wrap u64 on hostile input.
        if (e.offset != prev_end || e.offset > bytes.size() ||
            e.size > bytes.size() - e.offset) {
          throw util::FormatError(tag + ": index entries not contiguous/in bounds");
        }
        prev_end = e.offset + e.size;
      }
      if (prev_end != bytes.size()) throw util::FormatError(tag + ": segment has slack bytes");
    } catch (const util::Error& e) {
      rep.issues.push_back(e.what());
      data_ok = false;
    }

    if (deep && data_ok) {
      darshan::LogIoBuffers io;
      darshan::LogBody body;
      for (const IndexEntry& e : entries) {
        try {
          darshan::walk_log_body(
              darshan::read_log_frame_body(
                  std::span<const std::byte>(bytes.data() + e.offset,
                                             static_cast<std::size_t>(e.size)),
                  io),
              body);
          if (body.job.job_id != e.job_id) {
            throw util::FormatError(tag + ": log job id disagrees with index");
          }
          rep.logs_checked += 1;
        } catch (const util::Error& err) {
          rep.issues.push_back(tag + ": " + err.what());
          break;
        }
      }
    }

    if (!p.has_snapshot) {
      rep.snapshots_missing += 1;
    } else if (p.snapshot_generation != p.data_generation) {
      rep.snapshots_stale += 1;
      rep.issues.push_back(tag + ": snapshot is stale (generation " +
                           std::to_string(p.snapshot_generation) + " != data generation " +
                           std::to_string(p.data_generation) + ")");
    } else if (load_snapshot(p).has_value()) {
      rep.snapshots_valid += 1;
    } else {
      rep.issues.push_back(tag + ": snapshot file missing or corrupt");
    }
  }
  return rep;
}

}  // namespace mlio::archive
