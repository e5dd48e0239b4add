#include "core/dataset.hpp"

#include <algorithm>
#include <optional>
#include <unordered_map>

#include "darshan/counters.hpp"

namespace mlio::core {

using darshan::FileRecord;
using darshan::LogData;
using darshan::ModuleId;

std::string_view layer_name(Layer layer) {
  return layer == Layer::kInSystem ? "in-system" : "PFS";
}

namespace {

std::optional<Layer> layer_for_fs(std::string_view fs_type) {
  if (fs_type == "gpfs" || fs_type == "lustre") return Layer::kPfs;
  if (fs_type == "xfs" || fs_type == "dwfs" || fs_type == "tmpfs") return Layer::kInSystem;
  return std::nullopt;
}

std::optional<Layer> resolve_layer(const LogData& log, std::string_view path) {
  const darshan::MountEntry* best = nullptr;
  std::size_t best_len = 0;
  for (const auto& m : log.mounts) {
    if (path.size() >= m.prefix.size() && path.substr(0, m.prefix.size()) == m.prefix &&
        m.prefix.size() >= best_len) {
      best = &m;
      best_len = m.prefix.size();
    }
  }
  if (best == nullptr) return std::nullopt;
  return layer_for_fs(best->fs_type);
}

// Fold one record into a partial.  Shared by the reference and the kernel,
// over FileRecords and in-place RecordViews alike (the same accessors):
// identical operations in identical per-id order is what makes their float
// sums bit-identical.
template <class Record>
void accumulate_record(FilePartial& p, const Record& rec) {
  namespace pc = darshan::posix;
  namespace sc = darshan::stdio;
  switch (rec.module) {
    case ModuleId::kPosix:
      p.used_posix = true;
      p.posix_read += static_cast<std::uint64_t>(std::max<std::int64_t>(
          0, rec.c(pc::BYTES_READ)));
      p.posix_written += static_cast<std::uint64_t>(std::max<std::int64_t>(
          0, rec.c(pc::BYTES_WRITTEN)));
      p.posix_rt += rec.f(pc::F_READ_TIME);
      p.posix_wt += rec.f(pc::F_WRITE_TIME);
      // The 20 request-size bins are contiguous in the counter block (reads
      // then writes); a branchless negative clamp (`v & ~(v >> 63)` ==
      // max(0, v) for int64) lets the compiler vectorize the fold.
      for (std::size_t b = 0; b < 10; ++b) {
        const std::int64_t r = rec.c(pc::SIZE_READ_0_100 + b);
        const std::int64_t w = rec.c(pc::SIZE_WRITE_0_100 + b);
        p.req_read[b] += static_cast<std::uint64_t>(r & ~(r >> 63));
        p.req_write[b] += static_cast<std::uint64_t>(w & ~(w >> 63));
      }
      if (rec.rank == darshan::kSharedRank) p.posix_shared = true;
      break;
    case ModuleId::kMpiIo:
      p.used_mpiio = true;
      break;
    case ModuleId::kStdio:
      p.used_stdio = true;
      p.stdio_read += static_cast<std::uint64_t>(std::max<std::int64_t>(
          0, rec.c(sc::BYTES_READ)));
      p.stdio_written += static_cast<std::uint64_t>(std::max<std::int64_t>(
          0, rec.c(sc::BYTES_WRITTEN)));
      p.stdio_rt += rec.f(sc::F_READ_TIME);
      p.stdio_wt += rec.f(sc::F_WRITE_TIME);
      if (rec.rank == darshan::kSharedRank) p.stdio_shared = true;
      break;
    case ModuleId::kLustre:
    case ModuleId::kSsdExt:
      break;
  }
}

bool carries_transfers(ModuleId module) {
  // Geometry / extension records carry no data-transfer stats.
  return module != ModuleId::kLustre && module != ModuleId::kSsdExt;
}

// §3.1 rule: POSIX counters when the file used POSIX/MPI-IO; STDIO counters
// for STDIO-managed files.
FileSummary make_summary(std::uint64_t rid, Layer layer, std::string_view path,
                         const FilePartial& p) {
  FileSummary s;
  s.record_id = rid;
  s.layer = layer;
  s.path = path;
  s.used_posix = p.used_posix;
  s.used_mpiio = p.used_mpiio;
  s.used_stdio = p.used_stdio;
  const bool posix_managed = p.used_posix || p.used_mpiio;
  if (posix_managed) {
    s.data_iface = DataInterface::kPosix;
    s.bytes_read = p.posix_read;
    s.bytes_written = p.posix_written;
    s.read_time = p.posix_rt;
    s.write_time = p.posix_wt;
    s.shared = p.posix_shared;
    s.req_read = p.req_read;
    s.req_write = p.req_write;
  } else {
    s.data_iface = DataInterface::kStdio;
    s.bytes_read = p.stdio_read;
    s.bytes_written = p.stdio_written;
    s.read_time = p.stdio_rt;
    s.write_time = p.stdio_wt;
    s.shared = p.stdio_shared;
  }
  return s;
}

}  // namespace

void MountTable::ensure(const std::vector<darshan::MountEntry>& mounts) {
  // FNV-1a over the entries, with separators so ("a","b") != ("ab","").
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto mix = [&h](std::string_view s) {
    h ^= s.size();
    h *= 0x100000001b3ull;
    for (const char c : s) {
      h ^= static_cast<unsigned char>(c);
      h *= 0x100000001b3ull;
    }
  };
  h ^= mounts.size();
  h *= 0x100000001b3ull;
  for (const auto& m : mounts) {
    mix(m.prefix);
    mix(m.fs_type);
  }
  if (valid_ && h == key_ && source_ == mounts) return;  // memo hit

  source_ = mounts;
  key_ = h;
  valid_ = true;

  // Rebuild sorted entries, reusing string capacity where possible.
  entries_.resize(std::min(entries_.size(), mounts.size()));
  entries_.reserve(mounts.size());
  for (std::size_t i = 0; i < mounts.size(); ++i) {
    if (i == entries_.size()) entries_.emplace_back();
    entries_[i].prefix.assign(mounts[i].prefix);
    const auto layer = layer_for_fs(mounts[i].fs_type);
    entries_[i].layer = layer ? static_cast<std::int8_t>(*layer) : std::int8_t{-1};
  }
  // (length desc, source index desc): the first prefix match during resolve
  // is then exactly the mount the seed's `>= best_len` scan selected —
  // longest match, ties broken toward the later table entry.
  std::vector<std::uint32_t> order(entries_.size());
  for (std::uint32_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [this](std::uint32_t a, std::uint32_t b) {
    if (entries_[a].prefix.size() != entries_[b].prefix.size()) {
      return entries_[a].prefix.size() > entries_[b].prefix.size();
    }
    return a > b;
  });
  std::vector<PrefixEntry> sorted;
  sorted.reserve(entries_.size());
  for (const std::uint32_t i : order) sorted.push_back(std::move(entries_[i]));
  entries_ = std::move(sorted);
}

std::optional<Layer> MountTable::resolve(std::string_view path) const {
  for (const auto& e : entries_) {
    if (path.size() >= e.prefix.size() && path.substr(0, e.prefix.size()) == e.prefix) {
      if (e.layer < 0) return std::nullopt;  // unknown fs type shadows shorter mounts
      return static_cast<Layer>(e.layer);
    }
  }
  return std::nullopt;
}

std::vector<FileSummary> summarize_log(const LogData& log, std::uint64_t* unattributed) {
  std::unordered_map<std::uint64_t, FilePartial> partials;
  partials.reserve(log.records.size());

  for (const FileRecord& rec : log.records) {
    if (carries_transfers(rec.module)) accumulate_record(partials[rec.record_id], rec);
  }

  std::vector<FileSummary> out;
  out.reserve(partials.size());
  for (const auto& [rid, p] : partials) {
    const std::string_view path = log.path_of(rid);
    const auto layer = resolve_layer(log, path);
    if (!layer) {
      if (unattributed != nullptr) ++*unattributed;
      continue;
    }
    out.push_back(make_summary(rid, *layer, path, p));
  }

  // Deterministic order regardless of hash-map iteration.
  std::sort(out.begin(), out.end(),
            [](const FileSummary& a, const FileSummary& b) { return a.record_id < b.record_id; });
  return out;
}

namespace {

// The kernel behind both scratch overloads: `records` is a LogBody's views
// or a LogData's FileRecords, `path_of` the matching first-wins name lookup.
template <class Records, class PathOf>
const std::vector<FileSummary>& summarize_records(const Records& records,
                                                  const std::vector<darshan::MountEntry>& mounts,
                                                  const PathOf& path_of,
                                                  SummarizeScratch& scratch,
                                                  std::uint64_t* unattributed) {
  scratch.mounts.ensure(mounts);
  auto& partials = scratch.partials;
  partials.clear();
  for (const auto& rec : records) {
    if (carries_transfers(rec.module)) accumulate_record(partials[rec.record_id], rec);
  }

  auto& out = scratch.files;
  out.clear();
  for (const auto& [rid, p] : partials) {
    const std::string_view path = path_of(rid);
    const auto layer = scratch.mounts.resolve(path);
    if (!layer) {
      if (unattributed != nullptr) ++*unattributed;
      continue;
    }
    out.push_back(make_summary(rid, *layer, path, p));
  }
  return out;
}

}  // namespace

const std::vector<FileSummary>& summarize_log(const darshan::LogBody& body,
                                              SummarizeScratch& scratch,
                                              std::uint64_t* unattributed) {
  return summarize_records(
      body.records, body.mounts, [&](std::uint64_t id) { return body.path_of(id); }, scratch,
      unattributed);
}

const std::vector<FileSummary>& summarize_log(const LogData& log, SummarizeScratch& scratch,
                                              std::uint64_t* unattributed) {
  return summarize_records(
      log.records, log.mounts, [&](std::uint64_t id) { return log.path_of(id); }, scratch,
      unattributed);
}

}  // namespace mlio::core
