#include "darshan/record.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace mlio::darshan {

void NameTable::reserve(std::size_t n_entries, std::size_t arena_bytes) {
  entries_.reserve(n_entries);
  if (arena_bytes > 0) arena_.reserve(arena_bytes);
}

void NameTable::add(std::uint64_t id, std::string_view path) {
  if (arena_.size() + path.size() > 0xffffffffull) {
    throw util::FormatError("name table arena exceeds 32-bit offsets");
  }
  entries_.push_back({id, static_cast<std::uint32_t>(arena_.size()),
                      static_cast<std::uint32_t>(path.size())});
  arena_.insert(arena_.end(), path.begin(), path.end());
  sorted_valid_ = false;
}

void NameTable::rebuild_sorted() const {
  sorted_.resize(entries_.size());
  for (std::uint32_t i = 0; i < entries_.size(); ++i) sorted_[i] = i;
  std::sort(sorted_.begin(), sorted_.end(), [this](std::uint32_t a, std::uint32_t b) {
    if (entries_[a].id != entries_[b].id) return entries_[a].id < entries_[b].id;
    return a < b;  // stable within an id: first insertion sorts first
  });
  sorted_valid_ = true;
}

void NameTable::seal() {
  rebuild_sorted();
  bool has_dup = false;
  for (std::size_t i = 1; i < sorted_.size(); ++i) {
    if (entries_[sorted_[i]].id == entries_[sorted_[i - 1]].id) {
      has_dup = true;
      break;
    }
  }
  if (!has_dup) return;
  // First insertion of each id wins, matching unordered_map::emplace.  The
  // arena keeps the dead bytes — duplicate ids only occur in hand-built or
  // hostile logs, never in steady-state parse loops.
  std::vector<char> keep(entries_.size(), 1);
  for (std::size_t i = 1; i < sorted_.size(); ++i) {
    if (entries_[sorted_[i]].id == entries_[sorted_[i - 1]].id) keep[sorted_[i]] = 0;
  }
  std::size_t w = 0;
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    if (keep[i] != 0) entries_[w++] = entries_[i];
  }
  entries_.resize(w);
  rebuild_sorted();
}

std::string_view NameTable::path_of(std::uint64_t id) const {
  if (!sorted_valid_) rebuild_sorted();
  const auto it = std::lower_bound(
      sorted_.begin(), sorted_.end(), id,
      [this](std::uint32_t a, std::uint64_t key) { return entries_[a].id < key; });
  if (it == sorted_.end() || entries_[*it].id != id) return {};
  return view(entries_[*it]);
}

bool operator==(const NameTable& a, const NameTable& b) {
  if (!a.sorted_valid_) a.rebuild_sorted();
  if (!b.sorted_valid_) b.rebuild_sorted();
  const auto advance_past_run = [](const NameTable& t, std::size_t k) {
    const std::uint64_t id = t.entries_[t.sorted_[k]].id;
    ++k;
    while (k < t.sorted_.size() && t.entries_[t.sorted_[k]].id == id) ++k;
    return k;
  };
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < a.sorted_.size() && j < b.sorted_.size()) {
    const auto& ea = a.entries_[a.sorted_[i]];
    const auto& eb = b.entries_[b.sorted_[j]];
    if (ea.id != eb.id || a.view(ea) != b.view(eb)) return false;
    i = advance_past_run(a, i);
    j = advance_past_run(b, j);
  }
  return i == a.sorted_.size() && j == b.sorted_.size();
}

std::uint64_t hash_record_id(std::string_view path) {
  // FNV-1a 64-bit, the classic parameters.  Collisions within one log are
  // ~n^2/2^64 and irrelevant at our scales; real Darshan also hashes paths.
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char ch : path) {
    h ^= static_cast<unsigned char>(ch);
    h *= 0x100000001b3ull;
  }
  return h;
}

FileRecord::FileRecord(std::uint64_t id, std::int32_t r, ModuleId m)
    : record_id(id),
      rank(r),
      module(m),
      counters(counter_count(m), 0),
      fcounters(fcounter_count(m), 0.0) {}

std::string_view LogData::path_of(std::uint64_t record_id) const {
  return names.path_of(record_id);
}

bool operator==(const JobRecord& a, const JobRecord& b) {
  return a.job_id == b.job_id && a.user_id == b.user_id && a.nprocs == b.nprocs &&
         a.nnodes == b.nnodes && a.start_time == b.start_time && a.end_time == b.end_time &&
         a.exe == b.exe && a.metadata == b.metadata;
}

bool operator==(const MountEntry& a, const MountEntry& b) {
  return a.prefix == b.prefix && a.fs_type == b.fs_type;
}

bool operator==(const FileRecord& a, const FileRecord& b) {
  return a.record_id == b.record_id && a.rank == b.rank && a.module == b.module &&
         a.counters == b.counters && a.fcounters == b.fcounters;
}

bool operator==(const LogData& a, const LogData& b) {
  if (!(a.job == b.job && a.mounts == b.mounts && a.names == b.names)) return false;
  // Records are a set: the on-disk format groups them into per-module
  // regions, so compare order-insensitively under a canonical sort.
  if (a.records.size() != b.records.size()) return false;
  auto sorted = [](const std::vector<FileRecord>& recs) {
    std::vector<const FileRecord*> out;
    out.reserve(recs.size());
    for (const auto& r : recs) out.push_back(&r);
    std::sort(out.begin(), out.end(), [](const FileRecord* x, const FileRecord* y) {
      if (x->module != y->module) return x->module < y->module;
      if (x->record_id != y->record_id) return x->record_id < y->record_id;
      return x->rank < y->rank;
    });
    return out;
  };
  const auto sa = sorted(a.records);
  const auto sb = sorted(b.records);
  for (std::size_t i = 0; i < sa.size(); ++i) {
    if (!(*sa[i] == *sb[i])) return false;
  }
  if (a.dxt.size() != b.dxt.size()) return false;
  auto dxt_sorted = [](const std::vector<DxtRecord>& recs) {
    std::vector<const DxtRecord*> out;
    out.reserve(recs.size());
    for (const auto& r : recs) out.push_back(&r);
    std::sort(out.begin(), out.end(), [](const DxtRecord* x, const DxtRecord* y) {
      if (x->module != y->module) return x->module < y->module;
      return x->record_id < y->record_id;
    });
    return out;
  };
  const auto da = dxt_sorted(a.dxt);
  const auto db = dxt_sorted(b.dxt);
  for (std::size_t i = 0; i < da.size(); ++i) {
    if (!(*da[i] == *db[i])) return false;
  }
  return true;
}

}  // namespace mlio::darshan
