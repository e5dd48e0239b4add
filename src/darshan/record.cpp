#include "darshan/record.hpp"

#include <algorithm>

namespace mlio::darshan {

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
