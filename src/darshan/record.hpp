// In-memory representation of a Darshan log: job record, mount table, name
// map, and per-module file records.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "darshan/dxt.hpp"
#include "darshan/module.hpp"

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

/// Flat record-id → path table over one reusable char arena.  Entries keep
/// insertion order (which is also serialization order); lookups go through a
/// lazily (re)built index sorted by (id, insertion index), so `path_of`
/// returns the first-inserted path for an id — the same first-wins semantics
/// `unordered_map::emplace` gave the seed's parse path.  The lazy index
/// rebuild mutates `mutable` state and is not safe against concurrent first
/// lookups; every LogData in the tree is worker-private, so that never
/// happens in practice (producers `seal()` eagerly anyway).
class NameTable {
 public:
  /// Forget the contents but keep entry/arena capacity — for parse-reuse loops.
  void clear() {
    entries_.clear();
    arena_.clear();
    sorted_.clear();
    sorted_valid_ = true;
  }
  void reserve(std::size_t n_entries, std::size_t arena_bytes = 0);
  /// Append an entry; duplicates are allowed and resolved first-wins at
  /// lookup (and dropped by `seal`).  Throws FormatError if the arena would
  /// outgrow 32-bit offsets.
  void add(std::uint64_t id, std::string_view path);
  /// Drop later duplicates of an id (first insertion wins, relative order
  /// preserved) and build the lookup index eagerly.  Producers call this once
  /// after filling the table.
  void seal();
  /// Path for a record id, or empty view if unknown.  Binary search.
  std::string_view path_of(std::uint64_t id) const;
  std::size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }

  /// Iterates in insertion order, yielding (id, path) pairs by value; the
  /// path view borrows from the arena.
  class const_iterator {
   public:
    using value_type = std::pair<std::uint64_t, std::string_view>;
    value_type operator*() const {
      const auto& e = table_->entries_[i_];
      return {e.id, table_->view(e)};
    }
    const_iterator& operator++() {
      ++i_;
      return *this;
    }
    bool operator==(const const_iterator& o) const { return i_ == o.i_; }
    bool operator!=(const const_iterator& o) const { return i_ != o.i_; }

   private:
    friend class NameTable;
    const_iterator(const NameTable* t, std::size_t i) : table_(t), i_(i) {}
    const NameTable* table_;
    std::size_t i_;
  };
  const_iterator begin() const { return {this, 0}; }
  const_iterator end() const { return {this, entries_.size()}; }

  /// Order-insensitive comparison of the first-wins id → path mappings.
  friend bool operator==(const NameTable& a, const NameTable& b);

 private:
  struct Entry {
    std::uint64_t id;
    std::uint32_t offset;
    std::uint32_t len;
  };
  std::string_view view(const Entry& e) const { return {arena_.data() + e.offset, e.len}; }
  void rebuild_sorted() const;

  std::vector<Entry> entries_;  ///< insertion order == serialization order
  std::vector<char> arena_;
  mutable std::vector<std::uint32_t> sorted_;  ///< indices by (id, insertion idx)
  mutable bool sorted_valid_ = true;
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
  NameTable names;  ///< record id -> path
  std::vector<FileRecord> records;
  /// DXT trace segments (empty unless tracing was enabled; §2.2).
  std::vector<DxtRecord> dxt;
  /// Scratch sizing hint, not part of the log (never serialized or
  /// compared): pre-reduction record count of the run last finalized into
  /// this LogData, used by Runtime::adopt_scratch to pre-size its tables
  /// when the scratch log cycles through a hot loop.
  std::size_t prior_live_records = 0;

  /// Path for a record id, or empty view if unknown.
  std::string_view path_of(std::uint64_t record_id) const;
};

bool operator==(const JobRecord& a, const JobRecord& b);
bool operator==(const MountEntry& a, const MountEntry& b);
bool operator==(const FileRecord& a, const FileRecord& b);
bool operator==(const LogData& a, const LogData& b);

}  // namespace mlio::darshan
