// Dataset layer: turns raw Darshan logs into per-file summaries the §3
// analyses consume.
//
// Faithful to the paper's methodology (§3.1):
//  * a file is attributed to a storage layer by matching its path against the
//    log's mount table (fs type: gpfs/lustre -> PFS, xfs/dwfs -> in-system);
//  * when a file was accessed via MPI-IO or POSIX, the POSIX counters are the
//    data-transfer source of truth (MPI-IO initiates POSIX); files managed by
//    STDIO use the STDIO counters;
//  * a file is "single-shared" when its chosen module's record carries
//    rank == -1 (all processes participated) — only those records enter the
//    §3.4 performance analysis.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "darshan/log_format.hpp"
#include "darshan/record.hpp"
#include "util/flat_map.hpp"

namespace mlio::core {

/// The two-way layer split used throughout the paper's evaluation.
enum class Layer : std::uint8_t { kInSystem = 0, kPfs = 1 };
inline constexpr std::size_t kLayerCount = 2;

std::string_view layer_name(Layer layer);

/// Data interface that "manages" the file per §3.1.
enum class DataInterface : std::uint8_t { kPosix = 0, kStdio = 1 };

/// One file within one log, aggregated across ranks and modules.
struct FileSummary {
  std::uint64_t record_id = 0;
  Layer layer = Layer::kPfs;
  DataInterface data_iface = DataInterface::kPosix;

  bool used_posix = false;
  bool used_mpiio = false;
  bool used_stdio = false;

  std::uint64_t bytes_read = 0;
  std::uint64_t bytes_written = 0;
  /// Cumulative read/write seconds of the chosen module's records.
  double read_time = 0;
  double write_time = 0;
  /// The chosen module has a rank == -1 record (single-shared file).
  bool shared = false;

  /// POSIX request-size histograms (zero for STDIO-managed files — Darshan
  /// does not collect them, which is the gap Rec. 4 calls out).
  std::array<std::uint64_t, 10> req_read{};
  std::array<std::uint64_t, 10> req_write{};

  std::string_view path;  ///< borrowed from the LogData name map
};

/// Precomputed longest-prefix mount → layer table, memoized across logs:
/// every log from one system carries the identical mount list, so `ensure`
/// rebuilds only when the list actually changes (keyed by an FNV hash of the
/// entries, verified by full comparison against a stored copy on hit, so a
/// hash collision degrades to a rebuild, never a wrong answer).
///
/// `resolve` replicates the seed scan's semantics exactly: entries are kept
/// sorted by (prefix length desc, source index desc) and the first prefix
/// match wins — the same mount the seed's `>= best_len` last-match-wins scan
/// chose.  Mounts with unknown fs types stay in the table as "no layer"
/// markers, because they shadow shorter known mounts.
class MountTable {
 public:
  /// Make the table reflect `mounts`; cheap no-op when unchanged.
  void ensure(const std::vector<darshan::MountEntry>& mounts);
  std::optional<Layer> resolve(std::string_view path) const;

 private:
  struct PrefixEntry {
    std::string prefix;
    std::int8_t layer;  ///< Layer value, or -1 for unknown fs type
  };
  std::vector<PrefixEntry> entries_;          ///< (length desc, source index desc)
  std::vector<darshan::MountEntry> source_;   ///< copy for collision-safe hit check
  std::uint64_t key_ = 0;
  bool valid_ = false;
};

/// One file's records of one log, folded: the working state of summarize,
/// one per distinct record id.
struct FilePartial {
  bool posix_shared = false;
  bool stdio_shared = false;
  bool used_posix = false, used_mpiio = false, used_stdio = false;
  std::uint64_t posix_read = 0, posix_written = 0;
  std::uint64_t stdio_read = 0, stdio_written = 0;
  double posix_rt = 0, posix_wt = 0, stdio_rt = 0, stdio_wt = 0;
  std::array<std::uint64_t, 10> req_read{};
  std::array<std::uint64_t, 10> req_write{};
};

/// Reusable state for the scratch summarize overloads.  One instance per
/// worker thread; the per-file partials, the output summaries and the
/// memoized mount table are grown once and recycled across logs.
struct SummarizeScratch {
  util::FlatU64Map<FilePartial> partials;  ///< record id -> fold, stream order
  std::vector<FileSummary> files;          ///< recycled output of the last summarize
  MountTable mounts;
};

/// Summarize a log.  Files whose path matches no mount entry are dropped and
/// counted in `unattributed` (pass nullptr to ignore).  The reference
/// implementation: a hash map of partials, then a sort by record id.  The
/// scratch kernel below is checked against it.
std::vector<FileSummary> summarize_log(const darshan::LogData& log,
                                       std::uint64_t* unattributed = nullptr);

/// The summarize kernel, over a walked body (records read in place) or a
/// parsed log.  Records fold into one partial per record id in stream
/// order — the reference's per-id order, so every float sum is bit-identical
/// to it — and paths resolve through the memoized mount table.  Summaries
/// come out in order of each file's first record, not sorted by id: every
/// accumulator is order-free.  The returned reference aliases
/// `scratch.files` and is valid until the next summarize into the same
/// scratch (and, for a body, while its bytes are).
const std::vector<FileSummary>& summarize_log(const darshan::LogBody& body,
                                              SummarizeScratch& scratch,
                                              std::uint64_t* unattributed = nullptr);
const std::vector<FileSummary>& summarize_log(const darshan::LogData& log,
                                              SummarizeScratch& scratch,
                                              std::uint64_t* unattributed = nullptr);

}  // namespace mlio::core
