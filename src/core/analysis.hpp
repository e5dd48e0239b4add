// Facade bundling every §3 analysis over a stream of Darshan logs.
//
// Constant memory per log (aside from the distinct-job maps, bounded by the
// generated job count); mergeable, so parallel pipelines keep one Analysis
// per chunk and fold them in chunk order for deterministic output.
#pragma once

#include <span>

#include "core/access_patterns.hpp"
#include "core/dataset.hpp"
#include "core/interface_usage.hpp"
#include "core/layer_usage.hpp"
#include "core/performance.hpp"
#include "core/summary.hpp"

namespace mlio::util {
class ByteReader;
class ByteWriter;
class ThreadPool;
}  // namespace mlio::util

namespace mlio::core {

/// Optional per-phase wall-clock accounting for the scratch ingest path.
/// Timing costs two clock reads per log, so it is off unless a consumer
/// (query_archive) points the scratch at one of these.
struct AnalyzePhases {
  double summarize_seconds = 0;
  double accumulate_seconds = 0;
};

/// Per-worker state for the allocation-free Analysis::add overload.
struct AnalyzeScratch {
  SummarizeScratch summarize;
  AnalyzePhases* phases = nullptr;  ///< non-owning; null disables timing
};

/// Telemetry from Analysis::merge_ordered — which path produced the bits.
struct MergeTreeStats {
  bool used_tree = false;    ///< pairwise tree (false: serial left fold)
  std::uint64_t pair_merges = 0;
  /// Performance reservoir cells whose combined counts overflow their
  /// sample capacity — replacement draws are order-sensitive there, so the
  /// tree patches exactly those cells from a serial re-fold (the rest of
  /// the state is exactly associative and keeps its tree-merged bits).
  std::uint64_t patched_cells = 0;
  /// patched_cells > 0: some reservoirs needed the serial re-fold.
  bool reservoir_fallback = false;
};

class Analysis {
 public:
  /// Consume one log (summarizes it once and feeds every accumulator).
  void add(const darshan::LogData& log);
  /// Scratch-reused variant: zero steady-state allocations per log, results
  /// bit-identical to the plain overload (same fingerprint).
  void add(const darshan::LogData& log, AnalyzeScratch& scratch);
  void merge(const Analysis& other);

  /// Merge `shards` in index order, bit-identical to the serial left fold
  /// (`Analysis{}` then merge(shards[0]), merge(shards[1]), ...) — the
  /// archive's canonical partition-order merge.  With a pool, the
  /// associative bulk of the state runs as a fixed-shape binary tree whose
  /// association order is a pure function of shards.size() (never of thread
  /// count or timing), while the one order-sensitive float sum (node-hours)
  /// is re-folded serially and patched in.  The identity to the left fold
  /// holds because, below reservoir sampling capacity, every other
  /// accumulator merge is sample concatenation, integer adds, ordered-map
  /// unions, and min/max — exactly associative (pinned by
  /// test_merge_properties); reservoir cells at capacity are patched from a
  /// serial re-fold of just those cells (MergeTreeStats::patched_cells), so
  /// the tree engages even on saturated archives.  Domain byte totals are
  /// integer-valued doubles, exact below 2^53 bytes (~9 PB) per domain.
  /// `pool == nullptr` runs the serial fold directly.
  static Analysis merge_ordered(std::span<const Analysis* const> shards,
                                util::ThreadPool* pool = nullptr,
                                MergeTreeStats* tree_stats = nullptr);

  /// Full-fidelity state serialization: every accumulator — counts,
  /// histogram bins, distinct-job maps, and the performance reservoirs
  /// including their Rng positions — round-trips exactly, so a loaded
  /// Analysis adds, merges, and fingerprints bit-identically to the
  /// original.  The byte stream is canonical (unordered containers are
  /// emitted in sorted key order): equal states produce equal bytes.
  /// Framed on-disk snapshots (magic, version, checksum, compression) are
  /// provided by core/snapshot.hpp on top of these.
  void save(util::ByteWriter& w) const;
  /// Throws util::FormatError on structurally invalid input.
  void load(util::ByteReader& r);
  /// Byte count save() would write, from container sizes alone.
  std::uint64_t serialized_size() const;

  const Summary& summary() const { return summary_; }
  const AccessPatterns& access() const { return access_; }
  const LayerUsage& layers() const { return layers_; }
  const InterfaceUsage& interfaces() const { return interfaces_; }
  const Performance& performance() const { return performance_; }

  /// Files whose paths matched no mount entry (should be zero here; nonzero
  /// on real logs means /home, /tmp, etc.).
  std::uint64_t unattributed_files() const { return unattributed_; }

  /// Order-sensitive digest of every accumulator: summary counts, per-layer
  /// volumes, every histogram bin, interface censuses, and the performance
  /// five-number summaries (doubles hashed bit-for-bit).  Two pipelines that
  /// produce the same fingerprint produced bit-identical analyses — the
  /// determinism contract checked across thread counts.
  std::uint64_t fingerprint() const;

  /// Total simulated traffic (bytes read + written) across all layers.
  double total_bytes() const;

 private:
  void accumulate(const darshan::JobRecord& job, const std::vector<FileSummary>& files);

  Summary summary_;
  AccessPatterns access_;
  LayerUsage layers_;
  InterfaceUsage interfaces_;
  Performance performance_;
  std::uint64_t unattributed_ = 0;
};

}  // namespace mlio::core
