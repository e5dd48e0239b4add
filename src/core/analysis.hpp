// Facade bundling every §3 analysis over a stream of Darshan logs.
//
// Constant memory per log (aside from the distinct-job maps, bounded by the
// generated job count); mergeable in any order and grouping with the same
// bits, so parallel pipelines and archive partitions keep one Analysis per
// chunk and fold them however is convenient.
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

/// Per-worker state for the scratch Analysis::add overloads.
struct AnalyzeScratch {
  SummarizeScratch summarize;
};

class Analysis {
 public:
  /// Consume one log (summarizes it once and feeds every accumulator).  The
  /// reference path, which the kernel below is checked against.
  void add(const darshan::LogData& log);
  /// The read kernel: consume a walked log body in place, through the
  /// scratch summarize — no LogData, no per-log allocation.  Same state,
  /// bit for bit, as add(read_log_bytes(frame)) of the body's frame.
  void add(const darshan::LogBody& body, AnalyzeScratch& scratch);
  /// The same kernel over a parsed log.
  void add(const darshan::LogData& log, AnalyzeScratch& scratch);
  void merge(const Analysis& other);

  /// Put every sample cell below capacity into value order.  No state or
  /// save() byte changes; a shard about to be shared calls it once so that
  /// merges and boxplots reading it need not sort a copy each time.
  void order_samples();

  /// Merge `shards`, bit-identical to the serial left fold (`Analysis{}`
  /// then merge(shards[0]), merge(shards[1]), ...).  Every accumulator is
  /// exact and order-free — integer counts and sums, ordered-map unions,
  /// min/max and keyed bottom-k samples — so any cut of a log stream into
  /// shards, folded in any order or tree shape, gives the same bits
  /// (pinned by test_merge_properties).  With a pool the fold runs as a
  /// parallel binary tree; `pool == nullptr` folds serially.
  static Analysis merge_ordered(std::span<const Analysis* const> shards,
                                util::ThreadPool* pool = nullptr);

  /// Full-fidelity state serialization: every accumulator — counts,
  /// histogram bins, distinct-job maps, exact sums and the performance
  /// samples — round-trips exactly, so a loaded
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

  /// Digest of every accumulator: summary counts, exact node-seconds and
  /// byte totals, every histogram bin, interface censuses, and the
  /// performance five-number summaries (doubles hashed bit-for-bit).  Two pipelines that
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
