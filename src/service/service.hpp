// In-process, multi-threaded archive query service (DESIGN.md §11).
//
// One ArchiveService owns one archive directory and serves many concurrent
// reader threads while a single logical writer (ingest / compact, serialized
// internally) advances the manifest.  Isolation is MVCC by construction:
//
//   * Readers pin() an immutable snapshot of the manifest (a shared_ptr copy
//     — no lock held during the query).  Segment and snapshot files are
//     never modified in place, only atomically replaced or added, so a
//     pinned manifest describes a frozen, fully consistent archive: a get()
//     at generation G is bit-identical to a serial replay of G no matter
//     what the writer publishes meanwhile (the MVCC-under-load test pins
//     exactly that property).
//   * The writer publishes by committing through the Archive's
//     manifest-last protocol, then swapping the service's current manifest
//     pointer.  Compaction garbage-collection is DEFERRED: replaced files
//     join a generation-stamped GC list and are deleted only when no live
//     pin is older than the publishing generation, so the service's own
//     readers can never lose the compaction race.  (An *external*
//     compactor — another process compacting the same directory — can: it
//     shows up in get() as an IoError on a vanished file, and get()
//     recovers by reloading the manifest from disk and re-pinning, at most
//     kMaxStaleRetries times.)
//
// All readers share one bounded SnapshotCache of analysis shards keyed by
// (partition id, data generation); a shard miss goes to the archive's one
// resolver (archive::resolve_shard: the on-disk snapshot, else a segment
// rescan), and the result is offered back to the cache charged at its
// serialized size.  This is the archive's one query engine: `mlio_archive
// query`, `serve`, the live soak and the repo benchmark all answer through
// get_window.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "archive/archive.hpp"
#include "archive/query.hpp"
#include "archive/scan.hpp"
#include "archive/stream.hpp"
#include "service/cache.hpp"
#include "util/vfs.hpp"

namespace mlio::util {
class ThreadPool;
}  // namespace mlio::util

namespace mlio::service {

/// One pre-serialized log ready for ingestion: the framed bytes plus the job
/// record the partition index needs.  The closed-loop driver captures a pool
/// of these once so ingest requests cost an append, not a generation.
struct ServiceFrame {
  darshan::JobRecord job;
  std::vector<std::byte> bytes;
};

/// Per-request telemetry.  Embeds the query engine's QueryStats so the
/// service and its callers share one definition of every counter — in
/// particular cache_hit_rate().
struct ServiceStats {
  archive::QueryStats query;
  std::uint64_t requests = 0;       ///< requests folded into this instance
  std::uint64_t stale_retries = 0;  ///< re-pins after losing a GC race

  void merge(const ServiceStats& other) {
    query.merge(other.query);
    requests += other.requests;
    stale_retries += other.stale_retries;
  }
};

class ArchiveService {
 public:
  struct Options {
    SnapshotCache::Options cache;
    /// Answer memo keyed by folded identity, shared by whole and windowed
    /// gets (DESIGN.md §12).
    /// capacity_bytes = 0 turns memoization AND incremental prefix merging
    /// off — every get resolves and merges all P shards, linear in the
    /// partition count.
    MergedResultCache::Options merged;
    /// Workers for full merges: shard resolution fans out over a pool and
    /// the fold runs as a fixed-shape tree (Analysis::merge_ordered — bits
    /// pinned to the serial fold at any thread count).  0 keeps both
    /// serial, which is right when client threads already saturate the
    /// machine.
    unsigned merge_threads = 0;
    /// Write back: each shard a get rebuilds from its segment is written
    /// as the partition's snapshot file by the thread that built it, and
    /// the batch is registered in ONE manifest commit after the get's
    /// resolutions join, so the next cold get (this process or another) is
    /// all snapshot hits.  Off by default, which keeps gets read-only: the
    /// generation never moves under a reader.  Meant for one get at a time
    /// (mlio_archive query's single cold get): two gets rescanning the
    /// same partition at once would both write its snapshot file.
    bool write_snapshots = false;
    /// Continuous mode: window cuts and caps for stream_append (archive/
    /// stream.hpp).  Only consulted by the streaming entry points.
    archive::StreamOptions stream;
  };

  /// Opens an existing archive (throws like Archive::open).  The Vfs must
  /// outlive the service.
  explicit ArchiveService(const std::filesystem::path& dir, const Options& opts,
                          util::Vfs& vfs = util::real_vfs());
  explicit ArchiveService(const std::filesystem::path& dir);
  ~ArchiveService();

  ArchiveService(const ArchiveService&) = delete;
  ArchiveService& operator=(const ArchiveService&) = delete;

  /// A pinned manifest generation.  Copyable and cheap; the pinned
  /// generation's files are GC-protected for as long as any copy lives.
  /// Pins must not outlive the service.
  class Pin {
   public:
    Pin() = default;
    const archive::Manifest& manifest() const { return *manifest_; }
    std::uint64_t generation() const { return manifest_ ? manifest_->generation : 0; }
    bool valid() const { return manifest_ != nullptr; }

   private:
    friend class ArchiveService;
    std::shared_ptr<const archive::Manifest> manifest_;
    std::shared_ptr<void> registration_;  ///< deleter unregisters + sweeps GC
  };

  /// Pin the current generation (readers may also just call get()).
  Pin pin();

  /// get() and get_window() re-pin and retry this many times on a stale
  /// read (a file gone under a newer on-disk manifest) before letting the
  /// IoError out.
  static constexpr unsigned kMaxStaleRetries = 3;

  struct GetResult {
    std::uint64_t fingerprint = 0;
    std::uint64_t generation = 0;
    ServiceStats stats;  ///< this request only
    Pin pin;             ///< the generation the answer reflects
    /// The merged analysis; populated only when requested (it is the answer
    /// a real client would consume, but the bench only needs the digest).
    std::shared_ptr<const core::Analysis> analysis;
    /// Which partition suffix answered, and the window span it honestly
    /// covers; a whole-archive get reports the whole-archive selection
    /// (select_last_windows with last_windows == 0).
    archive::WindowSelection windows;
  };

  /// Answer a whole-archive query at the current generation: get_window(0).
  /// Thread-safe; any number of concurrent callers.  Retries internally on
  /// a stale read.
  GetResult get(bool keep_analysis = false);

  /// Same, but against an explicit pin (no retry — the pin's files are
  /// GC-protected, so a stale read here means an external actor interfered).
  GetResult get_pinned(const Pin& pin, bool keep_analysis = false);

  /// The verification oracle: a serial, cache-free, snapshot-free replay of
  /// a pinned generation — replay_serial_window(pin, 0).  Concurrent get()
  /// answers for that generation must match its fingerprint bit for bit.
  core::Analysis replay_serial(const Pin& pin) const;

  struct IngestResult {
    archive::PartitionInfo partition;
    std::uint64_t generation = 0;  ///< generation after the publish
  };

  /// Append one partition (writer path; serialized internally).
  IngestResult ingest(std::span<const ServiceFrame> frames, ServiceStats* stats = nullptr);

  /// Merge every run of small partitions (archive::plan_small_runs) with
  /// deferred GC (writer path; serialized internally).  Returns the number
  /// of partitions removed.
  std::size_t compact(std::uint64_t max_logs, ServiceStats* stats = nullptr);

  // ---- Continuous mode (DESIGN.md §14) -----------------------------------

  struct StreamResult {
    /// Windows cut and committed by this call (one generation bump each).
    std::vector<archive::PartitionInfo> published;
    std::uint64_t generation = 0;  ///< generation after any publishes
    std::uint64_t open_logs = 0;   ///< logs still buffered in the open window
  };

  /// Append frames to the open time window (writer path; serialized
  /// internally with ingest/compact/the background compactor).  Windows cut
  /// on boundaries or caps per Options::stream; each cut publishes through
  /// the group-commit path and readers observe it on their next pin.
  StreamResult stream_append(std::span<const ServiceFrame> frames, ServiceStats* stats = nullptr);

  /// Cut and publish the open window regardless of boundaries (end of a
  /// feed, or a shutdown that must not drop buffered logs).
  StreamResult stream_flush(ServiceStats* stats = nullptr);

  /// Streaming telemetry snapshot (taken under the writer lock).
  archive::StreamStats stream_stats();

  struct CompactorOptions {
    archive::LeveledPolicy policy;
    /// Idle poll period: how long the background thread sleeps after finding
    /// nothing mergeable.  After a successful merge it re-plans immediately
    /// (cascading merges drain without waiting).
    std::chrono::milliseconds interval{2};
  };

  /// Start the background leveled compactor — one long-running task on a
  /// dedicated util::ThreadPool worker, looping compact_step against the
  /// live manifest under the writer lock, racing stream_append
  /// and pinned readers safely via the MVCC deferred-GC machinery.  Throws
  /// ConfigError if already running.
  void start_compactor(const CompactorOptions& opts);
  void start_compactor() { start_compactor(CompactorOptions{}); }
  /// Signal, join, and discard the background compactor.  Idempotent; the
  /// destructor calls it.
  void stop_compactor();
  bool compactor_running() const;
  /// Successful background merges since start (across restarts).
  std::uint64_t compactions() const { return compactions_.load(std::memory_order_relaxed); }
  /// Background iterations that threw.  The loop keeps going, but backs
  /// off: each consecutive failure doubles the wait before the next try, up
  /// to kMaxCompactorBackoff, and an iteration that does not throw resets it.
  std::uint64_t compactor_errors() const {
    return compactor_errors_.load(std::memory_order_relaxed);
  }
  /// The message of the most recent background iteration that threw; empty
  /// while none has.
  std::string compactor_last_error() const;
  static constexpr std::chrono::milliseconds kMaxCompactorBackoff{1000};

  /// One leveled compaction step inline (the loop body; also the
  /// deterministic entry tests drive directly).  Returns the merged
  /// partition, or nullopt when no level holds a full fanout run.
  std::optional<archive::PartitionInfo> compact_step(const archive::LeveledPolicy& policy,
                                                     ServiceStats* stats = nullptr);

  /// Windowed get: "Table 2 for the last N windows" — fold only the
  /// partition suffix select_last_windows picks, through the shared shard
  /// cache and answer memo.  last_windows == 0 means the whole archive.
  /// Retries internally on a stale read, at most kMaxStaleRetries times.
  GetResult get_window(std::uint64_t last_windows, bool keep_analysis = false);
  /// Same, against an explicit pin (no retry).
  GetResult get_window_pinned(const Pin& pin, std::uint64_t last_windows,
                              bool keep_analysis = false);

  /// Windowed verification oracle: serial, cache-free, snapshot-free replay
  /// of the pinned generation's selected suffix — every shard rebuilt from
  /// its segment at mlp_depth 1 through the LogData reader
  /// (Archive::scan_partition), left-folded in manifest order.  Every
  /// concurrent get_window answer for (generation, last_windows) must match
  /// its fingerprint bit for bit.  It checks the cache, memo, pool and
  /// merge tree, not the read kernel: both paths decode through scan_bodies
  /// and darshan::walk_log_body.  The kernel is checked against the
  /// writer's input instead, by the pipeline oracle (the archive's answer
  /// equals run_pipeline's) and by test_ingest_differential.
  core::Analysis replay_serial_window(const Pin& pin, std::uint64_t last_windows) const;

  std::uint64_t generation() const;
  /// The archive handle, for read-only scans of a pinned manifest's
  /// partitions (archive::window_timeline).  Its own manifest() belongs to
  /// the writer and moves under it: read the pin's.
  const archive::Archive& archive() const { return archive_; }
  CacheCounters cache_counters() const { return cache_.counters(); }
  CacheCounters merged_counters() const { return merged_.counters(); }
  /// Files awaiting pin-gated deletion (tests assert it drains to 0).
  std::size_t deferred_gc_pending() const;
  /// Failed deferred-GC removals (non-fatal, mirrors Archive::gc_errors).
  std::vector<std::string> gc_errors() const;

 private:
  struct DeferredGc {
    std::uint64_t publish_generation = 0;  ///< safe to delete once no pin is older
    std::vector<std::filesystem::path> files;
  };

  /// Swap the published manifest to the archive's current state and purge
  /// cache entries the new manifest no longer references.  Caller holds
  /// writer_mu_.
  void publish_locked();
  /// Cache each compaction output's shard as the merge of its inputs'
  /// shards (DESIGN.md §12.3).  The analysis state is cut-invariant, so
  /// that merge has exactly the bits a rescan of the merged partition
  /// would produce.  A run with no input resident in the shard cache is
  /// skipped; inputs that are not resident resolve through resolve_shard
  /// (counted in `stats` when given).  Caller holds writer_mu_ and runs this
  /// before publish_locked purges the inputs.
  void carry_shards(std::span<const archive::Archive::CompactedRun> runs, ServiceStats* stats);
  using Planner = std::function<std::vector<archive::CompactionPlan>(const archive::Manifest&)>;
  /// The one compaction body of compact() and compact_step(): under the
  /// writer lock, plan against the live manifest, execute the plans with
  /// deferred GC, carry the inputs' shards, publish when a run merged and
  /// queue the replaced files; then sweep.  Returns the executed runs.
  std::vector<archive::Archive::CompactedRun> compact_planned(const Planner& planner,
                                                              ServiceStats* stats);
  /// Delete deferred files whose publishing generation no pin predates.
  void sweep_gc();
  /// Reload the manifest from disk if another process advanced it; returns
  /// true when the published generation moved.
  bool refresh_from_disk();

  /// Resolve one partition's shard: the shared cache, else
  /// archive::resolve_shard (disk snapshot, else rescan) with this thread's
  /// scratch, offered back to the cache.
  std::shared_ptr<const core::Analysis> resolve_shard(const archive::PartitionInfo& p,
                                                      ServiceStats& stats);
  /// Resolve every shard of `parts`, on the merge pool when one is
  /// configured (per-worker stats folded after the join; a failure
  /// surfaces as the lowest-indexed partition's error), serially
  /// otherwise.  With Options::write_snapshots, the rescanned shards are
  /// written back and committed (under writer_mu_, then published) before
  /// it returns.
  std::vector<std::shared_ptr<const core::Analysis>> resolve_all(
      std::span<const archive::PartitionInfo> parts, ServiceStats& stats);
  /// The one fold path of get_pinned and get_window_pinned: the left fold
  /// of `pin`'s partitions[first..], served from the identity-keyed memo —
  /// exact hit, else extend the longest resident prefix, else a full fold.
  GetResult fold_pinned(const Pin& pin, std::size_t first, bool keep_analysis);

  /// Body of the background compactor task (runs on compactor_pool_).
  void compactor_loop(CompactorOptions opts);

  archive::Archive archive_;  ///< manifest mutated only under writer_mu_
  Options opts_;
  archive::StreamIngester ingester_;  ///< open-window buffer; under writer_mu_

  mutable std::mutex pin_mu_;  ///< guards published_ and pinned_generations_
  std::shared_ptr<const archive::Manifest> published_;
  std::multiset<std::uint64_t> pinned_generations_;

  std::mutex writer_mu_;          ///< serializes ingest/compact/publish
  mutable std::mutex gc_mu_;      ///< guards deferred_ and gc_errors_
  std::vector<DeferredGc> deferred_;
  std::vector<std::string> gc_errors_;

  SnapshotCache cache_;
  MergedResultCache merged_;
  std::unique_ptr<util::ThreadPool> pool_;  ///< merge pool; null when serial

  /// Background compactor: a 1-worker pool running compactor_loop until
  /// stop_compactor flips the flag under compactor_mu_.
  std::unique_ptr<util::ThreadPool> compactor_pool_;
  mutable std::mutex compactor_mu_;  ///< guards compactor_pool_, _stop_, _last_error_
  std::condition_variable compactor_cv_;
  bool compactor_stop_ = false;
  std::string compactor_last_error_;
  std::atomic<std::uint64_t> compactions_{0};
  std::atomic<std::uint64_t> compactor_errors_{0};
};

/// The options of one cold query as `mlio_archive query` runs it: `threads`
/// merge workers (0 = every core) and snapshot write-back when `write_back`
/// is set and the query covers the whole archive (`last_windows` == 0).  A
/// windowed query writes nothing.
ArchiveService::Options query_options(unsigned threads, bool write_back,
                                      std::uint64_t last_windows);

}  // namespace mlio::service
