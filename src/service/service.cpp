#include "service/service.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <optional>
#include <string>
#include <thread>
#include <unordered_set>
#include <utility>

#include "core/snapshot.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace mlio::service {

namespace {
using SteadyClock = std::chrono::steady_clock;

double seconds_since(SteadyClock::time_point t0) {
  return std::chrono::duration<double>(SteadyClock::now() - t0).count();
}
}  // namespace

ArchiveService::ArchiveService(const std::filesystem::path& dir, const Options& opts,
                               util::Vfs& vfs)
    : archive_(archive::Archive::open(dir, vfs)),
      opts_(opts),
      ingester_(archive_, opts.stream),
      cache_(opts.cache),
      merged_(opts.merged) {
  published_ = std::make_shared<const archive::Manifest>(archive_.manifest());
  if (opts.merge_threads > 0) pool_ = std::make_unique<util::ThreadPool>(opts.merge_threads);
}

ArchiveService::ArchiveService(const std::filesystem::path& dir)
    : ArchiveService(dir, Options{}) {}

ArchiveService::~ArchiveService() {
  stop_compactor();
  // Any pins still alive here are use-after-free bugs in the caller; the
  // best we can do is drain the GC list unconditionally.  Logs buffered in
  // the open stream window were never promised durable — callers that want
  // them call stream_flush first.
  {
    const std::scoped_lock lock(pin_mu_);
    pinned_generations_.clear();
  }
  sweep_gc();
}

ArchiveService::Pin ArchiveService::pin() {
  const std::scoped_lock lock(pin_mu_);
  Pin p;
  p.manifest_ = published_;
  const auto it = pinned_generations_.insert(published_->generation);
  // The registration token unpins on destruction, from whichever thread
  // drops the last copy, then lets deferred GC advance.
  p.registration_ = std::shared_ptr<void>(nullptr, [this, it](void*) {
    {
      const std::scoped_lock inner(pin_mu_);
      pinned_generations_.erase(it);
    }
    sweep_gc();
  });
  return p;
}

std::uint64_t ArchiveService::generation() const {
  const std::scoped_lock lock(pin_mu_);
  return published_->generation;
}

std::size_t ArchiveService::deferred_gc_pending() const {
  const std::scoped_lock lock(gc_mu_);
  std::size_t n = 0;
  for (const DeferredGc& d : deferred_) n += d.files.size();
  return n;
}

std::vector<std::string> ArchiveService::gc_errors() const {
  const std::scoped_lock lock(gc_mu_);
  return gc_errors_;
}

void ArchiveService::publish_locked() {
  auto next = std::make_shared<const archive::Manifest>(archive_.manifest());
  {
    const std::scoped_lock lock(pin_mu_);
    published_ = next;
  }
  // Drop cache entries that name a partition the new manifest no longer
  // lists.  Entries for still-pinned older generations go too — by
  // definition those generations are on their way out, and correctness
  // never depends on the cache (a pinned reader just rebuilds).  An append
  // kills no partition, so a stream_append publish drops nothing and frees
  // no memoized answer: the get that extends an answer retires its base.
  std::unordered_set<CacheKey, SnapshotCache::KeyHash> live;
  live.reserve(next->partitions.size());
  for (const archive::PartitionInfo& p : next->partitions) {
    live.insert(CacheKey{p.id, p.data_generation});
  }
  const auto dead = [&](const CacheKey& k) { return !live.contains(k); };
  cache_.purge(dead);
  merged_.purge(dead);
}

void ArchiveService::carry_shards(std::span<const archive::Archive::CompactedRun> runs,
                                  ServiceStats* stats) {
  ServiceStats carried;
  for (const archive::Archive::CompactedRun& run : runs) {
    std::vector<std::shared_ptr<const core::Analysis>> inputs(run.inputs.size());
    bool warm = false;
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      const archive::PartitionInfo& p = run.inputs[i];
      inputs[i] = cache_.peek(CacheKey{p.id, p.data_generation});
      warm = warm || inputs[i] != nullptr;
    }
    // Nothing resident: no reader has asked, so stay lazy — the first get
    // scans the merged partition.
    if (!warm) continue;
    // The rest (typically the window cut just before this merge, which no
    // get has seen yet) resolve from their own files, still in place until
    // the publish: each log is scanned once instead of again inside the
    // merged partition.  The compaction is already durable, so a failure
    // here only forgoes the carry; the next get rescans and reports it.
    try {
      for (std::size_t i = 0; i < inputs.size(); ++i) {
        if (inputs[i] == nullptr) inputs[i] = resolve_shard(run.inputs[i], carried);
      }
    } catch (const util::Error&) {
      continue;
    }
    auto merged = std::make_shared<core::Analysis>();
    for (const auto& shard : inputs) merged->merge(*shard);
    const std::uint64_t bytes = core::serialized_analysis_bytes(*merged);
    cache_.insert(CacheKey{run.merged.id, run.merged.data_generation}, std::move(merged), bytes);
  }
  if (stats != nullptr) stats->merge(carried);
}

void ArchiveService::sweep_gc() {
  std::vector<DeferredGc> ready;
  {
    const std::scoped_lock gc_lock(gc_mu_);
    const std::scoped_lock pin_lock(pin_mu_);
    const std::uint64_t oldest_pin =
        pinned_generations_.empty() ? ~0ull : *pinned_generations_.begin();
    for (auto it = deferred_.begin(); it != deferred_.end();) {
      // A pin taken at generation >= publish_generation sees the merged
      // partitions, never the sources — only OLDER pins block deletion.
      if (oldest_pin >= it->publish_generation) {
        ready.push_back(std::move(*it));
        it = deferred_.erase(it);
      } else {
        ++it;
      }
    }
  }
  for (const DeferredGc& d : ready) {
    for (const std::filesystem::path& path : d.files) {
      try {
        archive_.vfs().remove(path);
      } catch (const util::IoError& e) {
        const std::scoped_lock lock(gc_mu_);
        gc_errors_.emplace_back(e.what());
        std::fprintf(stderr, "service: deferred gc: %s\n", e.what());
      }
    }
  }
}

bool ArchiveService::refresh_from_disk() {
  const std::scoped_lock writer_lock(writer_mu_);
  try {
    const archive::Manifest fresh =
        archive::read_manifest_bytes(archive_.vfs().read_file(archive_.manifest_path()));
    if (fresh.generation <= archive_.manifest().generation) return false;
  } catch (const util::Error&) {
    return false;
  }
  archive_.reload();
  publish_locked();
  return true;
}

std::shared_ptr<const core::Analysis> ArchiveService::resolve_shard(
    const archive::PartitionInfo& p, ServiceStats& stats) {
  const CacheKey key{p.id, p.data_generation};
  if (std::shared_ptr<const core::Analysis> hit = cache_.get(key)) {
    stats.query.cache_hits += 1;
    return hit;
  }
  // Clients are plain threads, so the reusable decode state lives in
  // thread_local storage instead of a worker-slot array.
  thread_local archive::ShardScratch scratch;
  std::shared_ptr<const core::Analysis> shard =
      archive::resolve_shard(archive_, p, scratch, stats.query);
  cache_.insert(key, shard, core::serialized_analysis_bytes(*shard));
  return shard;
}

std::vector<std::shared_ptr<const core::Analysis>> ArchiveService::resolve_all(
    std::span<const archive::PartitionInfo> parts, ServiceStats& stats) {
  std::vector<std::shared_ptr<const core::Analysis>> shards(parts.size());
  std::vector<std::optional<archive::Archive::SnapshotReceipt>> written(
      opts_.write_snapshots ? parts.size() : 0);
  const auto resolve = [&](std::size_t i, ServiceStats& s) {
    const std::uint64_t scanned = s.query.partitions_scanned;
    shards[i] = resolve_shard(parts[i], s);
    // Only rescans are written back: a snapshot hit is already on disk.
    // write_snapshot_file touches no shared state, so the thread that built
    // the shard writes it.
    if (opts_.write_snapshots && s.query.partitions_scanned != scanned) {
      written[i] = archive_.write_snapshot_file(parts[i], *shards[i]);
    }
  };
  if (pool_ == nullptr) {
    for (std::size_t i = 0; i < parts.size(); ++i) resolve(i, stats);
  } else {
    // Fan the resolutions out over the merge pool: every shard lands in its
    // own slot and the per-worker stats fold after the join, so the shards —
    // and therefore the fold — are bit-identical to the serial loop.
    std::vector<ServiceStats> worker_stats(pool_->thread_count());
    pool_->parallel_for_dynamic(
        0, parts.size(), 1, [&](std::uint64_t, std::uint64_t lo, std::uint64_t hi, unsigned w) {
          for (std::uint64_t i = lo; i < hi; ++i) resolve(i, worker_stats[w]);
        });
    for (const ServiceStats& ws : worker_stats) stats.merge(ws);
  }
  std::vector<archive::Archive::SnapshotReceipt> receipts;
  for (const std::optional<archive::Archive::SnapshotReceipt>& r : written) {
    if (r) receipts.push_back(*r);
  }
  if (!receipts.empty()) {
    // One manifest commit registers the batch, in partition order.
    const std::scoped_lock lock(writer_mu_);
    const std::size_t registered = archive_.commit_snapshots(receipts);
    stats.query.snapshots_written += registered;
    if (registered > 0) publish_locked();
  }
  return shards;
}

ArchiveService::GetResult ArchiveService::fold_pinned(const Pin& pin, std::size_t first,
                                                      bool keep_analysis) {
  MLIO_ASSERT(pin.valid());
  const auto t0 = SteadyClock::now();
  GetResult r;
  r.generation = pin.generation();
  r.pin = pin;
  r.stats.requests = 1;
  const std::span<const archive::PartitionInfo> parts =
      std::span<const archive::PartitionInfo>(pin.manifest().partitions).subspan(first);
  r.stats.query.partitions = parts.size();

  std::vector<CacheKey> identity;
  identity.reserve(parts.size());
  for (const archive::PartitionInfo& p : parts) {
    identity.push_back(CacheKey{p.id, p.data_generation});
  }

  // Exact hit: these very shards were folded before, under this or an
  // earlier manifest generation.
  const std::shared_ptr<const MergedResult> base = merged_.lookup(identity);
  if (base != nullptr && base->identity.size() == identity.size()) {
    r.stats.query.merged_hits = 1;
    r.fingerprint = base->fingerprint;
    if (keep_analysis) r.analysis = base->analysis;
    r.stats.query.total_seconds = seconds_since(t0);
    return r;
  }

  std::shared_ptr<const core::Analysis> merged;
  if (base != nullptr) {
    // Prefix: an append grew the run, so merged(prefix) ⊕ delta shards
    // continues the canonical left fold bit-identically.
    const std::size_t reused = base->identity.size();
    r.stats.query.partitions_reused = reused;
    r.stats.query.prefix_merges = 1;
    auto extended = std::make_shared<core::Analysis>(*base->analysis);
    for (const auto& shard : resolve_all(parts.subspan(reused), r.stats)) {
      extended->merge(*shard);
    }
    merged = std::move(extended);
  } else {
    // Full fold: resolve every shard (on the merge pool when configured)
    // and fold with the pinned-shape tree, bit-identical to the serial
    // left fold.
    r.stats.query.full_merges = 1;
    const std::vector<std::shared_ptr<const core::Analysis>> shards = resolve_all(parts, r.stats);
    std::vector<const core::Analysis*> ptrs;
    ptrs.reserve(shards.size());
    for (const auto& shard : shards) ptrs.push_back(shard.get());
    merged = std::make_shared<core::Analysis>(core::Analysis::merge_ordered(ptrs, pool_.get()));
    r.stats.query.tree_merges = pool_ != nullptr && ptrs.size() >= 2 ? 1 : 0;
  }
  r.fingerprint = merged->fingerprint();

  if (merged_.enabled()) {
    auto entry = std::make_shared<MergedResult>();
    entry->analysis = merged;
    entry->fingerprint = r.fingerprint;
    entry->identity = std::move(identity);
    merged_.insert(std::move(entry), core::serialized_analysis_bytes(*merged), base.get());
  }

  if (keep_analysis) r.analysis = std::move(merged);
  r.stats.query.total_seconds = seconds_since(t0);
  return r;
}

ArchiveService::GetResult ArchiveService::get_pinned(const Pin& pin, bool keep_analysis) {
  return get_window_pinned(pin, 0, keep_analysis);
}

ArchiveService::GetResult ArchiveService::get(bool keep_analysis) {
  return get_window(0, keep_analysis);
}

core::Analysis ArchiveService::replay_serial(const Pin& pin) const {
  return replay_serial_window(pin, 0);
}

ArchiveService::IngestResult ArchiveService::ingest(std::span<const ServiceFrame> frames,
                                                    ServiceStats* stats) {
  const std::scoped_lock lock(writer_mu_);
  if (stats != nullptr) stats->requests += 1;
  archive::Archive::PartitionWriter w = archive_.begin_partition();
  for (const ServiceFrame& f : frames) w.append_frame(f.job, f.bytes);
  IngestResult r;
  r.partition = w.seal();
  publish_locked();
  r.generation = archive_.manifest().generation;
  return r;
}

std::vector<archive::Archive::CompactedRun> ArchiveService::compact_planned(
    const Planner& planner, ServiceStats* stats) {
  std::vector<archive::Archive::CompactedRun> runs;
  {
    const std::scoped_lock lock(writer_mu_);
    if (stats != nullptr) stats->requests += 1;
    std::vector<std::filesystem::path> doomed;
    runs = archive_.compact(planner(archive_.manifest()), &doomed);
    carry_shards(runs, stats);
    if (!runs.empty()) publish_locked();
    if (!doomed.empty()) {
      const std::scoped_lock gc_lock(gc_mu_);
      deferred_.push_back(DeferredGc{archive_.manifest().generation, std::move(doomed)});
    }
  }
  sweep_gc();
  return runs;
}

std::size_t ArchiveService::compact(std::uint64_t max_logs, ServiceStats* stats) {
  const std::vector<archive::Archive::CompactedRun> runs = compact_planned(
      [max_logs](const archive::Manifest& m) { return archive::plan_small_runs(m, max_logs); },
      stats);
  std::size_t removed = 0;
  for (const archive::Archive::CompactedRun& run : runs) removed += run.inputs.size() - 1;
  return removed;
}

// ---- Continuous mode (DESIGN.md §14) --------------------------------------

ArchiveService::StreamResult ArchiveService::stream_append(std::span<const ServiceFrame> frames,
                                                           ServiceStats* stats) {
  const std::scoped_lock lock(writer_mu_);
  if (stats != nullptr) stats->requests += 1;
  StreamResult r;
  for (const ServiceFrame& f : frames) {
    if (std::optional<archive::PartitionInfo> cut = ingester_.append(f.job, f.bytes)) {
      r.published.push_back(*std::move(cut));
    }
  }
  if (!r.published.empty()) publish_locked();
  r.generation = archive_.manifest().generation;
  r.open_logs = ingester_.open_logs();
  return r;
}

ArchiveService::StreamResult ArchiveService::stream_flush(ServiceStats* stats) {
  const std::scoped_lock lock(writer_mu_);
  if (stats != nullptr) stats->requests += 1;
  StreamResult r;
  if (std::optional<archive::PartitionInfo> cut = ingester_.flush()) {
    r.published.push_back(*std::move(cut));
    publish_locked();
  }
  r.generation = archive_.manifest().generation;
  r.open_logs = ingester_.open_logs();
  return r;
}

archive::StreamStats ArchiveService::stream_stats() {
  const std::scoped_lock lock(writer_mu_);
  return ingester_.stats();
}

std::optional<archive::PartitionInfo> ArchiveService::compact_step(
    const archive::LeveledPolicy& policy, ServiceStats* stats) {
  const std::vector<archive::Archive::CompactedRun> runs = compact_planned(
      [&policy](const archive::Manifest& m) { return archive::plan_leveled(m, policy); }, stats);
  if (runs.empty()) return std::nullopt;
  return runs.front().merged;
}

void ArchiveService::start_compactor(const CompactorOptions& opts) {
  const std::scoped_lock lock(compactor_mu_);
  if (compactor_pool_ != nullptr) {
    throw util::ConfigError("service: background compactor is already running");
  }
  compactor_stop_ = false;
  compactor_pool_ = std::make_unique<util::ThreadPool>(1);
  compactor_pool_->submit([this, opts] { compactor_loop(opts); });
}

void ArchiveService::stop_compactor() {
  std::unique_ptr<util::ThreadPool> pool;
  {
    const std::scoped_lock lock(compactor_mu_);
    if (compactor_pool_ == nullptr) return;
    compactor_stop_ = true;
    pool = std::move(compactor_pool_);
  }
  compactor_cv_.notify_all();
  pool->wait_idle();
  pool.reset();  // joins the worker
}

bool ArchiveService::compactor_running() const {
  const std::scoped_lock lock(compactor_mu_);
  return compactor_pool_ != nullptr;
}

std::string ArchiveService::compactor_last_error() const {
  const std::scoped_lock lock(compactor_mu_);
  return compactor_last_error_;
}

void ArchiveService::compactor_loop(CompactorOptions opts) {
  // Runs as ONE long task on the dedicated pool; ThreadPool tasks must not
  // throw, so every iteration is fenced.  After a successful merge the loop
  // re-plans immediately — a cascade (level 0 fills level 1 fills level 2…)
  // drains without idling between steps.  A failure keeps its message and
  // waits out a doubling backoff, so a persistent fault (a full disk) costs
  // one attempt per kMaxCompactorBackoff instead of a spin at the idle
  // interval.
  std::chrono::milliseconds backoff = opts.interval;
  for (;;) {
    {
      const std::scoped_lock lock(compactor_mu_);
      if (compactor_stop_) return;
    }
    bool merged = false;
    std::optional<std::string> error;
    try {
      merged = compact_step(opts.policy).has_value();
      if (merged) compactions_.fetch_add(1, std::memory_order_relaxed);
    } catch (const std::exception& e) {
      error = e.what();
    } catch (...) {
      error = "unknown exception";
    }
    if (!error) {
      backoff = opts.interval;
      if (merged) continue;
    } else {
      backoff = std::min(kMaxCompactorBackoff,
                         std::max(2 * backoff, std::chrono::milliseconds(1)));
    }
    std::unique_lock<std::mutex> lock(compactor_mu_);
    if (error) {
      compactor_errors_.fetch_add(1, std::memory_order_relaxed);
      compactor_last_error_ = std::move(*error);
    }
    compactor_cv_.wait_for(lock, backoff, [this] { return compactor_stop_; });
    if (compactor_stop_) return;
  }
}

ArchiveService::GetResult ArchiveService::get_window_pinned(const Pin& pin,
                                                            std::uint64_t last_windows,
                                                            bool keep_analysis) {
  MLIO_ASSERT(pin.valid());
  const archive::WindowSelection sel =
      archive::select_last_windows(pin.manifest(), last_windows);
  GetResult r = fold_pinned(pin, sel.first, keep_analysis);
  r.windows = sel;
  return r;
}

ArchiveService::GetResult ArchiveService::get_window(std::uint64_t last_windows,
                                                     bool keep_analysis) {
  for (unsigned attempt = 0;; ++attempt) {
    try {
      GetResult r = get_window_pinned(pin(), last_windows, keep_analysis);
      r.stats.stale_retries += attempt;
      return r;
    } catch (const util::IoError&) {
      // Our own GC can't outrun a live pin, so a vanished file means an
      // external publish: resync from disk and retry, bounded.
      if (attempt >= kMaxStaleRetries || !refresh_from_disk()) throw;
    }
  }
}

ArchiveService::Options query_options(unsigned threads, bool write_back,
                                      std::uint64_t last_windows) {
  ArchiveService::Options o;
  o.merge_threads = threads > 0 ? threads : std::max(1u, std::thread::hardware_concurrency());
  o.write_snapshots = write_back && last_windows == 0;
  return o;
}

core::Analysis ArchiveService::replay_serial_window(const Pin& pin,
                                                    std::uint64_t last_windows) const {
  MLIO_ASSERT(pin.valid());
  const archive::WindowSelection sel =
      archive::select_last_windows(pin.manifest(), last_windows);
  const std::vector<archive::PartitionInfo>& parts = pin.manifest().partitions;
  core::Analysis replay;
  archive::Archive::ScanScratch scratch;
  archive::ScanOptions scan_opts;
  scan_opts.mlp_depth = 1;
  for (std::size_t i = sel.first; i < parts.size(); ++i) {
    core::Analysis shard;
    archive_.scan_partition(
        parts[i], [&](const darshan::LogData& log) { shard.add(log); }, scratch, scan_opts);
    replay.merge(shard);
  }
  return replay;
}

}  // namespace mlio::service
