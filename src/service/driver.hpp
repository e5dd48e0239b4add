// Closed-loop workload driver for ArchiveService (DESIGN.md §11).
//
// Modeled on memcached-style load generators: a fixed pool of client
// threads, each issuing its next request only after the previous one
// completes (closed loop), drawing request kinds from a seeded weighted mix
// of get / ingest / compact.  Each client runs an unrecorded warmup phase,
// then all clients cross a start barrier together and the measured phase is
// timed as one wall-clock interval — so throughput is requests / wall and
// latency histograms only contain steady-state samples.
//
// Verification: every measured get() records (generation, fingerprint)
// and the FIRST pin observed for each generation is retained, which blocks
// deferred GC for that generation's files.  After the run, each distinct
// generation is replayed serially (ArchiveService::replay_serial — cache
// free, snapshot free, mlp_depth 1) and every concurrent answer must match
// the replay bit for bit.  A divergence is a correctness bug in the
// concurrent path (shard cache, answer memo, pins, merge tree), and
// `mlio_archive serve` exits nonzero on it.  The replay decodes through the
// same scan_bodies and walk_log_body as the resolver, so it cannot catch a
// read-kernel bug; the pipeline oracle and test_ingest_differential check
// the kernel against the writer's input.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "service/service.hpp"
#include "util/latency.hpp"

namespace mlio::service {

struct WorkloadConfig {
  unsigned clients = 4;
  std::uint64_t requests_per_client = 64;  ///< measured requests per thread
  std::uint64_t warmup_per_client = 8;     ///< unrecorded gets before the barrier
  std::uint64_t seed = 42;                 ///< per-client streams derive from this

  /// Request-mix weights (relative, need not sum to anything).
  unsigned weight_get = 90;
  unsigned weight_ingest = 8;
  unsigned weight_compact = 2;

  std::uint64_t logs_per_ingest = 4;    ///< frames appended per ingest request
  std::uint64_t compact_max_logs = 48;  ///< Archive::compact threshold
};

struct WorkloadReport {
  unsigned clients = 0;
  double wall_seconds = 0;     ///< measured phase only (post-barrier)
  std::uint64_t requests = 0;  ///< measured requests, all kinds
  std::uint64_t gets = 0;
  std::uint64_t ingests = 0;
  std::uint64_t compacts = 0;

  util::LatencyHistogram get_latency;
  util::LatencyHistogram ingest_latency;
  util::LatencyHistogram compact_latency;

  ServiceStats stats;   ///< merged over every measured request
  CacheCounters cache;  ///< final cache snapshot (whole service life)

  std::uint64_t generations_observed = 0;  ///< distinct generations answered at
  std::uint64_t verified_generations = 0;  ///< generations serially replayed
  std::uint64_t divergent = 0;             ///< answers that contradicted the replay

  double throughput_rps() const {
    return wall_seconds > 0 ? static_cast<double>(requests) / wall_seconds : 0;
  }
  bool ok() const { return divergent == 0; }
};

/// Pre-serialize a pool of frames for ingest requests (deterministic in
/// seed; the driver cycles through it so ingest costs an append, not a
/// workload generation).
std::vector<ServiceFrame> make_frame_pool(std::uint64_t n_jobs, std::uint64_t seed);

/// Run the closed loop against a live service.  The frame pool must be
/// non-empty when weight_ingest > 0.
WorkloadReport run_closed_loop(ArchiveService& service, const WorkloadConfig& cfg,
                               const std::vector<ServiceFrame>& frame_pool);

// ---- Live mode (DESIGN.md §14) -------------------------------------------
//
// One feeder thread streams the frame pool in arrival order through
// stream_append (a single logical stream — window cuts depend on arrival
// order, so the feed is never sharded), while reader threads issue windowed
// gets and the service's background leveled compactor merges history
// underneath both.  Verification mirrors run_closed_loop: the first pin per
// observed generation is retained, and after the run every windowed answer
// is confronted with replay_serial_window of its pinned generation — the
// serial, cache-free oracle.  Bit-identity must hold across every
// ingest/compactor interleaving.

struct LiveConfig {
  unsigned readers = 2;               ///< windowed-get client threads
  std::uint64_t logs_per_append = 4;  ///< frames per stream_append call
  std::uint64_t seed = 42;
  std::uint64_t last_windows = 4;  ///< windowed query span (0 = whole archive)
  ArchiveService::CompactorOptions compactor;  ///< background policy + poll
};

struct LiveReport {
  double wall_seconds = 0;  ///< feed start to last reader join
  std::uint64_t logs_streamed = 0;
  std::uint64_t appends = 0;            ///< stream_append calls
  std::uint64_t windows_published = 0;  ///< window cuts committed (incl. final flush)
  std::uint64_t window_gets = 0;
  std::uint64_t compactions = 0;        ///< background merges during the soak
  std::uint64_t compactor_errors = 0;
  std::uint64_t final_partitions = 0;   ///< live partition count after the soak
  std::uint64_t newest_window = 0;      ///< window span ingested
  archive::StreamStats stream;          ///< ingester telemetry (cuts, late logs)

  util::LatencyHistogram append_latency;
  util::LatencyHistogram get_latency;
  ServiceStats stats;  ///< merged over every measured windowed get

  std::uint64_t generations_observed = 0;
  std::uint64_t verified_generations = 0;
  std::uint64_t divergent = 0;        ///< windowed answers contradicting the replay
  std::uint64_t gc_pending_after = 0; ///< deferred-GC files left once pins dropped

  double logs_per_second() const {
    return wall_seconds > 0 ? static_cast<double>(logs_streamed) / wall_seconds : 0;
  }
  bool ok() const { return divergent == 0 && gc_pending_after == 0; }
};

/// Run the live soak: stream `frame_pool` through the service's open window
/// while `cfg.readers` clients hammer get_window and the background
/// compactor races both.  Flushes the open window at the end, stops the
/// compactor, drains the leveled policy in the foreground (so the final
/// partition count is the policy's fixed point), then runs the replay
/// oracle.  The service must not already have a running compactor.
LiveReport run_live_soak(ArchiveService& service, const LiveConfig& cfg,
                         const std::vector<ServiceFrame>& frame_pool);

}  // namespace mlio::service
