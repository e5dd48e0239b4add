#include "service/driver.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <latch>
#include <mutex>
#include <thread>
#include <unordered_map>

#include "util/error.hpp"
#include "util/rng.hpp"
#include "workload/generator.hpp"
#include "workload/pipeline.hpp"

namespace mlio::service {

namespace {
using SteadyClock = std::chrono::steady_clock;

std::uint64_t ns_since(SteadyClock::time_point t0) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(SteadyClock::now() - t0).count());
}

/// What each generation's concurrent answers claimed, plus the pin that
/// keeps its files alive until the post-run replay.
struct GenerationEvidence {
  ArchiveService::Pin pin;  ///< first pin observed at this generation
  std::unordered_map<std::uint64_t, std::uint64_t> fingerprints;  ///< value -> count
};

/// Per-client accumulation, merged by the main thread after join so the
/// measured phase shares nothing across clients but the service itself.
struct ClientState {
  util::LatencyHistogram get_latency;
  util::LatencyHistogram ingest_latency;
  util::LatencyHistogram compact_latency;
  ServiceStats stats;
  std::uint64_t gets = 0;
  std::uint64_t ingests = 0;
  std::uint64_t compacts = 0;
};
}  // namespace

std::vector<ServiceFrame> make_frame_pool(std::uint64_t n_jobs, std::uint64_t seed) {
  wl::GeneratorConfig cfg;
  cfg.seed = seed;
  cfg.n_jobs = n_jobs;
  cfg.logs_per_job_scale = 0.2;
  cfg.files_per_log_scale = 0.2;
  const wl::WorkloadGenerator gen(wl::SystemProfile::cori_2019(), cfg);
  std::vector<ServiceFrame> frames;
  wl::serialize_logs(gen, wl::Stratum::kBulk, 0, n_jobs, /*workers=*/0,
                     [&](const darshan::JobRecord& job, std::span<const std::byte> frame) {
                       frames.push_back({job, {frame.begin(), frame.end()}});
                     });
  return frames;
}

WorkloadReport run_closed_loop(ArchiveService& service, const WorkloadConfig& cfg,
                               const std::vector<ServiceFrame>& frame_pool) {
  MLIO_ASSERT(cfg.clients > 0);
  const std::uint64_t total_weight = cfg.weight_get + cfg.weight_ingest + cfg.weight_compact;
  MLIO_ASSERT(total_weight > 0);
  MLIO_ASSERT(cfg.weight_ingest == 0 || !frame_pool.empty());

  std::vector<ClientState> clients(cfg.clients);
  std::mutex evidence_mu;
  std::map<std::uint64_t, GenerationEvidence> evidence;  // generation -> answers

  const auto record_answer = [&](const ArchiveService::GetResult& r) {
    const std::scoped_lock lock(evidence_mu);
    GenerationEvidence& ev = evidence[r.generation];
    if (!ev.pin.valid()) ev.pin = r.pin;  // retains the generation's files
    ev.fingerprints[r.fingerprint] += 1;
  };

  std::latch start_gate(static_cast<std::ptrdiff_t>(cfg.clients) + 1);
  std::vector<std::thread> threads;
  threads.reserve(cfg.clients);
  for (unsigned c = 0; c < cfg.clients; ++c) {
    threads.emplace_back([&, c] {
      ClientState& me = clients[c];
      util::Rng rng = util::Rng::stream(cfg.seed, 0x5e21ull * (c + 1));

      for (std::uint64_t i = 0; i < cfg.warmup_per_client; ++i) (void)service.get();
      start_gate.arrive_and_wait();

      for (std::uint64_t i = 0; i < cfg.requests_per_client; ++i) {
        const std::uint64_t draw = rng.uniform_u64(0, total_weight - 1);
        if (draw < cfg.weight_get) {
          const auto t0 = SteadyClock::now();
          ArchiveService::GetResult r = service.get();
          me.get_latency.record(ns_since(t0));
          me.stats.merge(r.stats);
          me.gets += 1;
          record_answer(r);
        } else if (draw < cfg.weight_get + cfg.weight_ingest) {
          const std::uint64_t n =
              std::min<std::uint64_t>(cfg.logs_per_ingest, frame_pool.size());
          const std::uint64_t lo = rng.uniform_u64(0, frame_pool.size() - n);
          const auto t0 = SteadyClock::now();
          (void)service.ingest(
              std::span<const ServiceFrame>(frame_pool.data() + lo, static_cast<std::size_t>(n)),
              &me.stats);
          me.ingest_latency.record(ns_since(t0));
          me.ingests += 1;
        } else {
          const auto t0 = SteadyClock::now();
          (void)service.compact(cfg.compact_max_logs, &me.stats);
          me.compact_latency.record(ns_since(t0));
          me.compacts += 1;
        }
      }
    });
  }

  start_gate.arrive_and_wait();
  const auto t_measure = SteadyClock::now();
  for (std::thread& t : threads) t.join();
  const double wall = static_cast<double>(ns_since(t_measure)) * 1e-9;

  WorkloadReport report;
  report.clients = cfg.clients;
  report.wall_seconds = wall;
  for (const ClientState& me : clients) {
    report.get_latency.merge(me.get_latency);
    report.ingest_latency.merge(me.ingest_latency);
    report.compact_latency.merge(me.compact_latency);
    report.stats.merge(me.stats);
    report.gets += me.gets;
    report.ingests += me.ingests;
    report.compacts += me.compacts;
  }
  report.requests = report.gets + report.ingests + report.compacts;

  // Post-run oracle: replay each pinned generation serially and confront
  // every concurrent answer with it.  Pins drop as entries are consumed,
  // releasing deferred GC.
  report.generations_observed = evidence.size();
  for (auto& [generation, ev] : evidence) {
    const std::uint64_t expected = service.replay_serial(ev.pin).fingerprint();
    for (const auto& [fp, count] : ev.fingerprints) {
      if (fp != expected) report.divergent += count;
    }
    report.verified_generations += 1;
    ev.pin = ArchiveService::Pin();  // unpin: deferred GC may now advance
  }

  report.cache = service.cache_counters();
  return report;
}

LiveReport run_live_soak(ArchiveService& service, const LiveConfig& cfg,
                         const std::vector<ServiceFrame>& frame_pool) {
  MLIO_ASSERT(!frame_pool.empty());
  MLIO_ASSERT(cfg.logs_per_append > 0);

  std::mutex evidence_mu;
  std::map<std::uint64_t, GenerationEvidence> evidence;  // generation -> answers
  const auto record_answer = [&](const ArchiveService::GetResult& r) {
    const std::scoped_lock lock(evidence_mu);
    GenerationEvidence& ev = evidence[r.generation];
    if (!ev.pin.valid()) ev.pin = r.pin;  // retains the generation's files
    ev.fingerprints[r.fingerprint] += 1;
  };

  LiveReport report;
  std::atomic<bool> feed_done{false};

  service.start_compactor(cfg.compactor);
  const auto t_measure = SteadyClock::now();

  // Readers: closed loop of windowed gets for as long as the feed lasts
  // (plus one final look at the flushed state each).
  std::vector<ClientState> readers(cfg.readers);
  std::vector<std::thread> threads;
  threads.reserve(cfg.readers);
  for (unsigned c = 0; c < cfg.readers; ++c) {
    threads.emplace_back([&, c] {
      ClientState& me = readers[c];
      do {
        const auto t0 = SteadyClock::now();
        ArchiveService::GetResult r = service.get_window(cfg.last_windows);
        me.get_latency.record(ns_since(t0));
        me.stats.merge(r.stats);
        me.gets += 1;
        record_answer(r);
      } while (!feed_done.load(std::memory_order_acquire));
    });
  }

  // The feeder: ONE thread, arrival order — window cuts are a property of
  // the stream, so the feed is never sharded across threads.
  for (std::size_t lo = 0; lo < frame_pool.size(); lo += cfg.logs_per_append) {
    const std::size_t n =
        std::min<std::size_t>(cfg.logs_per_append, frame_pool.size() - lo);
    const auto t0 = SteadyClock::now();
    ArchiveService::StreamResult sr =
        service.stream_append(std::span<const ServiceFrame>(frame_pool.data() + lo, n));
    report.append_latency.record(ns_since(t0));
    report.appends += 1;
    report.logs_streamed += n;
    report.windows_published += sr.published.size();
  }
  {
    const ArchiveService::StreamResult sr = service.stream_flush();
    report.windows_published += sr.published.size();
  }
  feed_done.store(true, std::memory_order_release);

  for (std::thread& t : threads) t.join();
  report.wall_seconds = static_cast<double>(ns_since(t_measure)) * 1e-9;
  service.stop_compactor();
  // Drain what the stopped compactor left: run the leveled policy in the
  // foreground until it has nothing to merge, so the final partition count
  // is the policy's bound rather than a race with the end of the feed.
  while (service.compact_step(cfg.compactor.policy).has_value()) {
  }

  for (const ClientState& me : readers) {
    report.get_latency.merge(me.get_latency);
    report.stats.merge(me.stats);
    report.window_gets += me.gets;
  }
  report.compactions = service.compactions();
  report.compactor_errors = service.compactor_errors();
  report.stream = service.stream_stats();

  {
    const ArchiveService::Pin final_pin = service.pin();
    report.final_partitions = final_pin.manifest().partitions.size();
    for (const archive::PartitionInfo& p : final_pin.manifest().partitions) {
      report.newest_window = std::max(report.newest_window, p.window_max);
    }
  }

  // The oracle: each observed generation's windowed answers must match a
  // serial replay of that pinned generation's selected suffix bit for bit.
  report.generations_observed = evidence.size();
  for (auto& [generation, ev] : evidence) {
    const std::uint64_t expected =
        service.replay_serial_window(ev.pin, cfg.last_windows).fingerprint();
    for (const auto& [fp, count] : ev.fingerprints) {
      if (fp != expected) report.divergent += count;
    }
    report.verified_generations += 1;
    ev.pin = ArchiveService::Pin();  // unpin: deferred GC may now advance
  }
  report.gc_pending_after = service.deferred_gc_pending();
  return report;
}

}  // namespace mlio::service
