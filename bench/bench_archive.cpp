// Archive throughput driver: measures ingest rate and cold- vs warm-query
// latency of the partitioned log archive and writes the numbers to
// BENCH_archive.json so the trajectory is tracked across PRs.
//
//   ingest — generate the population and append it as --batches partitions
//            (+ the huge stratum) through the pipeline's archive-sink mode.
//   cold   — first query: every partition shard rebuilt from its segment.
//            The rebuild cost is split into parse/summarize/accumulate phase
//            seconds (CPU seconds summed across workers, so they can exceed
//            the scan wall time) — the same phase axes bench_analysis tracks
//            single-threaded.
//   warm   — second query: every shard served from the snapshot cache.
//   sweep  — partition-count sweep (--sweep, default 9,36,144): at each
//            point, the warm-query cost of the LINEAR lane (query_archive:
//            resolve + fold all P shards every time) against the MEMOIZED
//            service lane (generation-delta engine, DESIGN.md §12: a warm
//            get at an unchanged generation is one cache lookup).  The
//            linear lane grows with P; the memoized lane must stay ~flat.
//   live   — (--live-jobs N, 0 = skip) the continuous-mode lane (DESIGN.md
//            §14): run_live_soak streams the pool through time-windowed
//            cuts while windowed readers and the BACKGROUND leveled
//            compactor race it, then drains the policy to its fixed point.
//            The JSON records steady-state logs/s, the live partition count
//            and its post-drain ceiling vs windows published, and the
//            bit-identity verdict (every pinned answer vs serial replay).
//   scale  — (--scale-jobs N, 0 = skip) the fleet-scale milestone lane: a
//            large facility ingested once per --ingest-threads value
//            (partition-parallel build, group manifest commit, DESIGN.md
//            §13), with per-phase ingest timings, cold/warm query times at
//            that size, and a cross-thread-count digest of every archive
//            byte — the determinism contract ("fixed cuts → fixed bits")
//            checked at scale.  Lanes pin --threads 1 inside each partition
//            so ingest_logs_per_s isolates partition parallelism.
//
// cold and warm must agree bit for bit (the archive's determinism
// contract); the JSON records the fingerprint comparison alongside the
// speedup so a caching regression is visible as either wrong bits or a
// missing win.  The sweep applies the same rule: both lanes must answer
// with the same fingerprint at every partition count.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "archive/ingest.hpp"
#include "archive/query.hpp"
#include "service/driver.hpp"
#include "service/service.hpp"
#include "util/compress.hpp"
#include "util/vfs.hpp"
#include "workload/pipeline.hpp"

namespace {

using namespace mlio;

struct Args {
  std::uint64_t jobs = 600;
  std::uint64_t seed = 42;
  std::uint64_t batches = 8;
  double logs_scale = 0.25;
  double files_scale = 0.25;
  unsigned threads = 0;
  unsigned reps = 3;
  unsigned mlp_depth = archive::kDefaultMlpDepth;
  bool compress = true;
  std::vector<unsigned> sweep = {9, 36, 144};  ///< partition counts; empty = skip
  std::uint64_t live_jobs = 0;      ///< live-lane frame pool size; 0 = skip
  unsigned live_readers = 2;        ///< concurrent windowed readers
  unsigned live_fanout = 4;         ///< leveled policy fanout
  std::int64_t live_window = 86400; ///< window width (seconds of job start time)
  std::uint64_t scale_jobs = 0;     ///< scale-lane facility size; 0 = skip
  std::uint64_t scale_batches = 0;  ///< scale-lane partitions; 0 = auto
  std::vector<unsigned> ingest_threads = {1, 4};  ///< scale-lane worker counts
  std::string dir;
  std::string out = "BENCH_archive.json";
};

std::vector<unsigned> parse_sweep(const char* s) {
  std::vector<unsigned> out;
  for (const char* p = s; *p != '\0';) {
    const unsigned v = static_cast<unsigned>(std::strtoul(p, const_cast<char**>(&p), 10));
    if (v > 0) out.push_back(v);
    if (*p == ',') ++p;
  }
  return out;  // "--sweep 0" (or garbage) yields empty = sweep disabled
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (!std::strcmp(argv[i], "--jobs")) a.jobs = std::strtoull(next("--jobs"), nullptr, 10);
    else if (!std::strcmp(argv[i], "--seed")) a.seed = std::strtoull(next("--seed"), nullptr, 10);
    else if (!std::strcmp(argv[i], "--batches")) a.batches = std::strtoull(next("--batches"), nullptr, 10);
    else if (!std::strcmp(argv[i], "--logs-scale")) a.logs_scale = std::strtod(next("--logs-scale"), nullptr);
    else if (!std::strcmp(argv[i], "--files-scale")) a.files_scale = std::strtod(next("--files-scale"), nullptr);
    else if (!std::strcmp(argv[i], "--threads")) a.threads = static_cast<unsigned>(std::strtoul(next("--threads"), nullptr, 10));
    else if (!std::strcmp(argv[i], "--reps")) a.reps = static_cast<unsigned>(std::strtoul(next("--reps"), nullptr, 10));
    else if (!std::strcmp(argv[i], "--mlp-depth")) a.mlp_depth = static_cast<unsigned>(std::strtoul(next("--mlp-depth"), nullptr, 10));
    else if (!std::strcmp(argv[i], "--no-compress")) a.compress = false;
    else if (!std::strcmp(argv[i], "--sweep")) a.sweep = parse_sweep(next("--sweep"));
    else if (!std::strcmp(argv[i], "--live-jobs")) a.live_jobs = std::strtoull(next("--live-jobs"), nullptr, 10);
    else if (!std::strcmp(argv[i], "--live-readers")) a.live_readers = static_cast<unsigned>(std::strtoul(next("--live-readers"), nullptr, 10));
    else if (!std::strcmp(argv[i], "--live-fanout")) a.live_fanout = static_cast<unsigned>(std::strtoul(next("--live-fanout"), nullptr, 10));
    else if (!std::strcmp(argv[i], "--live-window")) a.live_window = std::strtoll(next("--live-window"), nullptr, 10);
    else if (!std::strcmp(argv[i], "--scale-jobs")) a.scale_jobs = std::strtoull(next("--scale-jobs"), nullptr, 10);
    else if (!std::strcmp(argv[i], "--scale-batches")) a.scale_batches = std::strtoull(next("--scale-batches"), nullptr, 10);
    else if (!std::strcmp(argv[i], "--ingest-threads")) a.ingest_threads = parse_sweep(next("--ingest-threads"));
    else if (!std::strcmp(argv[i], "--dir")) a.dir = next("--dir");
    else if (!std::strcmp(argv[i], "--out")) a.out = next("--out");
    else if (!std::strcmp(argv[i], "--help")) {
      std::printf("usage: %s [--jobs N] [--seed S] [--batches B] [--logs-scale X]\n"
                  "          [--files-scale X] [--threads T] [--reps R] [--mlp-depth K]\n"
                  "          [--no-compress] [--sweep P1,P2,... (0 = skip)] [--dir DIR]\n"
                  "          [--live-jobs N (0 = skip)] [--live-readers R] [--live-fanout F]\n"
                  "          [--live-window SECONDS]\n"
                  "          [--scale-jobs N (0 = skip)] [--scale-batches B (0 = auto)]\n"
                  "          [--ingest-threads T1,T2,...] [--out FILE]\n", argv[0]);
      std::exit(0);
    } else {
      std::fprintf(stderr, "unknown flag %s (try --help)\n", argv[i]);
      std::exit(2);
    }
  }
  return a;
}

struct Rep {
  archive::IngestStats ingest;
  archive::QueryStats cold;
  archive::QueryStats warm;
  std::uint64_t cold_fp = 0;
  std::uint64_t warm_fp = 0;
};

/// One partition-sweep point: warm-query cost linear lane vs memoized lane.
struct SweepPoint {
  unsigned partitions = 0;
  double linear_warm_s = 0;  ///< best warm query_archive total (resolves all P)
  double linear_merge_s = 0; ///< its shard-fold component
  double memo_warm_s = 0;    ///< best warm service get (merged-result hit)
  std::uint64_t memo_hits = 0;
  bool fingerprints_match = false;
  double speedup() const { return memo_warm_s > 0 ? linear_warm_s / memo_warm_s : 0.0; }
};

void print_query(const char* label, const archive::QueryStats& s) {
  std::printf("  %-5s %8.4f s  (%llu/%llu partitions from cache, %llu logs decoded)\n", label,
              s.total_seconds, static_cast<unsigned long long>(s.snapshot_hits),
              static_cast<unsigned long long>(s.partitions),
              static_cast<unsigned long long>(s.logs_scanned));
}

/// One scale-milestone ingest lane (a thread count) plus its archive digest.
struct ScaleLane {
  unsigned ingest_threads = 0;
  archive::IngestStats ingest;
  std::uint64_t digest = 0;  ///< FNV over (name, size, CRC) of every file
  std::uint64_t files = 0;
};

struct ScaleResult {
  std::uint64_t jobs = 0;
  std::uint64_t batches = 0;
  std::uint64_t logs = 0;
  std::uint64_t bytes = 0;
  std::vector<ScaleLane> lanes;
  bool bytes_identical = true;  ///< every lane produced the same archive bytes
  double cold_s = 0, warm_s = 0;
  std::uint64_t cold_fp = 0, warm_fp = 0;
  double speedup = 0;  ///< best parallel lane logs/s over the serial lane
};

/// Digest every file of an archive directory: sorted names, each file's size
/// and CRC folded into one FNV-1a word.  Equal digests + equal file counts
/// mean byte-identical archives (CRC-32 per file, manifest included).
std::uint64_t dir_digest(const std::filesystem::path& dir, std::uint64_t& files) {
  std::vector<std::filesystem::path> paths;
  for (const auto& e : std::filesystem::directory_iterator(dir)) {
    if (e.is_regular_file()) paths.push_back(e.path());
  }
  std::sort(paths.begin(), paths.end());
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  for (const std::filesystem::path& p : paths) {
    for (const char c : p.filename().string()) mix(static_cast<unsigned char>(c));
    const std::vector<std::byte> bytes = util::real_vfs().read_file(p);
    mix(bytes.size());
    mix(util::crc32(bytes));
    files += 1;
  }
  return h;
}

void print_phases(const archive::IngestStats& s) {
  std::printf("        phases: generate+simulate %.2f s, serialize+deflate %.2f s, "
              "snapshot %.2f s (cpu); publish %.2f s (wall, %llu group commit(s))\n",
              static_cast<double>(s.serialize_ns) * 1e-9,
              static_cast<double>(s.compress_ns) * 1e-9,
              static_cast<double>(s.snapshot_ns) * 1e-9,
              static_cast<double>(s.publish_ns) * 1e-9,
              static_cast<unsigned long long>(s.groups));
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);

  wl::GeneratorConfig cfg;
  cfg.seed = args.seed;
  cfg.n_jobs = args.jobs;
  cfg.logs_per_job_scale = args.logs_scale;
  cfg.files_per_log_scale = args.files_scale;
  const wl::WorkloadGenerator gen(wl::SystemProfile::cori_2019(), cfg);

  const std::filesystem::path base =
      args.dir.empty() ? std::filesystem::temp_directory_path() / "mlio_bench_archive"
                       : std::filesystem::path(args.dir);

  std::vector<Rep> reps;
  // One QueryScratch across every query of every rep: the cold and warm
  // passes (and later reps) reuse the workers' decode and summarize
  // buffers instead of reallocating them per query.
  archive::QueryScratch query_scratch;
  for (unsigned rep = 0; rep < args.reps; ++rep) {
    const std::filesystem::path dir = base / ("rep" + std::to_string(rep));
    std::filesystem::remove_all(dir);

    Rep r;
    archive::Archive ar = archive::Archive::create(dir);
    archive::IngestOptions iopts;
    iopts.batches = args.batches;
    iopts.threads = args.threads;
    iopts.write_options.compress = args.compress;
    r.ingest = archive::ingest_generated(ar, gen, iopts);

    archive::QueryOptions qopts;
    qopts.threads = args.threads;
    qopts.mlp_depth = args.mlp_depth;
    const archive::QueryResult cold = query_archive(ar, qopts, query_scratch);
    r.cold = cold.stats;
    r.cold_fp = cold.analysis.fingerprint();
    const archive::QueryResult warm = query_archive(ar, qopts, query_scratch);
    r.warm = warm.stats;
    r.warm_fp = warm.analysis.fingerprint();

    std::printf("rep %u: ingest %.3f s (%.0f logs/s, %llu partitions)\n", rep,
                r.ingest.seconds, r.ingest.logs_per_second(),
                static_cast<unsigned long long>(r.ingest.partitions));
    print_phases(r.ingest);
    print_query("cold", r.cold);
    print_query("warm", r.warm);
    reps.push_back(r);
    std::filesystem::remove_all(dir);
  }

  // Partition sweep: how warm-query cost scales with P for the linear
  // query_archive lane (resolve + fold everything, every time) vs the
  // memoized service lane (one whole-answer lookup at an unchanged
  // generation).  Both lanes serve the same archive and must agree bit for
  // bit.
  std::vector<SweepPoint> sweep;
  for (const unsigned parts : args.sweep) {
    const std::filesystem::path dir = base / ("sweep" + std::to_string(parts));
    std::filesystem::remove_all(dir);

    SweepPoint pt;
    pt.partitions = parts;
    archive::Archive ar = archive::Archive::create(dir);
    archive::IngestOptions iopts;
    iopts.batches = parts;
    iopts.threads = args.threads;
    iopts.write_options.compress = args.compress;
    archive::ingest_generated(ar, gen, iopts);

    archive::QueryOptions qopts;
    qopts.threads = args.threads;
    qopts.mlp_depth = args.mlp_depth;
    std::uint64_t linear_fp = 0;
    {
      const archive::QueryResult cold = query_archive(ar, qopts, query_scratch);
      linear_fp = cold.analysis.fingerprint();
      pt.linear_warm_s = 0;
      for (unsigned rep = 0; rep < args.reps; ++rep) {
        const archive::QueryResult warm = query_archive(ar, qopts, query_scratch);
        if (rep == 0 || warm.stats.total_seconds < pt.linear_warm_s) {
          pt.linear_warm_s = warm.stats.total_seconds;
          pt.linear_merge_s = warm.stats.merge_seconds;
        }
      }
    }
    {
      service::ArchiveService svc(dir, {});  // merged-result memo on by default
      const std::uint64_t memo_fp = svc.get().fingerprint;  // priming: full merge
      pt.fingerprints_match = memo_fp == linear_fp;
      pt.memo_warm_s = 0;
      for (unsigned rep = 0; rep < args.reps; ++rep) {
        const auto r = svc.get();
        pt.memo_hits += r.stats.query.merged_hits;
        pt.fingerprints_match = pt.fingerprints_match && r.fingerprint == linear_fp;
        if (rep == 0 || r.stats.query.total_seconds < pt.memo_warm_s) {
          pt.memo_warm_s = r.stats.query.total_seconds;
        }
      }
    }
    std::printf("sweep P=%3u: linear warm %.5f s (merge %.5f s) vs memoized %.7f s "
                "(%.0fx, bits %s)\n",
                parts, pt.linear_warm_s, pt.linear_merge_s, pt.memo_warm_s, pt.speedup(),
                pt.fingerprints_match ? "match" : "DIVERGE");
    sweep.push_back(pt);
    std::filesystem::remove_all(dir);
  }

  // Live lane: the archive as a running system — streaming window cuts,
  // concurrent windowed readers, the background leveled compactor — then
  // the policy drained to its fixed point for the partition-count ceiling.
  service::LiveReport live;
  std::uint64_t live_partitions_drained = 0;
  bool live_ok = true;
  if (args.live_jobs > 0) {
    const std::filesystem::path dir = base / "live";
    std::filesystem::remove_all(dir);
    { (void)archive::Archive::create(dir); }
    service::ArchiveService::Options sopts;
    sopts.stream.window_seconds = args.live_window;
    service::ArchiveService svc(dir, sopts);

    service::LiveConfig lcfg;
    lcfg.readers = args.live_readers;
    lcfg.compactor.policy.fanout = args.live_fanout;
    const std::vector<service::ServiceFrame> pool =
        service::make_frame_pool(args.live_jobs, args.seed);
    live = service::run_live_soak(svc, lcfg, pool);

    while (svc.compact_step(lcfg.compactor.policy).has_value()) {
    }
    live_partitions_drained = svc.pin().manifest().partitions.size();
    live_ok = live.ok();
    std::printf(
        "live: %.0f logs/s steady state (%llu logs, %llu appends, %llu windows)\n"
        "      %llu windowed gets, %llu background merges, partitions %llu live / %llu drained\n"
        "      verified %llu/%llu generations, divergent %llu, gc pending %llu -> %s\n",
        live.logs_per_second(), static_cast<unsigned long long>(live.logs_streamed),
        static_cast<unsigned long long>(live.appends),
        static_cast<unsigned long long>(live.windows_published),
        static_cast<unsigned long long>(live.window_gets),
        static_cast<unsigned long long>(live.compactions),
        static_cast<unsigned long long>(live.final_partitions),
        static_cast<unsigned long long>(live_partitions_drained),
        static_cast<unsigned long long>(live.verified_generations),
        static_cast<unsigned long long>(live.generations_observed),
        static_cast<unsigned long long>(live.divergent),
        static_cast<unsigned long long>(live.gc_pending_after), live_ok ? "ok" : "FAIL");
    std::filesystem::remove_all(dir);
  }

  // Scale milestone lane: one large facility per ingest-thread count.
  // Every lane must produce the same archive down to the last byte; the
  // first lane also measures cold/warm query time at that size.
  ScaleResult scale;
  bool scale_ok = true;
  if (args.scale_jobs > 0 && !args.ingest_threads.empty()) {
    wl::GeneratorConfig scfg = cfg;
    scfg.n_jobs = args.scale_jobs;
    const wl::WorkloadGenerator sgen(wl::SystemProfile::cori_2019(), scfg);
    const unsigned max_t =
        *std::max_element(args.ingest_threads.begin(), args.ingest_threads.end());
    scale.jobs = args.scale_jobs;
    // Auto batches: enough partitions to keep every worker fed (and each
    // partition's build buffer modest), but coarse enough that manifest and
    // per-partition constant costs stay negligible.
    scale.batches = args.scale_batches != 0
                        ? args.scale_batches
                        : std::max<std::uint64_t>(std::uint64_t{4} * max_t, args.scale_jobs / 512);
    for (std::size_t li = 0; li < args.ingest_threads.size(); ++li) {
      const unsigned t = args.ingest_threads[li];
      const std::filesystem::path dir = base / ("scale_t" + std::to_string(t));
      std::filesystem::remove_all(dir);

      ScaleLane lane;
      lane.ingest_threads = t;
      archive::Archive ar = archive::Archive::create(dir);
      archive::IngestOptions iopts;
      iopts.batches = scale.batches;
      iopts.threads = 1;  // no fan-out inside partitions: isolate partition parallelism
      iopts.ingest_threads = t;
      iopts.write_options.compress = args.compress;
      lane.ingest = archive::ingest_generated(ar, sgen, iopts);
      lane.digest = dir_digest(dir, lane.files);

      std::printf("scale T=%u: ingest %.3f s (%.0f logs/s, %llu logs, %llu partitions)\n", t,
                  lane.ingest.seconds, lane.ingest.logs_per_second(),
                  static_cast<unsigned long long>(lane.ingest.logs),
                  static_cast<unsigned long long>(lane.ingest.partitions));
      print_phases(lane.ingest);

      if (li == 0) {
        scale.logs = lane.ingest.logs;
        scale.bytes = lane.ingest.bytes;
        archive::QueryOptions qopts;
        qopts.threads = args.threads;
        qopts.mlp_depth = args.mlp_depth;
        const archive::QueryResult cold = query_archive(ar, qopts, query_scratch);
        scale.cold_s = cold.stats.total_seconds;
        scale.cold_fp = cold.analysis.fingerprint();
        const archive::QueryResult warm = query_archive(ar, qopts, query_scratch);
        scale.warm_s = warm.stats.total_seconds;
        scale.warm_fp = warm.analysis.fingerprint();
        print_query("cold", cold.stats);
        print_query("warm", warm.stats);
      } else {
        scale.bytes_identical = scale.bytes_identical &&
                                lane.digest == scale.lanes.front().digest &&
                                lane.files == scale.lanes.front().files;
      }
      scale.lanes.push_back(lane);
      std::filesystem::remove_all(dir);
    }
    const ScaleLane* serial = nullptr;
    const ScaleLane* parallel = nullptr;
    for (const ScaleLane& lane : scale.lanes) {
      if (lane.ingest_threads <= 1 && serial == nullptr) serial = &lane;
      if (lane.ingest_threads > 1 &&
          (parallel == nullptr ||
           lane.ingest.logs_per_second() > parallel->ingest.logs_per_second())) {
        parallel = &lane;
      }
    }
    if (serial != nullptr && parallel != nullptr && serial->ingest.logs_per_second() > 0) {
      scale.speedup = parallel->ingest.logs_per_second() / serial->ingest.logs_per_second();
    }
    scale_ok = scale.bytes_identical && scale.cold_fp == scale.warm_fp;
    std::printf("scale: archives %s across thread counts", scale.bytes_identical
                                                               ? "byte-identical"
                                                               : "DIVERGED");
    if (scale.speedup > 0) std::printf(", parallel/serial %.2fx", scale.speedup);
    std::printf("\n");
  }
  if (args.dir.empty()) std::filesystem::remove_all(base);

  bool bit_identical = true;
  bool warm_all_cached = true;
  const Rep* best = &reps.front();
  for (const Rep& r : reps) {
    bit_identical = bit_identical && r.cold_fp == r.warm_fp && r.cold_fp == reps.front().cold_fp;
    warm_all_cached = warm_all_cached && r.warm.partitions_scanned == 0;
    if (r.cold.total_seconds < best->cold.total_seconds) best = &r;
  }
  const double speedup =
      best->warm.total_seconds > 0 ? best->cold.total_seconds / best->warm.total_seconds : 0.0;
  std::printf("cold/warm speedup (best rep): %.1fx, bit-identical: %s\n", speedup,
              bit_identical ? "yes" : "NO");

  std::FILE* f = std::fopen(args.out.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", args.out.c_str());
    return 1;
  }
  std::fprintf(f, "{\n");
  const unsigned host_cpus = std::thread::hardware_concurrency();
  const unsigned eff_threads = args.threads != 0 ? args.threads : std::max(1u, host_cpus);
  std::fprintf(f,
               "  \"config\": {\"system\": \"Cori\", \"jobs\": %llu, \"seed\": %llu, "
               "\"batches\": %llu, \"logs_scale\": %g, \"files_scale\": %g, "
               "\"compress\": %s, \"include_huge\": true, \"host_cpus\": %u, "
               "\"threads\": %u, \"oversubscribed\": %s, \"mlp_depth\": %u},\n",
               static_cast<unsigned long long>(args.jobs),
               static_cast<unsigned long long>(args.seed),
               static_cast<unsigned long long>(args.batches), args.logs_scale, args.files_scale,
               args.compress ? "true" : "false", host_cpus, eff_threads,
               eff_threads > host_cpus ? "true" : "false", args.mlp_depth);
  std::fprintf(f, "  \"reps\": [\n");
  for (std::size_t i = 0; i < reps.size(); ++i) {
    const Rep& r = reps[i];
    std::fprintf(
        f,
        "    {\"ingest_s\": %.4f, \"ingest_logs_per_s\": %.2f, \"partitions\": %llu,\n"
        "     \"ingest_groups\": %llu,\n"
        "     \"ingest_phase_s\": {\"serialize\": %.4f, \"compress\": %.4f, "
        "\"snapshot\": %.4f, \"publish\": %.4f},\n"
        "     \"segment_bytes\": %llu, \"cold_query_s\": %.4f, \"cold_scan_s\": %.4f,\n"
        "     \"cold_scan_mb_s\": %.2f,\n"
        "     \"cold_phase_s\": {\"parse\": %.4f, \"summarize\": %.4f, \"accumulate\": %.4f},\n"
        "     \"cold_merge_s\": %.4f, \"warm_query_s\": %.4f, \"warm_snapshot_hits\": %llu,\n"
        "     \"logs\": %llu}%s\n",
        r.ingest.seconds, r.ingest.logs_per_second(),
        static_cast<unsigned long long>(r.ingest.partitions),
        static_cast<unsigned long long>(r.ingest.groups),
        static_cast<double>(r.ingest.serialize_ns) * 1e-9,
        static_cast<double>(r.ingest.compress_ns) * 1e-9,
        static_cast<double>(r.ingest.snapshot_ns) * 1e-9,
        static_cast<double>(r.ingest.publish_ns) * 1e-9,
        static_cast<unsigned long long>(r.ingest.bytes), r.cold.total_seconds,
        r.cold.scan_seconds,
        r.cold.scan_seconds > 0 ? static_cast<double>(r.ingest.bytes) / r.cold.scan_seconds / 1e6
                                : 0.0,
        r.cold.parse_seconds, r.cold.summarize_seconds,
        r.cold.accumulate_seconds, r.cold.merge_seconds, r.warm.total_seconds,
        static_cast<unsigned long long>(r.warm.snapshot_hits),
        static_cast<unsigned long long>(r.ingest.logs), i + 1 < reps.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  bool sweep_bits_ok = true;
  if (!sweep.empty()) {
    std::fprintf(f, "  \"partition_sweep\": [\n");
    for (std::size_t i = 0; i < sweep.size(); ++i) {
      const SweepPoint& pt = sweep[i];
      sweep_bits_ok = sweep_bits_ok && pt.fingerprints_match;
      std::fprintf(f,
                   "    {\"partitions\": %u, \"linear_warm_query_s\": %.6f, "
                   "\"linear_merge_s\": %.6f, \"memo_warm_query_s\": %.7f, "
                   "\"memo_merged_hits\": %llu, \"speedup\": %.1f, "
                   "\"fingerprints_match\": %s}%s\n",
                   pt.partitions, pt.linear_warm_s, pt.linear_merge_s, pt.memo_warm_s,
                   static_cast<unsigned long long>(pt.memo_hits), pt.speedup(),
                   pt.fingerprints_match ? "true" : "false",
                   i + 1 < sweep.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n");
  }
  if (args.live_jobs > 0) {
    std::fprintf(
        f,
        "  \"live\": {\n"
        "    \"jobs\": %llu, \"logs\": %llu, \"wall_s\": %.4f, \"logs_per_s\": %.2f,\n"
        "    \"appends\": %llu, \"windows_published\": %llu, \"newest_window\": %llu,\n"
        "    \"window_gets\": %llu, \"background_merges\": %llu, \"compactor_errors\": %llu,\n"
        "    \"partitions_live\": %llu, \"partitions_drained\": %llu,\n"
        "    \"boundary_cuts\": %llu, \"cap_cuts\": %llu, \"late_logs\": %llu,\n"
        "    \"generations_verified\": %llu, \"divergent\": %llu, \"gc_pending_after\": %llu,\n"
        "    \"bit_identical\": %s\n"
        "  },\n",
        static_cast<unsigned long long>(args.live_jobs),
        static_cast<unsigned long long>(live.logs_streamed), live.wall_seconds,
        live.logs_per_second(), static_cast<unsigned long long>(live.appends),
        static_cast<unsigned long long>(live.windows_published),
        static_cast<unsigned long long>(live.newest_window),
        static_cast<unsigned long long>(live.window_gets),
        static_cast<unsigned long long>(live.compactions),
        static_cast<unsigned long long>(live.compactor_errors),
        static_cast<unsigned long long>(live.final_partitions),
        static_cast<unsigned long long>(live_partitions_drained),
        static_cast<unsigned long long>(live.stream.boundary_cuts),
        static_cast<unsigned long long>(live.stream.cap_cuts),
        static_cast<unsigned long long>(live.stream.late_logs),
        static_cast<unsigned long long>(live.verified_generations),
        static_cast<unsigned long long>(live.divergent),
        static_cast<unsigned long long>(live.gc_pending_after),
        live.divergent == 0 ? "true" : "false");
  }
  if (!scale.lanes.empty()) {
    std::fprintf(f,
                 "  \"scale\": {\n"
                 "    \"jobs\": %llu, \"logs\": %llu, \"segment_bytes\": %llu, "
                 "\"batches\": %llu,\n"
                 "    \"lanes\": [\n",
                 static_cast<unsigned long long>(scale.jobs),
                 static_cast<unsigned long long>(scale.logs),
                 static_cast<unsigned long long>(scale.bytes),
                 static_cast<unsigned long long>(scale.batches));
    for (std::size_t i = 0; i < scale.lanes.size(); ++i) {
      const ScaleLane& lane = scale.lanes[i];
      std::fprintf(
          f,
          "      {\"ingest_threads\": %u, \"oversubscribed\": %s, \"ingest_s\": %.4f,\n"
          "       \"ingest_logs_per_s\": %.2f, \"groups\": %llu,\n"
          "       \"phase_s\": {\"serialize\": %.4f, \"compress\": %.4f, "
          "\"snapshot\": %.4f, \"publish\": %.4f}}%s\n",
          lane.ingest_threads, lane.ingest_threads > host_cpus ? "true" : "false",
          lane.ingest.seconds, lane.ingest.logs_per_second(),
          static_cast<unsigned long long>(lane.ingest.groups),
          static_cast<double>(lane.ingest.serialize_ns) * 1e-9,
          static_cast<double>(lane.ingest.compress_ns) * 1e-9,
          static_cast<double>(lane.ingest.snapshot_ns) * 1e-9,
          static_cast<double>(lane.ingest.publish_ns) * 1e-9,
          i + 1 < scale.lanes.size() ? "," : "");
    }
    std::fprintf(f,
                 "    ],\n"
                 "    \"speedup_parallel_vs_serial\": %.3f,\n"
                 "    \"bytes_identical_across_threads\": %s,\n"
                 "    \"cold_query_s\": %.4f, \"warm_query_s\": %.4f,\n"
                 "    \"cold_warm_bit_identical\": %s\n"
                 "  },\n",
                 scale.speedup, scale.bytes_identical ? "true" : "false", scale.cold_s,
                 scale.warm_s, scale.cold_fp == scale.warm_fp ? "true" : "false");
  }
  std::fprintf(f, "  \"warm_speedup_best\": %.3f,\n", speedup);
  std::fprintf(f, "  \"warm_all_cached\": %s,\n", warm_all_cached ? "true" : "false");
  std::fprintf(f, "  \"cold_warm_bit_identical\": %s\n", bit_identical ? "true" : "false");
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("wrote %s\n", args.out.c_str());
  return bit_identical && warm_all_cached && sweep_bits_ok && scale_ok && live_ok ? 0 : 1;
}
