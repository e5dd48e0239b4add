// mlio_archive — facility-style front end to the partitioned log archive.
//
//   mlio_archive ingest  --dir D [--system Cori|Summit] [--jobs N] [--seed S]
//                        [--batches B] [--logs-scale X] [--files-scale X]
//                        [--threads T] [--no-huge]
//                        [--snapshots]
//   mlio_archive ingest  --dir D --from SRCDIR [--part-logs N]
//                        (every regular file, sharded into partitions)
//   mlio_archive ingest  --dir D --window SEC [--window-logs N] [--threads T]
//                        (continuous mode: stream generated logs through
//                        time-windowed partition cuts)
//   mlio_archive query   --dir D [--threads T] [--no-write-snapshots] [--csv]
//                        [--last-windows N]
//   mlio_archive verify  --dir D [--deep]
//   mlio_archive compact --dir D [--max-logs N | --leveled [--fanout F]]
//   mlio_archive serve   --dir D --requests N [--clients C] [--warmup W]
//                        [--seed S] [--cache-mb M] [--merged-cache-mb M]
//                        [--merge-threads T] [--mix G:I:C]
//   mlio_archive serve   --dir D --follow [--jobs N] [--clients C]
//                        [--window SEC] [--window-logs N] [--last-windows N]
//                        [--fanout F] (live soak: stream ingest + windowed
//                        reads + background leveled compactor, verified
//                        against serial replay)
//
// Every command also accepts `--fault-spec SPEC` (util/vfs.hpp grammar,
// e.g. "seed=7;crash-at=12" or "short-write@2:*.seg"): the command then
// runs against a deterministic fault-injecting filesystem — the same
// machinery the crash-consistency tests use — which makes any failing
// (seed, crash-index) pair reproducible from the shell.
//
// `query` answers through the archive service (service/service.hpp), the
// same engine `serve` and the live soak run: one cold get, whole-archive or
// over the last N windows.  It prints the paper's Table 2/3/5/6 summaries
// over the whole archive (Table 2 and the ops timeline for a window) plus
// the cache telemetry (partitions scanned vs served from snapshots).  A
// whole-archive query writes its rebuilt shards back as snapshots unless
// --no-write-snapshots; a windowed one writes nothing.  A compaction by
// another process that deletes files the query pinned is retried inside
// the service against the new manifest.
// `serve` runs the in-process archive service's closed-loop client pool
// against the directory and prints per-kind latency percentiles and, in
// both modes, one `memo:` line of the answer memo's counters; every
// concurrent answer is verified against a serial replay of its pinned
// generation.
// Exit status: 0 on success, 1 on a failed verify, corruption, serving
// divergence, or a query still losing the race against a concurrent
// compaction after the service's retries, 2 on usage errors, 3 when a
// --fault-spec crash point fired.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "archive/ingest.hpp"
#include "archive/stream.hpp"
#include "darshan/log_format.hpp"
#include "service/driver.hpp"
#include "workload/pipeline.hpp"
#include "util/error.hpp"
#include "util/table.hpp"
#include "util/units.hpp"
#include "util/vfs.hpp"
#include "workload/profile.hpp"

namespace {

using namespace mlio;

struct Args {
  std::string cmd;
  std::string dir;
  std::string from;
  std::string fault_spec;
  std::string system = "Cori";
  std::uint64_t jobs = 600;
  std::uint64_t seed = 42;
  std::uint64_t batches = 1;
  std::uint64_t max_logs = 1000;
  double logs_scale = 0.25;
  double files_scale = 0.25;
  unsigned threads = 0;
  std::uint64_t part_logs = 0;        ///< max logs per partition (--from path)
  bool huge = true;
  bool snapshots = false;
  bool write_snapshots = true;
  bool deep = false;
  bool csv = false;
  // serve
  std::uint64_t requests = 0;
  unsigned clients = 4;
  std::uint64_t warmup = 4;
  std::uint64_t cache_mb = 256;
  std::uint64_t merged_cache_mb = 64;  ///< 0 = no answer memoization
  unsigned merge_threads = 0;          ///< 0 = serial shard loads + fold
  unsigned weight_get = 90;
  unsigned weight_ingest = 8;
  unsigned weight_compact = 2;
  // continuous mode
  std::int64_t window = 0;          ///< window length in seconds (>0 = streaming)
  std::uint64_t window_logs = 0;    ///< per-window log cap (0 = boundary cuts only)
  std::uint64_t last_windows = 0;   ///< windowed query span (0 = whole archive)
  bool follow = false;              ///< serve: live soak instead of closed loop
  bool leveled = false;             ///< compact: leveled policy instead of max-logs
  unsigned fanout = 4;              ///< leveled merge fanout
};

[[noreturn]] void usage(int rc) {
  std::printf(
      "usage: mlio_archive <ingest|query|verify|compact> --dir DIR [options]\n"
      "  ingest:  --system Cori|Summit --jobs N --seed S --batches B\n"
      "           --logs-scale X --files-scale X --no-huge\n"
      "           --threads T (0 = all cores; build workers)\n"
      "           --snapshots\n"
      "           (or --from SRCDIR to ingest existing log files;\n"
      "            --part-logs N bounds logs per partition)\n"
      "           (or --window SEC [--window-logs N] to stream through\n"
      "            time-windowed partition cuts)\n"
      "  query:   --threads T --no-write-snapshots --csv\n"
      "           --last-windows N (fold only the last N time windows)\n"
      "  verify:  --deep\n"
      "  compact: --max-logs N | --leveled [--fanout F]\n"
      "  serve:   --requests N --clients C --warmup W --seed S --cache-mb M\n"
      "           --merged-cache-mb M (0 = no memoization) --merge-threads T\n"
      "           --mix G:I:C\n"
      "           (or --follow [--jobs N] [--window SEC] [--window-logs N]\n"
      "            [--last-windows N] [--fanout F]: live soak — streaming\n"
      "            ingest + windowed reads + background leveled compactor)\n"
      "  all:     --fault-spec SPEC (deterministic fault injection; see util/vfs.hpp)\n");
  std::exit(rc);
}

Args parse(int argc, char** argv) {
  if (argc < 2) usage(2);
  Args a;
  a.cmd = argv[1];
  for (int i = 2; i < argc; ++i) {
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (!std::strcmp(argv[i], "--dir")) a.dir = next("--dir");
    else if (!std::strcmp(argv[i], "--from")) a.from = next("--from");
    else if (!std::strcmp(argv[i], "--fault-spec")) a.fault_spec = next("--fault-spec");
    else if (!std::strcmp(argv[i], "--system")) a.system = next("--system");
    else if (!std::strcmp(argv[i], "--jobs")) a.jobs = std::strtoull(next("--jobs"), nullptr, 10);
    else if (!std::strcmp(argv[i], "--seed")) a.seed = std::strtoull(next("--seed"), nullptr, 10);
    else if (!std::strcmp(argv[i], "--batches")) a.batches = std::strtoull(next("--batches"), nullptr, 10);
    else if (!std::strcmp(argv[i], "--max-logs")) a.max_logs = std::strtoull(next("--max-logs"), nullptr, 10);
    else if (!std::strcmp(argv[i], "--logs-scale")) a.logs_scale = std::strtod(next("--logs-scale"), nullptr);
    else if (!std::strcmp(argv[i], "--files-scale")) a.files_scale = std::strtod(next("--files-scale"), nullptr);
    else if (!std::strcmp(argv[i], "--threads")) a.threads = static_cast<unsigned>(std::strtoul(next("--threads"), nullptr, 10));
    else if (!std::strcmp(argv[i], "--part-logs")) a.part_logs = std::strtoull(next("--part-logs"), nullptr, 10);
    else if (!std::strcmp(argv[i], "--requests")) a.requests = std::strtoull(next("--requests"), nullptr, 10);
    else if (!std::strcmp(argv[i], "--clients")) a.clients = static_cast<unsigned>(std::strtoul(next("--clients"), nullptr, 10));
    else if (!std::strcmp(argv[i], "--warmup")) a.warmup = std::strtoull(next("--warmup"), nullptr, 10);
    else if (!std::strcmp(argv[i], "--cache-mb")) a.cache_mb = std::strtoull(next("--cache-mb"), nullptr, 10);
    else if (!std::strcmp(argv[i], "--merged-cache-mb")) a.merged_cache_mb = std::strtoull(next("--merged-cache-mb"), nullptr, 10);
    else if (!std::strcmp(argv[i], "--merge-threads")) a.merge_threads = static_cast<unsigned>(std::strtoul(next("--merge-threads"), nullptr, 10));
    else if (!std::strcmp(argv[i], "--mix")) {
      if (std::sscanf(next("--mix"), "%u:%u:%u", &a.weight_get, &a.weight_ingest,
                      &a.weight_compact) != 3 ||
          a.weight_get + a.weight_ingest + a.weight_compact == 0) {
        std::fprintf(stderr, "bad --mix (want GET:INGEST:COMPACT weights)\n");
        std::exit(2);
      }
    }
    else if (!std::strcmp(argv[i], "--window")) a.window = static_cast<std::int64_t>(std::strtoll(next("--window"), nullptr, 10));
    else if (!std::strcmp(argv[i], "--window-logs")) a.window_logs = std::strtoull(next("--window-logs"), nullptr, 10);
    else if (!std::strcmp(argv[i], "--last-windows")) a.last_windows = std::strtoull(next("--last-windows"), nullptr, 10);
    else if (!std::strcmp(argv[i], "--fanout")) a.fanout = static_cast<unsigned>(std::strtoul(next("--fanout"), nullptr, 10));
    else if (!std::strcmp(argv[i], "--follow")) a.follow = true;
    else if (!std::strcmp(argv[i], "--leveled")) a.leveled = true;
    else if (!std::strcmp(argv[i], "--no-huge")) a.huge = false;
    else if (!std::strcmp(argv[i], "--snapshots")) a.snapshots = true;
    else if (!std::strcmp(argv[i], "--no-write-snapshots")) a.write_snapshots = false;
    else if (!std::strcmp(argv[i], "--deep")) a.deep = true;
    else if (!std::strcmp(argv[i], "--csv")) a.csv = true;
    else if (!std::strcmp(argv[i], "--help")) usage(0);
    else {
      std::fprintf(stderr, "unknown flag %s (try --help)\n", argv[i]);
      std::exit(2);
    }
  }
  if (a.dir.empty()) {
    std::fprintf(stderr, "--dir is required\n");
    std::exit(2);
  }
  return a;
}

void emit(const Args& a, const util::Table& t) {
  std::printf("%s", (a.csv ? t.to_csv() : t.to_string()).c_str());
}

/// Continuous-mode ingest: stream generated logs through the window cutter
/// in arrival order; every cut commits one partition (one generation bump).
int cmd_ingest_stream(const Args& a, util::Vfs& vfs) {
  archive::Archive ar = archive::Archive::open_or_create(a.dir, vfs);
  archive::StreamOptions sopts;
  sopts.window_seconds = a.window;
  sopts.max_window_logs = a.window_logs;
  sopts.write_snapshots = a.snapshots;
  archive::StreamIngester ing(ar, sopts);

  wl::GeneratorConfig cfg;
  cfg.seed = a.seed;
  cfg.n_jobs = a.jobs;
  cfg.logs_per_job_scale = a.logs_scale;
  cfg.files_per_log_scale = a.files_scale;
  const wl::SystemProfile& profile =
      a.system == "Summit" ? wl::SystemProfile::summit_2020() : wl::SystemProfile::cori_2019();
  const wl::WorkloadGenerator gen(profile, cfg);
  wl::serialize_logs(gen, wl::Stratum::kBulk, 0, a.jobs, a.threads,
                     [&](const darshan::JobRecord& job, std::span<const std::byte> frame) {
                       (void)ing.append(job, frame);
                     });
  (void)ing.flush();

  const archive::StreamStats& st = ing.stats();
  std::printf(
      "streamed %llu logs (%s) into %llu window partition(s): %llu boundary cut(s), "
      "%llu cap cut(s), %llu late arrival(s)\n",
      static_cast<unsigned long long>(st.logs),
      util::format_bytes(static_cast<double>(st.bytes)).c_str(),
      static_cast<unsigned long long>(st.windows_published),
      static_cast<unsigned long long>(st.boundary_cuts),
      static_cast<unsigned long long>(st.cap_cuts),
      static_cast<unsigned long long>(st.late_logs));
  std::printf("archive now holds %zu partition(s), generation %llu\n",
              ar.manifest().partitions.size(),
              static_cast<unsigned long long>(ar.manifest().generation));
  return 0;
}

int cmd_ingest(const Args& a, util::Vfs& vfs) {
  if (a.window > 0) {
    if (!a.from.empty()) {
      std::fprintf(stderr, "ingest: --window is for generated streams (not --from)\n");
      return 2;
    }
    return cmd_ingest_stream(a, vfs);
  }
  archive::Archive ar = archive::Archive::open_or_create(a.dir, vfs);
  archive::IngestOptions opts;
  opts.batches = a.batches;
  opts.include_huge = a.huge;
  opts.write_snapshots = a.snapshots;
  opts.ingest_threads = a.threads;
  opts.max_logs_per_partition = a.part_logs;

  archive::IngestStats stats;
  if (!a.from.empty()) {
    const std::vector<std::filesystem::path> files = vfs.list_dir(a.from);
    if (files.empty()) {
      std::fprintf(stderr, "no files in %s\n", a.from.c_str());
      return 1;
    }
    stats = archive::ingest_log_files(ar, files, opts);
  } else {
    wl::GeneratorConfig cfg;
    cfg.seed = a.seed;
    cfg.n_jobs = a.jobs;
    cfg.logs_per_job_scale = a.logs_scale;
    cfg.files_per_log_scale = a.files_scale;
    const wl::SystemProfile& profile =
        a.system == "Summit" ? wl::SystemProfile::summit_2020() : wl::SystemProfile::cori_2019();
    const wl::WorkloadGenerator gen(profile, cfg);
    stats = archive::ingest_generated(ar, gen, opts);
  }
  std::printf("ingested %llu logs (%s) into %llu partition(s) in %.2f s (%.0f logs/s)\n",
              static_cast<unsigned long long>(stats.logs),
              util::format_bytes(static_cast<double>(stats.bytes)).c_str(),
              static_cast<unsigned long long>(stats.partitions), stats.seconds,
              stats.logs_per_second());
  std::printf(
      "phases: generate+simulate %.3f s, serialize+deflate %.3f s, snapshot %.3f s (cpu); "
      "publish %.3f s (wall, %llu group commit(s))\n",
      static_cast<double>(stats.serialize_ns) * 1e-9,
      static_cast<double>(stats.compress_ns) * 1e-9,
      static_cast<double>(stats.snapshot_ns) * 1e-9,
      static_cast<double>(stats.publish_ns) * 1e-9,
      static_cast<unsigned long long>(stats.groups));
  std::printf("archive now holds %zu partition(s), generation %llu\n",
              ar.manifest().partitions.size(),
              static_cast<unsigned long long>(ar.manifest().generation));
  return 0;
}

/// The paper's Tables 3-6 of a whole-archive answer.
void print_layer_tables(const Args& a, const core::Analysis& an) {
  {
    util::Table t({"layer", "files", "read", "written", ">1TB rd", ">1TB wr"});
    for (std::size_t li = 0; li < core::kLayerCount; ++li) {
      const auto layer = static_cast<core::Layer>(li);
      const auto& st = an.access().layer(layer);
      t.add_row({std::string(core::layer_name(layer)),
                 util::format_count(static_cast<double>(st.files)),
                 util::format_bytes(st.bytes_read), util::format_bytes(st.bytes_written),
                 util::format_count(static_cast<double>(st.huge_read_files)),
                 util::format_count(static_cast<double>(st.huge_write_files))});
    }
    std::printf("\n== Per-layer volumes (Tables 3/4) ==\n");
    emit(a, t);
  }
  {
    const auto ex = an.layers().job_exclusivity();
    util::Table t({"class", "jobs"});
    t.add_row({"PFS only", util::format_count(static_cast<double>(ex.pfs_only))});
    t.add_row({"in-system only", util::format_count(static_cast<double>(ex.insys_only))});
    t.add_row({"both", util::format_count(static_cast<double>(ex.both))});
    std::printf("\n== Job layer exclusivity (Table 5) ==\n");
    emit(a, t);
  }
  {
    util::Table t({"layer", "POSIX", "MPI-IO", "STDIO"});
    for (std::size_t li = 0; li < core::kLayerCount; ++li) {
      const auto layer = static_cast<core::Layer>(li);
      const auto& c = an.interfaces().counts(layer);
      t.add_row({std::string(core::layer_name(layer)),
                 util::format_count(static_cast<double>(c.posix)),
                 util::format_count(static_cast<double>(c.mpiio)),
                 util::format_count(static_cast<double>(c.stdio))});
    }
    std::printf("\n== Interface usage (Table 6) ==\n");
    emit(a, t);
  }
}

/// `query`: one cold get through the archive service — the whole archive,
/// or with --last-windows N the partition suffix covering the last N
/// windows, plus the ops view of that same pinned suffix.
int cmd_query(const Args& a, util::Vfs& vfs) {
  const bool windowed = a.last_windows > 0;
  service::ArchiveService svc(
      a.dir, service::query_options(a.threads, a.write_snapshots, a.last_windows),
      vfs);
  const service::ArchiveService::GetResult r =
      svc.get_window(a.last_windows, /*keep_analysis=*/true);
  const core::Analysis& an = *r.analysis;
  const archive::QueryStats& s = r.stats.query;

  {
    util::Table t({"metric", "value"});
    t.add_row({"logs", util::format_count(static_cast<double>(an.summary().logs()))});
    t.add_row({"jobs", util::format_count(static_cast<double>(an.summary().jobs()))});
    t.add_row({"files", util::format_count(static_cast<double>(an.summary().files()))});
    t.add_row({"node-hours", util::format_count(an.summary().node_hours())});
    if (windowed) {
      std::printf("\n== Census, last %llu window(s) (Table 2) ==\n",
                  static_cast<unsigned long long>(a.last_windows));
    } else {
      std::printf("\n== Census (Table 2) ==\n");
    }
    emit(a, t);
  }
  if (windowed) {
    const archive::WindowSelection& sel = r.windows;
    std::printf(
        "\nwindow: %llu of %llu window(s) covered (%zu of %zu partition(s)%s); "
        "%llu snapshot hit(s), %llu rescanned, %.3f s\n",
        static_cast<unsigned long long>(sel.windows_covered),
        static_cast<unsigned long long>(sel.newest_window), sel.count,
        r.pin.manifest().partitions.size(), sel.whole_archive() ? ", whole archive" : "",
        static_cast<unsigned long long>(s.snapshot_hits),
        static_cast<unsigned long long>(s.partitions_scanned), s.total_seconds);
    // Ops view of the same suffix: job concurrency over a day-long horizon.
    const core::LoadTimeline tl =
        archive::window_timeline(svc.archive(), r.pin.manifest(), sel, 86400, 48);
    std::printf("timeline: peak concurrency %u log(s), %.1f%% busy, PFS read %s/s mean\n",
                tl.peak_concurrency(), 100.0 * tl.busy_fraction(),
                util::format_bytes(tl.mean_throughput(core::Layer::kPfs, true)).c_str());
  } else {
    print_layer_tables(a, an);
    std::printf(
        "\nquery: %llu partition(s), %llu snapshot hit(s), %llu rescanned "
        "(%llu logs decoded), %llu snapshot(s) written back, %.3f s\n",
        static_cast<unsigned long long>(s.partitions),
        static_cast<unsigned long long>(s.snapshot_hits),
        static_cast<unsigned long long>(s.partitions_scanned),
        static_cast<unsigned long long>(s.logs_scanned),
        static_cast<unsigned long long>(s.snapshots_written), s.total_seconds);
  }
  std::printf("analysis fingerprint: %016llx\n",
              static_cast<unsigned long long>(an.fingerprint()));
  return 0;
}

int cmd_verify(const Args& a, util::Vfs& vfs) {
  archive::Archive ar = archive::Archive::open(a.dir, vfs);
  const archive::Archive::VerifyReport rep = ar.verify(a.deep);
  std::printf("verified %llu partition(s): %llu log(s) checked, snapshots %llu valid / "
              "%llu stale / %llu missing\n",
              static_cast<unsigned long long>(rep.partitions),
              static_cast<unsigned long long>(rep.logs_checked),
              static_cast<unsigned long long>(rep.snapshots_valid),
              static_cast<unsigned long long>(rep.snapshots_stale),
              static_cast<unsigned long long>(rep.snapshots_missing));
  for (const std::string& issue : rep.issues) std::printf("ISSUE: %s\n", issue.c_str());
  std::printf("%s\n", rep.ok() ? "archive OK" : "archive FAILED verification");
  return rep.ok() ? 0 : 1;
}

/// The answer memo's life counters, one line in both serve modes.
void print_memo(const service::CacheCounters& mc) {
  std::printf("memo: %llu hit(s), %llu miss(es), %llu rejected, %llu entries\n",
              static_cast<unsigned long long>(mc.hits),
              static_cast<unsigned long long>(mc.misses),
              static_cast<unsigned long long>(mc.rejected),
              static_cast<unsigned long long>(mc.entries));
}

/// Live soak: one feeder streams generated logs through the service's open
/// window, reader clients hammer windowed gets, and the background leveled
/// compactor merges history underneath both.  Every windowed answer is
/// verified against a serial replay of its pinned generation.
int cmd_serve_follow(const Args& a, util::Vfs& vfs) {
  service::ArchiveService::Options sopts;
  sopts.cache.capacity_bytes = a.cache_mb << 20;
  sopts.merged.capacity_bytes = a.merged_cache_mb << 20;
  sopts.merge_threads = a.merge_threads;
  sopts.stream.window_seconds = a.window > 0 ? a.window : 3600;
  sopts.stream.max_window_logs = a.window_logs;
  service::ArchiveService svc(a.dir, sopts, vfs);

  service::LiveConfig lcfg;
  lcfg.readers = a.clients;
  lcfg.seed = a.seed;
  lcfg.last_windows = a.last_windows > 0 ? a.last_windows : 4;
  lcfg.compactor.policy.fanout = a.fanout;
  const std::vector<service::ServiceFrame> pool = service::make_frame_pool(a.jobs, a.seed + 1);
  const service::LiveReport rep = service::run_live_soak(svc, lcfg, pool);

  util::Table t({"kind", "count", "p50 us", "p90 us", "p99 us"});
  const auto row = [&](const char* kind, std::uint64_t n, const util::LatencyHistogram& h) {
    t.add_row({kind, util::format_count(static_cast<double>(n)),
               util::format_fixed(h.p50_ns() * 1e-3, 1), util::format_fixed(h.p90_ns() * 1e-3, 1),
               util::format_fixed(h.p99_ns() * 1e-3, 1)});
  };
  row("append", rep.appends, rep.append_latency);
  row("get-window", rep.window_gets, rep.get_latency);
  std::printf("\n== Live soak (%u reader(s), last %llu window(s)) ==\n", lcfg.readers,
              static_cast<unsigned long long>(lcfg.last_windows));
  emit(a, t);
  std::printf(
      "\n%.0f logs/s streamed (%llu logs, %llu window(s) published: %llu boundary / "
      "%llu cap cut(s), %llu late)\n",
      rep.logs_per_second(), static_cast<unsigned long long>(rep.logs_streamed),
      static_cast<unsigned long long>(rep.windows_published),
      static_cast<unsigned long long>(rep.stream.boundary_cuts),
      static_cast<unsigned long long>(rep.stream.cap_cuts),
      static_cast<unsigned long long>(rep.stream.late_logs));
  std::printf(
      "compactor: %llu background merge(s), %llu error(s); %llu live partition(s) over "
      "%llu window(s)\n",
      static_cast<unsigned long long>(rep.compactions),
      static_cast<unsigned long long>(rep.compactor_errors),
      static_cast<unsigned long long>(rep.final_partitions),
      static_cast<unsigned long long>(rep.newest_window));
  print_memo(svc.merged_counters());
  std::printf("verified %llu generation(s): %s; %llu deferred-GC file(s) pending\n",
              static_cast<unsigned long long>(rep.verified_generations),
              rep.divergent == 0 ? "all windowed answers match serial replay"
                                 : "DIVERGED from serial replay",
              static_cast<unsigned long long>(rep.gc_pending_after));
  if (!rep.ok()) {
    std::fprintf(stderr, "serve: %llu divergence(s), %llu gc file(s) leaked\n",
                 static_cast<unsigned long long>(rep.divergent),
                 static_cast<unsigned long long>(rep.gc_pending_after));
    return 1;
  }
  return 0;
}

int cmd_serve(const Args& a, util::Vfs& vfs) {
  if (a.follow) return cmd_serve_follow(a, vfs);
  if (a.requests == 0) {
    std::fprintf(stderr, "serve: --requests N is required (closed-loop requests per client)\n");
    return 2;
  }
  service::ArchiveService::Options sopts;
  sopts.cache.capacity_bytes = a.cache_mb << 20;
  sopts.merged.capacity_bytes = a.merged_cache_mb << 20;
  sopts.merge_threads = a.merge_threads;
  service::ArchiveService svc(a.dir, sopts, vfs);

  service::WorkloadConfig wcfg;
  wcfg.clients = a.clients;
  wcfg.requests_per_client = a.requests;
  wcfg.warmup_per_client = a.warmup;
  wcfg.seed = a.seed;
  wcfg.weight_get = a.weight_get;
  wcfg.weight_ingest = a.weight_ingest;
  wcfg.weight_compact = a.weight_compact;
  wcfg.compact_max_logs = a.max_logs;
  const std::vector<service::ServiceFrame> pool =
      service::make_frame_pool(16, a.seed + 1);
  const service::WorkloadReport rep = service::run_closed_loop(svc, wcfg, pool);

  util::Table t({"kind", "count", "p50 us", "p90 us", "p99 us"});
  const auto row = [&](const char* kind, std::uint64_t n, const util::LatencyHistogram& h) {
    t.add_row({kind, util::format_count(static_cast<double>(n)),
               util::format_fixed(h.p50_ns() * 1e-3, 1), util::format_fixed(h.p90_ns() * 1e-3, 1),
               util::format_fixed(h.p99_ns() * 1e-3, 1)});
  };
  row("get", rep.gets, rep.get_latency);
  row("ingest", rep.ingests, rep.ingest_latency);
  row("compact", rep.compacts, rep.compact_latency);
  std::printf("\n== Closed-loop serving (%u client(s)) ==\n", rep.clients);
  emit(a, t);
  std::printf(
      "\n%.1f req/s over %.3f s; cache hit rate %.1f%% (%llu cache + %llu snapshot hits, "
      "%llu rescans); %llu stale retr%s\n",
      rep.throughput_rps(), rep.wall_seconds, 100.0 * rep.stats.query.cache_hit_rate(),
      static_cast<unsigned long long>(rep.stats.query.cache_hits),
      static_cast<unsigned long long>(rep.stats.query.snapshot_hits),
      static_cast<unsigned long long>(rep.stats.query.partitions_scanned),
      static_cast<unsigned long long>(rep.stats.stale_retries),
      rep.stats.stale_retries == 1 ? "y" : "ies");
  std::printf(
      "generation-delta: %llu merged hit(s), %llu prefix merge(s) "
      "(%llu shard(s) reused), %llu full merge(s) (%llu via tree)\n",
      static_cast<unsigned long long>(rep.stats.query.merged_hits),
      static_cast<unsigned long long>(rep.stats.query.prefix_merges),
      static_cast<unsigned long long>(rep.stats.query.partitions_reused),
      static_cast<unsigned long long>(rep.stats.query.full_merges),
      static_cast<unsigned long long>(rep.stats.query.tree_merges));
  print_memo(svc.merged_counters());
  std::printf("verified %llu generation(s): %s\n",
              static_cast<unsigned long long>(rep.verified_generations),
              rep.ok() ? "all answers match serial replay"
                       : "DIVERGED from serial replay");
  if (!rep.ok()) {
    std::fprintf(stderr, "serve: %llu answer(s) diverged from serial replay\n",
                 static_cast<unsigned long long>(rep.divergent));
    return 1;
  }
  return 0;
}

int cmd_compact(const Args& a, util::Vfs& vfs) {
  archive::Archive ar = archive::Archive::open(a.dir, vfs);
  const std::size_t before = ar.manifest().partitions.size();
  if (a.leveled) {
    // Drain the leveled plan: merge full fanout runs (lowest level first)
    // until no level holds one — the same policy the background compactor
    // applies continuously, run to a fixed point offline.
    const archive::LeveledPolicy policy{a.fanout};
    std::size_t merges = 0;
    while (!ar.compact(archive::plan_leveled(ar.manifest(), policy)).empty()) merges += 1;
    std::printf("leveled compaction: %zu merge(s), %zu -> %zu partition(s) (fanout %u)\n",
                merges, before, ar.manifest().partitions.size(), a.fanout);
  } else {
    (void)ar.compact(archive::plan_small_runs(ar.manifest(), a.max_logs));
    std::printf("compacted %zu -> %zu partition(s) (threshold %llu logs)\n", before,
                ar.manifest().partitions.size(), static_cast<unsigned long long>(a.max_logs));
  }
  for (const std::string& e : ar.gc_errors()) std::printf("GC WARNING: %s\n", e.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args a = parse(argc, argv);
  // Default: the real filesystem, zero interposition beyond one virtual
  // call per file op.  With --fault-spec, the same commands run against a
  // deterministic FaultVfs instead.
  std::optional<util::FaultVfs> fault_vfs;
  util::Vfs* vfs = &util::real_vfs();
  try {
    if (!a.fault_spec.empty()) {
      fault_vfs.emplace(util::FaultPlan::parse(a.fault_spec));
      vfs = &*fault_vfs;
    }
    if (a.cmd == "ingest") return cmd_ingest(a, *vfs);
    if (a.cmd == "query") return cmd_query(a, *vfs);
    if (a.cmd == "verify") return cmd_verify(a, *vfs);
    if (a.cmd == "compact") return cmd_compact(a, *vfs);
    if (a.cmd == "serve") return cmd_serve(a, *vfs);
  } catch (const util::SimulatedCrash& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 3;
  } catch (const util::Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  std::fprintf(stderr, "unknown command '%s'\n", a.cmd.c_str());
  usage(2);
}
