#include "workloads.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <thread>
#include <utility>

#include "archive/ingest.hpp"
#include "archive/query.hpp"
#include "archive/stream.hpp"
#include "core/analysis.hpp"
#include "host.hpp"
#include "iosim/executor.hpp"
#include "ram_vfs.hpp"
#include "service/driver.hpp"
#include "service/service.hpp"
#include "trace.hpp"
#include "util/thread_pool.hpp"
#include "workload/pipeline.hpp"

namespace perfbench {

namespace {

namespace fs = std::filesystem;
using namespace mlio;

// ---- Fixed workload shape (README.md explains each choice) ----------------

/// Worker threads wherever the program fans out.  Half the reference host's
/// 4 cores: on a shared host, neighbours' load and CPU steal stall one of 4
/// busy workers often enough to double the run-to-run spread of wall times
/// (cold-query median: 15% with 4 workers, 7.5% with 2, interleaved runs at
/// 19-39% steal), while 2 workers still drive every parallel path.
constexpr unsigned kThreads = 2;
/// Each ingest round and the query archive: one Summit-2020 and one
/// Cori-2019 population of this many jobs, logs and files scaled down.
constexpr std::uint64_t kPopulationJobs = 300;
constexpr double kPopulationScale = 0.25;
constexpr std::uint64_t kBatches = 8;
/// Live: a Cori-2019 frame pool streamed in start-time order through
/// 3-day windows (about 120 windows of about 20 logs each).
constexpr std::uint64_t kLiveJobs = 1500;
constexpr std::int64_t kLiveWindowSeconds = 3 * 86400;
constexpr std::uint64_t kLiveLastWindows = 8;
constexpr std::uint32_t kLiveFanout = 4;
/// The fixture is built this many times; setup_s is the median.
constexpr int kSetupRepeats = 3;
/// Every this-many-th live generation (and the last) is also checked against
/// the service's own replay_serial / replay_serial_window.
constexpr std::size_t kReplaySample = 16;
/// The traced run's layer self times must cover at least this share of its
/// wall time (the latency bound of BENCHMARK.json).
constexpr double kClosureBound = 0.10;
/// Darshan frame header: magic u32, version u16, flags u16, crc u32,
/// body size u64, stored size u64 (darshan/log_format.cpp).
constexpr std::size_t kFrameHeaderBytes = 28;
constexpr std::size_t kBodySizeOffset = 12;

const fs::path kIngestDir = "/bench/ingest";
const fs::path kQueryDir = "/bench/query";
const fs::path kLiveDir = "/bench/live";

/// Every per-layer metric, in report order.  Each workload measures the ones
/// its traffic exercises and reports 0 for the layers it bypasses.
constexpr const char* kPerLayer[][2] = {
    {"workload.generate_us_per_log", "us"},
    {"iosim.execute_us_per_log", "us"},
    {"iosim.opens_per_log", "count"},
    {"darshan.write_us_per_log", "us"},
    {"darshan.frame_bytes_per_log", "B"},
    {"darshan.compression_ratio", "ratio"},
    {"archive.append_us_per_log", "us"},
    {"archive.publish_ms_per_commit", "ms"},
    {"archive.build_busy_share", "ratio"},
    {"util.vfs.fsyncs_per_commit", "count"},
    {"util.vfs.renames_per_commit", "count"},
    {"util.vfs.bytes_written_per_log", "B"},
    {"service.open_ms", "ms"},
    {"archive.scan_us_per_log", "us"},
    {"core.add_us_per_log", "us"},
    {"core.merge_ms_per_get", "ms"},
    {"util.vfs.bytes_read_per_get", "B"},
    {"util.vfs.reads_per_get", "count"},
    {"service.partitions_scanned_per_get", "count"},
    {"service.logs_scanned_per_get", "count"},
    {"service.resolve_busy_share", "ratio"},
    {"archive.buffer_us_per_append", "us"},
    {"archive.cut_ms_per_window", "ms"},
    {"archive.compact_ms_per_merge", "ms"},
    {"archive.merges", "count"},
    {"archive.rewrite_bytes_per_log", "B"},
    {"archive.partitions_live", "count"},
    {"archive.generations", "count"},
    {"service.window_get_us", "us"},
    {"service.get_us", "us"},
    {"service.refresh_p50_us", "us"},
    {"service.refresh_p99_us", "us"},
    {"service.shard_cache_hit_rate", "ratio"},
    {"service.memo_hits_per_refresh", "ratio"},
    {"service.prefix_merges", "count"},
    {"service.full_merges", "count"},
    {"service.logs_scanned_per_refresh", "count"},
    {"bench.attributed_share", "ratio"},
    {"bench.tracing_overhead", "ratio"},
};

double ratio(double num, double den) { return den != 0 ? num / den : 0; }
double ratio(std::uint64_t num, std::uint64_t den) {
  return ratio(static_cast<double>(num), static_cast<double>(den));
}

// ---- Shared pieces --------------------------------------------------------

wl::GeneratorConfig population() {
  wl::GeneratorConfig cfg;  // the library's default generator seed
  cfg.n_jobs = kPopulationJobs;
  cfg.logs_per_job_scale = kPopulationScale;
  cfg.files_per_log_scale = kPopulationScale;
  return cfg;
}

/// The two populations an ingest round (and the query archive) carries.
/// Their contents are fixed: files per log are lognormal with sigma ~1.9
/// (capped at 20000), so a fresh 300-job draw per seed would vary the
/// round's work by 30-55% and the benchmark would measure the draw, not the
/// code.  The seed picks which facility's backfill arrives first, which
/// changes the archive's partition order and bytes but not the work.
struct Populations {
  explicit Populations(std::uint64_t seed)
      : summit(wl::SystemProfile::summit_2020(), population()),
        cori(wl::SystemProfile::cori_2019(), population()),
        order{seed % 2 == 0 ? &summit : &cori, seed % 2 == 0 ? &cori : &summit} {}
  wl::WorkloadGenerator summit;
  wl::WorkloadGenerator cori;
  const wl::WorkloadGenerator* order[2];
};

archive::IngestOptions ingest_options() {
  archive::IngestOptions o;
  o.batches = kBatches;
  o.ingest_threads = kThreads;
  return o;
}

/// Size of the same log framed without compression.
std::uint64_t raw_frame_bytes(std::span<const std::byte> frame) {
  std::uint64_t body = 0;
  if (frame.size() >= kFrameHeaderBytes) {
    std::memcpy(&body, frame.data() + kBodySizeOffset, sizeof body);  // little-endian host
  }
  return kFrameHeaderBytes + body;
}

/// Build the fixture kSetupRepeats times; the median build time is setup_s.
/// The last build is the one the run uses.
double timed_setup(const std::function<void()>& build) {
  std::vector<double> times;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const auto t0 = Clock::now();
    build();
    times.push_back(seconds_since(t0));
  }
  return quantile(times, 0.5);
}

/// Measured-time budget: rounds run until their timed parts add up to the
/// budget, and at least twice, so the exact-count check always compares.
class Budget {
 public:
  explicit Budget(double seconds) : seconds_(seconds) {}
  bool more() const { return used_ < seconds_ || rounds_ < 2; }
  void add(double s) {
    used_ += s;
    rounds_ += 1;
  }
  std::uint64_t rounds() const { return rounds_; }

 private:
  double seconds_;
  double used_ = 0;
  std::uint64_t rounds_ = 0;
};

/// Exact counts of one round, compared with the first round's.  A count
/// that drifts is a determinism bug, not noise, and fails the run.
class ExactCounts {
 public:
  void add(const char* name, std::uint64_t v) { current_.emplace_back(name, v); }
  void add(const VfsCounts& c) {
    add("vfs.reads", c.reads);
    add("vfs.read_bytes", c.read_bytes);
    add("vfs.opens", c.opens);
    add("vfs.writes", c.writes);
    add("vfs.write_bytes", c.write_bytes);
    add("vfs.fsyncs", c.fsyncs);
    add("vfs.renames", c.renames);
    add("vfs.dirsyncs", c.dirsyncs);
    add("vfs.removes", c.removes);
  }
  void end_round(std::vector<std::string>& errors) {
    rounds_ += 1;
    if (rounds_ == 1) {
      first_ = std::move(current_);
    } else {
      for (std::size_t i = 0; i < current_.size() && i < first_.size(); ++i) {
        if (current_[i].second != first_[i].second) {
          errors.push_back("exact count drifted: " + current_[i].first + " = " +
                           std::to_string(current_[i].second) + " in round " +
                           std::to_string(rounds_) + ", " + std::to_string(first_[i].second) +
                           " in round 1");
        }
      }
    }
    current_.clear();
  }
  /// One line with every count of round 1 and their FNV-1a digest; equal
  /// lines across runs of one seed mean the counts repeated bit for bit.
  std::string line() const {
    std::uint64_t h = 1469598103934665603ull;
    std::string s;
    for (const auto& [name, v] : first_) {
      for (const char c : name) h = (h ^ static_cast<unsigned char>(c)) * 1099511628211ull;
      h = (h ^ v) * 1099511628211ull;
      s += " " + name + "=" + std::to_string(v);
    }
    char d[32];
    std::snprintf(d, sizeof d, "%016llx", static_cast<unsigned long long>(h));
    return "exact counts per round (digest " + std::string(d) + "):" + s;
  }

 private:
  std::vector<std::pair<std::string, std::uint64_t>> first_, current_;
  std::uint64_t rounds_ = 0;
};

/// A span only when tracing.
class MaybeSpan {
 public:
  MaybeSpan(bool on, const char* name) {
    if (on) span_.emplace(name);
  }
  void rename(const char* name) {
    if (span_) span_->rename(name);
  }

 private:
  std::optional<Span> span_;
};

/// Run `body(w)` on `n` threads and join them; the first exception any
/// thread throws is rethrown on the caller after the join.
void run_threads(unsigned n, const std::function<void(unsigned)>& body) {
  std::vector<std::thread> threads;
  std::exception_ptr error;
  std::mutex error_mu;
  for (unsigned w = 0; w < n; ++w) {
    threads.emplace_back([&, w] {
      try {
        body(w);
      } catch (...) {
        const std::scoped_lock lock(error_mu);
        if (!error) error = std::current_exception();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  if (error) std::rethrow_exception(error);
}

/// Everything a workload reports, collected as it runs.
struct Report {
  std::map<std::string, double> layer;  ///< per-layer values by name
  /// Untraced rounds: every round does the same work (the exact-count check
  /// holds it to that), so throughput is that work over the median round.
  std::vector<double> round_s;
  double logs_per_round = 0;
  double cpu_us_per_log = 0;
  std::vector<double> op_s;  ///< latency samples of the workload's operation
  double stored_bytes_per_log = 0;
  double setup_s = 0;
  double steal_share = 0;       ///< of the host's busy CPU over the untraced rounds
  double untraced_round_s = 0;  ///< mean round wall time, tracing off
  double traced_round_s = 0;    ///< mean round wall time, tracing on
};

/// Self time of span `name` in ns.
double self_ns(const std::map<std::string, SpanTotals>& t, const std::string& name) {
  const auto it = t.find(name);
  return it == t.end() ? 0.0 : static_cast<double>(it->second.self_ns);
}
std::uint64_t calls(const std::map<std::string, SpanTotals>& t, const std::string& name) {
  const auto it = t.find(name);
  return it == t.end() ? 0 : it->second.calls;
}

/// Per-layer table of the traced run plus the closure check: on the driving
/// thread, the spans' self times must cover all but kClosureBound of the
/// traced rounds' wall time (the rest is the harness's own bookkeeping).
void trace_report(const RunConfig& cfg, Report& rep, RunOutcome& out) {
  const auto driver = tracer::totals(true);
  const auto all = tracer::totals(false);
  const auto root = driver.find("bench.timed");
  const double e2e_ns = root == driver.end() ? 0.0 : static_cast<double>(root->second.total_ns);
  const double harness_ns = self_ns(driver, "bench.timed");
  const double attributed = ratio(e2e_ns - harness_ns, e2e_ns);
  rep.layer["bench.attributed_share"] = attributed;
  rep.layer["bench.tracing_overhead"] = ratio(rep.traced_round_s, rep.untraced_round_s) - 1.0;

  struct Row {
    double driver_ns = 0, all_ns = 0;
    std::uint64_t calls = 0;
  };
  std::map<std::string, Row> layers;
  for (const auto& [name, t] : all) {
    Row& r = layers[name.substr(0, name.find('.'))];
    r.all_ns += static_cast<double>(t.self_ns);
    r.calls += t.calls;
  }
  for (const auto& [name, t] : driver) {
    layers[name.substr(0, name.find('.'))].driver_ns += static_cast<double>(t.self_ns);
  }
  out.notes.push_back("traced run: per-layer self time (driver = wall on the calling thread, "
                      "all = summed over every thread)");
  out.notes.push_back("  layer      driver ms   share    all-thread ms     spans");
  for (const auto& [layer, r] : layers) {
    char line[160];
    std::snprintf(line, sizeof line, "  %-9s %10.1f  %6.1f%%  %14.1f  %9llu", layer.c_str(),
                  r.driver_ns * 1e-6, 100.0 * ratio(r.driver_ns, e2e_ns), r.all_ns * 1e-6,
                  static_cast<unsigned long long>(r.calls));
    out.notes.push_back(line);
  }
  char line[200];
  std::snprintf(line, sizeof line,
                "closure: layer self times cover %.2f%% of the traced wall time %.3f s "
                "(bound %.0f%%): %s",
                100.0 * attributed, e2e_ns * 1e-9, 100.0 * kClosureBound,
                attributed >= 1.0 - kClosureBound ? "ok" : "FAIL");
  out.notes.push_back(line);
  std::snprintf(line, sizeof line,
                "tracing overhead: traced round %.4f s vs untraced %.4f s (%+.1f%%)",
                rep.traced_round_s, rep.untraced_round_s,
                100.0 * rep.layer["bench.tracing_overhead"]);
  out.notes.push_back(line);
  if (attributed < 1.0 - kClosureBound) {
    out.errors.push_back("closure check failed: spans cover only " +
                         std::to_string(100.0 * attributed) + "% of the traced wall time");
  }
  if (!cfg.trace_path.empty()) {
    if (tracer::write_chrome_json(cfg.trace_path)) {
      out.notes.push_back("chrome trace written to " + cfg.trace_path);
    } else {
      out.errors.push_back("cannot write trace file " + cfg.trace_path);
    }
  }
}

// ---- ingest ---------------------------------------------------------------

/// Counts the traced ingest chain gathers on its worker threads.
struct IngestTally {
  std::uint64_t logs = 0;
  std::uint64_t frame_bytes = 0;
  std::uint64_t raw_bytes = 0;
  std::uint64_t commits = 0;
  sim::ExecStats exec;
};

/// archive::ingest_generated with every layer call made from here, inside
/// spans: kThreads builders claim the same cuts the library plans (kBatches
/// even bulk cuts, then the hero stratum), each log runs generate ->
/// execute -> serialize+deflate -> append, and the calling thread stages the
/// partitions in id order and commits them as one group.  The archive bytes
/// must equal the library's, which the caller checks.
void ingest_traced(archive::Archive& ar, const wl::WorkloadGenerator& gen, IngestTally& tally) {
  struct Cut {
    bool huge;
    std::uint64_t lo, hi;
  };
  std::vector<Cut> cuts;
  const std::uint64_t n = gen.config().n_jobs;
  const std::uint64_t batches = std::max<std::uint64_t>(1, std::min(kBatches, n));
  for (std::uint64_t b = 0; b < batches; ++b) {
    cuts.push_back({false, n * b / batches, n * (b + 1) / batches});
  }
  if (gen.huge_job_count() > 0) cuts.push_back({true, 0, gen.huge_job_count()});

  const std::uint64_t base_id = ar.manifest().next_partition_id;
  const std::uint64_t commit_gen = ar.manifest().generation + 1;
  const sim::JobExecutor executor(wl::machine_for(gen.profile()));
  std::vector<archive::Archive::PendingPartition> built(cuts.size());
  std::vector<IngestTally> tallies(kThreads);
  std::atomic<std::size_t> ticket{0};
  {
    Span s("archive.build");
    run_threads(kThreads, [&](unsigned w) {
      darshan::LogData log;
      darshan::LogIoBuffers io;
      IngestTally& t = tallies[w];
      for (std::size_t k = ticket++; k < cuts.size(); k = ticket++) {
        archive::Archive::PartitionWriter writer = ar.begin_partition_at(base_id + k);
        const auto emit = [&](const sim::JobSpec& spec) {
          {
            Span x("iosim.execute");
            executor.execute_into(spec, log, &t.exec);
          }
          std::span<const std::byte> frame;
          {
            Span x("darshan.write");
            frame = darshan::write_log_bytes_into(log, io);
          }
          t.logs += 1;
          t.frame_bytes += frame.size();
          t.raw_bytes += raw_frame_bytes(frame);
          Span x("archive.append");
          writer.append_frame(log.job, frame);
        };
        {
          Span g("workload.generate");
          if (cuts[k].huge) {
            gen.generate_huge_range(cuts[k].lo, cuts[k].hi, emit);
          } else {
            gen.generate_bulk_range(cuts[k].lo, cuts[k].hi, emit);
          }
        }
        Span f("archive.finish");
        built[k] = writer.finish();
        built[k].info.data_generation = commit_gen;
      }
    });
  }
  for (const IngestTally& t : tallies) {
    tally.logs += t.logs;
    tally.frame_bytes += t.frame_bytes;
    tally.raw_bytes += t.raw_bytes;
    tally.exec.merge(t.exec);
  }
  Span p("archive.publish");
  for (archive::Archive::PendingPartition& part : built) ar.stage_partition_files(part);
  ar.commit_group(built);
  tally.commits += 1;
}

void run_ingest(const RunConfig& cfg, Report& rep, RunOutcome& out) {
  RamVfs ram;
  CountingVfs vfs(ram);
  std::unique_ptr<Populations> pops;
  std::uint64_t reference = 0;
  // Fixture: the generators plus one warm-up round, whose archive bytes are
  // the reference every timed round must reproduce.
  rep.setup_s = timed_setup([&] {
    ram.remove_all(kIngestDir);
    pops = std::make_unique<Populations>(cfg.seed);
    archive::Archive ar = archive::Archive::create(kIngestDir, ram);
    for (const wl::WorkloadGenerator* gen : pops->order) {
      archive::ingest_generated(ar, *gen, ingest_options());
    }
    reference = ram.digest(kIngestDir);
  });

  ExactCounts exact;
  double wall = 0, cpu = 0, build_cpu_ns = 0, build_wall_s = 0;
  std::uint64_t logs = 0, round_logs = 0, commits = 0;
  VfsCounts round_vfs;
  const HostSample host0 = sample_host();
  Budget budget(cfg.trace ? cfg.seconds / 2 : cfg.seconds);
  while (budget.more()) {
    ram.remove_all(kIngestDir);
    const VfsCounts c0 = vfs.counts();
    const double cpu0 = process_cpu_seconds();
    const auto t0 = Clock::now();
    archive::Archive ar = archive::Archive::create(kIngestDir, vfs);
    const archive::IngestStats a = archive::ingest_generated(ar, *pops->order[0], ingest_options());
    const archive::IngestStats b = archive::ingest_generated(ar, *pops->order[1], ingest_options());
    const double w = seconds_since(t0);
    cpu += process_cpu_seconds() - cpu0;
    round_vfs = vfs.counts() - c0;
    budget.add(w);
    wall += w;
    rep.round_s.push_back(w);
    rep.op_s.push_back(w);
    round_logs = a.logs + b.logs;
    logs += round_logs;
    commits = a.groups + b.groups + 1;  // + the empty manifest Archive::create writes
    for (const archive::IngestStats* s : {&a, &b}) {
      build_cpu_ns += static_cast<double>(s->serialize_ns + s->compress_ns + s->snapshot_ns);
      build_wall_s += s->seconds;
    }
    out.attempted += 1;
    if (ram.digest(kIngestDir) != reference) {
      out.failed += 1;
      out.errors.push_back("ingest round " + std::to_string(budget.rounds()) +
                           ": archive bytes differ from the reference round");
    }
    exact.add("logs", round_logs);
    exact.add("partitions", a.partitions + b.partitions);
    exact.add("commits", commits);
    exact.add("stored_bytes", ram.bytes_in(kIngestDir));
    exact.add("files", ram.files_in(kIngestDir));
    exact.add(round_vfs);
    exact.end_round(out.errors);
  }
  // The last round's archive stays behind for a deep verify.
  const archive::Archive::VerifyReport v = archive::Archive::open(kIngestDir, ram).verify(true);
  if (!v.ok() || v.logs_checked != round_logs) {
    out.errors.push_back("deep verify of the last ingest round failed: " +
                         (v.issues.empty() ? std::string("log count mismatch") : v.issues.front()));
  }
  rep.logs_per_round = static_cast<double>(round_logs);
  rep.cpu_us_per_log = ratio(cpu * 1e6, static_cast<double>(logs));
  rep.stored_bytes_per_log = ratio(ram.bytes_in(kIngestDir), round_logs);
  rep.untraced_round_s = wall / static_cast<double>(budget.rounds());
  rep.steal_share = steal_share(host0, sample_host());
  rep.layer["archive.build_busy_share"] = ratio(build_cpu_ns * 1e-9, build_wall_s * kThreads);
  rep.layer["util.vfs.fsyncs_per_commit"] = ratio(round_vfs.fsyncs, commits);
  rep.layer["util.vfs.renames_per_commit"] = ratio(round_vfs.renames, commits);
  rep.layer["util.vfs.bytes_written_per_log"] = ratio(round_vfs.write_bytes, round_logs);
  char line[80];
  std::snprintf(line, sizeof line, "archive digest %016llx",
                static_cast<unsigned long long>(reference));
  out.notes.push_back(line);
  out.notes.push_back(exact.line());
  if (!cfg.trace) return;

  tracer::reset();
  tracer::mark_driver();
  IngestTally tally;
  double traced_wall = 0;
  for (Budget traced(cfg.seconds / 2); traced.more();) {
    ram.remove_all(kIngestDir);
    const auto t0 = Clock::now();
    {
      Span root("bench.timed");
      std::optional<archive::Archive> ar;
      {
        Span s("archive.create");
        ar.emplace(archive::Archive::create(kIngestDir, vfs));
      }
      for (const wl::WorkloadGenerator* gen : pops->order) ingest_traced(*ar, *gen, tally);
    }
    const double w = seconds_since(t0);
    traced.add(w);
    traced_wall += w;
    rep.traced_round_s = traced_wall / static_cast<double>(traced.rounds());
    out.attempted += 1;
    if (ram.digest(kIngestDir) != reference) {
      out.failed += 1;
      out.errors.push_back("traced ingest chain wrote different archive bytes than the library");
    }
  }
  const auto all = tracer::totals(false);
  const auto driver = tracer::totals(true);
  const double tl = static_cast<double>(tally.logs);
  rep.layer["workload.generate_us_per_log"] = ratio(self_ns(all, "workload.generate") * 1e-3, tl);
  rep.layer["iosim.execute_us_per_log"] = ratio(self_ns(all, "iosim.execute") * 1e-3, tl);
  rep.layer["iosim.opens_per_log"] = ratio(tally.exec.opens, tally.logs);
  rep.layer["darshan.write_us_per_log"] = ratio(self_ns(all, "darshan.write") * 1e-3, tl);
  rep.layer["darshan.frame_bytes_per_log"] = ratio(tally.frame_bytes, tally.logs);
  rep.layer["darshan.compression_ratio"] = ratio(tally.raw_bytes, tally.frame_bytes);
  rep.layer["archive.append_us_per_log"] =
      ratio((self_ns(all, "archive.append") + self_ns(all, "archive.finish")) * 1e-3, tl);
  rep.layer["archive.publish_ms_per_commit"] =
      ratio(self_ns(driver, "archive.publish") * 1e-6, static_cast<double>(tally.commits));
  trace_report(cfg, rep, out);
}

// ---- query ----------------------------------------------------------------

service::ArchiveService::Options query_service_options() {
  service::ArchiveService::Options o;
  o.merge_threads = kThreads;
  return o;
}

/// ArchiveService construction plus its first get(), with the cold get's
/// layer calls made from here: kThreads workers rebuild every shard with
/// Archive::scan_partition (core::Analysis::add as the child span of each
/// log), then Analysis::merge_ordered folds them on a pool.  Returns the
/// fingerprint, which must equal the serial oracle's.
std::uint64_t query_traced(CountingVfs& vfs, util::ThreadPool& merge_pool,
                           std::uint64_t& logs) {
  // Declared before the root span so that tearing them down is not timed.
  std::optional<service::ArchiveService> svc;
  std::optional<archive::Archive> ar;
  std::vector<core::Analysis> shards;
  Span root("bench.timed");
  {
    Span s("service.open");
    svc.emplace(kQueryDir, query_service_options(), vfs);
  }
  {
    Span s("archive.open");
    ar.emplace(archive::Archive::open(kQueryDir, vfs));
  }
  const std::vector<archive::PartitionInfo>& parts = ar->manifest().partitions;
  shards.resize(parts.size());
  std::vector<std::uint64_t> worker_logs(kThreads, 0);
  std::atomic<std::size_t> ticket{0};
  {
    Span s("service.resolve");
    run_threads(kThreads, [&](unsigned w) {
      archive::Archive::ScanScratch scan;
      core::AnalyzeScratch analyze;
      for (std::size_t k = ticket++; k < parts.size(); k = ticket++) {
        Span x("archive.scan");
        ar->scan_partition(
            parts[k],
            [&](const darshan::LogData& log) {
              Span a("core.add");
              shards[k].add(log, analyze);
              worker_logs[w] += 1;
            },
            scan, archive::ScanOptions{});
      }
    });
  }
  for (const std::uint64_t n : worker_logs) logs += n;
  Span m("core.merge");
  std::vector<const core::Analysis*> ptrs;
  for (const core::Analysis& s : shards) ptrs.push_back(&s);
  return core::Analysis::merge_ordered(ptrs, &merge_pool).fingerprint();
}

void run_query(const RunConfig& cfg, Report& rep, RunOutcome& out) {
  RamVfs ram;
  CountingVfs vfs(ram);
  std::uint64_t oracle = 0;
  std::uint64_t archive_logs = 0;
  // Fixture: both populations ingested without snapshots, and the serial
  // replay's fingerprint every cold answer must match.
  rep.setup_s = timed_setup([&] {
    ram.remove_all(kQueryDir);
    const Populations pops(cfg.seed);
    archive::Archive ar = archive::Archive::create(kQueryDir, ram);
    archive_logs = 0;
    for (const wl::WorkloadGenerator* gen : pops.order) {
      archive_logs += archive::ingest_generated(ar, *gen, ingest_options()).logs;
    }
    service::ArchiveService svc(kQueryDir, {}, ram);
    oracle = svc.replay_serial(svc.pin()).fingerprint();
  });
  const double stored = static_cast<double>(ram.bytes_in(kQueryDir));

  ExactCounts exact;
  double wall = 0, cpu = 0;
  std::uint64_t logs = 0;
  archive::QueryStats last;
  VfsCounts round_vfs;
  const HostSample host0 = sample_host();
  Budget budget(cfg.trace ? cfg.seconds / 2 : cfg.seconds);
  while (budget.more()) {
    std::optional<service::ArchiveService> svc;
    const VfsCounts c0 = vfs.counts();
    const double cpu0 = process_cpu_seconds();
    const auto t0 = Clock::now();
    svc.emplace(kQueryDir, query_service_options(), vfs);
    std::optional<service::ArchiveService::GetResult> r = svc->get();
    const double w = seconds_since(t0);
    cpu += process_cpu_seconds() - cpu0;
    round_vfs = vfs.counts() - c0;
    const std::uint64_t fingerprint = r->fingerprint;
    last = r->stats.query;
    r.reset();    // the answer's pin must not outlive the service
    svc.reset();  // joins the merge pool; not part of time to first answer
    budget.add(w);
    wall += w;
    rep.round_s.push_back(w);
    rep.op_s.push_back(w);
    logs += last.logs_scanned;
    out.attempted += 1;
    if (fingerprint != oracle) {
      out.failed += 1;
      out.errors.push_back("cold query " + std::to_string(budget.rounds()) +
                           " disagrees with the serial replay");
    }
    exact.add("partitions", last.partitions);
    exact.add("partitions_scanned", last.partitions_scanned);
    exact.add("logs_scanned", last.logs_scanned);
    exact.add("full_merges", last.full_merges);
    exact.add(round_vfs);
    exact.end_round(out.errors);
  }
  if (last.logs_scanned != archive_logs) {
    out.errors.push_back("cold query scanned " + std::to_string(last.logs_scanned) +
                         " logs of " + std::to_string(archive_logs));
  }
  rep.logs_per_round = static_cast<double>(last.logs_scanned);
  rep.cpu_us_per_log = ratio(cpu * 1e6, static_cast<double>(logs));
  rep.stored_bytes_per_log = ratio(stored, static_cast<double>(archive_logs));
  rep.untraced_round_s = wall / static_cast<double>(budget.rounds());
  rep.steal_share = steal_share(host0, sample_host());
  rep.layer["util.vfs.bytes_read_per_get"] = static_cast<double>(round_vfs.read_bytes);
  rep.layer["util.vfs.reads_per_get"] = static_cast<double>(round_vfs.reads);
  rep.layer["service.partitions_scanned_per_get"] = static_cast<double>(last.partitions_scanned);
  rep.layer["service.logs_scanned_per_get"] = static_cast<double>(last.logs_scanned);
  rep.layer["service.resolve_busy_share"] = ratio(cpu, wall * kThreads);
  out.notes.push_back(exact.line());
  if (!cfg.trace) return;

  tracer::reset();
  tracer::mark_driver();
  util::ThreadPool merge_pool(kThreads);
  std::uint64_t traced_logs = 0;
  double traced_wall = 0;
  for (Budget traced(cfg.seconds / 2); traced.more();) {
    const auto t0 = Clock::now();
    const std::uint64_t fp = query_traced(vfs, merge_pool, traced_logs);
    const double w = seconds_since(t0);
    traced.add(w);
    traced_wall += w;
    rep.traced_round_s = traced_wall / static_cast<double>(traced.rounds());
    out.attempted += 1;
    if (fp != oracle) {
      out.failed += 1;
      out.errors.push_back("traced cold query disagrees with the serial replay");
    }
  }
  const auto all = tracer::totals(false);
  const auto driver = tracer::totals(true);
  const double tl = static_cast<double>(traced_logs);
  const double gets = static_cast<double>(calls(driver, "bench.timed"));
  rep.layer["service.open_ms"] = ratio(self_ns(driver, "service.open") * 1e-6, gets);
  rep.layer["archive.scan_us_per_log"] = ratio(self_ns(all, "archive.scan") * 1e-3, tl);
  rep.layer["core.add_us_per_log"] = ratio(self_ns(all, "core.add") * 1e-3, tl);
  rep.layer["core.merge_ms_per_get"] = ratio(self_ns(driver, "core.merge") * 1e-6, gets);
  trace_report(cfg, rep, out);
}

// ---- live -----------------------------------------------------------------

/// The answer of one refresh: a windowed get and a whole-archive get at the
/// same generation.
struct Answer {
  std::uint64_t generation = 0;
  std::uint64_t window_fp = 0;
  std::uint64_t whole_fp = 0;
  bool operator==(const Answer&) const = default;
};

/// ArchiveService::replay_serial / replay_serial_window with each
/// partition's shard rebuilt once: a shard depends only on the partition's
/// id and data generation, and the oracle's fold is a serial left fold in
/// manifest order, so the fingerprints equal the service's oracle bit for
/// bit at a fraction of the cost of replaying every generation from scratch.
class SerialOracle {
 public:
  SerialOracle(const fs::path& dir, util::Vfs& vfs) : archive_(archive::Archive::open(dir, vfs)) {}

  Answer answer(const service::ArchiveService::Pin& pin) {
    const archive::Manifest& m = pin.manifest();
    const archive::WindowSelection sel = archive::select_last_windows(m, kLiveLastWindows);
    const Answer a{pin.generation(), fold(m, sel.first), fold(m, 0)};
    // Partitions only ever leave the manifest (compacted away), so shards
    // the current manifest no longer names will not be asked for again.
    std::erase_if(shards_, [&](const auto& kv) {
      return std::none_of(m.partitions.begin(), m.partitions.end(), [&](const auto& p) {
        return p.id == kv.first.first && p.data_generation == kv.first.second;
      });
    });
    return a;
  }

 private:
  std::uint64_t fold(const archive::Manifest& m, std::size_t first) {
    core::Analysis replay;
    for (std::size_t i = first; i < m.partitions.size(); ++i) replay.merge(shard(m.partitions[i]));
    return replay.fingerprint();
  }
  const core::Analysis& shard(const archive::PartitionInfo& p) {
    const auto key = std::make_pair(p.id, p.data_generation);
    auto it = shards_.find(key);
    if (it == shards_.end()) {
      core::Analysis s;
      archive::ScanOptions opts;
      opts.mlp_depth = 1;
      archive_.scan_partition(p, [&](const darshan::LogData& log) { s.add(log); }, scratch_, opts);
      it = shards_.emplace(key, std::move(s)).first;
    }
    return it->second;
  }

  archive::Archive archive_;
  archive::Archive::ScanScratch scratch_;
  std::map<std::pair<std::uint64_t, std::uint64_t>, core::Analysis> shards_;
};

struct LiveRound {
  double wall = 0;  ///< timed steps only; the checks between steps are not timed
  double cpu = 0;
  std::vector<double> publish_s;  ///< stream_append calls that published
  std::vector<double> refresh_s;
  std::uint64_t windows = 0;
  std::uint64_t merges = 0;
  std::uint64_t compact_write_bytes = 0;
  std::uint64_t partitions_at_refresh = 0;  ///< summed over refreshes
  archive::QueryStats query;                ///< summed over refreshes
  std::vector<Answer> answers;              ///< one per generation refreshed
  std::uint64_t stored_bytes = 0;
  VfsCounts vfs;  ///< timed steps only
};

/// One pass of the frame pool through a fresh archive.  Each timed step
/// appends one frame, compacts inline until nothing merges whenever a window
/// was published, then refreshes.  Between steps, untimed, the refresh is
/// checked: in round 1 (`expected` null) every new generation against the
/// serial oracle, later against round 1's answer for the same step.
LiveRound live_round(const std::vector<service::ServiceFrame>& pool, RamVfs& ram, CountingVfs& vfs,
                     bool traced, const std::vector<Answer>* expected, RunOutcome& out) {
  LiveRound r;
  ram.remove_all(kLiveDir);
  archive::Archive::create(kLiveDir, ram);
  service::ArchiveService::Options opts;
  opts.stream.window_seconds = kLiveWindowSeconds;
  service::ArchiveService svc(kLiveDir, opts, vfs);
  std::optional<SerialOracle> oracle;
  if (expected == nullptr) oracle.emplace(kLiveDir, ram);
  const archive::LeveledPolicy policy{kLiveFanout};
  std::uint64_t wrong = 0;

  const auto compact = [&] {
    for (;;) {
      const std::uint64_t w0 = vfs.counts().write_bytes;
      MaybeSpan s(traced, "archive.compact");
      const bool merged = svc.compact_step(policy).has_value();
      r.compact_write_bytes += vfs.counts().write_bytes - w0;
      if (!merged) return;
      r.merges += 1;
    }
  };
  service::ArchiveService::GetResult window, whole;
  const auto refresh = [&] {
    const auto t0 = Clock::now();
    {
      MaybeSpan s(traced, "service.window_get");
      window = svc.get_window(kLiveLastWindows);
    }
    {
      MaybeSpan s(traced, "service.get");
      whole = svc.get();
    }
    r.refresh_s.push_back(seconds_since(t0));
  };
  const auto check = [&] {
    r.query.merge(window.stats.query);
    r.query.merge(whole.stats.query);
    r.partitions_at_refresh += whole.stats.query.partitions;
    const Answer a{whole.generation, window.fingerprint, whole.fingerprint};
    out.attempted += 1;
    bool ok = window.generation == whole.generation;
    if (!r.answers.empty() && r.answers.back().generation == a.generation) {
      ok = ok && r.answers.back() == a;  // same generation, same answer
    } else {
      const std::size_t i = r.answers.size();
      r.answers.push_back(a);
      if (oracle) {
        const Answer want = oracle->answer(whole.pin);
        ok = ok && want == a;
        if (i % kReplaySample == 0) {
          const Answer replay{whole.generation,
                              svc.replay_serial_window(whole.pin, kLiveLastWindows).fingerprint(),
                              svc.replay_serial(whole.pin).fingerprint()};
          if (!(replay == want)) {
            out.errors.push_back("memoized serial oracle disagrees with replay_serial at "
                                 "generation " + std::to_string(a.generation));
          }
        }
      } else {
        ok = ok && i < expected->size() && (*expected)[i] == a;
      }
    }
    if (!ok) wrong += 1;
    window = {};  // drop the pins so deferred GC runs as it would without checks
    whole = {};
  };
  // One timed step: wall and CPU time, Vfs counts, and the root span.
  const auto timed = [&](const std::function<void()>& step) {
    const VfsCounts c0 = vfs.counts();
    const double cpu0 = process_cpu_seconds();
    const auto t0 = Clock::now();
    {
      MaybeSpan root(traced, "bench.timed");
      step();
    }
    r.wall += seconds_since(t0);
    r.cpu += process_cpu_seconds() - cpu0;
    r.vfs = r.vfs + (vfs.counts() - c0);
  };

  for (const service::ServiceFrame& f : pool) {
    timed([&] {
      const auto t0 = Clock::now();
      std::size_t published = 0;
      {
        MaybeSpan s(traced, "archive.stream_append");
        published = svc.stream_append(std::span<const service::ServiceFrame>(&f, 1)).published.size();
        if (published > 0) s.rename("archive.cut");
      }
      if (published > 0) {
        r.publish_s.push_back(seconds_since(t0));
        r.windows += published;
        compact();
      }
      refresh();
    });
    check();
  }
  timed([&] {
    {
      MaybeSpan s(traced, "archive.cut");
      r.windows += svc.stream_flush().published.size();
    }
    compact();
    refresh();
  });
  check();

  if (oracle) {
    const Answer& last = r.answers.back();
    service::ArchiveService::Pin pin = svc.pin();
    if (svc.replay_serial(pin).fingerprint() != last.whole_fp ||
        svc.replay_serial_window(pin, kLiveLastWindows).fingerprint() != last.window_fp) {
      out.errors.push_back("final live generation disagrees with replay_serial");
    }
  } else if (expected->size() != r.answers.size()) {
    out.errors.push_back("live round answered " + std::to_string(r.answers.size()) +
                         " generations, round 1 answered " + std::to_string(expected->size()));
  }
  if (wrong > 0) {
    out.failed += wrong;
    out.errors.push_back(std::to_string(wrong) + " live refreshes disagree with the serial oracle");
  }
  if (svc.deferred_gc_pending() != 0) {
    out.errors.push_back("deferred GC left " + std::to_string(svc.deferred_gc_pending()) +
                         " files after the live round");
  }
  r.stored_bytes = ram.bytes_in(kLiveDir);
  return r;
}

/// The frames service::make_frame_pool makes, built on the calling thread:
/// the library fans the work out over every core, and what those workers
/// leave behind in their heaps made the run's peak RSS vary by 20%.
std::vector<service::ServiceFrame> frame_pool() {
  wl::GeneratorConfig cfg;
  cfg.n_jobs = kLiveJobs;
  cfg.logs_per_job_scale = 0.2;
  cfg.files_per_log_scale = 0.2;
  const wl::WorkloadGenerator gen(wl::SystemProfile::cori_2019(), cfg);
  const sim::JobExecutor executor(wl::machine_for(gen.profile()));
  darshan::LogData log;
  darshan::LogIoBuffers io;
  std::vector<service::ServiceFrame> frames;
  gen.generate_bulk_range(0, kLiveJobs, [&](const sim::JobSpec& spec) {
    executor.execute_into(spec, log);
    const std::span<const std::byte> frame = darshan::write_log_bytes_into(log, io);
    frames.push_back({log.job, {frame.begin(), frame.end()}});
  });
  return frames;
}

void run_live(const RunConfig& cfg, Report& rep, RunOutcome& out) {
  RamVfs ram;
  CountingVfs vfs(ram);
  std::vector<service::ServiceFrame> pool;
  // Fixture: the frame pool in window order, as a live feed delivers it.
  // Like the batch populations the pool's contents are fixed; the seed
  // shuffles arrival order within each window, which changes every
  // partition's bytes and every shard's merge order but not the work.
  rep.setup_s = timed_setup([&] {
    pool = {};  // never hold two pools at once
    pool = frame_pool();
    const auto key = [&](const service::ServiceFrame& f) {
      std::uint64_t h = cfg.seed * 0x9e3779b97f4a7c15ull ^ f.job.job_id;
      h = (h ^ static_cast<std::uint64_t>(f.job.start_time)) * 0xff51afd7ed558ccdull;
      return std::make_pair(archive::window_id_for(f.job.start_time, kLiveWindowSeconds),
                            h ^ (h >> 33));
    };
    std::sort(pool.begin(), pool.end(),
              [&](const auto& a, const auto& b) { return key(a) < key(b); });
  });
  std::uint64_t frame_bytes = 0, raw_bytes = 0;
  for (const service::ServiceFrame& f : pool) {
    frame_bytes += f.bytes.size();
    raw_bytes += raw_frame_bytes(f.bytes);
  }
  const std::uint64_t n = pool.size();

  ExactCounts exact;
  std::vector<Answer> first_answers;
  std::vector<double> refresh_s;
  double wall = 0, cpu = 0;
  std::uint64_t logs = 0, refreshes = 0;
  archive::QueryStats query;
  LiveRound last;
  const HostSample host0 = sample_host();
  Budget budget(cfg.trace ? cfg.seconds / 2 : cfg.seconds);
  while (budget.more()) {
    LiveRound r = live_round(pool, ram, vfs, false,
                             budget.rounds() == 0 ? nullptr : &first_answers, out);
    if (budget.rounds() == 0) first_answers = r.answers;
    budget.add(r.wall);
    wall += r.wall;
    cpu += r.cpu;
    logs += n;
    rep.round_s.push_back(r.wall);
    rep.op_s.insert(rep.op_s.end(), r.publish_s.begin(), r.publish_s.end());
    refresh_s.insert(refresh_s.end(), r.refresh_s.begin(), r.refresh_s.end());
    refreshes += r.refresh_s.size();
    query.merge(r.query);
    exact.add("windows", r.windows);
    exact.add("merges", r.merges);
    exact.add("generations", r.answers.size());
    exact.add("stored_bytes", r.stored_bytes);
    exact.add("compaction_write_bytes", r.compact_write_bytes);
    exact.add("partitions_at_refresh", r.partitions_at_refresh);
    exact.add("logs_scanned", r.query.logs_scanned);
    exact.add("memo_hits", r.query.merged_hits);
    exact.add("prefix_merges", r.query.prefix_merges);
    exact.add("full_merges", r.query.full_merges);
    exact.add(r.vfs);
    exact.end_round(out.errors);
    last = std::move(r);
  }
  const double rounds = static_cast<double>(budget.rounds());
  const std::uint64_t commits = last.windows + last.merges;
  rep.logs_per_round = static_cast<double>(n);
  rep.cpu_us_per_log = ratio(cpu * 1e6, static_cast<double>(logs));
  rep.stored_bytes_per_log = ratio(last.stored_bytes, n);
  rep.untraced_round_s = wall / rounds;
  rep.steal_share = steal_share(host0, sample_host());
  rep.layer["darshan.frame_bytes_per_log"] = ratio(frame_bytes, n);
  rep.layer["darshan.compression_ratio"] = ratio(raw_bytes, frame_bytes);
  rep.layer["util.vfs.fsyncs_per_commit"] = ratio(last.vfs.fsyncs, commits);
  rep.layer["util.vfs.renames_per_commit"] = ratio(last.vfs.renames, commits);
  rep.layer["util.vfs.bytes_written_per_log"] = ratio(last.vfs.write_bytes, n);
  rep.layer["archive.merges"] = static_cast<double>(last.merges);
  rep.layer["archive.rewrite_bytes_per_log"] = ratio(last.compact_write_bytes, n);
  rep.layer["archive.partitions_live"] =
      ratio(last.partitions_at_refresh, static_cast<std::uint64_t>(last.refresh_s.size()));
  rep.layer["archive.generations"] = static_cast<double>(last.answers.size());
  rep.layer["service.refresh_p50_us"] = quantile(refresh_s, 0.50) * 1e6;
  rep.layer["service.refresh_p99_us"] = quantile(refresh_s, 0.99) * 1e6;
  rep.layer["service.shard_cache_hit_rate"] = query.cache_hit_rate();
  rep.layer["service.memo_hits_per_refresh"] = ratio(query.merged_hits, refreshes);
  rep.layer["service.prefix_merges"] = static_cast<double>(last.query.prefix_merges);
  rep.layer["service.full_merges"] = static_cast<double>(last.query.full_merges);
  rep.layer["service.logs_scanned_per_refresh"] = ratio(query.logs_scanned, refreshes);
  char line[200];
  std::snprintf(line, sizeof line,
                "live: %llu windows, %llu merges, %llu generations per round; refresh p50 %.1f us, "
                "p99 %.1f us over %llu refreshes",
                static_cast<unsigned long long>(last.windows),
                static_cast<unsigned long long>(last.merges),
                static_cast<unsigned long long>(last.answers.size()),
                rep.layer["service.refresh_p50_us"], rep.layer["service.refresh_p99_us"],
                static_cast<unsigned long long>(refreshes));
  out.notes.push_back(line);
  std::snprintf(line, sizeof line, "final answer fingerprints: window %016llx, whole %016llx",
                static_cast<unsigned long long>(first_answers.back().window_fp),
                static_cast<unsigned long long>(first_answers.back().whole_fp));
  out.notes.push_back(line);
  out.notes.push_back(exact.line());
  if (!cfg.trace) return;

  tracer::reset();
  tracer::mark_driver();
  double traced_wall = 0;
  std::uint64_t windows = 0, merges = 0;
  for (Budget traced(cfg.seconds / 2); traced.more();) {
    const LiveRound r = live_round(pool, ram, vfs, true, &first_answers, out);
    traced.add(r.wall);
    traced_wall += r.wall;
    windows += r.windows;
    merges += r.merges;
    rep.traced_round_s = traced_wall / static_cast<double>(traced.rounds());
  }
  const auto driver = tracer::totals(true);
  rep.layer["archive.buffer_us_per_append"] =
      ratio(self_ns(driver, "archive.stream_append") * 1e-3,
            static_cast<double>(calls(driver, "archive.stream_append")));
  rep.layer["archive.cut_ms_per_window"] =
      ratio(self_ns(driver, "archive.cut") * 1e-6, static_cast<double>(windows));
  rep.layer["archive.compact_ms_per_merge"] =
      ratio(self_ns(driver, "archive.compact") * 1e-6, static_cast<double>(merges));
  rep.layer["service.window_get_us"] =
      ratio(self_ns(driver, "service.window_get") * 1e-3,
            static_cast<double>(calls(driver, "service.window_get")));
  rep.layer["service.get_us"] = ratio(self_ns(driver, "service.get") * 1e-3,
                                      static_cast<double>(calls(driver, "service.get")));
  trace_report(cfg, rep, out);
}

}  // namespace

bool is_workload(const std::string& name) {
  return name == "ingest" || name == "query" || name == "live";
}

RunOutcome run_workload(const RunConfig& cfg) {
  RunOutcome out;
  Report rep;
  for (const auto& [name, unit] : kPerLayer) rep.layer[name] = 0;
  if (cfg.workload == "ingest") {
    run_ingest(cfg, rep, out);
  } else if (cfg.workload == "query") {
    run_query(cfg, rep, out);
  } else {
    run_live(cfg, rep, out);
  }

  const double success = ratio(static_cast<double>(out.attempted - out.failed),
                               static_cast<double>(out.attempted));
  // Wall times net of CPU steal: a round that took W seconds while the
  // hypervisor withheld a share s of the host's busy CPU got W * (1 - s) of
  // CPU.  On shared hosts steal swings from 0 to 35% between runs and moves
  // raw wall time with it (cold-query medians: 20% spread raw, 6% net).
  const double net = 1.0 - rep.steal_share;
  std::vector<double> op = rep.op_s;
  std::vector<double> rounds = rep.round_s;
  const double op_p50_s = quantile(op, 0.50);
  const double round_p50_s = quantile(rounds, 0.50);
  const std::vector<Metric> e2e = {
      {"logs_per_s_ex_steal", ratio(rep.logs_per_round, round_p50_s * net), "logs/s"},
      {"cpu_us_per_log", rep.cpu_us_per_log, "us"},
      {"op_p50_ms_ex_steal", op_p50_s * net * 1e3, "ms"},
      {"stored_bytes_per_log", rep.stored_bytes_per_log, "B"},
      {"success_rate", success, "ratio"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
      {"setup_s", rep.setup_s, "s"},
  };
  char line[200];
  std::snprintf(line, sizeof line,
                "wall time: %.1f logs/s, operation p50 %.4f ms; %.1f%% of busy CPU stolen over "
                "the measured rounds",
                ratio(rep.logs_per_round, round_p50_s), op_p50_s * 1e3, 100.0 * rep.steal_share);
  out.notes.push_back(line);
  // A tail is reported only where at least ten samples lie beyond it.
  if (op.size() >= 100) {
    std::snprintf(line, sizeof line, "operation latency: p50 %.4f ms, p90 %.4f ms over %zu samples",
                  op_p50_s * 1e3, quantile(op, 0.90) * 1e3, op.size());
  } else {
    std::snprintf(line, sizeof line,
                  "operation latency: p50 %.4f ms over %zu samples (too few for a tail)",
                  op_p50_s * 1e3, op.size());
  }
  out.notes.push_back(line);
  if (cfg.trace) {
    for (const auto& [name, unit] : kPerLayer) out.metrics.push_back({name, rep.layer[name], unit});
    for (const Metric& m : e2e) {
      std::snprintf(line, sizeof line, "  (untraced part) %s = %.6g %s", m.name.c_str(), m.value,
                    m.unit.c_str());
      out.notes.push_back(line);
    }
  } else {
    out.metrics = e2e;
  }
  return out;
}

}  // namespace perfbench
