// Executor hot-path driver: measures the executor→runtime path in isolation
// (single thread, specs pre-generated) and writes the numbers to
// BENCH_executor.json so the per-log cost trajectory is tracked across PRs.
//
//   per_rank — the seed emission path: one open_file/record_reads call per
//              explicit rank, string path hashed on every call
//              (ExecutorConfig::Emission::kPerRank, kept as the measurable
//              pre-refactor baseline).
//   batched  — the production path: the path interned once per file, both op
//              splits precomputed, one bulk Runtime call per segment fanning
//              out over the rank rows (Emission::kBatched).
//
// Both modes must serialize bit-identically (digests are compared); the JSON
// records jobs/s, logs/s, opens/s, the per-phase ns breakdown
// (generate/execute/serialize) and heap allocations per log (counted by a
// global operator new hook), plus the batched-vs-per-rank speedup.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "darshan/log_format.hpp"
#include "iosim/executor.hpp"
#include "workload/generator.hpp"
#include "workload/pipeline.hpp"

// ---------------------------------------------------------------------------
// Allocation counting: replace the global unaligned new/delete with a
// counting passthrough.  Relaxed atomics keep the hook usable if a future
// bench revision threads the measured loop; the aligned overloads stay at
// their defaults (they pair with the default aligned deletes).  The pair is
// kept out of line: inlined into a caller, GCC matches malloc() against
// operator delete, or operator new against free(), and reports a
// mismatched pair that is not one.
namespace {
std::atomic<std::uint64_t> g_allocs{0};
std::atomic<std::uint64_t> g_alloc_bytes{0};
}  // namespace

[[gnu::noinline]] void* operator new(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  g_alloc_bytes.fetch_add(n, std::memory_order_relaxed);
  void* p = std::malloc(n != 0 ? n : 1);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
[[gnu::noinline]] void* operator new[](std::size_t n) { return ::operator new(n); }
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace mlio;
using SteadyClock = std::chrono::steady_clock;

struct ExecArgs {
  std::uint64_t jobs = 300;
  std::uint64_t seed = 42;
  double logs_scale = 0.25;
  double files_scale = 0.25;
  unsigned reps = 5;
  std::string out = "BENCH_executor.json";
};

ExecArgs parse(int argc, char** argv) {
  ExecArgs a;
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
    else if (!std::strcmp(argv[i], "--logs-scale")) a.logs_scale = std::strtod(next("--logs-scale"), nullptr);
    else if (!std::strcmp(argv[i], "--files-scale")) a.files_scale = std::strtod(next("--files-scale"), nullptr);
    else if (!std::strcmp(argv[i], "--reps")) a.reps = static_cast<unsigned>(std::strtoul(next("--reps"), nullptr, 10));
    else if (!std::strcmp(argv[i], "--out")) a.out = next("--out");
    else if (!std::strcmp(argv[i], "--help")) {
      std::printf("usage: %s [--jobs N] [--seed S] [--logs-scale X] [--files-scale X]\n"
                  "          [--reps R] [--out FILE]\n", argv[0]);
      std::exit(0);
    } else {
      std::fprintf(stderr, "unknown flag %s (try --help)\n", argv[i]);
      std::exit(2);
    }
  }
  return a;
}

std::uint64_t fnv1a(std::span<const std::byte> bytes, std::uint64_t h) {
  for (const std::byte b : bytes) {
    h ^= static_cast<std::uint64_t>(b);
    h *= 1099511628211ull;
  }
  return h;
}

/// One measured emission-mode run on one system's pre-generated specs.
struct ModeResult {
  std::string mode;
  double execute_s = 0;    ///< best-rep executor wall time
  double serialize_s = 0;  ///< best-rep serialization wall time
  std::uint64_t allocs = 0;        ///< heap allocations during the execute phase
  std::uint64_t alloc_bytes = 0;   ///< bytes requested during the execute phase
  std::uint64_t digest = 0;        ///< FNV-1a over every serialized log
  sim::ExecStats stats;

  double jobs_per_s(std::uint64_t jobs) const {
    return execute_s > 0 ? static_cast<double>(jobs) / execute_s : 0;
  }
  double logs_per_s() const {
    return execute_s > 0 ? static_cast<double>(stats.jobs) / execute_s : 0;
  }
  double opens_per_s() const {
    return execute_s > 0 ? static_cast<double>(stats.opens) / execute_s : 0;
  }
};

/// One emission mode's executor plus its scratch state and best-so-far
/// result.  Both lanes are driven rep-by-rep in alternation so the two
/// modes sample the same host conditions — on a busy machine, measuring one
/// mode's whole window before the other folds load drift into the ratio.
struct ModeLane {
  sim::JobExecutor executor;
  ModeResult best;
  darshan::LogData log;
  darshan::LogIoBuffers io;

  ModeLane(const sim::Machine& machine, sim::ExecutorConfig::Emission emission)
      : executor(machine, make_cfg(emission)) {
    best.mode = emission == sim::ExecutorConfig::Emission::kBatched ? "batched" : "per_rank";
    best.execute_s = -1;
    best.serialize_s = -1;
  }

  static sim::ExecutorConfig make_cfg(sim::ExecutorConfig::Emission emission) {
    sim::ExecutorConfig cfg;
    cfg.emission = emission;
    return cfg;
  }

  /// Execute phase: the hot path under test, allocs counted around it.
  void measure_execute(const std::vector<sim::JobSpec>& specs) {
    sim::ExecStats stats;
    const std::uint64_t allocs0 = g_allocs.load(std::memory_order_relaxed);
    const std::uint64_t bytes0 = g_alloc_bytes.load(std::memory_order_relaxed);
    const auto t0 = SteadyClock::now();
    for (const sim::JobSpec& spec : specs) executor.execute_into(spec, log, &stats);
    const auto t1 = SteadyClock::now();
    const double execute_s = std::chrono::duration<double>(t1 - t0).count();
    if (best.execute_s < 0 || execute_s < best.execute_s) {
      best.execute_s = execute_s;
      best.allocs = g_allocs.load(std::memory_order_relaxed) - allocs0;
      best.alloc_bytes = g_alloc_bytes.load(std::memory_order_relaxed) - bytes0;
      best.stats = stats;
    }
  }

  /// Serialize phase (separately timed, also digests for the bit-identity
  /// check — the logs must not depend on the emission mode).
  void measure_serialize(const std::vector<sim::JobSpec>& specs) {
    const darshan::WriteOptions wopts{false, 0};  // uncompressed: digest the raw frame
    double serialize_s = 0;
    std::uint64_t digest = 14695981039346656037ull;
    for (const sim::JobSpec& spec : specs) {
      executor.execute_into(spec, log);
      const auto w0 = SteadyClock::now();
      const auto frame = darshan::write_log_bytes_into(log, io, wopts);
      serialize_s += std::chrono::duration<double>(SteadyClock::now() - w0).count();
      digest = fnv1a(frame, digest);
    }
    best.digest = digest;
    if (best.serialize_s < 0 || serialize_s < best.serialize_s) best.serialize_s = serialize_s;
  }
};

struct SystemResult {
  std::string system;
  std::uint64_t jobs = 0;
  double generate_s = 0;  ///< one spec-generation pass (shared by both modes)
  ModeResult per_rank;
  ModeResult batched;
  bool bit_identical = false;
  double speedup = 0;
};

SystemResult run_system(const wl::SystemProfile& profile, const ExecArgs& a) {
  wl::GeneratorConfig cfg;
  cfg.seed = a.seed;
  cfg.n_jobs = a.jobs;
  cfg.logs_per_job_scale = a.logs_scale;
  cfg.files_per_log_scale = a.files_scale;
  const wl::WorkloadGenerator gen(profile, cfg);
  const sim::Machine& machine = wl::machine_for(profile);

  SystemResult r;
  r.system = profile.system;
  r.jobs = a.jobs;
  std::vector<sim::JobSpec> specs;
  const auto t0 = SteadyClock::now();
  gen.generate_bulk_range(0, a.jobs, [&](const sim::JobSpec& spec) { specs.push_back(spec); });
  r.generate_s = std::chrono::duration<double>(SteadyClock::now() - t0).count();

  ModeLane per_rank(machine, sim::ExecutorConfig::Emission::kPerRank);
  ModeLane batched(machine, sim::ExecutorConfig::Emission::kBatched);
  // Warm-up pass: fault in the specs and size every scratch vector.
  for (const sim::JobSpec& spec : specs) per_rank.executor.execute_into(spec, per_rank.log);
  for (const sim::JobSpec& spec : specs) batched.executor.execute_into(spec, batched.log);
  for (unsigned rep = 0; rep < std::max(1u, a.reps); ++rep) {
    per_rank.measure_execute(specs);
    batched.measure_execute(specs);
  }
  for (unsigned pass = 0; pass < 2; ++pass) {
    per_rank.measure_serialize(specs);
    batched.measure_serialize(specs);
  }
  r.per_rank = per_rank.best;
  r.batched = batched.best;
  r.bit_identical = r.per_rank.digest == r.batched.digest;
  const double base = r.per_rank.jobs_per_s(r.jobs);
  r.speedup = base > 0 ? r.batched.jobs_per_s(r.jobs) / base : 0;
  return r;
}

void print_mode(const SystemResult& s, const ModeResult& m) {
  std::printf("%-8s %-9s %10.1f %10.1f %12.1f %10.0f %10.1f\n", s.system.c_str(),
              m.mode.c_str(), m.jobs_per_s(s.jobs), m.logs_per_s(), m.opens_per_s(),
              m.stats.jobs > 0 ? 1e9 * m.execute_s / static_cast<double>(m.stats.jobs) : 0,
              m.stats.jobs > 0 ? static_cast<double>(m.allocs) / static_cast<double>(m.stats.jobs)
                               : 0);
}

void write_mode_json(std::FILE* f, const SystemResult& s, const ModeResult& m, bool last) {
  const double logs = m.stats.jobs > 0 ? static_cast<double>(m.stats.jobs) : 1;
  std::fprintf(
      f,
      "      {\"mode\": \"%s\", \"jobs_per_s\": %.2f, \"logs_per_s\": %.2f, "
      "\"opens_per_s\": %.2f,\n"
      "       \"phase_ns\": {\"generate_per_job\": %.0f, \"execute_per_log\": %.0f, "
      "\"serialize_per_log\": %.0f},\n"
      "       \"execute_s\": %.6f, \"serialize_s\": %.6f, \"allocs_per_log\": %.2f, "
      "\"alloc_bytes_per_log\": %.0f,\n"
      "       \"logs\": %llu, \"files\": %llu, \"segments\": %llu, \"rank_rows\": %llu, "
      "\"opens\": %llu,\n"
      "       \"digest\": %llu}%s\n",
      m.mode.c_str(), m.jobs_per_s(s.jobs), m.logs_per_s(), m.opens_per_s(),
      s.jobs > 0 ? 1e9 * s.generate_s / static_cast<double>(s.jobs) : 0,
      1e9 * m.execute_s / logs, 1e9 * m.serialize_s / logs, m.execute_s, m.serialize_s,
      static_cast<double>(m.allocs) / logs, static_cast<double>(m.alloc_bytes) / logs,
      static_cast<unsigned long long>(m.stats.jobs),
      static_cast<unsigned long long>(m.stats.files),
      static_cast<unsigned long long>(m.stats.segments),
      static_cast<unsigned long long>(m.stats.rank_rows),
      static_cast<unsigned long long>(m.stats.opens),
      static_cast<unsigned long long>(m.digest), last ? "" : ",");
}

void write_json(const ExecArgs& a, const std::vector<SystemResult>& systems, double min_speedup,
                bool all_identical) {
  std::FILE* f = std::fopen(a.out.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", a.out.c_str());
    std::exit(1);
  }
  const unsigned host_cpus = std::thread::hardware_concurrency();
  std::fprintf(f, "{\n");
  std::fprintf(f,
               "  \"config\": {\"jobs\": %llu, \"seed\": %llu, \"logs_scale\": %g, "
               "\"files_scale\": %g, \"reps\": %u, \"threads\": 1, \"host_cpus\": %u, "
               "\"oversubscribed\": false},\n",
               static_cast<unsigned long long>(a.jobs), static_cast<unsigned long long>(a.seed),
               a.logs_scale, a.files_scale, a.reps, host_cpus);
  std::fprintf(f, "  \"systems\": [\n");
  for (std::size_t i = 0; i < systems.size(); ++i) {
    const SystemResult& s = systems[i];
    std::fprintf(f, "    {\"system\": \"%s\", \"jobs\": %llu, \"generate_s\": %.6f,\n",
                 s.system.c_str(), static_cast<unsigned long long>(s.jobs), s.generate_s);
    std::fprintf(f, "     \"runs\": [\n");
    write_mode_json(f, s, s.per_rank, false);
    write_mode_json(f, s, s.batched, true);
    std::fprintf(f, "     ],\n");
    std::fprintf(f, "     \"speedup_batched_vs_per_rank\": %.3f, \"bit_identical\": %s}%s\n",
                 s.speedup, s.bit_identical ? "true" : "false",
                 i + 1 < systems.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"min_speedup\": %.3f,\n", min_speedup);
  std::fprintf(f, "  \"speedup_target\": 1.5,\n");
  std::fprintf(f, "  \"speedup_target_met\": %s,\n", min_speedup >= 1.5 ? "true" : "false");
  std::fprintf(f, "  \"all_bit_identical\": %s\n", all_identical ? "true" : "false");
  std::fprintf(f, "}\n");
  std::fclose(f);
}

}  // namespace

int main(int argc, char** argv) {
  const ExecArgs args = parse(argc, argv);

  std::vector<SystemResult> systems;
  systems.push_back(run_system(wl::SystemProfile::summit_2020(), args));
  systems.push_back(run_system(wl::SystemProfile::cori_2019(), args));

  std::printf("%-8s %-9s %10s %10s %12s %10s %10s\n", "system", "mode", "jobs/s", "logs/s",
              "opens/s", "ns/log", "allocs/log");
  double min_speedup = 0;
  bool all_identical = true;
  for (const SystemResult& s : systems) {
    print_mode(s, s.per_rank);
    print_mode(s, s.batched);
    std::printf("%-8s speedup: %.2fx, bit-identical: %s\n", s.system.c_str(), s.speedup,
                s.bit_identical ? "yes" : "NO — DETERMINISM BROKEN");
    if (min_speedup == 0 || s.speedup < min_speedup) min_speedup = s.speedup;
    all_identical = all_identical && s.bit_identical;
  }

  write_json(args, systems, min_speedup, all_identical);
  std::printf("wrote %s (min speedup %.2fx, target 1.5x)\n", args.out.c_str(), min_speedup);
  return all_identical ? 0 : 1;
}
