// perfbench: the mlio benchmark driver binary (run.py builds and calls it).
//
//   perfbench --workload ingest|query|live --seed N --seconds S --trace 0|1
//             [--trace-out FILE]
//
// Prints a human-readable report, then as its last line one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics of the
// traced run (--trace 1).  Exits 1 when any answer or exact count is wrong.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "host.hpp"
#include "workloads.hpp"

namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload ingest|query|live --seed N "
               "--seconds S --trace 0|1 [--trace-out FILE]\n",
               why);
  std::exit(2);
}

perfbench::RunConfig parse(int argc, char** argv) {
  perfbench::RunConfig cfg;
  for (int i = 1; i < argc; ++i) {
    if (i + 1 >= argc) usage("missing value");
    const std::string flag = argv[i];
    const char* v = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      cfg.workload = v;
    } else if (flag == "--seed") {
      cfg.seed = std::strtoull(v, &end, 10);
    } else if (flag == "--seconds") {
      cfg.seconds = std::strtod(v, &end);
    } else if (flag == "--trace") {
      cfg.trace = std::strtol(v, &end, 10) != 0;
    } else if (flag == "--trace-out") {
      cfg.trace_path = v;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
    if (end != nullptr && (*end != '\0' || end == v)) usage(("bad number for " + flag).c_str());
  }
  if (!perfbench::is_workload(cfg.workload)) usage("unknown or missing --workload");
  if (!(cfg.seconds > 0 && cfg.seconds <= 600)) usage("--seconds must be in (0, 600]");
  return cfg;
}

}  // namespace

int main(int argc, char** argv) {
  const perfbench::RunConfig cfg = parse(argc, argv);
  std::printf("perfbench: workload %s, seed %llu, %.1f s measured, tracing %s\n",
              cfg.workload.c_str(), static_cast<unsigned long long>(cfg.seed), cfg.seconds,
              cfg.trace ? "on" : "off");
  const double ref0 = perfbench::reference_kernel_ms();
  const perfbench::HostSample h0 = perfbench::sample_host();
  perfbench::RunOutcome out;
  try {
    out = perfbench::run_workload(cfg);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  const perfbench::HostSample h1 = perfbench::sample_host();
  const double ref1 = perfbench::reference_kernel_ms();

  for (const std::string& line : out.notes) std::printf("%s\n", line.c_str());
  std::printf("%s\n", perfbench::host_noise_line(h0, h1).c_str());
  std::printf("host speed: reference deflate of 1 MiB %.2f ms at start, %.2f ms at end\n", ref0,
              ref1);
  for (const std::string& e : out.errors) std::printf("ERROR: %s\n", e.c_str());
  const bool correct = out.errors.empty() && out.failed == 0 && out.attempted > 0;

  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(out.attempted);
  json += ", \"failed\": " + std::to_string(out.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < out.metrics.size(); ++i) {
    const perfbench::Metric& m = out.metrics[i];
    char value[64];
    std::snprintf(value, sizeof value, "%.10g", m.value);
    json += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " + value + ", \"unit\": \"" +
            m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return correct ? 0 : 1;
}
