// The benchmark's three closed-loop workloads (README.md has the why).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct RunConfig {
  std::string workload;  ///< ingest | query | live
  std::uint64_t seed = 1;
  double seconds = 10;   ///< measured time of the run
  bool trace = false;    ///< traced run: per-layer metrics instead of end-to-end
  std::string trace_path;  ///< Chrome trace-event JSON of the traced run
};

struct RunOutcome {
  std::vector<Metric> metrics;  ///< end-to-end, or per-layer when traced
  std::uint64_t attempted = 0;  ///< answers checked
  std::uint64_t failed = 0;     ///< answers that did not match the oracle
  /// Anything that makes the run incorrect besides a wrong answer: an exact
  /// count that drifted, a failed archive verify, a failed closure check.
  std::vector<std::string> errors;
  std::vector<std::string> notes;  ///< report lines printed before the result
};

bool is_workload(const std::string& name);
RunOutcome run_workload(const RunConfig& cfg);

}  // namespace perfbench
