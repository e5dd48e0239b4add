// Job executor: runs a JobSpec against a Machine, timing every access with
// the PerfModel and reporting the I/O into a darshan::Runtime, yielding the
// log that the job's Darshan instrumentation would have produced: as the
// uncompressed log body written straight from the runtime's table
// (execute_body, the ingest path), or as a LogData (execute_into, the
// reference path the pipeline and its oracles analyse).
#pragma once

#include <cstdint>

#include "darshan/record.hpp"
#include "darshan/runtime.hpp"
#include "iosim/ioplan.hpp"
#include "iosim/machine.hpp"

namespace mlio::sim {

struct ExecutorConfig {
  /// Capture DXT traces (POSIX/MPI-IO only; §2.2 — off on the study systems).
  bool enable_dxt = false;
  /// Emit Recommendation-4 SSDEXT records for files on flash-backed layers.
  bool enable_ssd_ext = false;
};

/// Hot-path telemetry accumulated across execute_into calls — how much
/// record-keeping the executed jobs induced (perfbench's traced ingest
/// reports it per log).
struct ExecStats {
  std::uint64_t jobs = 0;       ///< execute_into calls
  std::uint64_t files = 0;      ///< FileAccessSpec entries executed
  std::uint64_t segments = 0;   ///< I/O segments emitted (rank fan-outs)
  std::uint64_t rank_rows = 0;  ///< per-rank record rows touched (primary module)
  std::uint64_t opens = 0;      ///< file opens recorded (incl. MPI-IO→POSIX mirrors)

  void merge(const ExecStats& o) {
    jobs += o.jobs;
    files += o.files;
    segments += o.segments;
    rank_rows += o.rank_rows;
    opens += o.opens;
  }
};

/// What staging the job's DataWarp directives would move, and how long.
struct StagingReport {
  std::uint64_t bytes_in = 0;
  std::uint64_t bytes_out = 0;
  double seconds_in = 0;
  double seconds_out = 0;
};

class JobExecutor {
 public:
  explicit JobExecutor(const Machine& machine, const ExecutorConfig& cfg = {});

  /// Execute the plan; returns the job's Darshan log.
  darshan::LogData execute(const JobSpec& spec) const;

  /// Same, but fills `out` in place, recycling its vectors' capacity.  The
  /// pipeline threads one scratch LogData per worker through this, and the
  /// job runs through one runtime per calling thread, reused job after job,
  /// to avoid per-job allocation churn.  `stats`, when non-null, accumulates
  /// hot-path telemetry (not thread-safe: callers keep one per worker).
  void execute_into(const JobSpec& spec, darshan::LogData& out,
                    ExecStats* stats = nullptr) const;

  /// Execute the plan through `rt` and write the job's uncompressed log
  /// body into `body` (cleared first): the bytes darshan::write_log_body
  /// writes for execute_into's LogData, with no LogData built.  `rt` is the
  /// caller's per-thread runtime, reused job after job; afterwards
  /// rt.job() is the job record.
  void execute_body(const JobSpec& spec, darshan::Runtime& rt, util::ByteWriter& body,
                    ExecStats* stats = nullptr) const;

  /// Estimate the PFS<->BB staging cost of the job's directives (runs outside
  /// the job's Darshan window, as DataWarp stages before start / after exit).
  StagingReport estimate_staging(const JobSpec& spec) const;

  const Machine& machine() const { return machine_; }

 private:
  struct Clock;

  /// Begin the job in `rt` and report all its I/O; returns its end epoch.
  std::int64_t run(const JobSpec& spec, darshan::Runtime& rt, ExecStats* stats) const;

  const Machine& machine_;
  ExecutorConfig cfg_;
};

}  // namespace mlio::sim
