// Process clocks and host-noise probes.
//
// The noise probes are diagnostics printed beside each run, never metrics:
// they let a reader tell a noisy pair of runs (CPU steal from neighbours,
// involuntary preemption, a loaded host) from a real regression.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// User + system CPU time of the whole process (all threads), in seconds.
double process_cpu_seconds();
/// Peak resident set size of the process, in MiB.
double peak_rss_mb();

/// Host counters sampled at the start and end of a run.
struct HostSample {
  std::uint64_t steal_ticks = 0;  ///< /proc/stat "cpu" steal column
  std::uint64_t busy_ticks = 0;   ///< user + nice + system + irq + softirq + steal
  bool have_proc_stat = false;
  std::int64_t involuntary_switches = 0;  ///< getrusage ru_nivcsw
};
HostSample sample_host();

/// Share of the host's busy CPU ticks the hypervisor stole in [a, b]; 0 when
/// /proc/stat is unavailable.
double steal_share(const HostSample& a, const HostSample& b);

/// One line: steal share of busy CPU ticks, involuntary context switches and
/// the 1-minute load average over the interval [a, b].
std::string host_noise_line(const HostSample& a, const HostSample& b);

/// Median time of a fixed reference task (zlib level 6 over a fixed 1 MiB
/// buffer), in ms.  Timed at the start and end of a run: when it moves with
/// the workload's times, the host got slower, not the code.
double reference_kernel_ms();

/// Value at quantile q of `v` (linear interpolation between closest ranks,
/// the same rule as numpy's default).  `v` is sorted in place; 0 when empty.
double quantile(std::vector<double>& v, double q);

}  // namespace perfbench
