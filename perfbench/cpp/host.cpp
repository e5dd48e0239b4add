#include "host.hpp"

#include <sys/resource.h>
#include <zlib.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

namespace perfbench {

namespace {

double timeval_seconds(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
}

}  // namespace

double process_cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return timeval_seconds(ru.ru_utime) + timeval_seconds(ru.ru_stime);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

HostSample sample_host() {
  HostSample s;
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  s.involuntary_switches = ru.ru_nivcsw;
  std::ifstream stat("/proc/stat");
  std::string line;
  if (stat && std::getline(stat, line) && line.rfind("cpu ", 0) == 0) {
    std::istringstream in(line.substr(4));
    std::uint64_t user = 0, nice = 0, system = 0, idle = 0, iowait = 0, irq = 0, softirq = 0,
                  steal = 0;
    if (in >> user >> nice >> system >> idle >> iowait >> irq >> softirq >> steal) {
      s.steal_ticks = steal;
      s.busy_ticks = user + nice + system + irq + softirq + steal;
      s.have_proc_stat = true;
    }
  }
  return s;
}

double steal_share(const HostSample& a, const HostSample& b) {
  if (!a.have_proc_stat || !b.have_proc_stat || b.busy_ticks <= a.busy_ticks) return 0;
  return static_cast<double>(b.steal_ticks - a.steal_ticks) /
         static_cast<double>(b.busy_ticks - a.busy_ticks);
}

std::string host_noise_line(const HostSample& a, const HostSample& b) {
  char steal[32] = "n/a";
  if (a.have_proc_stat && b.have_proc_stat) {
    std::snprintf(steal, sizeof steal, "%.1f%%", 100.0 * steal_share(a, b));
  }
  char load[32] = "n/a";
  double avg[1] = {0};
  if (getloadavg(avg, 1) == 1) std::snprintf(load, sizeof load, "%.2f", avg[0]);
  char out[160];
  std::snprintf(out, sizeof out,
                "host noise: cpu steal %s of busy ticks, %lld involuntary context switches, "
                "load average %s",
                steal, static_cast<long long>(b.involuntary_switches - a.involuntary_switches),
                load);
  return out;
}

double reference_kernel_ms() {
  std::vector<unsigned char> input(1 << 20);
  std::uint32_t x = 12345;
  for (unsigned char& c : input) {
    x = x * 1103515245u + 12345u;
    c = static_cast<unsigned char>('a' + (x >> 16) % 16);  // text-like, compresses ~2x
  }
  std::vector<unsigned char> output(compressBound(static_cast<uLong>(input.size())));
  std::vector<double> times;
  for (int i = 0; i < 5; ++i) {
    uLongf n = static_cast<uLongf>(output.size());
    const auto t0 = Clock::now();
    compress2(output.data(), &n, input.data(), static_cast<uLong>(input.size()), 6);
    times.push_back(seconds_since(t0) * 1e3);
  }
  return quantile(times, 0.5);
}

double quantile(std::vector<double>& v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

}  // namespace perfbench
