#include "core/ssd_study.hpp"

#include "darshan/counters.hpp"
#include "util/rng.hpp"

namespace mlio::core {

void SsdStudy::add_log(const darshan::LogData& log) {
  namespace sx = darshan::ssdext;
  for (const auto& rec : log.records) {
    if (rec.module != darshan::ModuleId::kSsdExt) continue;
    files_ += 1;
    rewrite_bytes_ += static_cast<double>(rec.counters[sx::REWRITE_BYTES]);
    seq_bytes_ += static_cast<double>(rec.counters[sx::SEQ_WRITE_BYTES]);
    random_bytes_ += static_cast<double>(rec.counters[sx::RANDOM_WRITE_BYTES]);
    static_bytes_ += static_cast<double>(rec.counters[sx::STATIC_BYTES]);
    dynamic_bytes_ += static_cast<double>(rec.counters[sx::DYNAMIC_BYTES]);
    std::uint64_t key = log.job.job_id ^ (rec.record_id * 0x9e3779b97f4a7c15ull);
    waf_.add(util::splitmix64(key), static_cast<double>(rec.counters[sx::WAF_X1000]) / 1000.0);
  }
}

void SsdStudy::merge(const SsdStudy& other) {
  files_ += other.files_;
  rewrite_bytes_ += other.rewrite_bytes_;
  seq_bytes_ += other.seq_bytes_;
  random_bytes_ += other.random_bytes_;
  static_bytes_ += other.static_bytes_;
  dynamic_bytes_ += other.dynamic_bytes_;
  waf_.merge(other.waf_);
}

double SsdStudy::dynamic_share() const {
  const double total = bytes_written();
  return total > 0 ? dynamic_bytes_ / total : 0.0;
}

}  // namespace mlio::core
