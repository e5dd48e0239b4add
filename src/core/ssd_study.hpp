// Recommendation 4 analysis: SSD-oriented statistics for the flash-backed
// in-system layers, computed from the SSDEXT extension records (which the
// paper proposes adding to Darshan — here they exist, so the analysis the
// authors wished for can actually run).
#pragma once

#include <cstdint>

#include "core/dataset.hpp"
#include "util/stats.hpp"

namespace mlio::core {

class SsdStudy {
 public:
  void add_log(const darshan::LogData& log);
  void merge(const SsdStudy& other);

  std::uint64_t files() const { return files_; }
  double bytes_written() const { return static_bytes_ + dynamic_bytes_; }
  double rewrite_bytes() const { return rewrite_bytes_; }
  double static_bytes() const { return static_bytes_; }
  double dynamic_bytes() const { return dynamic_bytes_; }
  double seq_write_bytes() const { return seq_bytes_; }
  double random_write_bytes() const { return random_bytes_; }

  /// Share of written payload that is dynamic (rewritten) — the Rec. 4
  /// static/dynamic separation target.
  double dynamic_share() const;
  /// Extra device writes from rewrites that a rewrite-absorbing cache
  /// (Rec. 4's "caching rewrites") would eliminate.
  double cacheable_device_bytes() const { return rewrite_bytes_; }

  /// Distribution of per-file modeled write-amplification factors.
  const util::BottomKSample& waf() const { return waf_; }

 private:
  std::uint64_t files_ = 0;
  double rewrite_bytes_ = 0;
  double seq_bytes_ = 0;
  double random_bytes_ = 0;
  double static_bytes_ = 0;
  double dynamic_bytes_ = 0;
  util::BottomKSample waf_;
};

}  // namespace mlio::core
