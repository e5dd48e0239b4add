#include "core/summary.hpp"

#include <algorithm>

#include "util/byte_io.hpp"

namespace mlio::core {

void Summary::add_log(const darshan::JobRecord& job, const std::vector<FileSummary>& files) {
  logs_ += 1;
  files_ += files.size();
  const std::int64_t elapsed = std::max<std::int64_t>(0, job.end_time - job.start_time);
  node_seconds_.add_product(static_cast<std::uint64_t>(elapsed), job.nnodes);
  per_job_logs_[job.job_id] += 1;
}

void Summary::merge(const Summary& other) {
  logs_ += other.logs_;
  files_ += other.files_;
  node_seconds_.merge(other.node_seconds_);
  per_job_logs_.reserve(per_job_logs_.size() + other.per_job_logs_.size());
  for (const auto& [id, n] : other.per_job_logs_) per_job_logs_[id] += n;
}

void Summary::save(util::ByteWriter& w) const {
  w.u64(logs_);
  w.u64(files_);
  node_seconds_.save(w);
  std::vector<std::pair<std::uint64_t, std::uint64_t>> sorted(per_job_logs_.begin(),
                                                              per_job_logs_.end());
  std::sort(sorted.begin(), sorted.end());
  w.u64(sorted.size());
  for (const auto& [id, n] : sorted) {
    w.u64(id);
    w.u64(n);
  }
}

std::uint64_t Summary::serialized_size() const {
  return 8 * 3 + util::ExactSum::kSerializedSize + 16 * per_job_logs_.size();
}

void Summary::load(util::ByteReader& r) {
  logs_ = r.u64();
  files_ = r.u64();
  node_seconds_.load(r);
  const std::uint64_t n_jobs = r.u64();
  per_job_logs_.clear();
  // A hostile count reserves no more than the payload could hold.
  per_job_logs_.reserve(
      static_cast<std::size_t>(std::min<std::uint64_t>(n_jobs, r.remaining() / 16)));
  for (std::uint64_t i = 0; i < n_jobs; ++i) {
    const std::uint64_t id = r.u64();
    per_job_logs_[id] = r.u64();
  }
}

std::uint64_t Summary::min_logs_per_job() const {
  std::uint64_t m = ~0ull;
  for (const auto& [id, n] : per_job_logs_) {
    (void)id;
    m = std::min(m, n);
  }
  return per_job_logs_.empty() ? 0 : m;
}

std::uint64_t Summary::max_logs_per_job() const {
  std::uint64_t m = 0;
  for (const auto& [id, n] : per_job_logs_) {
    (void)id;
    m = std::max(m, n);
  }
  return m;
}

}  // namespace mlio::core
