#include "core/access_patterns.hpp"

#include "util/byte_io.hpp"
#include "util/units.hpp"

namespace mlio::core {

namespace {
constexpr std::uint64_t kHugeThreshold = util::kTB;
}

AccessPatterns::LayerStats::LayerStats()
    : read_transfer(util::BinSpec::transfer_bins_coarse()),
      write_transfer(util::BinSpec::transfer_bins_coarse()),
      read_requests(util::BinSpec::darshan_request_bins()),
      write_requests(util::BinSpec::darshan_request_bins()),
      read_requests_large(util::BinSpec::darshan_request_bins()),
      write_requests_large(util::BinSpec::darshan_request_bins()) {}

void AccessPatterns::LayerStats::merge(const LayerStats& other) {
  files += other.files;
  read_files += other.read_files;
  write_files += other.write_files;
  bytes_read.merge(other.bytes_read);
  bytes_written.merge(other.bytes_written);
  huge_read_files += other.huge_read_files;
  huge_write_files += other.huge_write_files;
  read_transfer.merge(other.read_transfer);
  write_transfer.merge(other.write_transfer);
  read_requests.merge(other.read_requests);
  write_requests.merge(other.write_requests);
  read_requests_large.merge(other.read_requests_large);
  write_requests_large.merge(other.write_requests_large);
}

AccessPatterns::AccessPatterns() = default;

void AccessPatterns::add(const darshan::JobRecord& job, const FileSummary& file) {
  LayerStats& st = layers_[static_cast<std::size_t>(file.layer)];
  st.files += 1;
  const bool large_job = job.nprocs > 1024;

  if (file.bytes_read > 0) {
    st.read_files += 1;
    st.bytes_read.add(file.bytes_read);
    st.read_transfer.add(file.bytes_read);
    if (file.bytes_read > kHugeThreshold) st.huge_read_files += 1;
  }
  if (file.bytes_written > 0) {
    st.write_files += 1;
    st.bytes_written.add(file.bytes_written);
    st.write_transfer.add(file.bytes_written);
    if (file.bytes_written > kHugeThreshold) st.huge_write_files += 1;
  }
  // Dense folds instead of a per-bin branch ladder: all counts are
  // integers, so adding the zero bins too changes nothing, and each
  // histogram takes its 10 bins in one vectorizable pass.
  st.read_requests.add_bins(file.req_read);
  st.write_requests.add_bins(file.req_write);
  if (large_job) {
    st.read_requests_large.add_bins(file.req_read);
    st.write_requests_large.add_bins(file.req_write);
  }
}

void AccessPatterns::merge(const AccessPatterns& other) {
  for (std::size_t i = 0; i < layers_.size(); ++i) layers_[i].merge(other.layers_[i]);
}

void AccessPatterns::save(util::ByteWriter& w) const {
  for (const LayerStats& st : layers_) {
    w.u64(st.files);
    w.u64(st.read_files);
    w.u64(st.write_files);
    st.bytes_read.save(w);
    st.bytes_written.save(w);
    w.u64(st.huge_read_files);
    w.u64(st.huge_write_files);
    st.read_transfer.save(w);
    st.write_transfer.save(w);
    st.read_requests.save(w);
    st.write_requests.save(w);
    st.read_requests_large.save(w);
    st.write_requests_large.save(w);
  }
}

std::uint64_t AccessPatterns::serialized_size() const {
  std::uint64_t n = 0;
  for (const LayerStats& st : layers_) {
    n += 8 * 5 + 2 * util::ExactSum::kSerializedSize + st.read_transfer.serialized_size() + st.write_transfer.serialized_size() +
         st.read_requests.serialized_size() + st.write_requests.serialized_size() +
         st.read_requests_large.serialized_size() + st.write_requests_large.serialized_size();
  }
  return n;
}

void AccessPatterns::load(util::ByteReader& r) {
  for (LayerStats& st : layers_) {
    st.files = r.u64();
    st.read_files = r.u64();
    st.write_files = r.u64();
    st.bytes_read.load(r);
    st.bytes_written.load(r);
    st.huge_read_files = r.u64();
    st.huge_write_files = r.u64();
    st.read_transfer.load(r);
    st.write_transfer.load(r);
    st.read_requests.load(r);
    st.write_requests.load(r);
    st.read_requests_large.load(r);
    st.write_requests_large.load(r);
  }
}

}  // namespace mlio::core
