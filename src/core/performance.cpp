#include "core/performance.hpp"

#include <string_view>

#include "util/byte_io.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace mlio::core {

namespace {
constexpr std::size_t kIfaces = 2;
constexpr double kMb = 1e6;

/// One splitmix64 step over `h` combined with `v`.
std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  std::uint64_t state = h ^ v;
  return util::splitmix64(state);
}
}  // namespace

std::uint64_t observation_log_key(const darshan::JobRecord& job) {
  // FNV-1a of the facility name, then the job id.
  std::uint64_t facility = 0xcbf29ce484222325ull;
  if (const auto it = job.metadata.find("machine"); it != job.metadata.end()) {
    for (const char c : std::string_view(it->second)) {
      facility = (facility ^ static_cast<std::uint8_t>(c)) * 0x100000001b3ull;
    }
  }
  return mix(mix(0, facility), job.job_id);
}

Performance::Performance()
    : cells_(kLayerCount * kIfaces * bins().size() * 2) {}

std::size_t Performance::slot(Layer layer, std::size_t iface, std::size_t bin,
                              bool read) const {
  MLIO_ASSERT(iface < kIfaces && bin < bins().size());
  return ((static_cast<std::size_t>(layer) * kIfaces + iface) * bins().size() + bin) * 2 +
         (read ? 0 : 1);
}

void Performance::add(const FileSummary& file, std::uint64_t log_key) {
  if (!file.shared) return;  // §3.4: single-shared files only
  const std::size_t iface = file.data_iface == DataInterface::kStdio ? 1 : 0;
  const std::uint64_t file_key = mix(log_key, file.record_id);
  if (file.bytes_read > 0 && file.read_time > 0) {
    const std::size_t bin = bins().index_of(file.bytes_read);
    const double mbps = static_cast<double>(file.bytes_read) / file.read_time / kMb;
    cells_[slot(file.layer, iface, bin, true)].add(mix(file_key, 0), mbps);
    ++observations_;
  }
  if (file.bytes_written > 0 && file.write_time > 0) {
    const std::size_t bin = bins().index_of(file.bytes_written);
    const double mbps = static_cast<double>(file.bytes_written) / file.write_time / kMb;
    cells_[slot(file.layer, iface, bin, false)].add(mix(file_key, 1), mbps);
    ++observations_;
  }
}

void Performance::save(util::ByteWriter& w) const {
  w.u64(cells_.size());
  for (const util::BottomKSample& cell : cells_) cell.save(w);
  w.u64(observations_);
}

std::uint64_t Performance::serialized_size() const {
  std::uint64_t n = 8 + 8;
  for (const util::BottomKSample& cell : cells_) n += cell.serialized_size();
  return n;
}

void Performance::load(util::ByteReader& r) {
  const std::uint64_t n = r.u64();
  if (n != cells_.size()) throw util::FormatError("Performance: cell count mismatch");
  for (util::BottomKSample& cell : cells_) cell.load(r);
  observations_ = r.u64();
}

void Performance::merge(const Performance& other) {
  for (std::size_t i = 0; i < cells_.size(); ++i) cells_[i].merge(other.cells_[i]);
  observations_ += other.observations_;
}

void Performance::order_samples() {
  for (util::BottomKSample& c : cells_) c.order_by_value();
}

util::FiveNumber Performance::cell(Layer layer, std::size_t iface, std::size_t transfer_bin,
                                   bool read) const {
  return cells_[slot(layer, iface, transfer_bin, read)].five_number();
}

double Performance::posix_over_stdio(Layer layer, std::size_t transfer_bin, bool read) const {
  const auto p = cell(layer, 0, transfer_bin, read);
  const auto s = cell(layer, 1, transfer_bin, read);
  if (p.count == 0 || s.count == 0 || s.median <= 0) return 0.0;
  return p.median / s.median;
}

}  // namespace mlio::core
