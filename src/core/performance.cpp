#include "core/performance.hpp"

#include "util/byte_io.hpp"
#include "util/error.hpp"

namespace mlio::core {

namespace {
constexpr std::size_t kIfaces = 2;
constexpr double kMb = 1e6;
}  // namespace

Performance::Performance() {
  const std::size_t n = kLayerCount * kIfaces * bins().size() * 2;
  cells_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    cells_.emplace_back(/*capacity=*/4096, /*seed=*/i + 1);
  }
}

std::size_t Performance::slot(Layer layer, std::size_t iface, std::size_t bin,
                              bool read) const {
  MLIO_ASSERT(iface < kIfaces && bin < bins().size());
  return ((static_cast<std::size_t>(layer) * kIfaces + iface) * bins().size() + bin) * 2 +
         (read ? 0 : 1);
}

void Performance::add(const FileSummary& file) {
  if (!file.shared) return;  // §3.4: single-shared files only
  const std::size_t iface = file.data_iface == DataInterface::kStdio ? 1 : 0;
  if (file.bytes_read > 0 && file.read_time > 0) {
    const std::size_t bin = bins().index_of(file.bytes_read);
    const double mbps = static_cast<double>(file.bytes_read) / file.read_time / kMb;
    cells_[slot(file.layer, iface, bin, true)].add(mbps);
    ++observations_;
  }
  if (file.bytes_written > 0 && file.write_time > 0) {
    const std::size_t bin = bins().index_of(file.bytes_written);
    const double mbps = static_cast<double>(file.bytes_written) / file.write_time / kMb;
    cells_[slot(file.layer, iface, bin, false)].add(mbps);
    ++observations_;
  }
}

void Performance::save(util::ByteWriter& w) const {
  w.u64(cells_.size());
  for (const util::ReservoirQuantiles& cell : cells_) cell.save(w);
  w.u64(observations_);
}

std::uint64_t Performance::serialized_size() const {
  std::uint64_t n = 8 + 8;
  for (const util::ReservoirQuantiles& cell : cells_) n += cell.serialized_size();
  return n;
}

void Performance::load(util::ByteReader& r) {
  const std::uint64_t n = r.u64();
  if (n != cells_.size()) throw util::FormatError("Performance: cell count mismatch");
  for (util::ReservoirQuantiles& cell : cells_) cell.load(r);
  observations_ = r.u64();
}

bool Performance::merge_is_exact(std::span<const Performance* const> parts) {
  return saturated_cells(parts).empty();
}

std::vector<std::size_t> Performance::saturated_cells(std::span<const Performance* const> parts) {
  std::vector<std::size_t> saturated;
  if (parts.empty()) return saturated;
  const std::size_t n_cells = parts.front()->cells_.size();
  for (std::size_t c = 0; c < n_cells; ++c) {
    std::uint64_t total = 0;
    for (const Performance* p : parts) total += p->cells_[c].count();
    if (total > parts.front()->cells_[c].capacity()) saturated.push_back(c);
  }
  return saturated;
}

void Performance::refold_cells_serial(std::span<const Performance* const> parts,
                                      std::span<const std::size_t> cells) {
  if (parts.empty()) return;
  for (const std::size_t c : cells) {
    util::ReservoirQuantiles folded = parts.front()->cells_[c];
    for (std::size_t i = 1; i < parts.size(); ++i) folded.merge(parts[i]->cells_[c]);
    cells_[c] = std::move(folded);
  }
}

void Performance::merge(const Performance& other) {
  for (std::size_t i = 0; i < cells_.size(); ++i) cells_[i].merge(other.cells_[i]);
  observations_ += other.observations_;
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
