// §3.4 — delivered I/O performance of single-shared files.
//
// Only rank == -1 records are trusted (all processes participated, so the
// min/max-reduced timestamps bound the collective transfer and
// BYTES / TIME is the aggregate bandwidth the job observed).  Observations
// are grouped by (layer, managing interface POSIX|STDIO, transfer-size bin)
// and summarized as boxplot five-number statistics — Figs. 11 (Summit) and
// 12 (Cori).
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "core/dataset.hpp"
#include "util/bins.hpp"
#include "util/stats.hpp"

namespace mlio::util {
class ByteReader;
class ByteWriter;
}  // namespace mlio::util

namespace mlio::core {

class Performance {
 public:
  Performance();

  void add(const FileSummary& file);
  void merge(const Performance& other);

  /// Exact serialization of every reservoir cell (samples + Rng position),
  /// so a restored Performance merges and quantiles bit-identically.
  void save(util::ByteWriter& w) const;
  void load(util::ByteReader& r);
  /// Byte count save() would write, from container sizes alone.
  std::uint64_t serialized_size() const;

  /// Five-number summary of MB/s for one cell.  `iface`: 0 POSIX, 1 STDIO.
  util::FiveNumber cell(Layer layer, std::size_t iface, std::size_t transfer_bin,
                        bool read) const;
  /// Median POSIX/STDIO bandwidth ratio for a bin (0 when either is empty).
  double posix_over_stdio(Layer layer, std::size_t transfer_bin, bool read) const;

  static const util::BinSpec& bins() { return util::BinSpec::transfer_bins_perf(); }

  std::uint64_t observations() const { return observations_; }

  /// True when merging these states draws no reservoir samples in ANY
  /// association order: every cell's combined observation count still fits
  /// its reservoir, so merge() is pure sample concatenation plus integer
  /// adds and min/max — exactly associative, Rng positions included.  The
  /// parallel tree merge (Analysis::merge_ordered) requires this cell by
  /// cell; above capacity the seeded replacement draws depend on merge
  /// order and the tree patches those cells from a serial re-fold.
  static bool merge_is_exact(std::span<const Performance* const> parts);

  /// The cell indices whose combined observation count exceeds the
  /// reservoir capacity — exactly the cells merge_is_exact objects to.
  /// Empty iff merge_is_exact(parts).
  static std::vector<std::size_t> saturated_cells(std::span<const Performance* const> parts);

  /// Overwrite the listed cells with a serial left-to-right fold of the
  /// same cells across `parts` (the canonical association).  Used by the
  /// tree merge to restore serial-fold bits in saturated cells, the same
  /// way Summary::set_node_hours restores the node-hours sum.
  void refold_cells_serial(std::span<const Performance* const> parts,
                           std::span<const std::size_t> cells);

 private:
  std::size_t slot(Layer layer, std::size_t iface, std::size_t bin, bool read) const;

  std::vector<util::ReservoirQuantiles> cells_;
  std::uint64_t observations_ = 0;
};

}  // namespace mlio::core
