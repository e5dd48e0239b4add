// §3.3 — user behaviours at the HPC I/O middleware stack.
//
//   Table 6 — files using POSIX / MPI-IO / STDIO per layer (a file using
//             MPI-IO also counts under POSIX, as in real Darshan logs);
//   Fig. 8  — RO/RW/WO classification of STDIO-managed files per layer;
//   Fig. 9  — per-interface transfer-size CDFs (read and write);
//   Fig. 10 — STDIO transfer volume by science domain + STDIO job census.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <string>

#include "core/dataset.hpp"
#include "util/flat_map.hpp"
#include "util/histogram.hpp"
#include "util/stats.hpp"

namespace mlio::util {
class ByteReader;
class ByteWriter;
}  // namespace mlio::util

namespace mlio::core {

class InterfaceUsage {
 public:
  InterfaceUsage();

  void add_log(const darshan::JobRecord& job, const std::vector<FileSummary>& files);
  void merge(const InterfaceUsage& other);

  /// Canonical serialization (the STDIO job set is emitted sorted).
  void save(util::ByteWriter& w) const;
  void load(util::ByteReader& r);
  /// Byte count save() would write, from container sizes alone.
  std::uint64_t serialized_size() const;

  /// Table 6 counts: files whose records include the given module.
  struct IfaceCounts {
    std::uint64_t posix = 0;
    std::uint64_t mpiio = 0;
    std::uint64_t stdio = 0;
  };
  const IfaceCounts& counts(Layer layer) const {
    return counts_[static_cast<std::size_t>(layer)];
  }

  struct ClassCounts {
    std::uint64_t read_only = 0;
    std::uint64_t read_write = 0;
    std::uint64_t write_only = 0;
  };
  /// Fig. 8: classification of STDIO-managed files.
  const ClassCounts& stdio_classes(Layer layer) const {
    return stdio_classes_[static_cast<std::size_t>(layer)];
  }

  /// Fig. 9: per-(layer, interface) transfer histograms.  Interface index:
  /// 0 = POSIX(-only), 1 = MPI-IO, 2 = STDIO.
  const util::Histogram& transfer(Layer layer, std::size_t iface, bool read) const;

  struct DomainStdio {
    util::ExactSum bytes_read;
    util::ExactSum bytes_written;
  };
  /// Fig. 10: STDIO transfer per science domain (both layers combined).
  const std::map<std::string, DomainStdio>& stdio_domains() const { return stdio_domains_; }

  /// STDIO job census (§3.3.2): jobs with at least one STDIO file, and how
  /// many of those carry a science-domain tag (on any of their STDIO logs).
  std::uint64_t stdio_jobs() const { return stdio_jobs_.size(); }
  std::uint64_t stdio_jobs_with_domain() const { return stdio_jobs_with_domain_; }

  /// Extension census for STDIO files (§3.3.2's .rst/.dat/.vol observation).
  const std::map<std::string, std::uint64_t>& stdio_extensions() const {
    return stdio_extensions_;
  }

 private:
  std::array<IfaceCounts, kLayerCount> counts_{};
  std::array<ClassCounts, kLayerCount> stdio_classes_{};
  // [layer][iface][dir]
  std::vector<util::Histogram> transfer_;
  std::map<std::string, DomainStdio> stdio_domains_;
  /// Add `job_id` to the STDIO job census, or upgrade it to domain-tagged.
  void note_stdio_job(std::uint64_t job_id, bool with_domain);

  /// STDIO job -> carries a domain tag.  Per-job flags (not a bare count)
  /// keep the with-domain census exact when a job's logs span shards.
  util::FlatU64Map<bool> stdio_jobs_;
  std::uint64_t stdio_jobs_with_domain_ = 0;
  std::map<std::string, std::uint64_t> stdio_extensions_;
};

}  // namespace mlio::core
