#include "core/interface_usage.hpp"

#include <algorithm>
#include <vector>

#include "util/byte_io.hpp"
#include "util/error.hpp"

namespace mlio::core {

namespace {
std::size_t slot(Layer layer, std::size_t iface, bool read) {
  return (static_cast<std::size_t>(layer) * 3 + iface) * 2 + (read ? 0 : 1);
}

std::string extension_of(std::string_view path) {
  const auto dot = path.rfind('.');
  if (dot == std::string_view::npos || dot + 1 == path.size()) return "(none)";
  const auto slash = path.rfind('/');
  if (slash != std::string_view::npos && slash > dot) return "(none)";
  return std::string(path.substr(dot));
}
}  // namespace

InterfaceUsage::InterfaceUsage() {
  transfer_.reserve(kLayerCount * 3 * 2);
  for (std::size_t i = 0; i < kLayerCount * 3 * 2; ++i) {
    transfer_.emplace_back(util::BinSpec::transfer_bins_perf());
  }
}

const util::Histogram& InterfaceUsage::transfer(Layer layer, std::size_t iface,
                                                bool read) const {
  MLIO_ASSERT(iface < 3);
  return transfer_[slot(layer, iface, read)];
}

void InterfaceUsage::add_log(const darshan::JobRecord& job,
                             const std::vector<FileSummary>& files) {
  bool any_stdio = false;
  for (const FileSummary& f : files) {
    const auto li = static_cast<std::size_t>(f.layer);
    IfaceCounts& ic = counts_[li];
    if (f.used_posix || f.used_mpiio) ic.posix += 1;  // MPI-IO rides on POSIX
    if (f.used_mpiio) ic.mpiio += 1;
    if (f.used_stdio) ic.stdio += 1;

    // Fig. 9 histograms keyed by the managing interface.
    const std::size_t iface = f.used_stdio && f.data_iface == DataInterface::kStdio
                                  ? 2
                                  : (f.used_mpiio ? 1 : 0);
    if (f.bytes_read > 0) transfer_[slot(f.layer, iface, true)].add(f.bytes_read);
    if (f.bytes_written > 0) transfer_[slot(f.layer, iface, false)].add(f.bytes_written);

    if (f.data_iface == DataInterface::kStdio) {
      any_stdio = true;
      ClassCounts& cc = stdio_classes_[li];
      const bool reads = f.bytes_read > 0;
      const bool writes = f.bytes_written > 0;
      if (reads && writes) cc.read_write += 1;
      else if (reads) cc.read_only += 1;
      else if (writes) cc.write_only += 1;

      const auto dit = job.metadata.find("domain");
      DomainStdio& d = stdio_domains_[dit == job.metadata.end() ? "Unknown" : dit->second];
      d.bytes_read.add(f.bytes_read);
      d.bytes_written.add(f.bytes_written);

      stdio_extensions_[extension_of(f.path)] += 1;
    }
  }
  if (any_stdio) note_stdio_job(job.job_id, job.metadata.contains("domain"));
}

void InterfaceUsage::note_stdio_job(std::uint64_t job_id, bool with_domain) {
  bool& tagged = stdio_jobs_[job_id];
  if (with_domain && !tagged) {
    tagged = true;
    stdio_jobs_with_domain_ += 1;
  }
}

void InterfaceUsage::save(util::ByteWriter& w) const {
  for (const IfaceCounts& ic : counts_) {
    w.u64(ic.posix);
    w.u64(ic.mpiio);
    w.u64(ic.stdio);
  }
  for (const ClassCounts& cc : stdio_classes_) {
    w.u64(cc.read_only);
    w.u64(cc.read_write);
    w.u64(cc.write_only);
  }
  for (const util::Histogram& h : transfer_) h.save(w);
  w.u64(stdio_domains_.size());
  for (const auto& [name, d] : stdio_domains_) {
    w.str(name);
    d.bytes_read.save(w);
    d.bytes_written.save(w);
  }
  std::vector<std::pair<std::uint64_t, bool>> jobs(stdio_jobs_.begin(), stdio_jobs_.end());
  std::sort(jobs.begin(), jobs.end());
  w.u64(jobs.size());
  for (const auto& [id, with_domain] : jobs) {
    w.u64(id);
    w.u8(with_domain ? 1 : 0);
  }
  w.u64(stdio_extensions_.size());
  for (const auto& [ext, n] : stdio_extensions_) {
    w.str(ext);
    w.u64(n);
  }
}

std::uint64_t InterfaceUsage::serialized_size() const {
  std::uint64_t n = 24 * (counts_.size() + stdio_classes_.size());
  for (const util::Histogram& h : transfer_) n += h.serialized_size();
  n += 8 + (4 + 2 * util::ExactSum::kSerializedSize) * stdio_domains_.size();
  for (const auto& [name, d] : stdio_domains_) n += name.size();
  n += 8 + 9 * stdio_jobs_.size();
  n += 8 + 12 * stdio_extensions_.size();
  for (const auto& [ext, count] : stdio_extensions_) n += ext.size();
  return n;
}

void InterfaceUsage::load(util::ByteReader& r) {
  for (IfaceCounts& ic : counts_) {
    ic.posix = r.u64();
    ic.mpiio = r.u64();
    ic.stdio = r.u64();
  }
  for (ClassCounts& cc : stdio_classes_) {
    cc.read_only = r.u64();
    cc.read_write = r.u64();
    cc.write_only = r.u64();
  }
  for (util::Histogram& h : transfer_) h.load(r);
  stdio_domains_.clear();
  const std::uint64_t n_domains = r.u64();
  for (std::uint64_t i = 0; i < n_domains; ++i) {
    DomainStdio& d = stdio_domains_[r.str()];
    d.bytes_read.load(r);
    d.bytes_written.load(r);
  }
  stdio_jobs_.clear();
  stdio_jobs_with_domain_ = 0;
  const std::uint64_t n_jobs = r.u64();
  // A hostile count reserves no more than the payload could hold.
  stdio_jobs_.reserve(
      static_cast<std::size_t>(std::min<std::uint64_t>(n_jobs, r.remaining() / 9)));
  for (std::uint64_t i = 0; i < n_jobs; ++i) {
    const std::uint64_t id = r.u64();
    note_stdio_job(id, r.u8() != 0);
  }
  stdio_extensions_.clear();
  const std::uint64_t n_exts = r.u64();
  for (std::uint64_t i = 0; i < n_exts; ++i) {
    std::uint64_t& n = stdio_extensions_[r.str()];
    n = r.u64();
  }
}

void InterfaceUsage::merge(const InterfaceUsage& other) {
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    counts_[i].posix += other.counts_[i].posix;
    counts_[i].mpiio += other.counts_[i].mpiio;
    counts_[i].stdio += other.counts_[i].stdio;
    stdio_classes_[i].read_only += other.stdio_classes_[i].read_only;
    stdio_classes_[i].read_write += other.stdio_classes_[i].read_write;
    stdio_classes_[i].write_only += other.stdio_classes_[i].write_only;
  }
  for (std::size_t i = 0; i < transfer_.size(); ++i) transfer_[i].merge(other.transfer_[i]);
  for (const auto& [name, d] : other.stdio_domains_) {
    DomainStdio& mine = stdio_domains_[name];
    mine.bytes_read.merge(d.bytes_read);
    mine.bytes_written.merge(d.bytes_written);
  }
  stdio_jobs_.reserve(stdio_jobs_.size() + other.stdio_jobs_.size());
  for (const auto& [id, with_domain] : other.stdio_jobs_) note_stdio_job(id, with_domain);
  for (const auto& [ext, n] : other.stdio_extensions_) stdio_extensions_[ext] += n;
}

}  // namespace mlio::core
