#include "core/layer_usage.hpp"

#include <algorithm>
#include <utility>
#include <vector>

#include "util/byte_io.hpp"

namespace mlio::core {

namespace {
std::string domain_of(const darshan::JobRecord& job) {
  const auto it = job.metadata.find("domain");
  return it == job.metadata.end() ? std::string("Unknown") : it->second;
}
}  // namespace

double LayerUsage::ClassCounts::ro_or_wo_percent() const {
  const std::uint64_t t = total();
  if (t == 0) return 0.0;
  return 100.0 * static_cast<double>(read_only + write_only) / static_cast<double>(t);
}

void LayerUsage::note_insys_job(std::uint64_t job_id, std::string domain) {
  // try_emplace moves `domain` only when it inserts.
  const auto [mine, inserted] = insys_job_domain_.try_emplace(job_id, std::move(domain));
  if (!inserted && domain < *mine) *mine = std::move(domain);
}

void LayerUsage::add_log(const darshan::JobRecord& job, const std::vector<FileSummary>& files) {
  std::uint8_t mask = 0;
  bool touched_insys = false;
  DomainUsage* dom = nullptr;

  for (const FileSummary& f : files) {
    mask |= f.layer == Layer::kInSystem ? 0x1 : 0x2;

    ClassCounts& cc = classes_[static_cast<std::size_t>(f.layer)];
    const bool reads = f.bytes_read > 0;
    const bool writes = f.bytes_written > 0;
    if (reads && writes) cc.read_write += 1;
    else if (reads) cc.read_only += 1;
    else if (writes) cc.write_only += 1;
    // Files opened but never transferred are not classified (the paper's
    // figure axes are transfer-based).

    if (f.layer == Layer::kInSystem) {
      if (dom == nullptr) dom = &domains_[domain_of(job)];
      dom->insys_bytes_read.add(f.bytes_read);
      dom->insys_bytes_written.add(f.bytes_written);
      touched_insys = true;
    }
  }
  if (mask != 0) job_mask_[job.job_id] |= mask;
  if (touched_insys) {
    if (dom != nullptr) dom->insys_logs += 1;
    note_insys_job(job.job_id, domain_of(job));
  }
}

void LayerUsage::merge(const LayerUsage& other) {
  job_mask_.reserve(job_mask_.size() + other.job_mask_.size());
  insys_job_domain_.reserve(insys_job_domain_.size() + other.insys_job_domain_.size());
  for (const auto& [id, mask] : other.job_mask_) job_mask_[id] |= mask;
  for (const auto& [id, dom] : other.insys_job_domain_) note_insys_job(id, dom);
  for (std::size_t i = 0; i < classes_.size(); ++i) {
    classes_[i].read_only += other.classes_[i].read_only;
    classes_[i].read_write += other.classes_[i].read_write;
    classes_[i].write_only += other.classes_[i].write_only;
  }
  for (const auto& [name, usage] : other.domains_) {
    DomainUsage& mine = domains_[name];
    mine.insys_bytes_read.merge(usage.insys_bytes_read);
    mine.insys_bytes_written.merge(usage.insys_bytes_written);
    mine.insys_logs += usage.insys_logs;
  }
}

void LayerUsage::save(util::ByteWriter& w) const {
  {
    std::vector<std::pair<std::uint64_t, std::uint8_t>> sorted(job_mask_.begin(),
                                                               job_mask_.end());
    std::sort(sorted.begin(), sorted.end());
    w.u64(sorted.size());
    for (const auto& [id, mask] : sorted) {
      w.u64(id);
      w.u8(mask);
    }
  }
  {
    std::vector<std::pair<std::uint64_t, std::string>> sorted(insys_job_domain_.begin(),
                                                              insys_job_domain_.end());
    std::sort(sorted.begin(), sorted.end());
    w.u64(sorted.size());
    for (const auto& [id, dom] : sorted) {
      w.u64(id);
      w.str(dom);
    }
  }
  for (const ClassCounts& cc : classes_) {
    w.u64(cc.read_only);
    w.u64(cc.read_write);
    w.u64(cc.write_only);
  }
  w.u64(domains_.size());
  for (const auto& [name, d] : domains_) {
    w.str(name);
    d.insys_bytes_read.save(w);
    d.insys_bytes_written.save(w);
    w.u64(d.insys_logs);
  }
}

std::uint64_t LayerUsage::serialized_size() const {
  std::uint64_t n = 8 + 9 * job_mask_.size();
  n += 8 + 12 * insys_job_domain_.size();
  for (const auto& [id, dom] : insys_job_domain_) n += dom.size();
  n += 24 * classes_.size();
  n += 8 + (12 + 2 * util::ExactSum::kSerializedSize) * domains_.size();
  for (const auto& [name, d] : domains_) n += name.size();
  return n;
}

void LayerUsage::load(util::ByteReader& r) {
  job_mask_.clear();
  const std::uint64_t n_masks = r.u64();
  // Hostile counts reserve no more than the payload could hold.
  job_mask_.reserve(
      static_cast<std::size_t>(std::min<std::uint64_t>(n_masks, r.remaining() / 9)));
  for (std::uint64_t i = 0; i < n_masks; ++i) {
    const std::uint64_t id = r.u64();
    job_mask_[id] = r.u8();
  }
  insys_job_domain_.clear();
  const std::uint64_t n_insys = r.u64();
  insys_job_domain_.reserve(
      static_cast<std::size_t>(std::min<std::uint64_t>(n_insys, r.remaining() / 12)));
  for (std::uint64_t i = 0; i < n_insys; ++i) {
    const std::uint64_t id = r.u64();
    insys_job_domain_[id] = r.str();
  }
  for (ClassCounts& cc : classes_) {
    cc.read_only = r.u64();
    cc.read_write = r.u64();
    cc.write_only = r.u64();
  }
  domains_.clear();
  const std::uint64_t n_domains = r.u64();
  for (std::uint64_t i = 0; i < n_domains; ++i) {
    DomainUsage& d = domains_[r.str()];
    d.insys_bytes_read.load(r);
    d.insys_bytes_written.load(r);
    d.insys_logs = r.u64();
  }
}

LayerUsage::JobExclusivity LayerUsage::job_exclusivity() const {
  JobExclusivity ex;
  for (const auto& [id, mask] : job_mask_) {
    (void)id;
    if (mask == 0x1) ex.insys_only += 1;
    else if (mask == 0x2) ex.pfs_only += 1;
    else ex.both += 1;
  }
  return ex;
}

std::uint64_t LayerUsage::insys_jobs() const { return insys_job_domain_.size(); }

}  // namespace mlio::core
