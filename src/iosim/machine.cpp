#include "iosim/machine.hpp"

#include "iosim/datawarp.hpp"
#include "iosim/gpfs.hpp"
#include "iosim/lustre.hpp"
#include "iosim/nvme.hpp"
#include "util/error.hpp"
#include "util/units.hpp"

namespace mlio::sim {

using util::kGB;
using util::kGiB;
using util::kKiB;
using util::kMiB;
using util::kPB;
using util::kTB;

Machine::Machine(std::string name, std::uint32_t compute_nodes, double node_link_bw,
                 std::vector<std::unique_ptr<StorageLayer>> layers,
                 const PerfModelConfig& perf_cfg)
    : name_(std::move(name)),
      compute_nodes_(compute_nodes),
      node_link_bw_(node_link_bw),
      layers_(std::move(layers)),
      model_(perf_cfg) {
  if (layers_.empty()) throw util::ConfigError("Machine: at least one layer required");
  bool has_pfs = false;
  bool has_in_system = false;
  for (const auto& l : layers_) {
    if (l->kind() == LayerKind::kParallelFs) has_pfs = true;
    else has_in_system = true;
  }
  if (!has_pfs || !has_in_system) {
    throw util::ConfigError("Machine: need one PFS and one in-system layer");
  }

  // Resolve every per-layer fact the hot path needs exactly once: the
  // executor consumes these instead of scanning layer pointers, calling the
  // virtual perf(), or dynamic_casting per file.
  facts_.resize(layers_.size());
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    LayerFacts& f = facts_[i];
    f.layer = layers_[i].get();
    f.index = i;
    f.kind = f.layer->kind();
    f.perf = f.layer->perf();
    f.lustre = dynamic_cast<const LustreLayer*>(f.layer);
    f.node_local = dynamic_cast<const NodeLocalLayer*>(f.layer);
    f.burst_buffer = dynamic_cast<const BurstBufferLayer*>(f.layer);
    mounts_.push_back(darshan::MountEntry{f.layer->mount_prefix(), f.layer->fs_type()});
  }
}

Machine Machine::summit() {
  std::vector<std::unique_ptr<StorageLayer>> layers;

  NodeLocalConfig scnl;
  scnl.capacity_bytes = static_cast<std::uint64_t>(7.4 * static_cast<double>(kPB));
  scnl.nodes = 4608;
  scnl.per_device_read_bw = 26.7e12 / 4608;  // ~5.8 GB/s
  scnl.per_device_write_bw = 9.7e12 / 4608;  // ~2.1 GB/s
  scnl.op_latency = 30e-6;
  scnl.write_cache_bw = 2.2e9;       // XFS page-cache absorb rate
  scnl.write_cache_bytes = 64 * kGiB;
  scnl.flash_page_size = 16 * kKiB;
  layers.push_back(std::make_unique<NodeLocalLayer>("SCNL", "/mnt/bb", scnl));

  GpfsConfig alpine;
  alpine.capacity_bytes = 250 * kPB;
  alpine.peak_read_bw = 2.5e12;
  alpine.peak_write_bw = 2.5e12;
  alpine.nsd_servers = 154;
  alpine.block_size = 16 * kMiB;
  alpine.per_stream_bw = 2.2e9;
  alpine.op_latency = 200e-6;
  layers.push_back(std::make_unique<GpfsLayer>("Alpine", "/gpfs/alpine", alpine));

  return Machine("Summit", 4608, 12.5e9, std::move(layers));
}

Machine Machine::cori() {
  std::vector<std::unique_ptr<StorageLayer>> layers;

  DataWarpConfig cbb;
  cbb.capacity_bytes = static_cast<std::uint64_t>(1.8 * static_cast<double>(kPB));
  cbb.peak_read_bw = 1.7e12;
  cbb.peak_write_bw = 1.7e12;
  cbb.bb_nodes = 288;
  cbb.granularity = 20 * kGiB;
  cbb.per_stream_bw = 4.0e9;
  cbb.op_latency = 100e-6;
  layers.push_back(std::make_unique<BurstBufferLayer>("CBB", "/var/opt/cray/dws", cbb));

  LustreConfig scratch;
  scratch.capacity_bytes = 30 * kPB;
  scratch.peak_read_bw = 700 * static_cast<double>(kGB);
  scratch.peak_write_bw = 700 * static_cast<double>(kGB);
  scratch.osts = 248;
  scratch.mdts = 5;
  scratch.default_stripe_size = 1 * kMiB;
  scratch.default_stripe_count = 1;
  scratch.per_stream_bw = 1.4e9;
  scratch.op_latency = 250e-6;
  layers.push_back(std::make_unique<LustreLayer>("CoriScratch", "/global/cscratch1", scratch));

  return Machine("Cori", 12076, 10.0e9, std::move(layers));
}

const StorageLayer& Machine::pfs() const {
  for (const auto& l : layers_) {
    if (l->kind() == LayerKind::kParallelFs) return *l;
  }
  throw util::ConfigError("Machine: no PFS layer");
}

const StorageLayer& Machine::in_system() const {
  for (const auto& l : layers_) {
    if (l->kind() != LayerKind::kParallelFs) return *l;
  }
  throw util::ConfigError("Machine: no in-system layer");
}

const StorageLayer* Machine::layer_for_path(std::string_view path) const {
  const LayerFacts* f = facts_for_path(path);
  return f != nullptr ? f->layer : nullptr;
}

const LayerFacts* Machine::facts_for_path(std::string_view path) const {
  const LayerFacts* best = nullptr;
  std::size_t best_len = 0;
  for (const LayerFacts& f : facts_) {
    const auto& prefix = f.layer->mount_prefix();
    if (path.size() >= prefix.size() && path.substr(0, prefix.size()) == prefix &&
        prefix.size() > best_len) {
      best = &f;
      best_len = prefix.size();
    }
  }
  return best;
}

std::size_t Machine::layer_index(const StorageLayer* l) const {
  for (const LayerFacts& f : facts_) {
    if (f.layer == l) return f.index;
  }
  throw util::ConfigError("Machine: layer not owned by this machine");
}

}  // namespace mlio::sim
