// Machine presets: Summit (OLCF, 2020) and Cori (NERSC, 2019) as described
// in §2.1, each a compute partition attached to two storage layers.
#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "darshan/record.hpp"
#include "iosim/layer.hpp"
#include "iosim/perf_model.hpp"

namespace mlio::sim {

class BurstBufferLayer;
class LustreLayer;
class NodeLocalLayer;

/// Immutable per-layer facts resolved once at machine construction, so the
/// executor's per-file hot path does no layer-pointer scans, dynamic_casts,
/// or virtual perf() calls: the layer index (for per-job contention tables),
/// the hoisted performance envelope, and the concrete-type views (non-null
/// exactly when the layer is of that type).
struct LayerFacts {
  const StorageLayer* layer = nullptr;
  std::size_t index = 0;
  LayerKind kind = LayerKind::kParallelFs;
  LayerPerf perf;
  const LustreLayer* lustre = nullptr;
  const NodeLocalLayer* node_local = nullptr;
  const BurstBufferLayer* burst_buffer = nullptr;
};

class Machine {
 public:
  Machine(std::string name, std::uint32_t compute_nodes, double node_link_bw,
          std::vector<std::unique_ptr<StorageLayer>> layers,
          const PerfModelConfig& perf_cfg = {});

  /// Summit: 4,608 AC922 nodes; SCNL node-local NVMe (7.4 PB, 26.7/9.7 TB/s)
  /// + Alpine GPFS (250 PB, 2.5 TB/s, 154 NSD servers, 16 MiB blocks).
  static Machine summit();
  /// Cori: 12,076 Haswell+KNL nodes; CBB DataWarp burst buffer (1.8 PB,
  /// 1.7 TB/s) + Cori scratch Lustre (30 PB, 700 GB/s, 248 OSTs, 5 MDSes,
  /// default stripe_count 1 / stripe_size 1 MiB).
  static Machine cori();

  const std::string& name() const { return name_; }
  std::uint32_t compute_nodes() const { return compute_nodes_; }
  double node_link_bw() const { return node_link_bw_; }
  const PerfModel& perf_model() const { return model_; }

  /// The parallel-file-system layer (exactly one per machine).
  const StorageLayer& pfs() const;
  /// The in-system layer (SCNL or CBB; exactly one per machine).
  const StorageLayer& in_system() const;
  /// Longest-prefix mount match; nullptr when no layer holds the path.
  const StorageLayer* layer_for_path(std::string_view path) const;
  /// Same match, returning the precomputed facts row for the layer.
  const LayerFacts* facts_for_path(std::string_view path) const;

  std::size_t layer_count() const { return layers_.size(); }
  const StorageLayer& layer(std::size_t i) const { return *layers_.at(i); }
  const LayerFacts& facts(std::size_t i) const { return facts_.at(i); }
  /// Index of a layer owned by this machine (the inverse of layer(i)).
  std::size_t layer_index(const StorageLayer* l) const;

  /// Mount table recorded into every Darshan log of this machine.
  const std::vector<darshan::MountEntry>& mounts() const { return mounts_; }

 private:
  std::string name_;
  std::uint32_t compute_nodes_;
  double node_link_bw_;
  std::vector<std::unique_ptr<StorageLayer>> layers_;
  std::vector<LayerFacts> facts_;
  std::vector<darshan::MountEntry> mounts_;
  PerfModel model_;
};

}  // namespace mlio::sim
