#include "iosim/executor.hpp"

#include <algorithm>
#include <cmath>

#include "darshan/counters.hpp"
#include "darshan/runtime.hpp"
#include "iosim/lustre.hpp"
#include "iosim/nvme.hpp"
#include "util/bins.hpp"
#include "util/error.hpp"
#include "util/units.hpp"

namespace mlio::sim {

using darshan::FileHandle;
using darshan::kSharedRank;
using darshan::ModuleId;
using darshan::Runtime;

namespace {

/// Shared files of jobs with at most this many ranks are recorded per rank
/// (exercising the runtime's shared-record reduction); larger jobs record
/// the pre-aggregated rank -1 record directly, as an optimization with
/// identical output.
constexpr std::uint32_t kMaxExplicitRanks = 64;
/// Non-shared multi-rank files spread their traffic over at most this many
/// explicit rank records.
constexpr std::uint32_t kMaxPartialRanks = 4;

ModuleId module_for(Interface iface) {
  switch (iface) {
    case Interface::kPosix: return ModuleId::kPosix;
    case Interface::kMpiIo: return ModuleId::kMpiIo;
    case Interface::kStdio: return ModuleId::kStdio;
  }
  MLIO_ASSERT(false);
  return ModuleId::kPosix;
}

/// Contended share of a layer available to this job, sampled once per
/// (job, layer).  Node-local devices are private (share 1).  Shared layers
/// (PFS, burst buffer) hand a job roughly its node-proportional fair share
/// of the aggregate: production systems run consistently busy (§3.4), so a
/// 4-node job on a 4,608-node machine sees ~0.1% of the peak, modulated by
/// a lognormal burst factor (sometimes the system is quiet, mostly not) and
/// capped — no single job ever owns the fabric.
double sample_contention(const StorageLayer& layer, std::uint32_t job_nodes,
                         std::uint32_t machine_nodes, util::Rng& rng) {
  const double node_share =
      static_cast<double>(job_nodes) / std::max(1u, machine_nodes);
  switch (layer.kind()) {
    case LayerKind::kNodeLocal:
      return 1.0;
    case LayerKind::kBurstBuffer:
      return std::clamp(node_share * rng.lognormal(std::log(8.0), 0.9), 2e-4, 0.3);
    case LayerKind::kParallelFs:
      return std::clamp(node_share * rng.lognormal(std::log(0.7), 1.0), 5e-5, 0.08);
  }
  return 1.0;
}

}  // namespace

struct JobExecutor::Clock {
  double now = 0.0;
};

JobExecutor::JobExecutor(const Machine& machine, const ExecutorConfig& cfg)
    : machine_(machine), cfg_(cfg) {}

darshan::LogData JobExecutor::execute(const JobSpec& spec) const {
  darshan::LogData log;
  execute_into(spec, log);
  return log;
}

void JobExecutor::execute_into(const JobSpec& spec, darshan::LogData& out,
                               ExecStats* stats) const {
  // One runtime per thread, reused job after job: its buffers are trimmed
  // to the last job's use when a job closes, so what a thread keeps follows
  // its current job, not its largest.
  thread_local Runtime rt;
  const std::int64_t end_epoch = run(spec, rt, stats);
  rt.finalize_into(spec.start_epoch, end_epoch, out);
}

void JobExecutor::execute_body(const JobSpec& spec, Runtime& rt, util::ByteWriter& body,
                               ExecStats* stats) const {
  const std::int64_t end_epoch = run(spec, rt, stats);
  rt.write_body(spec.start_epoch, end_epoch, body);
}

std::int64_t JobExecutor::run(const JobSpec& spec, Runtime& rt, ExecStats* stats) const {
  if (spec.nprocs == 0 || spec.nnodes == 0) {
    throw util::ConfigError("JobSpec: nprocs and nnodes must be positive");
  }
  util::Rng rng = util::Rng::stream(spec.seed, spec.job_id);

  darshan::JobRecord job;
  job.job_id = spec.job_id;
  job.user_id = spec.user_id;
  job.nprocs = spec.nprocs;
  job.nnodes = spec.nnodes;
  job.exe = spec.exe;
  if (!spec.domain.empty()) job.metadata["domain"] = spec.domain;
  job.metadata["machine"] = machine_.name();

  darshan::RuntimeOptions rt_opts;
  rt_opts.enable_dxt = cfg_.enable_dxt;
  rt.begin(std::move(job), machine_.mounts(), rt_opts);
  Clock clock;

  // Per-layer contention is sampled once per job: a job experiences one
  // "weather" on each layer for its lifetime.
  std::vector<double> contention(machine_.layer_count());
  for (std::size_t i = 0; i < contention.size(); ++i) {
    contention[i] =
        sample_contention(machine_.layer(i), spec.nnodes, machine_.compute_nodes(), rng);
  }

  const PerfModel& model = machine_.perf_model();
  if (stats != nullptr) stats->jobs += 1;

  for (const FileAccessSpec& file : spec.files) {
    const LayerFacts* lf = machine_.facts_for_path(file.path);
    if (lf == nullptr) {
      throw util::ConfigError("JobSpec: path outside any mount: " + file.path);
    }
    const StorageLayer* layer = lf->layer;
    const std::uint64_t size_proxy = std::max(file.read_bytes, file.write_bytes);
    std::uint32_t stripe_hint = file.stripe_hint;
    if (lf->kind == LayerKind::kBurstBuffer && stripe_hint == 0) {
      stripe_hint = lf->burst_buffer->fragments_for(
          std::max<std::uint64_t>(spec.dw.capacity_request, size_proxy));
    }
    const Placement placement = layer->place(size_proxy, stripe_hint, rng);

    const std::uint32_t ranks =
        file.shared ? spec.nprocs : std::clamp<std::uint32_t>(file.ranks, 1, spec.nprocs);
    const std::uint32_t nodes = std::max<std::uint32_t>(
        1, static_cast<std::uint32_t>(
               (static_cast<std::uint64_t>(ranks) * spec.nnodes + spec.nprocs - 1) /
               spec.nprocs));

    const ModuleId mod = module_for(file.iface);
    // Shared files of small jobs exercise the per-rank reduction path.
    const bool explicit_ranks = file.shared ? spec.nprocs <= kMaxExplicitRanks
                                            : true;
    const std::uint32_t explicit_count =
        file.shared ? (explicit_ranks ? spec.nprocs : 1)
                    : std::min(ranks, kMaxPartialRanks);

    AccessRequest req;
    req.layer = layer;
    req.iface = file.iface;
    req.streams = ranks;
    req.nodes = nodes;
    req.placement = placement;
    req.sequential = file.sequential;
    req.collective = file.collective;
    req.rewrites = file.rewrites;
    req.contention = contention[lf->index];
    req.node_link_bw = machine_.node_link_bw();
    // Precomputed layer facts skip the virtual perf() call and the
    // node-local dynamic_cast inside the model.
    req.perf = &lf->perf;
    req.node_local = lf->node_local;

    // Interned on first emission, so a file with no traffic registers its
    // name only when a geometry or extension record needs it.
    std::uint64_t path_id = 0;
    bool path_interned = false;
    const auto intern = [&] {
      if (!path_interned) {
        path_id = rt.intern_path(file.path);
        path_interned = true;
      }
    };

    auto emit_segment = [&](Direction dir, std::uint64_t bytes, std::uint64_t op_size) {
      if (bytes == 0) return;
      req.dir = dir;
      req.total_bytes = bytes;
      req.op_size = std::max<std::uint64_t>(1, op_size ? op_size : util::kMiB);
      const double elapsed = model.elapsed_seconds(req, rng);
      const double start = clock.now;
      clock.now += elapsed;

      const bool use_shared_rank = file.shared && !explicit_ranks;
      const std::uint32_t emit_ranks = use_shared_rank ? 1 : explicit_count;
      const std::uint64_t per_rank = bytes / emit_ranks;
      const std::uint64_t remainder = bytes % emit_ranks;

      if (stats != nullptr) {
        const std::uint64_t rows =
            per_rank > 0 ? emit_ranks : std::max<std::uint64_t>(remainder, 1);
        stats->segments += 1;
        stats->rank_rows += rows;
        stats->opens += rows * (mod == ModuleId::kMpiIo ? 2 : 1);
      }

      // One interned id, both op splits precomputed, one bulk fan-out per
      // module: the runtime spreads the segment over all rank rows.
      intern();
      darshan::RankSegment seg;
      seg.rank0 = use_shared_rank ? kSharedRank : 0;
      seg.n_ranks = emit_ranks;
      seg.n_plus_one = static_cast<std::uint32_t>(remainder);
      seg.per_rank_bytes = per_rank;
      seg.op_size = req.op_size;
      seg.start = start;
      seg.elapsed = elapsed;
      seg.sequential = file.sequential;
      seg.meta_ops = 1;
      seg.meta_elapsed = lf->perf.op_latency;
      if (dir == Direction::kRead) {
        rt.record_reads_ranks(mod, path_id, seg);
      } else {
        rt.record_writes_ranks(mod, path_id, seg);
      }
      // MPI-IO rides on POSIX (§3.1): mirror the transfer into a POSIX
      // record whose request sizes reflect collective aggregation.
      if (mod == ModuleId::kMpiIo) {
        darshan::RankSegment ps = seg;
        ps.op_size = file.collective
                         ? std::max<std::uint64_t>(req.op_size, model.config().cb_buffer_bytes)
                         : req.op_size;
        ps.sequential = true;
        ps.meta_ops = 0;
        if (dir == Direction::kRead) {
          rt.record_reads_ranks(ModuleId::kPosix, path_id, ps);
        } else {
          rt.record_writes_ranks(ModuleId::kPosix, path_id, ps);
        }
      }
    };

    // A request-size mix splits the transfer into one batch per Darshan bin
    // (header reads + bulk transfers); without one, a single op size is used.
    auto emit = [&](Direction dir, std::uint64_t bytes, std::uint64_t op_size,
                    const std::vector<std::pair<std::uint8_t, float>>& mix) {
      if (bytes == 0) return;
      if (mix.empty()) {
        emit_segment(dir, bytes, op_size);
        return;
      }
      const auto& bins = util::BinSpec::darshan_request_bins();
      std::uint64_t remaining = bytes;
      for (std::size_t i = 0; i < mix.size() && remaining > 0; ++i) {
        const auto [bin, share] = mix[i];
        std::uint64_t seg = i + 1 == mix.size()
                                ? remaining
                                : std::min<std::uint64_t>(
                                      remaining, static_cast<std::uint64_t>(
                                                     static_cast<double>(bytes) * share));
        if (seg == 0) continue;
        const std::uint64_t lo = std::max<std::uint64_t>(1, bins.lower_bound(bin));
        const std::uint64_t hi = bins.upper_bound(bin);
        std::uint64_t op = rng.log_uniform_u64(lo, hi);
        op = std::min(op, std::max<std::uint64_t>(1, seg));
        emit_segment(dir, seg, op);
        remaining -= seg;
      }
    };

    emit(Direction::kRead, file.read_bytes, file.read_op_size, file.read_mix);
    emit(Direction::kWrite, file.write_bytes, file.write_op_size, file.write_mix);

    // Lustre geometry record for PFS files on Cori.
    if (lf->lustre != nullptr) {
      intern();
      rt.record_lustre(path_id, static_cast<std::int64_t>(placement.stripe_size),
                       placement.targets, placement.start_target, lf->lustre->config().mdts,
                       lf->lustre->config().osts);
    }

    // Recommendation-4 SSD extension record for flash-backed layers.
    if (cfg_.enable_ssd_ext && lf->kind != LayerKind::kParallelFs && file.write_bytes > 0) {
      const std::uint64_t rewrite = file.write_bytes * file.rewrites;
      const std::uint64_t seq = file.sequential ? file.write_bytes : 0;
      const std::uint64_t rnd = file.sequential ? 0 : file.write_bytes;
      const std::uint64_t dynamic = file.rewrites > 0 ? file.write_bytes : 0;
      double waf = 1.0;
      if (lf->node_local != nullptr) {
        waf = lf->node_local->write_amplification(
            std::max<std::uint64_t>(1, file.write_op_size), file.sequential, file.rewrites);
      }
      intern();
      rt.record_ssd(path_id, rewrite, seq, rnd, file.write_bytes - dynamic, dynamic, waf);
    }
    if (stats != nullptr) stats->files += 1;
  }

  // Jobs compute between I/O phases; keep wall time >= I/O time.  The range
  // reproduces Table 2's ~2 node-hours per log given the node-count mix.
  const double compute = rng.uniform_real(20.0, 1200.0);
  const auto duration = static_cast<std::int64_t>(std::ceil(clock.now + compute));
  return spec.start_epoch + std::max<std::int64_t>(1, duration);
}

StagingReport JobExecutor::estimate_staging(const JobSpec& spec) const {
  StagingReport rep;
  const StorageLayer& pfs = machine_.pfs();
  const StorageLayer& in_sys = machine_.in_system();
  util::Rng rng = util::Rng::stream(spec.seed, spec.job_id ^ 0x57a6e5ull);

  auto stage_seconds = [&](std::uint64_t bytes, Direction bb_dir) {
    if (bytes == 0) return 0.0;
    // DataWarp moves data with large sequential transfers over the BB nodes'
    // fragments; the slower of (PFS side, BB side) bounds the rate.  On a
    // machine without a burst buffer (Summit), staging degenerates to a
    // single-fragment copy to the node-local device.
    const auto* bb = dynamic_cast<const BurstBufferLayer*>(&in_sys);
    const std::uint32_t frags = std::max<std::uint32_t>(
        1, bb ? bb->fragments_for(std::max(spec.dw.capacity_request, bytes)) : 1);
    AccessRequest side;
    side.iface = Interface::kPosix;
    side.total_bytes = bytes;
    side.op_size = 8 * util::kMiB;
    side.streams = frags;
    side.nodes = frags;
    side.sequential = true;
    side.node_link_bw = machine_.node_link_bw();

    side.layer = &pfs;
    side.placement = pfs.place(bytes, 0, rng);
    side.dir = bb_dir == Direction::kWrite ? Direction::kRead : Direction::kWrite;
    side.contention = sample_contention(pfs, frags, machine_.compute_nodes(), rng);
    const double pfs_bw = machine_.perf_model().aggregate_bandwidth(side);

    side.layer = &in_sys;
    side.placement = in_sys.place(bytes, frags, rng);
    side.dir = bb_dir;
    side.contention = sample_contention(in_sys, frags, machine_.compute_nodes(), rng);
    const double bb_bw = machine_.perf_model().aggregate_bandwidth(side);

    return static_cast<double>(bytes) / std::min(pfs_bw, bb_bw);
  };

  for (const auto& d : spec.dw.stage_in) {
    rep.bytes_in += d.bytes;
    rep.seconds_in += stage_seconds(d.bytes, Direction::kWrite);
  }
  for (const auto& d : spec.dw.stage_out) {
    rep.bytes_out += d.bytes;
    rep.seconds_out += stage_seconds(d.bytes, Direction::kRead);
  }
  return rep;
}

}  // namespace mlio::sim
