// Reusable crash-consistency sweep for archive workloads.
//
// The harness runs a workload once on a fault-free FaultVfs to count its
// file-system ops and to record every *committed state* (the query result
// right after each manifest publish).  It then re-runs the workload once
// per op index with a crash point planted there, simulating the power cut
// with the bytes a real crash would leave (util/vfs.hpp), and after each
// simulated crash reopens the directory on the real filesystem and checks
// the archive's whole durability contract:
//
//   * the manifest either does not exist yet (only possible while the very
//     first publish is still in flight) or loads and passes verify(--deep);
//   * the query result equals one of the committed states — partial work is
//     never observable;
//   * `.tmp` litter is inert: deleting it changes nothing.
//
// Every sampled crash point is also replayed in a fresh directory and the
// resulting directory contents compared byte-for-byte — a failing
// (seed, crash-index) pair printed by a test reproduces its exact failure.
//
// Workload contract: `workload(dir, vfs)` must create/open the archive in
// `dir` itself, route ALL file I/O through `vfs`, and be deterministic
// (same op sequence every run).  Keep workloads tiny — the sweep is
// quadratic in the op count by construction.
#pragma once

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <string>
#include <vector>

#include "archive/archive.hpp"
#include "cold_query.hpp"
#include "core/snapshot.hpp"
#include "util/byte_io.hpp"
#include "util/compress.hpp"
#include "util/vfs.hpp"

namespace mlio::harness {

struct CrashSweepOptions {
  std::uint64_t seed = 1;
  /// Threads for the post-crash query (1 keeps the sweep fast; >1 also
  /// exercises the parallel shard rebuild after every crash).
  unsigned query_threads = 1;
  /// Replay every Nth crash point in a fresh directory and require the
  /// identical outcome (0 disables the determinism cross-check).
  std::uint64_t replay_stride = 9;
};

struct CrashSweepReport {
  std::uint64_t total_ops = 0;
  std::uint64_t crash_points = 0;
  std::uint64_t committed_states = 0;
  std::uint64_t replays_checked = 0;
  /// Each entry carries the (seed, crash-at) pair needed to replay it.
  std::vector<std::string> failures;
  bool ok() const { return failures.empty(); }
  std::string summary() const {
    std::string s;
    for (const std::string& f : failures) s += f + "\n";
    return s;
  }
};

using CrashWorkload = std::function<void(const std::filesystem::path&, util::Vfs&)>;

namespace detail {

inline std::vector<std::byte> query_state(archive::Archive& ar, unsigned threads) {
  // The check must never mutate the archive: no write-back.
  return core::write_snapshot_bytes(
      *cold_get(ar, 0, threads, /*write_back=*/false).analysis, 0);
}

/// Order-independent digest of a directory: sorted (filename, size, crc).
inline std::uint64_t dir_digest(const std::filesystem::path& dir) {
  namespace fs = std::filesystem;
  std::vector<fs::path> entries;
  for (const fs::directory_entry& e : fs::directory_iterator(dir)) {
    if (e.is_regular_file()) entries.push_back(e.path());
  }
  std::sort(entries.begin(), entries.end());
  std::uint64_t h = 0xcbf29ce484222325ull;
  auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 0x100000001b3ull;
  };
  for (const fs::path& p : entries) {
    for (const char c : p.filename().string()) mix(static_cast<std::uint8_t>(c));
    const std::vector<std::byte> bytes = util::read_file_bytes(p);
    mix(bytes.size());
    mix(util::crc32(bytes));
  }
  return h;
}

struct CrashOutcome {
  bool crashed = false;
  bool has_manifest = false;
  std::uint64_t fs_digest = 0;        ///< directory digest right after the crash
  std::vector<std::byte> state;       ///< post-crash query result (when manifest loads)
  std::string error;                  ///< first invariant violation, empty if none
};

inline CrashOutcome run_crash(const std::filesystem::path& dir, const CrashWorkload& workload,
                              std::uint64_t seed, std::uint64_t crash_at,
                              unsigned query_threads) {
  namespace fs = std::filesystem;
  fs::remove_all(dir);
  fs::create_directories(dir);

  util::FaultPlan plan;
  plan.seed = seed;
  plan.crash_at = static_cast<std::int64_t>(crash_at);
  util::FaultVfs vfs(plan);

  CrashOutcome out;
  try {
    workload(dir, vfs);
  } catch (const util::SimulatedCrash&) {
    out.crashed = true;
  }
  out.fs_digest = dir_digest(dir);
  out.has_manifest = fs::exists(dir / "manifest.bin");
  if (!out.has_manifest) return out;

  try {
    archive::Archive ar = archive::Archive::open(dir);
    const archive::Archive::VerifyReport rep = ar.verify(true);
    if (!rep.ok()) {
      out.error = "verify --deep failed: " + rep.issues.front();
      return out;
    }
    out.state = query_state(ar, query_threads);

    // `.tmp` litter must be inert: with it gone, the archive still verifies
    // and answers identically.
    bool removed_tmp = false;
    for (const fs::directory_entry& e : fs::directory_iterator(dir)) {
      if (e.path().extension() == ".tmp") {
        fs::remove(e.path());
        removed_tmp = true;
      }
    }
    if (removed_tmp) {
      archive::Archive clean = archive::Archive::open(dir);
      if (!clean.verify(true).ok()) {
        out.error = "verify failed after deleting .tmp litter";
      } else if (query_state(clean, query_threads) != out.state) {
        out.error = "query result changed after deleting .tmp litter";
      }
    }
  } catch (const util::Error& e) {
    out.error = std::string("reopen after crash failed: ") + e.what();
  }
  return out;
}

}  // namespace detail

inline CrashSweepReport crash_sweep(const std::filesystem::path& root,
                                    const CrashWorkload& workload,
                                    const CrashSweepOptions& opts = {}) {
  namespace fs = std::filesystem;
  CrashSweepReport rep;
  fs::remove_all(root);
  fs::create_directories(root);

  // Pass 1: fault-free run.  Counts ops and snapshots the query result at
  // every manifest publish — the set of states a crash is allowed to expose.
  std::vector<std::vector<std::byte>> committed;
  std::int64_t first_commit_op = -1;
  {
    const fs::path dir = root / "clean";
    fs::create_directories(dir);
    util::FaultPlan plan;
    plan.seed = opts.seed;
    util::FaultVfs vfs(plan);
    vfs.after_op = [&](std::uint64_t idx, util::VfsOp op, const fs::path& path) {
      if (op != util::VfsOp::kRename || path.filename() != "manifest.bin") return;
      if (first_commit_op < 0) first_commit_op = static_cast<std::int64_t>(idx);
      archive::Archive ar = archive::Archive::open(dir);
      std::vector<std::byte> state = detail::query_state(ar, opts.query_threads);
      if (std::find(committed.begin(), committed.end(), state) == committed.end()) {
        committed.push_back(std::move(state));
      }
    };
    workload(dir, vfs);
    rep.total_ops = vfs.op_count();
  }
  rep.committed_states = committed.size();

  auto fail = [&](std::uint64_t crash_at, const std::string& what) {
    rep.failures.push_back("crash-at=" + std::to_string(crash_at) +
                           " seed=" + std::to_string(opts.seed) + ": " + what);
  };

  // Pass 2: crash at every op index, reopen, check the contract.
  for (std::uint64_t i = 0; i < rep.total_ops; ++i) {
    const detail::CrashOutcome out =
        detail::run_crash(root / "crash", workload, opts.seed, i, opts.query_threads);
    rep.crash_points += 1;

    if (!out.crashed) {
      fail(i, "crash point never fired (workload op sequence not deterministic?)");
      continue;
    }
    if (!out.error.empty()) {
      fail(i, out.error);
      continue;
    }
    if (!out.has_manifest) {
      // Only legal while the very first manifest publish is not yet durable
      // (its rename may land or not; the following dirsync may revert it).
      if (first_commit_op >= 0 && i > static_cast<std::uint64_t>(first_commit_op) + 1) {
        fail(i, "manifest vanished after it was first committed");
      }
      continue;
    }
    if (std::find(committed.begin(), committed.end(), out.state) == committed.end()) {
      fail(i, "query result matches no committed state (partial state observable)");
    }

    if (opts.replay_stride != 0 && i % opts.replay_stride == 0) {
      const detail::CrashOutcome again =
          detail::run_crash(root / "replay", workload, opts.seed, i, opts.query_threads);
      rep.replays_checked += 1;
      if (again.fs_digest != out.fs_digest || again.state != out.state ||
          again.error != out.error) {
        fail(i, "replay diverged: the same (seed, crash-index) must reproduce bit-identically");
      }
    }
  }
  return rep;
}

}  // namespace mlio::harness
