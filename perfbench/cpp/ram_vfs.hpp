// The benchmark's file layer: a RAM-backed filesystem plus a counting
// decorator, both behind mlio's util::Vfs seam.
//
// Why RAM: every archive op goes through util::Vfs, so a Vfs that keeps file
// bytes in memory plays the part of a tmpfs mount while keeping the
// benchmark's I/O inside its own process.  fsync and directory sync are
// still ISSUED by the archive (its durability protocol is unchanged) but
// cost nothing here, exactly as on tmpfs; their cost is reported as exact
// counts from CountingVfs instead of as shared-disk time, which is the
// noisiest number on a shared host.
#pragma once

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "util/vfs.hpp"

namespace perfbench {

/// In-memory util::Vfs.  Thread-safe: the service resolves shards on a pool,
/// so concurrent read_file calls are the common case.
class RamVfs final : public mlio::util::Vfs {
 public:
  std::vector<std::byte> read_file(const std::filesystem::path& path) override;
  bool exists(const std::filesystem::path& path) override;
  void create_directories(const std::filesystem::path& path) override;
  bool remove(const std::filesystem::path& path) override;
  std::vector<std::filesystem::path> list_dir(const std::filesystem::path& dir) override;
  WriteFile open_write(const std::filesystem::path& tmp) override;
  void write(WriteFile& f, std::span<const std::byte> data) override;
  void fsync_file(WriteFile& f) override;
  void close_file(WriteFile& f) noexcept override;
  void rename(const std::filesystem::path& from, const std::filesystem::path& to) override;
  void sync_dir(const std::filesystem::path& dir) override;

  /// Total bytes of the files directly inside `dir`.
  std::uint64_t bytes_in(const std::filesystem::path& dir) const;
  /// Files directly inside `dir`.
  std::uint64_t files_in(const std::filesystem::path& dir) const;
  /// FNV-1a over every file directly inside `dir`: names, sizes and bytes in
  /// path order.  Equal digests mean byte-identical archives.
  std::uint64_t digest(const std::filesystem::path& dir) const;
  /// Drop `dir` and everything in it.
  void remove_all(const std::filesystem::path& dir);

 private:
  using Bytes = std::shared_ptr<const std::vector<std::byte>>;
  mutable std::mutex mu_;
  std::map<std::string, Bytes> files_;  ///< keyed by lexically normal path
  std::set<std::string> dirs_;
  std::map<int, std::vector<std::byte>> open_;  ///< in-progress writes by fd
  int next_fd_ = 3;
};

/// Exact file-op counts of one workload.
struct VfsCounts {
  std::uint64_t reads = 0;
  std::uint64_t read_bytes = 0;
  std::uint64_t opens = 0;
  std::uint64_t writes = 0;
  std::uint64_t write_bytes = 0;
  std::uint64_t fsyncs = 0;
  std::uint64_t renames = 0;
  std::uint64_t dirsyncs = 0;
  std::uint64_t removes = 0;

  VfsCounts operator+(const VfsCounts& o) const;
  VfsCounts operator-(const VfsCounts& o) const;
};

/// Counting decorator: forwards every op to `inner` and counts it.
class CountingVfs final : public mlio::util::Vfs {
 public:
  explicit CountingVfs(mlio::util::Vfs& inner) : inner_(&inner) {}

  VfsCounts counts() const;

  std::vector<std::byte> read_file(const std::filesystem::path& path) override;
  bool exists(const std::filesystem::path& path) override;
  void create_directories(const std::filesystem::path& path) override;
  bool remove(const std::filesystem::path& path) override;
  std::vector<std::filesystem::path> list_dir(const std::filesystem::path& dir) override;
  WriteFile open_write(const std::filesystem::path& tmp) override;
  void write(WriteFile& f, std::span<const std::byte> data) override;
  void fsync_file(WriteFile& f) override;
  void close_file(WriteFile& f) noexcept override;
  void rename(const std::filesystem::path& from, const std::filesystem::path& to) override;
  void sync_dir(const std::filesystem::path& dir) override;

 private:
  mlio::util::Vfs* inner_;
  std::atomic<std::uint64_t> reads_{0}, read_bytes_{0}, opens_{0}, writes_{0}, write_bytes_{0},
      fsyncs_{0}, renames_{0}, dirsyncs_{0}, removes_{0};
};

}  // namespace perfbench
