#include "ram_vfs.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace perfbench {

namespace fs = std::filesystem;
using mlio::util::IoError;

namespace {

std::string key(const fs::path& p) { return p.lexically_normal().string(); }

std::string parent_key(const std::string& k) { return fs::path(k).parent_path().string(); }

}  // namespace

std::vector<std::byte> RamVfs::read_file(const fs::path& path) {
  Bytes bytes;
  {
    const std::scoped_lock lock(mu_);
    const auto it = files_.find(key(path));
    if (it == files_.end()) throw IoError("cannot open " + path.string() + ": no such file");
    bytes = it->second;
  }
  return *bytes;  // copy outside the lock, as a read(2) from tmpfs would
}

bool RamVfs::exists(const fs::path& path) {
  const std::string k = key(path);
  const std::scoped_lock lock(mu_);
  return files_.count(k) != 0 || dirs_.count(k) != 0;
}

void RamVfs::create_directories(const fs::path& path) {
  const std::scoped_lock lock(mu_);
  for (fs::path p = path.lexically_normal(); !p.empty() && p != p.root_path();
       p = p.parent_path()) {
    dirs_.insert(p.string());
  }
}

bool RamVfs::remove(const fs::path& path) {
  const std::scoped_lock lock(mu_);
  return files_.erase(key(path)) != 0;
}

std::vector<fs::path> RamVfs::list_dir(const fs::path& dir) {
  const std::string d = key(dir);
  std::vector<fs::path> out;
  {
    const std::scoped_lock lock(mu_);
    if (dirs_.count(d) == 0) throw IoError("list " + dir.string() + ": no such directory");
    for (const auto& [name, bytes] : files_) {
      if (parent_key(name) == d) out.emplace_back(name);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

mlio::util::Vfs::WriteFile RamVfs::open_write(const fs::path& tmp) {
  const std::scoped_lock lock(mu_);
  if (dirs_.count(parent_key(key(tmp))) == 0) {
    throw IoError("cannot create " + tmp.string() + ": no such directory");
  }
  const int fd = next_fd_++;
  open_[fd];
  files_[key(tmp)] = std::make_shared<const std::vector<std::byte>>();
  return WriteFile{fd, tmp};
}

void RamVfs::write(WriteFile& f, std::span<const std::byte> data) {
  const std::scoped_lock lock(mu_);
  const auto it = open_.find(f.fd);
  if (it == open_.end()) throw IoError("write failed for " + f.path.string() + ": not open");
  it->second.insert(it->second.end(), data.begin(), data.end());
}

void RamVfs::fsync_file(WriteFile& f) {
  // RAM is the stable storage here, as on tmpfs: nothing to flush.
  const std::scoped_lock lock(mu_);
  if (open_.count(f.fd) == 0) throw IoError("fsync failed for " + f.path.string() + ": not open");
}

void RamVfs::close_file(WriteFile& f) noexcept {
  const std::scoped_lock lock(mu_);
  const auto it = open_.find(f.fd);
  if (it == open_.end()) return;
  files_[key(f.path)] = std::make_shared<const std::vector<std::byte>>(std::move(it->second));
  open_.erase(it);
  f.fd = -1;
}

void RamVfs::rename(const fs::path& from, const fs::path& to) {
  const std::scoped_lock lock(mu_);
  const auto it = files_.find(key(from));
  if (it == files_.end()) {
    throw IoError("rename " + from.string() + " -> " + to.string() + ": no such file");
  }
  Bytes bytes = std::move(it->second);
  files_.erase(it);
  files_[key(to)] = std::move(bytes);
}

void RamVfs::sync_dir(const fs::path& dir) {
  const std::scoped_lock lock(mu_);
  if (dirs_.count(key(dir)) == 0) {
    throw IoError("cannot open directory " + dir.string() + ": no such directory");
  }
}

std::uint64_t RamVfs::bytes_in(const fs::path& dir) const {
  const std::string d = key(dir);
  const std::scoped_lock lock(mu_);
  std::uint64_t total = 0;
  for (const auto& [name, bytes] : files_) {
    if (parent_key(name) == d) total += bytes->size();
  }
  return total;
}

std::uint64_t RamVfs::files_in(const fs::path& dir) const {
  const std::string d = key(dir);
  const std::scoped_lock lock(mu_);
  std::uint64_t n = 0;
  for (const auto& [name, bytes] : files_) {
    if (parent_key(name) == d) n += 1;
  }
  return n;
}

std::uint64_t RamVfs::digest(const fs::path& dir) const {
  const std::string d = key(dir);
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  const std::scoped_lock lock(mu_);
  for (const auto& [name, bytes] : files_) {
    if (parent_key(name) != d) continue;
    for (const char c : fs::path(name).filename().string()) mix(static_cast<unsigned char>(c));
    mix(bytes->size());
    for (const std::byte b : *bytes) mix(static_cast<std::uint64_t>(b));
  }
  return h;
}

void RamVfs::remove_all(const fs::path& dir) {
  const std::string d = key(dir);
  const std::string prefix = d + "/";
  const std::scoped_lock lock(mu_);
  std::erase_if(files_, [&](const auto& kv) { return kv.first.rfind(prefix, 0) == 0; });
  std::erase_if(dirs_, [&](const std::string& k) { return k == d || k.rfind(prefix, 0) == 0; });
}

VfsCounts VfsCounts::operator+(const VfsCounts& o) const {
  return {reads + o.reads,       read_bytes + o.read_bytes,   opens + o.opens,
          writes + o.writes,     write_bytes + o.write_bytes, fsyncs + o.fsyncs,
          renames + o.renames,   dirsyncs + o.dirsyncs,       removes + o.removes};
}

VfsCounts VfsCounts::operator-(const VfsCounts& o) const {
  return {reads - o.reads,       read_bytes - o.read_bytes,   opens - o.opens,
          writes - o.writes,     write_bytes - o.write_bytes, fsyncs - o.fsyncs,
          renames - o.renames,   dirsyncs - o.dirsyncs,       removes - o.removes};
}

VfsCounts CountingVfs::counts() const {
  return {reads_.load(),  read_bytes_.load(),  opens_.load(),
          writes_.load(), write_bytes_.load(), fsyncs_.load(),
          renames_.load(), dirsyncs_.load(),   removes_.load()};
}

std::vector<std::byte> CountingVfs::read_file(const fs::path& path) {
  std::vector<std::byte> bytes = inner_->read_file(path);
  reads_.fetch_add(1, std::memory_order_relaxed);
  read_bytes_.fetch_add(bytes.size(), std::memory_order_relaxed);
  return bytes;
}

bool CountingVfs::exists(const fs::path& path) { return inner_->exists(path); }

void CountingVfs::create_directories(const fs::path& path) { inner_->create_directories(path); }

bool CountingVfs::remove(const fs::path& path) {
  removes_.fetch_add(1, std::memory_order_relaxed);
  return inner_->remove(path);
}

std::vector<fs::path> CountingVfs::list_dir(const fs::path& dir) { return inner_->list_dir(dir); }

mlio::util::Vfs::WriteFile CountingVfs::open_write(const fs::path& tmp) {
  opens_.fetch_add(1, std::memory_order_relaxed);
  return inner_->open_write(tmp);
}

void CountingVfs::write(WriteFile& f, std::span<const std::byte> data) {
  writes_.fetch_add(1, std::memory_order_relaxed);
  write_bytes_.fetch_add(data.size(), std::memory_order_relaxed);
  inner_->write(f, data);
}

void CountingVfs::fsync_file(WriteFile& f) {
  fsyncs_.fetch_add(1, std::memory_order_relaxed);
  inner_->fsync_file(f);
}

void CountingVfs::close_file(WriteFile& f) noexcept { inner_->close_file(f); }

void CountingVfs::rename(const fs::path& from, const fs::path& to) {
  renames_.fetch_add(1, std::memory_order_relaxed);
  inner_->rename(from, to);
}

void CountingVfs::sync_dir(const fs::path& dir) {
  dirsyncs_.fetch_add(1, std::memory_order_relaxed);
  inner_->sync_dir(dir);
}

}  // namespace perfbench
