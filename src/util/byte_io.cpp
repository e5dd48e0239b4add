#include "util/byte_io.hpp"

#include <cstdio>

#include "util/vfs.hpp"

namespace mlio::util {

void ByteWriter::str(std::string_view s) {
  if (s.size() > 0xffffffffull) throw FormatError("string too long");
  u32(static_cast<std::uint32_t>(s.size()));
  const auto* p = reinterpret_cast<const std::byte*>(s.data());
  buf_.insert(buf_.end(), p, p + s.size());
}

void ByteWriter::bytes(std::span<const std::byte> data) {
  buf_.insert(buf_.end(), data.begin(), data.end());
}

std::string ByteReader::str() {
  const std::uint32_t n = u32();
  need(n);
  std::string s(reinterpret_cast<const char*>(data_.data() + pos_), n);
  pos_ += n;
  return s;
}

std::string_view ByteReader::str_view() {
  const std::uint32_t n = u32();
  need(n);
  const std::string_view s(reinterpret_cast<const char*>(data_.data() + pos_), n);
  pos_ += n;
  return s;
}

std::span<const std::byte> ByteReader::bytes(std::size_t n) {
  need(n);
  auto out = data_.subspan(pos_, n);
  pos_ += n;
  return out;
}

std::vector<std::byte> read_file_bytes(const std::filesystem::path& path) {
  std::FILE* f = std::fopen(path.string().c_str(), "rb");
  if (f == nullptr) throw IoError("cannot open " + path.string());
  std::vector<std::byte> data;
  std::byte buf[1 << 16];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    data.insert(data.end(), buf, buf + n);
  }
  const bool failed = std::ferror(f) != 0;
  std::fclose(f);
  if (failed) throw IoError("read failed for " + path.string());
  return data;
}

void write_file_atomic(const std::filesystem::path& path, std::span<const std::byte> data) {
  // Durable variant of temp+rename (util/vfs.hpp): fsync the tmp file
  // before the rename and the parent directory after it, surface the rename
  // errno, and always clean up the tmp on failure.
  real_vfs().write_file_atomic(path, data);
}

}  // namespace mlio::util
