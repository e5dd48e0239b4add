#include "archive/manifest.hpp"

#include "util/byte_io.hpp"
#include "util/compress.hpp"
#include "util/error.hpp"

namespace mlio::archive {

std::vector<std::byte> write_manifest_bytes(const Manifest& m) {
  util::ByteWriter body;
  body.u64(m.generation);
  body.u64(m.next_partition_id);
  body.u64(m.partitions.size());
  for (const PartitionInfo& p : m.partitions) {
    body.u64(p.id);
    body.u64(p.log_count);
    body.u64(p.job_id_min);
    body.u64(p.job_id_max);
    body.u64(p.segment_bytes);
    body.u32(p.segment_crc);
    body.u64(p.data_generation);
    body.u8(p.has_snapshot ? 1 : 0);
    body.u64(p.snapshot_generation);
    body.u32(p.snapshot_crc);
    body.u64(p.window_min);
    body.u64(p.window_max);
    body.u32(p.level);
  }

  util::ByteWriter frame;
  frame.u32(kManifestMagic);
  frame.u16(kManifestVersion);
  frame.u16(0);
  frame.u32(util::crc32(body.view()));
  frame.u64(body.size());
  frame.bytes(body.view());
  return frame.take();
}

Manifest read_manifest_bytes(std::span<const std::byte> data) {
  util::ByteReader r(data);
  if (r.u32() != kManifestMagic) throw util::FormatError("manifest: bad magic");
  if (r.u16() != kManifestVersion) throw util::FormatError("manifest: unsupported version");
  // Reserved, always written 0: the CRC covers only the body, so a flipped
  // header bit must not pass unseen.
  if (r.u16() != 0) throw util::FormatError("manifest: non-zero reserved field");
  const std::uint32_t crc = r.u32();
  const std::uint64_t body_size = r.u64();
  const std::span<const std::byte> body = r.bytes(static_cast<std::size_t>(body_size));
  if (!r.at_end()) throw util::FormatError("manifest: trailing bytes");
  if (util::crc32(body) != crc) throw util::FormatError("manifest: CRC mismatch");

  util::ByteReader br(body);
  Manifest m;
  m.generation = br.u64();
  m.next_partition_id = br.u64();
  const std::uint64_t n = br.u64();
  m.partitions.reserve(static_cast<std::size_t>(n));
  for (std::uint64_t i = 0; i < n; ++i) {
    PartitionInfo p;
    p.id = br.u64();
    p.log_count = br.u64();
    p.job_id_min = br.u64();
    p.job_id_max = br.u64();
    p.segment_bytes = br.u64();
    p.segment_crc = br.u32();
    p.data_generation = br.u64();
    p.has_snapshot = br.u8() != 0;
    p.snapshot_generation = br.u64();
    p.snapshot_crc = br.u32();
    p.window_min = br.u64();
    p.window_max = br.u64();
    p.level = br.u32();
    if (p.window_min > p.window_max) {
      throw util::FormatError("manifest: window range inverted");
    }
    m.partitions.push_back(p);
  }
  if (!br.at_end()) throw util::FormatError("manifest: trailing body bytes");
  return m;
}

std::vector<std::byte> write_index_bytes(std::uint64_t partition_id,
                                         const std::vector<IndexEntry>& entries) {
  util::ByteWriter body;
  body.u64(partition_id);
  body.u64(entries.size());
  for (const IndexEntry& e : entries) {
    body.u64(e.offset);
    body.u64(e.size);
    body.u64(e.job_id);
  }

  util::ByteWriter frame;
  frame.u32(kIndexMagic);
  frame.u16(kIndexVersion);
  frame.u16(0);
  frame.u32(util::crc32(body.view()));
  frame.u64(body.size());
  frame.bytes(body.view());
  return frame.take();
}

std::vector<IndexEntry> read_index_bytes(std::span<const std::byte> data,
                                         std::uint64_t expected_partition_id) {
  util::ByteReader r(data);
  if (r.u32() != kIndexMagic) throw util::FormatError("index: bad magic");
  if (r.u16() != kIndexVersion) throw util::FormatError("index: unsupported version");
  if (r.u16() != 0) throw util::FormatError("index: non-zero reserved field");
  const std::uint32_t crc = r.u32();
  const std::uint64_t body_size = r.u64();
  const std::span<const std::byte> body = r.bytes(static_cast<std::size_t>(body_size));
  if (!r.at_end()) throw util::FormatError("index: trailing bytes");
  if (util::crc32(body) != crc) throw util::FormatError("index: CRC mismatch");

  util::ByteReader br(body);
  if (br.u64() != expected_partition_id) throw util::FormatError("index: partition id mismatch");
  const std::uint64_t n = br.u64();
  std::vector<IndexEntry> entries;
  entries.reserve(static_cast<std::size_t>(n));
  for (std::uint64_t i = 0; i < n; ++i) {
    IndexEntry e;
    e.offset = br.u64();
    e.size = br.u64();
    e.job_id = br.u64();
    entries.push_back(e);
  }
  if (!br.at_end()) throw util::FormatError("index: trailing body bytes");
  return entries;
}

}  // namespace mlio::archive
