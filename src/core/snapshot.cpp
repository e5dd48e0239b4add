#include "core/snapshot.hpp"

#include "util/byte_io.hpp"
#include "util/compress.hpp"
#include "util/error.hpp"

namespace mlio::core {

std::vector<std::byte> write_snapshot_bytes(const Analysis& analysis, std::uint64_t tag) {
  util::ByteWriter body;
  analysis.save(body);

  util::ByteWriter frame;
  frame.u32(kSnapshotMagic);
  frame.u16(kSnapshotVersion);
  frame.u16(kSnapshotFlagCompressed);
  frame.u64(tag);
  frame.u32(util::crc32(body.view()));
  frame.u64(body.size());
  const std::vector<std::byte> packed = util::zlib_compress(body.view());
  frame.u64(packed.size());
  frame.bytes(packed);
  return frame.take();
}

std::uint64_t serialized_analysis_bytes(const Analysis& analysis) {
  return analysis.serialized_size();
}

Analysis read_snapshot_bytes(std::span<const std::byte> data, std::uint64_t* tag) {
  util::ByteReader r(data);
  if (r.u32() != kSnapshotMagic) throw util::FormatError("snapshot: bad magic");
  if (r.u16() != kSnapshotVersion) throw util::FormatError("snapshot: unsupported version");
  const std::uint16_t flags = r.u16();
  const std::uint64_t stored_tag = r.u64();
  const std::uint32_t crc = r.u32();
  const std::uint64_t body_size = r.u64();
  const std::uint64_t stored_size = r.u64();
  const std::span<const std::byte> stored = r.bytes(static_cast<std::size_t>(stored_size));
  if (!r.at_end()) throw util::FormatError("snapshot: trailing bytes");

  if ((flags & kSnapshotFlagCompressed) == 0) {
    throw util::FormatError("snapshot: uncompressed body");
  }
  // Bound the pre-allocation before trusting body_size: zlib cannot expand
  // beyond ~1032x, so anything larger is a corrupted header, not data.
  if (body_size > stored_size * 1040 + 4096) {
    throw util::FormatError("snapshot: implausible uncompressed size");
  }
  // Fast whole-buffer inflate; the frame CRC below covers the body, so the
  // Adler-32 trailer pass is redundant.  The engine keeps its window state
  // per thread, so warm queries loading many snapshots allocate nothing.
  std::vector<std::byte> body;
  thread_local util::Inflater inflater;
  inflater.decompress(stored, static_cast<std::size_t>(body_size), body,
                      /*verify_checksum=*/false);
  if (util::crc32(body) != crc) throw util::FormatError("snapshot: CRC mismatch");

  Analysis analysis;
  util::ByteReader br(body);
  analysis.load(br);
  if (!br.at_end()) throw util::FormatError("snapshot: trailing body bytes");
  if (tag != nullptr) *tag = stored_tag;
  return analysis;
}

}  // namespace mlio::core
