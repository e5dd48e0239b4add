// Uncompressed Darshan log frames (flag 0), byte for byte as the writer's
// old uncompressed option (`--no-compress`) framed them.  The writer now
// always deflates, but the reader still accepts flag-0 frames so archives
// written that way stay readable; these builders cover that path, and give
// the tamper, fuzz and hand-made-frame tests a body they can edit in the
// clear behind a valid header and CRC.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "darshan/log_format.hpp"
#include "util/byte_io.hpp"

namespace mlio::harness {

/// A log frame around `payload`: magic, version, `flags`, the CRC-32 and
/// size of `body`, then the payload's size and bytes.  With flags 0 the
/// payload is the body itself; with darshan::kFlagCompressed, any zlib
/// stream of it.
inline std::vector<std::byte> log_frame(std::span<const std::byte> body,
                                        std::span<const std::byte> payload,
                                        std::uint16_t flags) {
  util::ByteWriter f;
  f.u32(darshan::kLogMagic);
  f.u16(darshan::kLogVersion);
  f.u16(flags);
  f.u32(util::crc32(body));
  f.u64(body.size());
  f.u64(payload.size());
  f.bytes(payload);
  return f.take();
}

/// Wrap `body` in a valid uncompressed frame (flags 0).
inline std::vector<std::byte> plain_frame(std::span<const std::byte> body) {
  return log_frame(body, body, 0);
}

/// `log` framed uncompressed: the writer's own body, stored as is.
inline std::vector<std::byte> plain_log_frame(const darshan::LogData& log) {
  darshan::LogIoBuffers io;
  (void)darshan::write_log_bytes_into(log, io);
  return plain_frame(io.body.view());
}

/// Re-frame a frame's body uncompressed (the frame is validated first).
inline std::vector<std::byte> plain_reframe(std::span<const std::byte> frame) {
  darshan::LogIoBuffers io;
  return plain_frame(darshan::read_log_frame_body(frame, io));
}

}  // namespace mlio::harness
