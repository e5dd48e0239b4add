// Fast whole-buffer zlib-stream (RFC 1950/1951) encoder; the write-side
// mirror of util/inflate_fast.hpp.
//
// Every Darshan log frame and every snapshot is deflated in one call with
// the whole input in memory, so the encoder needs none of zlib's streaming
// machinery (incremental input, flush modes, a sliding input buffer).  Its
// design follows libdeflate (Eric Biggers):
//
//   * a hash-chain matchfinder over the 32 KiB window — a 3-byte hash head
//     table, a 4-byte hash head table and a `next` chain, holding 16-bit
//     positions relative to a base that slides every 32 KiB;
//   * one greedy parser with libdeflate's level-2 search depth and nice
//     length, the one setting every frame and snapshot is written with;
//   * blocks ended at a size cap or when the sequence store fills, and
//     each emitted as stored, static or dynamic Huffman, whichever costs
//     the fewest bits exactly;
//   * length-limited Huffman codes (15 bits for literal/length and
//     distance, 7 for the code-length code);
//   * a 64-bit bit writer into an output buffer sized up front to
//     deflate_zlib_bound(), so the symbol loop never checks for room.
//
// The stream is a standard zlib stream: zlib's inflate and
// util::inflate_zlib both decode it.  The compressed bytes differ from
// zlib's deflate at level 2; nothing depends on them.
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <vector>

namespace mlio::util {

/// Upper bound on deflate_zlib's output for `n` input bytes: the size of
/// the input sent as stored blocks, plus the 2-byte zlib header and the
/// 4-byte Adler-32 trailer.  Each block is emitted at no more than its
/// stored size, every block but the last spans at least 32 KiB of input,
/// and a stored block carries at most 5 bytes of header per 64 KiB chunk,
/// so n + 5 * (n / 4096 + 1) + 6 always suffices.
std::size_t deflate_zlib_bound(std::size_t n);

/// The encoder's matchfinder, sequence store and Huffman state (about
/// 400 KB), allocated on first use and reused across streams, as
/// InflateScratch is on the read side.  One instance per worker thread.
class DeflateScratch {
 public:
  DeflateScratch();
  ~DeflateScratch();
  DeflateScratch(DeflateScratch&&) noexcept;
  DeflateScratch& operator=(DeflateScratch&&) noexcept;

 private:
  friend void deflate_zlib(std::span<const std::byte>, std::vector<std::byte>&, DeflateScratch&);
  struct State;
  std::unique_ptr<State> state_;
};

/// Compress `input` into `out` (resized to the stream's length; capacity is
/// reused) as one complete zlib stream.  The output is a deterministic
/// function of the input.
void deflate_zlib(std::span<const std::byte> input, std::vector<std::byte>& out,
                  DeflateScratch& scratch);

}  // namespace mlio::util
