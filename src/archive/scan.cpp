#include "archive/scan.hpp"

#include <algorithm>
#include <string>

#include "util/error.hpp"

namespace mlio::archive {

namespace {

// Pull the leading cache lines of an upcoming buffer while the current one
// is being worked: enough to cover a frame header plus the start of its
// payload, after which the hardware streamer has the pattern.  Small frames
// (metadata-heavy logs) are fetched whole — they are the latency-bound case,
// one dependent miss per frame with almost no compute to hide it.
void prefetch_front(const std::byte* p, std::size_t size) {
  const std::size_t span = std::min<std::size_t>(size, 1024);
  for (std::size_t off = 0; off < span; off += 64) __builtin_prefetch(p + off);
}

}  // namespace

void scan_frames(std::span<const std::byte> segment, std::span<const IndexEntry> entries,
                 std::uint64_t min_offset,
                 const std::function<void(std::span<const std::byte>)>& fn,
                 ScanScratch& scratch, const ScanOptions& opts, const std::string& label) {
  // Subtraction form everywhere: `offset + size` can wrap u64 on hostile
  // input, and a wrapped sum sails under segment.size().
  const auto in_bounds = [&](const IndexEntry& e) {
    return e.offset >= min_offset && e.offset <= segment.size() &&
           e.size <= segment.size() - e.offset;
  };
  const auto prefetch_entry = [&](const IndexEntry& e) {
    if (in_bounds(e)) {
      prefetch_front(segment.data() + e.offset, static_cast<std::size_t>(e.size));
    }
  };

  const unsigned depth = std::max(1u, opts.mlp_depth);
  // A batch never holds more logs than the partition has, so a deep (or
  // garbage) depth costs no more slots than there are entries.
  const std::size_t n = entries.size();
  const std::size_t n_slots = std::min<std::size_t>(depth, n);
  auto& slots = scratch.slots;
  if (slots.size() < n_slots) slots.resize(n_slots);
  for (std::size_t base = 0; base < n; base += depth) {
    const std::size_t m = std::min<std::size_t>(depth, n - base);
    // Stage 1: frame decode (header checks, inflate, body CRC) for the
    // whole batch.  Touching frames two entries ahead before finishing the
    // current one keeps several independent miss chains in flight — one
    // entry of lookahead is not enough when the per-frame work (a CRC over
    // a couple of KB) is shorter than a DRAM round trip.
    constexpr std::size_t kLookahead = 2;
    for (std::size_t i = 0; i < std::min<std::size_t>(kLookahead, m); ++i) {
      prefetch_entry(entries[base + i]);
    }
    for (std::size_t i = 0; i < m; ++i) {
      const IndexEntry& e = entries[base + i];
      if (!in_bounds(e)) {
        throw util::FormatError("index of " + label + ": entry out of segment bounds");
      }
      if (i + kLookahead < m) prefetch_entry(entries[base + i + kLookahead]);
      ScanScratch::Slot& slot = slots[i];
      slot.body = darshan::read_log_frame_body(
          segment.subspan(static_cast<std::size_t>(e.offset), static_cast<std::size_t>(e.size)),
          slot.io);
    }
    // Stage 2: consume in exact ingest order — the determinism contract.
    // The next slot's body was written by stage 1 a while ago and may have
    // cooled; start pulling it back in.
    for (std::size_t i = 0; i < m; ++i) {
      if (i + 1 < m) prefetch_front(slots[i + 1].body.data(), slots[i + 1].body.size());
      fn(slots[i].body);
    }
  }
}

}  // namespace mlio::archive
