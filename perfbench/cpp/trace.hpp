// In-memory span tracer for the benchmark's traced run.
//
// A Span wraps one call into a layer ("archive.scan", "core.add", ...; the
// text before the first '.' names the layer).  Spans nest per thread: a
// span's self time is its duration minus the time its child spans on the
// same thread cover.  Work a span fans out to other threads is traced on
// those threads, so per-layer self times are reported two ways:
//
//   * on the driving thread (the one that called mark_driver()), where the
//     self times of all spans plus the harness's own time add up exactly to
//     the wall time of the traced rounds — the closure check;
//   * summed over every thread, which is thread-time (CPU-like) and is what
//     the per-log per-layer metrics divide.
//
// Every span is aggregated; the first kMaxEvents spans are also kept as
// events and written at the end as Chrome trace-event JSON
// (chrome://tracing, Perfetto).  Nothing is written while
// spans are being recorded.
#pragma once

#include <cstdint>
#include <map>
#include <string>

namespace perfbench {

struct SpanTotals {
  std::uint64_t calls = 0;
  std::uint64_t total_ns = 0;
  std::uint64_t self_ns = 0;
};

class Span {
 public:
  /// `name` must be a string literal (it is stored by pointer).
  explicit Span(const char* name);
  ~Span();
  /// Rename the span before it ends, for calls whose kind is known only
  /// once they return (an append that turned out to publish a window).
  void rename(const char* name);
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
};

namespace tracer {

inline constexpr std::size_t kMaxEvents = 50000;

/// Make the calling thread the driving thread.
void mark_driver();
/// Forget every span recorded so far.  No span may be open on any thread.
void reset();
/// Span totals by name: the driving thread's alone, or every thread's.
/// Call only while no traced thread is running.
std::map<std::string, SpanTotals> totals(bool driver_only);
/// Write the kept events as Chrome trace-event JSON; false on I/O failure.
bool write_chrome_json(const std::string& path);

}  // namespace tracer

}  // namespace perfbench
