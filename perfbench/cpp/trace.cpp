#include "trace.hpp"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

struct Frame {
  const char* name;
  Clock::time_point start;
  std::uint64_t child_ns;
};

struct Event {
  const char* name;
  std::uint64_t start_ns;  ///< since the trace epoch
  std::uint64_t dur_ns;
  int tid;
};

struct ThreadBuf {
  int tid = 0;
  bool driver = false;
  std::vector<Frame> stack;
  std::unordered_map<const char*, SpanTotals> totals;
  std::vector<Event> events;  ///< this thread's share of the kept events
};

struct Registry {
  std::mutex mu;  ///< guards bufs
  std::vector<std::unique_ptr<ThreadBuf>> bufs;
  /// Written only by reset(), which runs while no span is open anywhere.
  Clock::time_point epoch = Clock::now();
  std::atomic<std::size_t> events_kept{0};
};

Registry& registry() {
  static Registry r;
  return r;
}

/// The calling thread's buffer, registered on first use.  Buffers outlive
/// their threads (the registry owns them), so totals of joined workers stay
/// readable.
ThreadBuf& this_thread_buf() {
  thread_local ThreadBuf* buf = nullptr;
  if (buf == nullptr) {
    Registry& r = registry();
    const std::scoped_lock lock(r.mu);
    r.bufs.push_back(std::make_unique<ThreadBuf>());
    buf = r.bufs.back().get();
    buf->tid = static_cast<int>(r.bufs.size());
  }
  return *buf;
}

std::uint64_t ns_between(Clock::time_point a, Clock::time_point b) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
}

}  // namespace

Span::Span(const char* name) {
  this_thread_buf().stack.push_back(Frame{name, Clock::now(), 0});
}

void Span::rename(const char* name) { this_thread_buf().stack.back().name = name; }

Span::~Span() {
  const Clock::time_point end = Clock::now();
  ThreadBuf& buf = this_thread_buf();
  const Frame f = buf.stack.back();
  buf.stack.pop_back();
  const std::uint64_t dur = ns_between(f.start, end);
  SpanTotals& t = buf.totals[f.name];
  t.calls += 1;
  t.total_ns += dur;
  t.self_ns += dur > f.child_ns ? dur - f.child_ns : 0;
  if (!buf.stack.empty()) buf.stack.back().child_ns += dur;
  Registry& r = registry();
  if (r.events_kept.load(std::memory_order_relaxed) < tracer::kMaxEvents &&
      r.events_kept.fetch_add(1, std::memory_order_relaxed) < tracer::kMaxEvents) {
    buf.events.push_back(Event{f.name, ns_between(r.epoch, f.start), dur, buf.tid});
  }
}

namespace tracer {

void mark_driver() { this_thread_buf().driver = true; }

void reset() {
  Registry& r = registry();
  const std::scoped_lock lock(r.mu);
  for (const auto& b : r.bufs) {
    b->totals.clear();
    b->events.clear();
  }
  r.epoch = Clock::now();
  r.events_kept = 0;
}

std::map<std::string, SpanTotals> totals(bool driver_only) {
  std::map<std::string, SpanTotals> out;
  Registry& r = registry();
  const std::scoped_lock lock(r.mu);
  for (const auto& b : r.bufs) {
    if (driver_only && !b->driver) continue;
    for (const auto& [name, t] : b->totals) {
      SpanTotals& o = out[name];
      o.calls += t.calls;
      o.total_ns += t.total_ns;
      o.self_ns += t.self_ns;
    }
  }
  return out;
}

bool write_chrome_json(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  Registry& r = registry();
  const std::scoped_lock lock(r.mu);
  std::fputs("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n", f);
  std::vector<const Event*> events;
  for (const auto& b : r.bufs) {
    for (const Event& e : b->events) events.push_back(&e);
  }
  for (std::size_t i = 0; i < events.size(); ++i) {
    const Event& e = *events[i];
    const std::string name = e.name;
    const std::string layer = name.substr(0, name.find('.'));
    std::fprintf(f,
                 "{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": %d, "
                 "\"ts\": %.3f, \"dur\": %.3f}%s\n",
                 e.name, layer.c_str(), e.tid, static_cast<double>(e.start_ns) * 1e-3,
                 static_cast<double>(e.dur_ns) * 1e-3, i + 1 < events.size() ? "," : "");
  }
  std::fputs("]}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace tracer

}  // namespace perfbench
