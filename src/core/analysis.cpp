#include "core/analysis.hpp"

#include <bit>
#include <string_view>
#include <vector>

#include "util/byte_io.hpp"
#include "util/thread_pool.hpp"

namespace mlio::core {

namespace {

/// FNV-1a accumulator used by Analysis::fingerprint.
struct Digest {
  std::uint64_t h = 0xcbf29ce484222325ull;

  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 0x100000001b3ull;
    }
  }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  void sum(const util::ExactSum& v) {
    u64(v.low());
    u64(v.high());
  }
  void str(std::string_view s) {
    u64(s.size());
    for (const char c : s) u64(static_cast<std::uint8_t>(c));
  }
  void histogram(const util::Histogram& hist) {
    u64(hist.total());
    for (std::size_t i = 0; i < hist.size(); ++i) u64(hist.count(i));
  }
};

}  // namespace

void Analysis::accumulate(const darshan::JobRecord& job, const std::vector<FileSummary>& files) {
  summary_.add_log(job, files);
  layers_.add_log(job, files);
  interfaces_.add_log(job, files);
  const std::uint64_t log_key = observation_log_key(job);
  for (const FileSummary& f : files) {
    access_.add(job, f);
    performance_.add(f, log_key);
  }
}

void Analysis::add(const darshan::LogData& log) {
  const std::vector<FileSummary> files = summarize_log(log, &unattributed_);
  accumulate(log.job, files);
}

void Analysis::add(const darshan::LogBody& body, AnalyzeScratch& scratch) {
  accumulate(body.job, summarize_log(body, scratch.summarize, &unattributed_));
}

void Analysis::add(const darshan::LogData& log, AnalyzeScratch& scratch) {
  accumulate(log.job, summarize_log(log, scratch.summarize, &unattributed_));
}

void Analysis::order_samples() { performance_.order_samples(); }

std::uint64_t Analysis::fingerprint() const {
  Digest d;

  d.u64(summary_.logs());
  d.u64(summary_.jobs());
  d.u64(summary_.files());
  d.sum(summary_.node_seconds());
  d.u64(summary_.min_logs_per_job());
  d.u64(summary_.max_logs_per_job());
  d.u64(unattributed_);

  for (std::size_t li = 0; li < kLayerCount; ++li) {
    const auto layer = static_cast<Layer>(li);

    const auto& a = access_.layer(layer);
    d.u64(a.files);
    d.u64(a.read_files);
    d.u64(a.write_files);
    d.sum(a.bytes_read);
    d.sum(a.bytes_written);
    d.u64(a.huge_read_files);
    d.u64(a.huge_write_files);
    d.histogram(a.read_transfer);
    d.histogram(a.write_transfer);
    d.histogram(a.read_requests);
    d.histogram(a.write_requests);
    d.histogram(a.read_requests_large);
    d.histogram(a.write_requests_large);

    const auto& lc = layers_.classes(layer);
    d.u64(lc.read_only);
    d.u64(lc.read_write);
    d.u64(lc.write_only);

    const auto& ic = interfaces_.counts(layer);
    d.u64(ic.posix);
    d.u64(ic.mpiio);
    d.u64(ic.stdio);
    const auto& sc = interfaces_.stdio_classes(layer);
    d.u64(sc.read_only);
    d.u64(sc.read_write);
    d.u64(sc.write_only);
    for (std::size_t iface = 0; iface < 3; ++iface) {
      d.histogram(interfaces_.transfer(layer, iface, /*read=*/true));
      d.histogram(interfaces_.transfer(layer, iface, /*read=*/false));
    }

    for (std::size_t iface = 0; iface < 2; ++iface) {
      for (std::size_t bin = 0; bin < Performance::bins().size(); ++bin) {
        for (const bool read : {true, false}) {
          const util::FiveNumber fn = performance_.cell(layer, iface, bin, read);
          d.u64(fn.count);
          d.f64(fn.min);
          d.f64(fn.q1);
          d.f64(fn.median);
          d.f64(fn.q3);
          d.f64(fn.max);
        }
      }
    }
  }

  const auto ex = layers_.job_exclusivity();
  d.u64(ex.pfs_only);
  d.u64(ex.insys_only);
  d.u64(ex.both);
  d.u64(layers_.insys_jobs());
  for (const auto& [name, usage] : layers_.domains()) {
    d.str(name);
    d.sum(usage.insys_bytes_read);
    d.sum(usage.insys_bytes_written);
    d.u64(usage.insys_logs);
  }

  d.u64(interfaces_.stdio_jobs());
  d.u64(interfaces_.stdio_jobs_with_domain());
  for (const auto& [name, usage] : interfaces_.stdio_domains()) {
    d.str(name);
    d.sum(usage.bytes_read);
    d.sum(usage.bytes_written);
  }
  for (const auto& [ext, n] : interfaces_.stdio_extensions()) {
    d.str(ext);
    d.u64(n);
  }

  d.u64(performance_.observations());
  return d.h;
}

double Analysis::total_bytes() const {
  double bytes = 0;
  for (std::size_t li = 0; li < kLayerCount; ++li) {
    const auto& a = access_.layer(static_cast<Layer>(li));
    bytes += a.bytes_read + a.bytes_written;
  }
  return bytes;
}

void Analysis::save(util::ByteWriter& w) const {
  summary_.save(w);
  access_.save(w);
  layers_.save(w);
  interfaces_.save(w);
  performance_.save(w);
  w.u64(unattributed_);
}

std::uint64_t Analysis::serialized_size() const {
  return summary_.serialized_size() + access_.serialized_size() + layers_.serialized_size() +
         interfaces_.serialized_size() + performance_.serialized_size() + 8;
}

void Analysis::load(util::ByteReader& r) {
  summary_.load(r);
  access_.load(r);
  layers_.load(r);
  interfaces_.load(r);
  performance_.load(r);
  unattributed_ = r.u64();
}

void Analysis::merge(const Analysis& other) {
  summary_.merge(other.summary_);
  access_.merge(other.access_);
  layers_.merge(other.layers_);
  interfaces_.merge(other.interfaces_);
  performance_.merge(other.performance_);
  unattributed_ += other.unattributed_;
}

Analysis Analysis::merge_ordered(std::span<const Analysis* const> shards,
                                 util::ThreadPool* pool) {
  if (pool == nullptr || shards.size() < 2) {
    Analysis out;
    for (const Analysis* s : shards) out.merge(*s);
    return out;
  }

  // Round 0 copies shard pairs into owned slots; later rounds merge slots
  // `stride` apart in place.  Every merge is exact and order-free, so any
  // tree shape gives the serial fold's bits; this one keeps the blocks
  // disjoint so workers never share a slot.
  std::vector<Analysis> slots((shards.size() + 1) / 2);
  pool->parallel_for_dynamic(
      0, slots.size(), 1, [&](std::uint64_t i, std::uint64_t, std::uint64_t, unsigned) {
        slots[i] = *shards[2 * i];
        if (2 * i + 1 < shards.size()) slots[i].merge(*shards[2 * i + 1]);
      });
  for (std::size_t stride = 1; stride < slots.size(); stride *= 2) {
    std::size_t pairs = 0;
    for (std::size_t i = 0; i + stride < slots.size(); i += 2 * stride) pairs += 1;
    pool->parallel_for_dynamic(
        0, pairs, 1, [&](std::uint64_t p, std::uint64_t, std::uint64_t, unsigned) {
          const std::size_t i = 2 * stride * p;
          slots[i].merge(slots[i + stride]);
        });
  }
  return std::move(slots.front());
}

}  // namespace mlio::core
