#include "darshan/log_format.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <fstream>
#include <string>

#include "darshan/counters.hpp"
#include "util/byte_io.hpp"
#include "util/compress.hpp"
#include "util/error.hpp"

namespace mlio::darshan {

using util::ByteReader;
using util::ByteWriter;
using util::FormatError;

namespace {

// Keeps job.exe's string capacity across logs.  The metadata map still pays
// its node allocations: typically one entry per log.
void read_job_into(ByteReader& r, JobRecord& job) {
  job.job_id = r.u64();
  job.user_id = r.u32();
  job.nprocs = r.u32();
  job.nnodes = r.u32();
  job.start_time = r.i64();
  job.end_time = r.i64();
  job.exe.assign(r.str_view());
  job.metadata.clear();
  const std::uint32_t n = r.u32();
  for (std::uint32_t i = 0; i < n; ++i) {
    std::string k = r.str();
    std::string v = r.str();
    job.metadata.emplace(std::move(k), std::move(v));
  }
}

// A record's bitmap is one u64 (write_record_block's shifts, low_bits,
// RecordView::word), so every module has at most 64 words.
constexpr bool fits_one_bitmap_word(std::size_t n_counters, std::size_t n_fcounters) {
  return n_counters + n_fcounters <= 64;
}
static_assert(kModuleCount == 5, "check the new module's words below");
static_assert(fits_one_bitmap_word(posix::COUNTER_COUNT, posix::FCOUNTER_COUNT));
static_assert(fits_one_bitmap_word(mpiio::COUNTER_COUNT, mpiio::FCOUNTER_COUNT));
static_assert(fits_one_bitmap_word(stdio::COUNTER_COUNT, stdio::FCOUNTER_COUNT));
static_assert(fits_one_bitmap_word(lustre::COUNTER_COUNT, lustre::FCOUNTER_COUNT));
static_assert(fits_one_bitmap_word(ssdext::COUNTER_COUNT, ssdext::FCOUNTER_COUNT));

// Bitmap bytes of a record block holding `n_words` words.
constexpr std::size_t bitmap_bytes(std::size_t n_words) { return (n_words + 7) / 8; }

// The low `n` bits set, for n <= 64.
constexpr std::uint64_t low_bits(std::size_t n) {
  return n >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << n) - 1;
}

// One stored counter: a zigzag LEB128 of at most 10 bytes whose last byte
// is non-zero.  That one test rejects every overlong encoding and a stored
// zero (zigzag(0) is the single byte 0x00), so each counter value has one
// encoding; the 10th byte carries bit 63 alone, so it is 0 or 1.  Most
// counters are one byte, 0x01 to 0x7f, which return before the loop.
inline std::uint64_t read_counter(const std::byte*& p, const std::byte* end) {
  if (p != end) {
    const auto b = std::to_integer<std::uint64_t>(*p);
    if (b - 1 < 0x7f) {
      ++p;
      return static_cast<std::uint64_t>(util::zigzag_decode(b));
    }
  }
  std::uint64_t z = 0;
  for (unsigned shift = 0;; shift += 7) {
    if (p == end) throw FormatError("record counter varint runs past the body end");
    const auto b = std::to_integer<std::uint64_t>(*p++);
    if (shift == 63) {
      if (b >= 0x80) throw FormatError("record counter varint is longer than 10 bytes");
      if (b > 1) throw FormatError("record counter varint overflows 64 bits");
    }
    z |= (b & 0x7f) << shift;
    if (b < 0x80) {
      if (b == 0) {
        throw FormatError(shift == 0 ? "record bitmap marks a zero word"
                                     : "record counter varint is not minimal");
      }
      return static_cast<std::uint64_t>(util::zigzag_decode(z));
    }
  }
}

// A record's rank: a zigzag LEB128 of an int32, so at most 5 bytes, with a
// non-zero last byte unless it is the single byte of rank 0.
inline std::int32_t read_rank(const std::byte*& p, const std::byte* end) {
  std::uint64_t z = 0;
  for (unsigned shift = 0;; shift += 7) {
    if (p == end) throw FormatError("record rank runs past the body end");
    const auto b = std::to_integer<std::uint64_t>(*p++);
    z |= (b & 0x7f) << shift;
    if (b < 0x80) {
      if (b == 0 && shift != 0) throw FormatError("record rank varint is not minimal");
      break;
    }
    if (shift == 28) throw FormatError("record rank is out of int32 range");
  }
  if (z > 0xffffffffu) throw FormatError("record rank is out of int32 range");
  return static_cast<std::int32_t>(util::zigzag_decode(z));
}

// LEB128 of `v` at `p` (ByteWriter::uvarint's bytes); returns the end.
inline std::byte* put_uvarint(std::byte* p, std::uint64_t v) {
  for (; v >= 0x80; v >>= 7) *p++ = static_cast<std::byte>(v | 0x80);
  *p++ = static_cast<std::byte>(v);
  return p;
}

// Materialize a walk into `log`, recycling its vectors.  log.records is
// reused element-wise so each record's counter storage survives across logs,
// and the job and mount table swap with the walk's, so their string
// capacity cycles between the two instead of being reallocated.
void materialize_body(LogBody& walked, LogData& log, LogIoBuffers& io) {
  std::swap(log.job, walked.job);
  std::swap(log.mounts, walked.mounts);

  log.names.clear();
  log.names.reserve(walked.names.size());
  for (const auto& [id, path] : walked.names) log.names.try_emplace(id, path);

  std::size_t used = 0;
  for (const RecordView& view : walked.records) {
    if (used == log.records.size()) {
      if (!io.record_pool.empty()) {
        log.records.push_back(std::move(io.record_pool.back()));
        io.record_pool.pop_back();
      } else {
        log.records.emplace_back();
      }
    }
    FileRecord& rec = log.records[used];
    ++used;
    rec.record_id = view.record_id;
    rec.rank = view.rank;
    rec.module = view.module;
    // Zero-fill the dense blocks, then scatter the stored words.
    const std::size_t nc = view.n_counters;
    rec.counters.assign(nc, 0);
    rec.fcounters.assign(fcounter_count(view.module), 0.0);
    const std::byte* p = view.values;
    for (std::uint64_t m = view.mask; m != 0; m &= m - 1, p += 8) {
      const auto i = static_cast<std::size_t>(std::countr_zero(m));
      const std::uint64_t word = util::load_le<std::uint64_t>(p);
      if (i < nc) {
        rec.counters[i] = static_cast<std::int64_t>(word);
      } else {
        rec.fcounters[i - nc] = std::bit_cast<double>(word);
      }
    }
  }
  while (log.records.size() > used) {
    io.record_pool.push_back(std::move(log.records.back()));
    log.records.pop_back();
  }

  log.dxt.clear();
  log.dxt.reserve(walked.dxt.size());
  for (const DxtView& view : walked.dxt) {
    DxtRecord rec;
    rec.record_id = view.record_id;
    rec.module = view.module;
    rec.events.reserve(view.n_events);
    ByteReader r({view.events, kDxtEventBytes * view.n_events});
    for (std::uint32_t e = 0; e < view.n_events; ++e) {
      DxtEvent ev;
      ev.op = static_cast<DxtOp>(r.u8());
      ev.rank = static_cast<std::int32_t>(r.u32());
      ev.offset = r.u64();
      ev.length = r.u64();
      ev.start = r.f64();
      ev.end = r.f64();
      rec.events.push_back(ev);
    }
    log.dxt.push_back(std::move(rec));
  }
}

}  // namespace

void write_job(ByteWriter& w, const JobRecord& job) {
  w.u64(job.job_id);
  w.u32(job.user_id);
  w.u32(job.nprocs);
  w.u32(job.nnodes);
  w.i64(job.start_time);
  w.i64(job.end_time);
  w.str(job.exe);
  w.u32(static_cast<std::uint32_t>(job.metadata.size()));
  for (const auto& [k, v] : job.metadata) {
    w.str(k);
    w.str(v);
  }
}

void write_mounts(ByteWriter& w, std::span<const MountEntry> mounts) {
  w.u32(static_cast<std::uint32_t>(mounts.size()));
  for (const auto& m : mounts) {
    w.str(m.prefix);
    w.str(m.fs_type);
  }
}

void write_region_header(ByteWriter& w, ModuleId module, std::uint32_t n_records) {
  w.u8(static_cast<std::uint8_t>(module));
  w.u32(static_cast<std::uint32_t>(counter_count(module)));
  w.u32(static_cast<std::uint32_t>(fcounter_count(module)));
  w.u32(n_records);
}

void write_record_block(ByteWriter& w, std::uint64_t record_id, std::int32_t rank,
                        std::span<const std::uint64_t> words, std::size_t n_counters) {
  MLIO_ASSERT(words.size() <= 64);
  // The block is at most the id, a 5-byte rank, an 8-byte bitmap and 64
  // words of at most 10 bytes: written through a pointer into that much
  // room, with no capacity check per byte.
  std::byte* p = w.reserve_tail(8 + 5 + 8 + 64 * 10);
  util::store_le(p, record_id);
  p = put_uvarint(p + 8, util::zigzag_encode(rank));
  // Sparse block: the bitmap of non-zero words (zero by bit pattern, so
  // -0.0 is stored), then those words in order, each counter a zigzag
  // varint and each fcounter its 8-byte bit pattern.
  std::uint64_t mask = 0;
  for (std::size_t i = 0; i < words.size(); ++i) {
    mask |= static_cast<std::uint64_t>(words[i] != 0) << i;
  }
  util::store_le(p, mask);  // the room holds all 8 bytes; the block keeps its bitmap's
  p += bitmap_bytes(words.size());
  for (std::uint64_t m = mask; m != 0; m &= m - 1) {
    const auto i = static_cast<std::size_t>(std::countr_zero(m));
    if (i < n_counters) {
      p = put_uvarint(p, util::zigzag_encode(static_cast<std::int64_t>(words[i])));
    } else {
      util::store_le(p, words[i]);
      p += 8;
    }
  }
  w.commit(p);
}

void write_dxt_region(ByteWriter& w, std::span<const DxtRecord> dxt) {
  w.u32(static_cast<std::uint32_t>(dxt.size()));
  for (const DxtRecord& rec : dxt) {
    w.u64(rec.record_id);
    w.u8(static_cast<std::uint8_t>(rec.module));
    w.u32(static_cast<std::uint32_t>(rec.events.size()));
    for (const DxtEvent& e : rec.events) {
      w.u8(static_cast<std::uint8_t>(e.op));
      w.u32(static_cast<std::uint32_t>(e.rank));
      w.u64(e.offset);
      w.u64(e.length);
      w.f64(e.start);
      w.f64(e.end);
    }
  }
}

void write_log_body(ByteWriter& w, const LogData& log, LogIoBuffers& io) {
  write_job(w, log.job);
  write_mounts(w, log.mounts);
  write_names(w, log.names);

  // Group records by module, preserving relative order within a module, in
  // numeric ModuleId order.
  auto& by_module = io.module_buckets;
  for (auto& bucket : by_module) bucket.clear();
  for (const auto& rec : log.records) {
    by_module[static_cast<std::size_t>(rec.module)].push_back(&rec);
  }

  std::uint32_t n_regions = 0;
  for (const auto& bucket : by_module) {
    if (!bucket.empty()) ++n_regions;
  }
  w.u32(n_regions);
  std::array<std::uint64_t, 64> words;
  for (std::size_t mi = 0; mi < by_module.size(); ++mi) {
    const auto& recs = by_module[mi];
    if (recs.empty()) continue;
    const auto mod = static_cast<ModuleId>(mi);
    const std::size_t nc = counter_count(mod);
    const std::size_t nf = fcounter_count(mod);
    write_region_header(w, mod, static_cast<std::uint32_t>(recs.size()));
    for (const FileRecord* rec : recs) {
      MLIO_ASSERT(rec->counters.size() == nc && rec->fcounters.size() == nf);
      // The record's words as the block encoder takes them: the counters'
      // two's complement, then the fcounters' bit patterns.
      for (std::size_t i = 0; i < nc; ++i) {
        words[i] = static_cast<std::uint64_t>(rec->counters[i]);
      }
      for (std::size_t i = 0; i < nf; ++i) {
        words[nc + i] = std::bit_cast<std::uint64_t>(rec->fcounters[i]);
      }
      write_record_block(w, rec->record_id, rec->rank, {words.data(), nc + nf}, nc);
    }
  }

  // DXT trace region (usually empty: tracing is off by default, as on the
  // study systems).
  write_dxt_region(w, log.dxt);
}

std::span<const std::byte> frame_log_body(LogIoBuffers& io) {
  const auto body_bytes = io.body.view();
  io.frame.clear();
  io.frame.u32(kLogMagic);
  io.frame.u16(kLogVersion);
  io.frame.u16(kFlagCompressed);
  io.frame.u32(util::crc32(body_bytes));
  io.frame.u64(body_bytes.size());
  io.deflater.compress(body_bytes, io.packed);
  io.frame.u64(io.packed.size());
  io.frame.bytes(io.packed);
  return io.frame.view();
}

std::span<const std::byte> write_log_bytes_into(const LogData& log, LogIoBuffers& io) {
  io.body.clear();
  write_log_body(io.body, log, io);
  return frame_log_body(io);
}

std::vector<std::byte> write_log_bytes(const LogData& log) {
  LogIoBuffers io;
  write_log_bytes_into(log, io);
  return io.frame.take();
}

void write_log_file(const LogData& log, const std::filesystem::path& path) {
  const auto bytes = write_log_bytes(log);
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  if (!f) throw util::Error("cannot open for writing: " + path.string());
  f.write(reinterpret_cast<const char*>(bytes.data()),
          static_cast<std::streamsize>(bytes.size()));
  if (!f) throw util::Error("write failed: " + path.string());
}

std::span<const std::byte> read_log_frame_body(std::span<const std::byte> data,
                                               LogIoBuffers& io) {
  ByteReader header(data);
  if (header.u32() != kLogMagic) throw FormatError("bad magic");
  const std::uint16_t version = header.u16();
  if (version != kLogVersion) {
    throw FormatError("unsupported log version " + std::to_string(version));
  }
  const std::uint16_t flags = header.u16();
  const std::uint32_t crc = header.u32();
  const std::uint64_t body_size = header.u64();
  const std::uint64_t stored_size = header.u64();
  if (stored_size > header.remaining()) throw FormatError("truncated log body");
  // Guard against corrupted sizes before allocating: zlib cannot expand
  // beyond ~1032:1, so a body_size wildly larger than the stored payload is
  // corruption, not data (found by the format fuzz tests).
  if (body_size > stored_size * 1100 + 4096) {
    throw FormatError("implausible decompressed size");
  }
  const auto stored = header.bytes(static_cast<std::size_t>(stored_size));

  std::span<const std::byte> body;
  if (flags & kFlagCompressed) {
    // The frame CRC below covers the decompressed body, so the decoder
    // skips its redundant Adler-32 pass.
    io.inflater.decompress(stored, static_cast<std::size_t>(body_size), io.unpacked,
                           /*verify_checksum=*/false);
    body = io.unpacked;
  } else {
    if (body_size != stored_size) throw FormatError("size mismatch in uncompressed log");
    body = stored;  // parse straight from the input frame; no copy needed
  }
  if (util::crc32(body) != crc) throw FormatError("body CRC mismatch");
  return body;
}

void walk_log_body(std::span<const std::byte> body, LogBody& out) {
  ByteReader r(body);
  read_job_into(r, out.job);

  const std::uint32_t n_mounts = r.u32();
  if (n_mounts > r.remaining()) throw FormatError("mount count exceeds body size");
  // Reuse existing entries' string capacity: logs from one system carry the
  // identical mount table, so after the first log this allocates nothing.
  out.mounts.resize(std::min<std::size_t>(n_mounts, out.mounts.size()));
  out.mounts.reserve(n_mounts);
  for (std::uint32_t i = 0; i < n_mounts; ++i) {
    if (i == out.mounts.size()) out.mounts.emplace_back();
    MountEntry& m = out.mounts[i];
    m.prefix.assign(r.str_view());
    m.fs_type.assign(r.str_view());
  }

  const std::uint32_t n_names = r.u32();
  if (n_names > r.remaining()) throw FormatError("name count exceeds body size");
  out.names.clear();
  // An entry is at least an id and a length: a count the bytes cannot hold
  // reserves no more than they could.
  out.names.reserve(std::min<std::size_t>(n_names, r.remaining() / 12));
  for (std::uint32_t i = 0; i < n_names; ++i) {
    const std::uint64_t id = r.u64();
    out.names.try_emplace(id, r.str_view());
  }

  out.records.clear();
  std::size_t n_stored = 0;  // words decoded into out.words so far
  const std::uint32_t n_regions = r.u32();
  if (n_regions > r.remaining()) throw FormatError("region count exceeds body size");
  for (std::uint32_t reg = 0; reg < n_regions; ++reg) {
    const std::uint8_t mod_raw = r.u8();
    if (mod_raw >= kModuleCount) throw FormatError("unknown module id in log");
    const auto mod = static_cast<ModuleId>(mod_raw);
    const std::uint32_t n_counters = r.u32();
    const std::uint32_t n_fcounters = r.u32();
    if (n_counters != counter_count(mod) || n_fcounters != fcounter_count(mod)) {
      throw FormatError("counter layout mismatch for module " + std::string(module_name(mod)));
    }
    const std::uint32_t n_records = r.u32();
    if (n_records > r.remaining()) throw FormatError("record count exceeds body size");
    const std::size_t n_words = std::size_t{n_counters} + n_fcounters;
    const std::size_t n_bitmap = bitmap_bytes(n_words);
    const std::uint64_t word_bits = low_bits(n_words);
    const std::uint64_t counter_bits = low_bits(n_counters);
    // The blocks are read through a cursor over the bytes left; the reader
    // skips what they used.
    const std::span<const std::byte> rest = r.rest();
    const std::byte* p = rest.data();
    const std::byte* const end = p + rest.size();
    for (std::uint32_t i = 0; i < n_records; ++i) {
      // Room for this record's words.  A growth moves the buffer, so the
      // views are pointed into it after the walk.
      if (out.words.size() - n_stored < n_words) {
        out.words.resize(std::max(2 * out.words.size(), n_stored + n_words));
      }
      RecordView& rec = out.records.emplace_back();
      if (end - p < 8) throw FormatError("unexpected end of data");
      rec.record_id = util::load_le<std::uint64_t>(p);
      p += 8;
      rec.rank = read_rank(p, end);
      rec.module = mod;
      rec.n_counters = static_cast<std::uint8_t>(n_counters);
      if (static_cast<std::size_t>(end - p) < n_bitmap) throw FormatError("unexpected end of data");
      std::uint64_t mask = 0;
      for (std::size_t b = 0; b < n_bitmap; ++b) {
        mask |= std::uint64_t{std::to_integer<std::uint8_t>(p[b])} << (8 * b);
      }
      p += n_bitmap;
      if ((mask & ~word_bits) != 0) {
        throw FormatError("record bitmap sets a bit beyond the module's words");
      }
      rec.mask = mask;
      // Decode the set words into out.words: counters (the low bits) first,
      // then the fcounters' bit patterns as stored.  Each counter takes at
      // least a byte, which bounds the words by the bytes left.
      const auto n_c = static_cast<std::size_t>(popcount64(mask & counter_bits));
      const auto n_f = static_cast<std::size_t>(popcount64(mask)) - n_c;
      if (n_c + 8 * n_f > static_cast<std::size_t>(end - p)) {
        throw FormatError("record words exceed body size");
      }
      auto* word = reinterpret_cast<std::byte*>(out.words.data() + n_stored);
      n_stored += n_c + n_f;
      for (std::size_t k = 0; k < n_c; ++k, word += 8) util::store_le(word, read_counter(p, end));
      if (8 * n_f > static_cast<std::size_t>(end - p)) {
        throw FormatError("record words exceed body size");
      }
      // One encoding per record: a set fcounter bit stores a non-zero word.
      // One loop copies and checks (a memcpy call per record cost more).
      bool zero = false;
      for (std::size_t k = 0; k < n_f; ++k, word += 8, p += 8) {
        const auto f = util::load_le<std::uint64_t>(p);
        zero |= f == 0;
        util::store_le(word, f);
      }
      if (zero) throw FormatError("record bitmap marks a zero word");
    }
    r.skip(static_cast<std::size_t>(p - rest.data()));
  }
  // Each record's words follow the previous record's.
  const auto* values = reinterpret_cast<const std::byte*>(out.words.data());
  for (RecordView& rec : out.records) {
    rec.values = values;
    values += 8 * static_cast<std::size_t>(popcount64(rec.mask));
  }

  // DXT trace region (usually empty: tracing is off by default, as on the
  // study systems).
  out.dxt.clear();
  const std::uint32_t n_dxt = r.u32();
  if (n_dxt > r.remaining()) throw FormatError("DXT count exceeds body size");
  for (std::uint32_t i = 0; i < n_dxt; ++i) {
    DxtView& rec = out.dxt.emplace_back();
    rec.record_id = r.u64();
    const std::uint8_t mod_raw = r.u8();
    if (mod_raw >= kModuleCount) throw FormatError("unknown module id in DXT region");
    rec.module = static_cast<ModuleId>(mod_raw);
    rec.n_events = r.u32();
    if (rec.n_events > r.remaining()) throw FormatError("DXT event count exceeds body size");
    rec.events = r.bytes(kDxtEventBytes * rec.n_events).data();
  }
  if (!r.at_end()) throw FormatError("trailing bytes in log body");
}

void read_log_body_into(std::span<const std::byte> body, LogIoBuffers& io, LogData& out) {
  walk_log_body(body, io.walked);
  materialize_body(io.walked, out, io);
}

void read_log_bytes_into(std::span<const std::byte> data, LogIoBuffers& io, LogData& out) {
  read_log_body_into(read_log_frame_body(data, io), io, out);
}

LogData read_log_bytes(std::span<const std::byte> data) {
  LogIoBuffers io;
  LogData log;
  read_log_bytes_into(data, io, log);
  return log;
}

LogData read_log_file(const std::filesystem::path& path) {
  std::ifstream f(path, std::ios::binary | std::ios::ate);
  if (!f) throw util::Error("cannot open for reading: " + path.string());
  const std::streamsize size = f.tellg();
  f.seekg(0);
  std::vector<std::byte> bytes(static_cast<std::size_t>(size));
  f.read(reinterpret_cast<char*>(bytes.data()), size);
  if (!f) throw util::Error("read failed: " + path.string());
  return read_log_bytes(bytes);
}

}  // namespace mlio::darshan
