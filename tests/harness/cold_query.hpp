// A cold query as `mlio_archive query` asks it: a fresh ArchiveService over
// the archive's directory, built from the CLI's service::query_options, and
// one get with the analysis kept.  The tests that check the archive's
// answer (pipeline equality, snapshot reuse, corruption handling, crash
// states) all ask through this one engine.
#pragma once

#include <cstdint>

#include "archive/archive.hpp"
#include "service/service.hpp"

namespace mlio::harness {

/// Answer the last `last_windows` windows of `ar`'s directory (0 = the whole
/// archive) on `threads` merge workers (0 = every core), writing rebuilt
/// shards back when `write_back` is set and the query is whole-archive.
/// The pin is dropped before the service goes, and `ar` reloads its
/// manifest afterwards, so it sees the snapshots a write-back get committed.
inline service::ArchiveService::GetResult cold_get(archive::Archive& ar,
                                                   std::uint64_t last_windows = 0,
                                                   unsigned threads = 0, bool write_back = true) {
  service::ArchiveService svc(ar.dir(), service::query_options(threads, write_back, last_windows),
                              ar.vfs());
  service::ArchiveService::GetResult r = svc.get_window(last_windows, /*keep_analysis=*/true);
  r.pin = {};
  ar.reload();
  return r;
}

}  // namespace mlio::harness
