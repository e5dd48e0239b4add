// Fig. 12 — Cori: read/write bandwidth of single-shared files, POSIX vs
// STDIO, per layer and transfer-size bin (boxplots).
//
// Paper shape anchors: PFS reads — POSIX 6.78x STDIO at 1 GB, 2.9x at 10 GB;
// PFS writes — 3.67x at 100 MB, 2.02x at 1 GB (max 8.47x); CBB writes —
// POSIX gains with larger transfers.
#include "bench_perf_common.hpp"

int main(int argc, char** argv) {
  using namespace mlio;
  const bench::Args args = bench::Args::parse(argc, argv, 2500);
  bench::header("Figure 12",
                "Cori: single-shared-file bandwidth, POSIX vs STDIO (MB/s boxplots)");

  const bench::SystemRun run = bench::run_system(wl::SystemProfile::cori_2019(), args);

  const bench::RatioCheck checks[] = {
      {core::Layer::kPfs, true, 2, "6.78x (1GB)"},
      {core::Layer::kPfs, true, 3, "2.9x (10GB)"},
      {core::Layer::kPfs, false, 1, "3.67x (100MB)"},
      {core::Layer::kPfs, false, 2, "2.02x (1GB)"},
  };
  bench::print_perf_figure(args, run, checks);

  // CBB writes: POSIX bandwidth should grow with the transfer size.
  const core::Analysis all = run.result.combined();
  const core::Performance& perf = all.performance();
  std::printf("CBB POSIX write medians by bin (paper: larger transfers gain): ");
  for (std::size_t b = 0; b < core::Performance::bins().size(); ++b) {
    const auto f = perf.cell(core::Layer::kInSystem, 0, b, false);
    if (f.count > 0) std::printf("%s=%.0f ", core::Performance::bins().label(b).c_str(),
                                 f.median);
  }
  std::printf("MB/s\n");
  return 0;
}
