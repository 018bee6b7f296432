// Autotuner record for the paper's operating shapes: for each
// (M=N, K) point the tuner enumerates the tile-geometry grid, prunes it
// against the GTX 970's resource budgets, and prices every survivor at the
// real shape from one calibrated CTA on the simulated device. The table
// compares the winner's modelled time against the paper's fixed
// 128×128/8×8 geometry — at K=8 the tuner reproduces the paper's choice;
// at K=250 it finds the deeper 16-element k-tiles that amortise the loop
// overhead the simulator actually counts. KSUM_BENCH_FAST trims the sweep
// to M=N=4096.
#include <cstdlib>

#include "bench_common.h"
#include "common/string_util.h"
#include "tune/tuner.h"

int main() {
  using namespace ksum;

  const bool fast = std::getenv("KSUM_BENCH_FAST") != nullptr;
  std::vector<std::size_t> sizes = {4096};
  if (!fast) {
    sizes.push_back(8192);
    sizes.push_back(16384);
  }

  Table t("Tile-geometry autotuning — paper shapes, fused pipeline");
  t.header({"shape", "best", "modelled time", "paper geometry",
            "speedup vs paper"});
  tune::TuneOptions options;
  options.threads = 8;
  for (const std::size_t size : sizes) {
    for (const std::size_t k : {std::size_t{8}, std::size_t{250}}) {
      tune::TuneRequest request;
      request.m = size;
      request.n = size;
      request.k = k;
      request.backend = pipelines::Backend::kSimFused;
      const auto report = tune::tune(request, options);

      double paper_seconds = 0;
      for (const auto& meas : report.measurements) {
        if (meas.executed && meas.verdict.geometry.is_paper()) {
          paper_seconds = meas.scaled_seconds;
        }
      }
      t.row({str_format("%zux%zu K=%zu", size, size, k),
             report.best.to_string(),
             str_format("%.3f ms", report.best_scaled_seconds * 1e3),
             str_format("%.3f ms", paper_seconds * 1e3),
             str_format("%.3fx", paper_seconds / report.best_scaled_seconds)});
    }
  }
  bench::emit(t, "autotune");
  bench::write_bench_json("autotune", {});
  return 0;
}
