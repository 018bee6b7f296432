// Design-space table behind the paper's §III-A tile-size discussion — now
// measured, not hand-modelled: every (submatrixC, microtileC) candidate at
// the paper's 8-deep k-tiles goes through the autotuner's full pass
// (structural rules, named resource budgets, occupancy, bank-conflict lint,
// then the fused pipeline priced at the ablation shape from one CTA
// simulated in that geometry). The paper's choice — 128×128 tiles with 8×8
// microtiles — is the configuration that reaches 2 CTAs/SM while minimising
// input reloads; the rows show its neighbours, including the 4×4-microtile
// variant the paper explicitly rejects ("occupancy is still two thread
// blocks per SM due to the device limit of 2048 threads per SM").
#include "bench_common.h"
#include "common/string_util.h"
#include "tune/tuner.h"

int main() {
  using namespace ksum;

  tune::TuneRequest request;
  request.m = 131072;
  request.n = 1024;
  request.k = 64;
  request.backend = pipelines::Backend::kSimFused;
  tune::TuneOptions options;
  options.threads = 8;
  const auto report = tune::tune(request, options);

  Table t("Design space — submatrixC / microtileC blocking, measured "
          "through the autotuner (K=64, N=1024, M=131072, tileK=8)");
  t.header({"tile", "micro", "threads", "regs/thr", "smem", "CTAs/SM",
            "limiter", "input bytes/flop", "modelled time", "note"});
  const double m = double(request.m), n = double(request.n),
               k = double(request.k);
  for (const auto& meas : report.measurements) {
    const auto& g = meas.verdict.geometry;
    if (g.tile_k != 8) continue;  // §III-A fixes the k-depth at 8
    // A is reloaded N/tile_n times, B M/tile_m times (§III-A's argument
    // for coarse tiles).
    const double input_bytes =
        4.0 * (m * k * (n / g.tile_n) + k * n * (m / g.tile_m));
    const double flops = 2.0 * m * n * k;
    std::string note;
    if (g.is_paper()) {
      note = "the paper's choice";
    } else if (g == report.best) {
      note = "tuner's pick";
    } else if (!meas.verdict.viable) {
      note = meas.verdict.reasons.front();
    }
    t.row({str_format("%dx%d", g.tile_m, g.tile_n),
           str_format("%dx%d", g.micro, g.micro),
           str_format("%d", g.threads()),
           meas.verdict.regs_per_thread > 0
               ? str_format("%d", meas.verdict.regs_per_thread)
               : "-",
           meas.verdict.smem_bytes > 0
               ? str_format("%uKB", meas.verdict.smem_bytes / 1024)
               : "-",
           meas.verdict.blocks_per_sm > 0
               ? str_format("%d", meas.verdict.blocks_per_sm)
               : "-",
           meas.verdict.limiter.empty() ? "-" : meas.verdict.limiter,
           str_format("%.3f", input_bytes / flops),
           meas.executed ? str_format("%.3f ms", meas.scaled_seconds * 1e3)
                         : "-",
           note});
  }
  bench::emit(t, "ablation_tile_size");
  bench::write_bench_json("ablation_tile_size", {});
  return 0;
}
