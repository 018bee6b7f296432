#include "tune/tuner.h"

#include <numeric>

#include "blas/vector_ops.h"
#include "common/error.h"
#include "exec/thread_pool.h"
#include "workload/padding.h"

namespace ksum::tune {

using gpukernels::TileGeometry;

TuneOptions options_for(const pipelines::RunOptions& options,
                        const std::string& profile) {
  TuneOptions tune_options;
  tune_options.device = options.device;
  tune_options.timing = options.timing;
  tune_options.energy = options.energy;
  tune_options.layout = options.mainloop.layout;
  tune_options.profile = profile;
  return tune_options;
}

namespace {

workload::ProblemSpec proxy_spec() {
  workload::ProblemSpec spec;
  spec.m = kProxyM;
  spec.n = kProxyN;
  spec.k = kProxyK;
  spec.seed = 42;
  spec.bandwidth = 1.0f;
  return spec;
}

std::size_t round_up(std::size_t value, std::size_t align) {
  return ((value + align - 1) / align) * align;
}

gpusim::CostInputs scale_inputs(const gpusim::CostInputs& in, double s) {
  gpusim::CostInputs out;
  out.fma_lane_ops = in.fma_lane_ops * s;
  out.alu_lane_ops = in.alu_lane_ops * s;
  out.sfu_lane_ops = in.sfu_lane_ops * s;
  out.warp_instructions = in.warp_instructions * s;
  out.smem_transactions = in.smem_transactions * s;
  out.l1_transactions = in.l1_transactions * s;
  out.l2_transactions = in.l2_transactions * s;
  out.dram_transactions = in.dram_transactions * s;
  return out;
}

/// Re-runs the timing model at the requested shape: tile-structured kernels
/// (mainloop_iters > 0) get their counters rescaled by the CTA×iteration
/// ratio and estimate_kernel_time re-evaluated with the real grid, so
/// tail-wave fill, dispatch waves and prologue amortisation reflect the
/// request rather than the tiny proxy. Non-tile kernels scale by the M·N
/// ratio — geometry-independent, so a common term across candidates.
double remodel_seconds(const TuneRequest& request, const TuneOptions& options,
                       const TileGeometry& geometry,
                       const pipelines::PipelineReport& proxy) {
  // The cuBLAS GEMM model ignores the candidate geometry; re-model it with
  // the paper tiling it actually uses so every candidate scores alike there.
  const TileGeometry tile_geometry =
      request.backend == pipelines::Backend::kSimCublasUnfused
          ? TileGeometry{}
          : geometry;
  const auto tm = static_cast<std::size_t>(tile_geometry.tile_m);
  const auto tn = static_cast<std::size_t>(tile_geometry.tile_n);
  const auto tk = static_cast<std::size_t>(tile_geometry.tile_k);
  const std::size_t m_pad = round_up(request.m, std::lcm(tm, std::size_t{128}));
  const std::size_t n_pad = round_up(request.n, std::lcm(tn, std::size_t{128}));
  const std::size_t k_pad = round_up(request.k, std::lcm(tk, std::size_t{8}));
  const std::size_t k_pad_proxy = round_up(kProxyK, std::lcm(tk, std::size_t{8}));
  const double ctas_real =
      static_cast<double>((m_pad / tm) * (n_pad / tn));
  const double mn_ratio =
      (static_cast<double>(m_pad) * static_cast<double>(n_pad)) /
      (static_cast<double>(kProxyM) * static_cast<double>(kProxyN));

  double seconds = 0;
  for (const auto& kernel : proxy.kernels) {
    if (kernel.shape.mainloop_iters > 0.0) {
      const double ctas_proxy = static_cast<double>(kernel.shape.num_ctas);
      // Counters scale with CTAs × K-elements; the amortisation depth is
      // expressed in paper-equivalent (8-deep) iterations so the absolute
      // prologue cost is the same for every tileK — measuring it in a
      // candidate's own (shallower or deeper) iterations would make small
      // tileK look better for free.
      const double s = (ctas_real * static_cast<double>(k_pad)) /
                       (ctas_proxy * static_cast<double>(k_pad_proxy));
      gpusim::LaunchShape shape = kernel.shape;
      shape.num_ctas = static_cast<std::size_t>(ctas_real);
      shape.mainloop_iters = static_cast<double>(k_pad) / 8.0;
      const auto inputs = scale_inputs(
          gpusim::CostInputs::from_counters(kernel.counters), s);
      seconds += gpusim::estimate_kernel_time(options.device, options.timing,
                                              inputs, shape)
                     .seconds(options.device);
    } else {
      seconds += kernel.timing.seconds(options.device) * mn_ratio;
    }
  }
  return seconds;
}

}  // namespace

TuneReport tune(const TuneRequest& request, const TuneOptions& options) {
  KSUM_REQUIRE(request.m > 0 && request.n > 0 && request.k > 0,
               "tune needs nonzero problem dimensions");
  KSUM_REQUIRE(pipelines::is_simulated(request.backend),
               "tune needs a simulated backend; " +
                   pipelines::to_string(request.backend) +
                   " runs on the host and has no tile geometry");

  TuneReport report;
  report.request = request;
  for (const auto& verdict :
       evaluate_candidates(options.device, options.layout)) {
    TuneMeasurement m;
    m.verdict = verdict;
    report.measurements.push_back(std::move(m));
  }

  std::vector<std::size_t> survivors;
  for (std::size_t i = 0; i < report.measurements.size(); ++i) {
    if (report.measurements[i].verdict.viable) survivors.push_back(i);
  }
  KSUM_CHECK_MSG(!survivors.empty(),
             "no tile-geometry candidate survived pruning");

  // One shared proxy workload and its oracle; every candidate tile divides
  // the proxy edges, so no candidate pays a padding penalty.
  const auto spec = proxy_spec();
  const auto instance = workload::make_instance(spec);
  const auto params = core::params_from_spec(spec);
  const auto oracle =
      pipelines::solve(instance, params, pipelines::Backend::kCpuDirect);

  exec::ThreadPool pool(options.threads);
  pool.parallel_for(survivors.size(), [&](std::size_t idx) {
    TuneMeasurement& m = report.measurements[survivors[idx]];
    pipelines::RunOptions run_options;
    run_options.device = options.device;
    run_options.timing = options.timing;
    run_options.energy = options.energy;
    run_options.mainloop.layout = options.layout;
    run_options.mainloop.geometry = m.verdict.geometry;
    const auto result =
        pipelines::solve(instance, params, request.backend, run_options);
    KSUM_CHECK_MSG(result.report.has_value(),
               "simulated solve returned no report");
    m.executed = true;
    m.proxy_seconds = result.report->seconds;
    m.proxy_energy_j = result.report->energy.total();
    m.scaled_seconds =
        remodel_seconds(request, options, m.verdict.geometry, *result.report);
    m.oracle_rel_error =
        blas::max_rel_diff(result.v.span(), oracle.v.span(), 1e-2);
  });

  // Deterministic winner: lowest extrapolated seconds; ties fall to the
  // paper geometry, then to to_string order.
  const TuneMeasurement* best = nullptr;
  for (const auto& m : report.measurements) {
    if (!m.executed) continue;
    if (best == nullptr || m.scaled_seconds < best->scaled_seconds) {
      best = &m;
      continue;
    }
    if (m.scaled_seconds == best->scaled_seconds) {
      const TileGeometry& g = m.verdict.geometry;
      const TileGeometry& bg = best->verdict.geometry;
      if (!bg.is_paper() &&
          (g.is_paper() || g.to_string() < bg.to_string())) {
        best = &m;
      }
    }
  }
  KSUM_CHECK_MSG(best != nullptr, "no candidate executed");
  report.best = best->verdict.geometry;
  report.best_scaled_seconds = best->scaled_seconds;
  report.best_proxy_seconds = best->proxy_seconds;
  return report;
}

}  // namespace ksum::tune
