#include "pipelines/pipeline.h"

#include "common/error.h"
#include "common/math_util.h"
#include "gpukernels/abft_check.h"
#include "gpukernels/gemm_cublas_model.h"
#include "gpukernels/gemv_summation.h"
#include "gpukernels/kernel_eval.h"
#include "gpukernels/norms.h"
#include "gpukernels/tile_geometry.h"

namespace ksum::pipelines {

using gpukernels::Workspace;

KernelReport make_report(const RunOptions& options,
                         const gpusim::LaunchResult& launch,
                         double mainloop_iters,
                         const config::KernelGrade& grade,
                         double useful_flops, bool overlapped) {
  KernelReport report;
  report.name = launch.kernel_name;
  report.counters = launch.counters;
  report.shape.num_ctas = launch.grid.count();
  report.shape.config = launch.config;
  report.shape.occupancy = launch.occupancy;
  report.shape.mainloop_iters = mainloop_iters;
  report.shape.grade = grade;
  report.shape.overlapped_memory = overlapped;
  report.useful_flops = useful_flops;
  report.timing = gpusim::estimate_kernel_time(
      options.device, options.timing,
      gpusim::CostInputs::from_counters(launch.counters), report.shape);
  return report;
}

void total_report(gpusim::Device& device, const RunOptions& options,
                  const std::vector<KernelReport>& kernels,
                  gpusim::Counters& total, double& seconds,
                  gpusim::EnergyBreakdown& energy) {
  const gpusim::Counters writeback = device.flush_l2();
  for (const auto& kr : kernels) {
    total += kr.counters;
    seconds += kr.timing.seconds(options.device);
  }
  total += writeback;
  seconds += double(writeback.dram_write_transactions) *
             double(options.device.l2_sector_bytes) /
             (options.device.dram_bandwidth_gb_s * 1e9 *
              options.timing.dram_efficiency);
  energy = gpusim::compute_energy(
      options.energy, gpusim::CostInputs::from_counters(total), seconds);
}

std::string to_string(Solution solution) {
  switch (solution) {
    case Solution::kFused:
      return "Fused";
    case Solution::kCudaUnfused:
      return "CUDA-Unfused";
    case Solution::kCublasUnfused:
      return "cuBLAS-Unfused";
  }
  return "unknown";
}

// Memory the pipeline needs on the simulated device, with headroom for the
// non-atomic ablation's staging buffer (one partial-V column per CTA
// column, tile_n wide each): A, B, both norm vectors, W and V, the
// intermediate, the staging buffer and 1 MiB of slack.
std::size_t required_device_bytes(std::size_t m, std::size_t n, std::size_t k,
                                  bool with_intermediate,
                                  std::size_t tile_n) {
  std::size_t words = checked_add(checked_mul(m, k), checked_mul(k, n));
  words = checked_add(words, checked_add(checked_mul(3, m), checked_mul(2, n)));
  if (with_intermediate) words = checked_add(words, checked_mul(m, n));
  words = checked_add(words, checked_add(checked_mul(m, n / tile_n), m));
  return checked_add(checked_mul(words, 4), std::size_t{1} << 20);
}

double pipeline_useful_flops(std::size_t m, std::size_t n, std::size_t k) {
  const double mn = double(m) * double(n);
  // 2MNK for the GEMM, 6 flops per element for the distance assembly and
  // kernel evaluation, 2 per element for the weighted summation, plus the
  // squared norms (2 flops per coordinate).
  return 2.0 * mn * double(k) + 8.0 * mn +
         2.0 * (double(m) + double(n)) * double(k);
}

PipelineReport run_pipeline(Solution solution,
                            const workload::Instance& instance,
                            const core::KernelParams& params,
                            const RunOptions& options) {
  const std::size_t m = instance.spec.m;
  const std::size_t n = instance.spec.n;
  const std::size_t k = instance.spec.k;
  KSUM_REQUIRE(m > 0 && n > 0 && k > 0,
               "problem dimensions must be nonzero");
  core::validate(params);
  const bool unfused = solution != Solution::kFused;
  const gpukernels::TileGeometry& geometry = options.mainloop.geometry;
  // The fused kernel emits one checksum cell per CTA row (tile_m rows);
  // the unfused pipelines' GEMV keeps its own 128-row CTAs.
  const std::size_t checksum_block_rows =
      solution == Solution::kFused
          ? static_cast<std::size_t>(geometry.tile_m)
          : 128;

  // Cooperative checkpoint polled between kernel launches: an expired
  // deadline or explicit cancel aborts here — before the next launch, and
  // in particular before the result download below, so a cancelled request
  // never writes output.
  const auto checkpoint = [&options] {
    if (options.cancel != nullptr) options.cancel->check();
  };
  checkpoint();

  // Run on the caller's warm device when it is big enough (reset() makes
  // the run bit-identical to a fresh construction); otherwise build a
  // per-run device as always.
  const std::size_t arena_bytes = required_device_bytes(
      m, n, k, unfused, static_cast<std::size_t>(geometry.tile_n));
  std::optional<gpusim::Device> fresh_device;
  gpusim::Device* device_ptr = options.warm_device;
  if (device_ptr != nullptr &&
      device_ptr->memory().capacity() >= arena_bytes) {
    device_ptr->reset();
  } else {
    device_ptr = &fresh_device.emplace(options.device, arena_bytes);
  }
  gpusim::Device& device = *device_ptr;
  device.set_fault_injector(options.fault_injector);
  // A warm device outlives this call but the injector does not — detach on
  // every exit path (including Cancelled) so no dangling pointer survives.
  struct InjectorGuard {
    gpusim::Device& device;
    bool warm;
    ~InjectorGuard() {
      if (warm) device.set_fault_injector(nullptr);
    }
  } injector_guard{device, !fresh_device.has_value()};
  Workspace ws = gpukernels::allocate_workspace(device, m, n, k, unfused,
                                                options.checks.enabled,
                                                checksum_block_rows);
  gpukernels::upload_instance(device, ws, instance);

  gpukernels::ChecksumSink vsink;
  if (options.checks.enabled) {
    vsink.enabled = true;
    vsink.buffer = ws.vsum_check;
    vsink.blocks = m / checksum_block_rows;
  }

  PipelineReport report;
  report.solution = solution;
  report.m = m;
  report.n = n;
  report.k = k;

  const auto cuda_grade = options.cuda_kernel_grade;
  const auto asm_grade = config::KernelGrade::assembly();
  const double mn = double(m) * double(n);

  // Norm precomputation — skipped entirely when the fused kernel computes
  // the norms on the fly.
  const bool fused_norms =
      solution == Solution::kFused && options.fuse_norms;
  if (!fused_norms) {
    report.kernels.push_back(
        make_report(options, gpukernels::run_norms_a(device, ws), 0,
                    cuda_grade, 2.0 * double(m) * double(k)));
    report.kernels.push_back(
        make_report(options, gpukernels::run_norms_b(device, ws), 0,
                    cuda_grade, 2.0 * double(n) * double(k)));
  }

  checkpoint();
  if (solution == Solution::kFused) {
    gpukernels::FusedOptions fopts;
    fopts.mainloop = options.mainloop;
    fopts.atomic_reduction = options.atomic_reduction;
    fopts.fuse_norms = options.fuse_norms;
    fopts.checksum = vsink;
    const auto fused = gpukernels::run_fused_ksum(device, ws, params, fopts);
    report.kernels.push_back(make_report(
        options, fused.main, gpusim::mainloop_iters_for_k(k), cuda_grade,
        2.0 * mn * double(k) + 8.0 * mn, options.mainloop.double_buffer));
    for (const auto& extra : fused.extra) {
      report.kernels.push_back(
          make_report(options, extra, 0, cuda_grade, 0.0));
    }
    if (options.capture_staged_partials != nullptr && fused.staged.valid()) {
      // Shard-merge capture: export the per-column-CTA partial V values so
      // the host can replay the partial-reduce fold across shards.
      shard::StagedPartials& sink = *options.capture_staged_partials;
      sink.rows = m;
      sink.cols = static_cast<std::size_t>(fused.main.grid.x);
      sink.data.assign(sink.rows * sink.cols, 0.0f);
      device.memory().download(fused.staged, sink.data);
    }
  } else {
    const double gemm_flops = 2.0 * mn * double(k);
    if (solution == Solution::kCudaUnfused) {
      gpukernels::GemmOptions gopts;
      gopts.mainloop = options.mainloop;
      report.kernels.push_back(make_report(
          options,
          gpukernels::run_gemm_cudac(device, ws.a, ws.b, ws.c, m, n, k,
                                     gopts),
          gpusim::mainloop_iters_for_k(k), cuda_grade, gemm_flops,
          options.mainloop.double_buffer));
    } else {
      report.kernels.push_back(make_report(
          options,
          gpukernels::run_gemm_cublas_model(device, ws.a, ws.b, ws.c, m, n,
                                            k),
          gpusim::mainloop_iters_for_k(k), asm_grade, gemm_flops));
    }
    if (options.checks.enabled && options.checks.gemm_colsum) {
      // Audit C = AᵀB while it still exists — the eval pass below
      // overwrites it in place. Zero useful FLOPs: the pass is pure
      // checking overhead and the reports show it as such.
      report.kernels.push_back(
          make_report(options, gpukernels::run_abft_colsum(device, ws), 0,
                      cuda_grade, 0.0));
    }
    checkpoint();
    report.kernels.push_back(
        make_report(options, gpukernels::run_kernel_eval(device, ws, params),
                    0, cuda_grade, 6.0 * mn));
    checkpoint();
    report.kernels.push_back(
        make_report(options,
                    gpukernels::run_gemv_summation(device, ws, vsink), 0,
                    cuda_grade, 2.0 * mn));
  }

  // Last checkpoint before any result leaves the device.
  checkpoint();

  // Final writeback of dirty intermediates / results.
  total_report(device, options, report.kernels, report.total, report.seconds,
               report.energy);
  report.useful_flops = pipeline_useful_flops(m, n, k);
  report.flop_efficiency = gpusim::flop_efficiency(
      options.device, report.useful_flops, report.seconds);
  report.result = gpukernels::download_result(device, ws);

  if (options.checks.enabled) {
    std::vector<float> block_checksums(2 * (m / checksum_block_rows));
    device.memory().download(ws.vsum_check, block_checksums);
    std::vector<float> colsums;
    if (ws.colsum_check.valid() && options.checks.gemm_colsum) {
      colsums.resize(2 * n);
      device.memory().download(ws.colsum_check, colsums);
    }
    report.robustness = robust::evaluate_checks(
        options.checks, instance, params, report.result.span(),
        block_checksums, colsums, checksum_block_rows);
  }
  return report;
}

}  // namespace ksum::pipelines
