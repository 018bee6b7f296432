#include "pipelines/knn_pipeline.h"

#include "common/math_util.h"
#include "gpukernels/gemm_cublas_model.h"
#include "gpukernels/kernel_eval.h"
#include "gpukernels/norms.h"

namespace ksum::pipelines {

std::string to_string(KnnSolution solution) {
  return solution == KnnSolution::kFused ? "Fused-kNN" : "Unfused-kNN";
}

// Inputs + norms + outputs + staging, with headroom.
std::size_t knn_device_bytes(std::size_t m, std::size_t n, std::size_t k,
                             std::size_t k_nn, bool unfused) {
  std::size_t words = checked_add(checked_mul(m, k), checked_mul(k, n));
  words = checked_add(words, checked_mul(2, checked_add(m, n)));
  if (unfused) words = checked_add(words, checked_mul(m, n));
  const std::size_t staging = checked_mul(
      checked_mul(m, n / 128 + 2), checked_mul(2, k_nn));
  words = checked_add(words, staging);
  return checked_add(checked_mul(words, 4), std::size_t{1} << 20);
}

KnnReport run_knn_pipeline(KnnSolution solution,
                           const workload::Instance& instance,
                           std::size_t k_nn, const RunOptions& options) {
  const std::size_t m = instance.spec.m;
  const std::size_t n = instance.spec.n;
  const std::size_t k = instance.spec.k;
  const bool unfused = solution == KnnSolution::kUnfused;

  gpusim::Device device(options.device,
                        knn_device_bytes(m, n, k, k_nn, unfused));
  gpukernels::Workspace ws =
      gpukernels::allocate_workspace(device, m, n, k, unfused);
  gpukernels::upload_instance(device, ws, instance);

  KnnReport report;
  report.solution = solution;
  report.m = m;
  report.n = n;
  report.k = k;
  report.k_nn = k_nn;

  const auto cuda_grade = options.cuda_kernel_grade;
  const double iters = gpusim::mainloop_iters_for_k(k);

  report.kernels.push_back(make_report(
      options, gpukernels::run_norms_a(device, ws), 0, cuda_grade, 0.0));
  report.kernels.push_back(make_report(
      options, gpukernels::run_norms_b(device, ws), 0, cuda_grade, 0.0));

  if (solution == KnnSolution::kFused) {
    gpukernels::MainloopConfig mainloop = options.mainloop;
    const auto launches = gpukernels::run_fused_knn(device, ws, k_nn,
                                                    report.result, mainloop);
    report.kernels.push_back(
        make_report(options, launches.main, iters, cuda_grade, 0.0));
    for (const auto& extra : launches.extra) {
      report.kernels.push_back(
          make_report(options, extra, 0, cuda_grade, 0.0));
    }
  } else {
    report.kernels.push_back(make_report(
        options,
        gpukernels::run_gemm_cublas_model(device, ws.a, ws.b, ws.c, m, n, k),
        iters, config::KernelGrade::assembly(), 0.0));
    report.kernels.push_back(make_report(
        options, gpukernels::run_distance_eval(device, ws), 0, cuda_grade,
        0.0));
    report.kernels.push_back(make_report(
        options, gpukernels::run_knn_select(device, ws, k_nn, report.result),
        0, cuda_grade, 0.0));
  }

  total_report(device, options, report.kernels, report.total, report.seconds,
               report.energy);
  return report;
}

}  // namespace ksum::pipelines
