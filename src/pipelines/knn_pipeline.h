// End-to-end k-nearest-neighbour pipelines on the simulated device — the
// "other algorithms" extension the paper's conclusion points at.
//
//   kFused    — norms + the fused kNN kernel (+ its staged merge pass).
//   kUnfused  — norms + cuBLAS-model GEMM + distance eval + selection scan
//               over the M×N distance matrix in DRAM.
#pragma once

#include <string>

#include "core/knn_exact.h"
#include "gpukernels/knn.h"
#include "pipelines/pipeline.h"

namespace ksum::pipelines {

enum class KnnSolution { kFused, kUnfused };

std::string to_string(KnnSolution solution);

struct KnnReport {
  KnnSolution solution = KnnSolution::kFused;
  std::size_t m = 0, n = 0, k = 0, k_nn = 0;
  std::vector<KernelReport> kernels;
  gpukernels::KnnResult result;
  gpusim::Counters total;
  double seconds = 0;
  gpusim::EnergyBreakdown energy;
};

/// Device-arena bytes run_knn_pipeline allocates for an (m, n, k) search
/// of `k_nn` neighbours. Throws ksum::Error when the size overflows size_t.
std::size_t knn_device_bytes(std::size_t m, std::size_t n, std::size_t k,
                             std::size_t k_nn, bool unfused);

KnnReport run_knn_pipeline(KnnSolution solution,
                           const workload::Instance& instance,
                           std::size_t k_nn, const RunOptions& options = {});

}  // namespace ksum::pipelines
