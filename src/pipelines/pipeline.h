// End-to-end kernel-summation solutions on the simulated device — the three
// implementations the paper compares (§IV):
//
//   kFused          — norms kernels + the fused Algorithm-2 kernel.
//   kCudaUnfused    — norms + our CUDA-C GEMM + eval pass + GEMV.
//   kCublasUnfused  — norms + the cuBLAS GEMM model + eval pass + GEMV.
//
// A run produces the numerical result plus the full per-kernel event /
// timing / energy report the benches consume.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "config/energy_spec.h"
#include "config/timing_spec.h"
#include "core/exact.h"
#include "exec/cancel.h"
#include "gpukernels/fused_ksum.h"
#include "gpukernels/gemm_cudac.h"
#include "gpusim/energy.h"
#include "gpusim/fault_injection.h"
#include "gpusim/timing.h"
#include "robust/abft.h"
#include "robust/recovery.h"
#include "shard/types.h"
#include "tree/types.h"
#include "workload/point_generators.h"

namespace ksum::pipelines {

enum class Solution { kFused, kCudaUnfused, kCublasUnfused };

std::string to_string(Solution solution);

/// Supplies a tile geometry for a (M, N, K, solution) problem. Implemented
/// by the autotuner's TuningCache (src/tune/) — declared here so the solver
/// can consult it without the pipelines depending on the tuner. Returning
/// nullopt keeps the options' (usually the paper's default) geometry.
struct TileGeometryResolver {
  virtual ~TileGeometryResolver() = default;
  virtual std::optional<gpukernels::TileGeometry> resolve(
      std::size_t m, std::size_t n, std::size_t k,
      Solution solution) const = 0;
};

/// One kernel launch inside a pipeline, with its modelled time and the
/// inputs the energy model needs.
struct KernelReport {
  std::string name;
  gpusim::Counters counters;
  gpusim::LaunchShape shape;
  gpusim::TimingBreakdown timing;
  double useful_flops = 0;
};

struct PipelineReport {
  Solution solution = Solution::kFused;
  std::size_t m = 0, n = 0, k = 0;
  std::vector<KernelReport> kernels;
  Vector result;              // V (length M)
  gpusim::Counters total;     // all launches + final writeback
  double seconds = 0;         // modelled wall time (sum of kernel times)
  double useful_flops = 0;    // the paper's profiler-style FLOP count
  gpusim::EnergyBreakdown energy;
  double flop_efficiency = 0;
  /// Outcome of the ABFT checks (checks_enabled=false when they were off).
  robust::RobustnessReport robustness;
};

struct RunOptions {
  config::DeviceSpec device = config::DeviceSpec::gtx970();
  config::TimingSpec timing = config::TimingSpec::gtx970();
  config::EnergySpec energy = config::EnergySpec::gtx970_mcpat();
  gpukernels::MainloopConfig mainloop;        // layout / double buffering
  bool atomic_reduction = true;               // fused inter-CTA reduction
  /// Beyond the paper: compute the squared norms inside the fused kernel
  /// (drops the norms launches and one full DRAM pass over A and B).
  bool fuse_norms = false;
  /// Code grade applied to our CUDA-C kernels by the timing model. The
  /// paper's "projected speedup" (§V-A: 3.7× at K=32) swaps this for the
  /// assembly grade, modelling a fused kernel built on a cuBLAS-quality
  /// GEMM.
  config::KernelGrade cuda_kernel_grade = config::KernelGrade::cuda_c();
  /// ABFT checks (robust/abft.h). When enabled the pipelines allocate the
  /// checksum sinks, fork the second accumulation path inside the kernels,
  /// run the colsum audit kernel on the unfused solutions, and fill
  /// PipelineReport::robustness — all of it costed through the normal
  /// timing/energy models, so the checking overhead is visible.
  robust::CheckConfig checks;
  /// Detect→retry→fallback policy applied by solve() around the simulated
  /// backends (run_pipeline itself executes exactly once). Enabling it
  /// forces `checks.enabled` inside solve().
  robust::RecoveryPolicy recovery;
  /// Optional fault injector attached to the device for the whole run
  /// (robust/fault_plan.h provides the deterministic implementation). Not
  /// owned; must outlive the call. nullptr = fault-free execution.
  gpusim::FaultInjector* fault_injector = nullptr;
  /// Optional per-problem tile-geometry source consulted by solve() before
  /// padding (the tuning cache implements this). Not owned; must outlive
  /// the call. nullptr = use `mainloop.geometry` as-is.
  const TileGeometryResolver* geometry_resolver = nullptr;
  /// Optional cooperative-cancellation token (exec/cancel.h). The pipeline
  /// polls it between kernel launches and before the result writeback;
  /// once it reads cancelled, run_pipeline throws exec::Cancelled without
  /// downloading V — a cancelled request never writes output. Not owned.
  const exec::CancelToken* cancel = nullptr;
  /// Optional pre-constructed device to run on (the serving layer's warm
  /// per-worker Devices). Used when its arena is large enough for the
  /// problem — it is reset() first, so the run is bit-identical to one on a
  /// fresh Device — otherwise a fresh Device is built as usual. The spec
  /// the device was constructed with must equal `device`. Not owned; the
  /// fault injector is detached from it again before run_pipeline returns.
  gpusim::Device* warm_device = nullptr;
  /// Multi-device sharding (src/shard/). `shards.count == 1` (default) runs
  /// unsharded; anything else makes solve() hand the request to the shard
  /// runner, which splits it per docs/SHARDING.md and merges the per-shard
  /// results bit-identically to the single-device run. Sharded runs reject
  /// a plain `fault_injector` — use `shards.injector_factory`.
  shard::ShardSpec shards;
  /// Treecode approximation (src/tree/, docs/TREECODE.md). `tree.eps > 0`
  /// makes solve() route applicable fused-backend requests through the
  /// hierarchical near/far evaluation with an ∞-norm truncation budget of
  /// eps; inapplicable requests (no far pair at this shape, a
  /// TreeMode::kAuto cost-model loss) fall back to the dense path
  /// byte-identically, recorded in SolveResult::tree. Rejected next to
  /// fault injection, non-Gaussian kernels and non-fused backends.
  tree::TreeSpec tree;
  /// When non-null and the fused solution runs with atomic_reduction ==
  /// false, run_pipeline downloads the kernel's staging buffer (one partial
  /// V value per (row, column-CTA)) into this sink after the run. This is
  /// the capture hook the shard merge layer replays the device reduction
  /// from; plain callers leave it null. Not owned.
  shard::StagedPartials* capture_staged_partials = nullptr;
};

/// Runs `solution` on `instance` functionally and returns the full report.
PipelineReport run_pipeline(Solution solution,
                            const workload::Instance& instance,
                            const core::KernelParams& params,
                            const RunOptions& options = {});

/// Prices one launch: its counters through the timing model of `options`.
KernelReport make_report(const RunOptions& options,
                         const gpusim::LaunchResult& launch,
                         double mainloop_iters,
                         const config::KernelGrade& grade,
                         double useful_flops, bool overlapped = true);

/// The epilogue run_pipeline and run_knn_pipeline share: flushes the
/// device's L2, then sums `kernels` and the writeback into `total`, the
/// modelled `seconds` (the writeback drains at DRAM bandwidth) and `energy`.
void total_report(gpusim::Device& device, const RunOptions& options,
                  const std::vector<KernelReport>& kernels,
                  gpusim::Counters& total, double& seconds,
                  gpusim::EnergyBreakdown& energy);

/// FLOP accounting used for Table II (GEMM + eval + GEMV work, the
/// flop_count_sp style of nvprof).
double pipeline_useful_flops(std::size_t m, std::size_t n, std::size_t k);

/// Device-arena bytes run_pipeline allocates for an (m, n, k) problem
/// (`with_intermediate` = unfused pipelines that materialise C). Exposed so
/// admission (admission.h) and the shard planner can size devices before
/// building them. Throws ksum::Error when the size overflows size_t.
std::size_t required_device_bytes(std::size_t m, std::size_t n, std::size_t k,
                                  bool with_intermediate, std::size_t tile_n);

}  // namespace ksum::pipelines
