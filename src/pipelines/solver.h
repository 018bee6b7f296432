// Public facade of the library: one entry point that evaluates a kernel
// summation with any backend — host oracles or the simulated-GPU pipelines.
// This is the API the examples and downstream users consume.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "pipelines/pipeline.h"
#include "robust/fault_plan.h"
#include "robust/recovery.h"

namespace ksum::pipelines {

enum class Backend {
  kCpuDirect,         // O(MNK) double-accumulated host oracle
  kCpuExpansion,      // Algorithm 1 on the host BLAS
  kSimFused,          // the paper's contribution on the simulated GPU
  kSimCudaUnfused,    // CUDA-C GEMM + eval + GEMV on the simulated GPU
  kSimCublasUnfused,  // cuBLAS-model GEMM + eval + GEMV
};

std::string to_string(Backend backend);

/// True for the backends that run on the simulated GPU.
bool is_simulated(Backend backend);

/// The simulated pipeline a backend runs. Throws ksum::Error for the host
/// backends, which have none.
Solution solution_of(Backend backend);

/// Attaches a uniform fault-injection plan at `rate` (0 = none) to
/// `options`. Unsharded runs get one plan seeded with `seed`; the returned
/// plan owns the injector `options` points at, so keep it alive through the
/// solve. Sharded runs reject a plain injector (one stream cannot say which
/// device a fault lives on), so when options.shards is enabled this
/// installs a per-(shard, dispatch) factory seeded through
/// shard::shard_fault_seed instead and returns null.
std::unique_ptr<robust::FaultPlan> attach_fault_plan(RunOptions& options,
                                                     std::uint64_t seed,
                                                     double rate);

struct SolveResult {
  Vector v;  // the potential vector, length M
  /// Present for the simulated backends: full per-kernel report (of the
  /// final attempt, when recovery re-ran the pipeline).
  std::optional<PipelineReport> report;
  /// Host wall-clock spent producing the result (all backends).
  double host_seconds = 0;
  /// What the detect→retry→fallback policy did (attempts=1, nothing
  /// detected, when recovery was off or the first run came back clean).
  /// For sharded runs, `attempts` is the total pipeline executions across
  /// all shards and dispatches and `gave_up` means at least one shard
  /// exhausted every dispatch still flagged.
  robust::RecoveryReport recovery;
  /// Present when the run was sharded (options.shards.count != 1): the
  /// plan the runner executed and what happened to each shard.
  std::optional<shard::ShardReport> shards;
  /// Present when RunOptions::tree was enabled: what the treecode did —
  /// including the dense fallbacks, where `used_tree` is false and
  /// `fallback_reason` says why (docs/TREECODE.md).
  std::optional<tree::TreeReport> tree;
};

/// Evaluates V_i = Σ_j K(α_i, β_j)·W_j with the chosen backend. Shapes that
/// are not tile-aligned (M, N multiples of 128, K a multiple of 8) run on
/// the simulated backends via exact zero-padding (workload/padding.h); the
/// returned V is truncated back to length M.
///
/// When `options.recovery.enabled`, the simulated backends run under the
/// detect→retry→fallback policy (robust/recovery.h): the ABFT checks are
/// forced on, a flagged run is retried with a re-seeded fault-injector
/// stream, and a fused solution that keeps failing falls back to the
/// cuBLAS-style unfused pipeline. SolveResult::recovery records the path
/// taken; `recovery.gave_up` means even the final attempt was flagged.
SolveResult solve(const workload::Instance& instance,
                  const core::KernelParams& params, Backend backend,
                  const RunOptions& options = {});

}  // namespace ksum::pipelines
