// Treecode execution: plan → near-field fused sub-runs + far-field series.
//
// pipelines::solve hands a fused-backend request here when
// RunOptions::tree is enabled. The engine:
//
//   1. builds the TreePlan (tree/plan.h) and decides tree-vs-dense — a
//      plan with no far pair, or a TreeMode::kAuto cost-model loss, falls
//      back to the untouched dense path (byte-identical to eps == 0);
//   2. for every row cluster, gathers the near boxes' points (canonical
//      order) into a packed sub-instance and runs it through
//      pipelines::solve on the fused backend — the same padding, geometry,
//      checks and recovery machinery as any dense run;
//   3. evaluates the far-field truncated series per row in double, in
//      ascending box order, and combines near + far deterministically.
//
// Shard composition: with RunOptions::shards enabled the row clusters are
// partitioned into `count` contiguous leaf groups, each group evaluated on
// its own worker — every cluster's result is independent of the grouping,
// so V is bit-identical for any shard/worker count and the merge is a
// scatter by row index (docs/TREECODE.md). The ShardReport slices carry
// row-cluster index ranges rather than element ranges.
//
// Like the shard runner, this layer and pipelines::solve are mutually
// recursive, so the tree sources compile into the ksum_pipelines target
// (see src/tree/CMakeLists.txt).
#pragma once

#include <optional>
#include <string>

#include "pipelines/solver.h"
#include "tree/plan.h"

namespace ksum::tree {

/// Rejects option combinations the treecode cannot honor: negative eps, a
/// non-fused backend, a non-Gaussian kernel, fault injection (plain or
/// per-shard), the staged-partials capture hook, and TreeMode::kAuto with
/// no TreeSpec::cost_model. Throws ksum::Error.
void validate_options(const pipelines::RunOptions& options,
                      const core::KernelParams& params,
                      pipelines::Backend backend);

struct TreeDecision {
  bool use_tree = false;
  std::string fallback_reason;  // set when use_tree is false
  std::optional<TreePlan> plan;
  double build_seconds = 0;  // host wall-clock spent planning
};

/// Builds the plan and applies the fallback rules (no far pair, n-axis
/// sharding, TreeMode::kAuto cost-model loss).
TreeDecision decide(const workload::Instance& instance,
                    const core::KernelParams& params,
                    const pipelines::RunOptions& options);

/// Executes a decided plan. `options` must have passed validate_options.
pipelines::SolveResult evaluate(const workload::Instance& instance,
                                const core::KernelParams& params,
                                const pipelines::RunOptions& options,
                                TreePlan plan, double build_seconds);

}  // namespace ksum::tree
