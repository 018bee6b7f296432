// Execution of a sharded solve (docs/SHARDING.md §Runner): plan, run,
// merge.
//
// The runner plans the shards, then runs them with exec::map_ordered on
// `workers` threads. Each shard slices its own sub-instance, builds its own
// warm Device and runs as an ordinary pipelines::solve. A shard whose own
// recovery gave up (every retry and fallback still flagged by the ABFT
// checks) runs once more with its dispatch-1 injector; two runs is the
// limit. The merge then walks the shards in index order: kM writes each
// shard's V rows at its range, kN replays the device's ascending
// column-CTA fold over the shards' staged partials. The output is
// bit-identical for every worker count and completion order.
#pragma once

#include "pipelines/solver.h"
#include "shard/plan.h"
#include "shard/types.h"

namespace ksum::shard {

/// Executes `instance` sharded per `options.shards` and returns a
/// SolveResult whose V is bit-identical to the unsharded run of the same
/// options; `result.shards` carries the per-shard report. Called by
/// pipelines::solve — `options.mainloop.geometry` must already be the
/// resolved geometry of the full problem, and `backend` must be one of the
/// simulated backends. Throws ksum::Error when `options.fault_injector` is
/// set (sharded runs take ShardSpec::injector_factory), and
/// exec::Cancelled once `options.cancel` reads cancelled: no shard starts
/// after that.
pipelines::SolveResult run_sharded(const workload::Instance& instance,
                                   const core::KernelParams& params,
                                   pipelines::Backend backend,
                                   const pipelines::RunOptions& options);

/// Copies the sub-instance covering `range` of `axis` out of `instance`:
/// kM slices rows of A (B and W are replicated), kN slices columns of B and
/// the matching W entries (A is replicated). Exposed for tests.
workload::Instance slice_instance(const workload::Instance& instance,
                                  ShardAxis axis, const ShardRange& range);

}  // namespace ksum::shard
