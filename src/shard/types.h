// Shared vocabulary of the sharding layer (docs/SHARDING.md).
//
// A sharded run splits one kernel-summation request across several warm
// simulated Devices and merges the per-shard results back into the exact
// bits the single-device run would have produced:
//
//   kM — split the source points (rows of A / entries of V). Every shard
//        computes a disjoint row range of V; the merge is a concatenation,
//        byte-exact by construction for every backend.
//   kN — split the target points (columns of B / entries of W). Every
//        shard contributes partial sums for every row of V, so the merge
//        must reproduce the single-device reduction order bit-for-bit.
//        The fused kernel's staged (non-atomic) reduction makes that
//        possible: shards run with atomic_reduction=false, export their
//        per-column-CTA staging partials, and the host merge replays the
//        device's own ascending-column-CTA fold (see shard/runner.h).
//
// This header is included by pipelines/pipeline.h (RunOptions::shards), so
// it must stay dependency-light: no pipeline or device includes beyond the
// fault-injection interface.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "gpusim/fault_injection.h"
#include "robust/recovery.h"

namespace ksum::shard {

enum class ShardAxis {
  kAuto,  // planner picks by replicated-operand traffic (plan.h)
  kM,     // split source rows — concatenation merge, any backend
  kN,     // split target columns — staged-partial merge, fused backend only
};

std::string to_string(ShardAxis axis);

/// Per-shard fault-injector source for sharded runs. Called once per
/// dispatch of a shard (dispatch 0 = its first run, 1 = the one re-run
/// after the shard's recovery gave up) from the worker thread that runs
/// it; must be thread-safe. Returning nullptr runs that dispatch
/// fault-free — the natural model for "the retry lands on a device without
/// this fault". The runner keeps the returned injector alive for exactly
/// that one pipeline execution.
using ShardInjectorFactory =
    std::function<std::shared_ptr<gpusim::FaultInjector>(std::size_t shard,
                                                         int dispatch)>;

/// Sharding request carried in pipelines::RunOptions. `count == 1` (the
/// default) means unsharded execution; the rest of the fields are ignored.
struct ShardSpec {
  /// Number of shards. 1 = off, 0 = auto (smallest count whose per-shard
  /// arena fits the active profile's DeviceSpec::shard_arena_bytes; 512 MiB
  /// on the paper's gtx970). Explicit counts are clamped to the number of
  /// CTA-aligned blocks along the chosen axis.
  std::size_t count = 1;
  ShardAxis axis = ShardAxis::kAuto;
  /// Worker threads, each running one shard at a time on that shard's own
  /// warm Device. 0 = one per shard. Results are bit-identical for every
  /// worker count.
  int workers = 0;
  /// Optional per-(shard, dispatch) fault injectors. Sharded runs reject a
  /// plain RunOptions::fault_injector — one injector cannot describe which
  /// device the fault lives on.
  ShardInjectorFactory injector_factory;

  bool enabled() const { return count != 1; }
};

/// Host-side copy of the fused kernel's staging buffer: one partial V value
/// per (row, column-CTA) pair, row-major `rows × cols`, downloaded when
/// RunOptions::capture_staged_partials is set. The shard merge replays the
/// device's reduction fold over these (runner.h).
struct StagedPartials {
  std::size_t rows = 0;  // padded M of the run
  std::size_t cols = 0;  // grid.x — column CTAs
  std::vector<float> data;
};

/// What happened to one shard, for reports and the fault campaign.
struct ShardSliceReport {
  std::size_t index = 0;
  std::size_t begin = 0;  // element range along the shard axis
  std::size_t end = 0;
  /// Runs this shard consumed: 1, or 2 when its first run gave up.
  int dispatches = 1;
  /// Recovery outcome of the *last* dispatch, with attempts/faults summed
  /// over every dispatch of this shard.
  robust::RecoveryReport recovery;
};

struct ShardReport {
  ShardAxis axis = ShardAxis::kM;
  std::vector<ShardSliceReport> slices;
  /// Workers the runner actually used.
  int workers = 0;
  std::size_t count() const { return slices.size(); }
  /// Total pipeline executions across all shards and dispatches.
  int total_attempts() const {
    int total = 0;
    for (const auto& s : slices) total += s.recovery.attempts;
    return total;
  }
};

/// Deterministic per-(shard, dispatch) seed derivation, splitmix-style like
/// pipelines::BatchRequest::derived_fault_seed — callers that build
/// ShardInjectorFactory instances from one base seed all use this, so a
/// shard's fault stream is a pure function of (base, shard, dispatch).
inline std::uint64_t shard_fault_seed(std::uint64_t base, std::size_t shard,
                                      int dispatch) {
  constexpr std::uint64_t kGolden = 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = base;
  z += kGolden * (2 * static_cast<std::uint64_t>(shard) + 1);
  z += kGolden * (static_cast<std::uint64_t>(dispatch) + 1) *
       std::uint64_t{0x10001};
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace ksum::shard
