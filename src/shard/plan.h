// Shard planning: which axis to split, how many shards, and where the cut
// points fall (docs/SHARDING.md §Planning).
//
// Cut points are constrained by the simulated kernels' CTA geometry: a
// shard boundary must coincide with a padding boundary of the *unsharded*
// run, i.e. a multiple of lcm(tile edge, 128) of the geometry the solver
// resolved for the full shape. With that alignment every shard sees exactly
// the CTA blocks the single-device run would have assigned to its range, so
// per-shard padding reproduces the unsharded padding bit-for-bit (the last,
// ragged shard pads itself with the same zero points the unsharded run
// appends).
#pragma once

#include <cstddef>
#include <vector>

#include "pipelines/pipeline.h"
#include "shard/types.h"

namespace ksum::shard {

/// Half-open element range [begin, end) along the shard axis.
struct ShardRange {
  std::size_t begin = 0;
  std::size_t end = 0;
  std::size_t size() const { return end - begin; }
};

struct ShardPlan {
  ShardAxis axis = ShardAxis::kM;
  /// Contiguous, ascending partition of the axis dimension.
  std::vector<ShardRange> ranges;
  /// CTA-block alignment every interior boundary is a multiple of.
  std::size_t align = 0;
  /// Device arena of the largest shard — the warm device every runner
  /// worker builds, and what admission holds to the per-device arena.
  std::size_t arena_bytes = 0;
  std::size_t count() const { return ranges.size(); }
};

/// Replicated-operand traffic (bytes) a c-way split of the given axis adds
/// over the unsharded run — the planner's analytic cost model. Splitting M
/// re-reads B, its norms and W on every shard; splitting N re-reads A and
/// its norms and adds the staging write+read of the non-atomic reduction.
double replicated_bytes(ShardAxis axis, std::size_t m, std::size_t n,
                        std::size_t k, std::size_t tile_n, std::size_t count);

/// Builds the plan for a (m, n, k) problem under `options`:
///
///   axis  — `spec.axis`, or for kAuto: kM unless the backend is the fused
///           solution *and* the replicated-traffic model favours kN.
///   count — `spec.count`, or for 0 (auto) the smallest count whose
///           per-shard device arena fits the profile's
///           `options.device.shard_arena_bytes`; either way clamped to the
///           number of aligned blocks along the axis.
///   cuts  — blocks split as evenly as possible; when the count does not
///           divide the block count the earlier shards take one extra
///           block and the last shard carries the ragged tail.
///
/// `options.mainloop.geometry` must already be the geometry of the full
/// problem (the solver resolves it before planning). Throws ksum::Error
/// for unplannable requests (kN with a non-fused solution; auto counts
/// that cannot fit the budget even fully split).
ShardPlan plan_shards(std::size_t m, std::size_t n, std::size_t k,
                      const pipelines::RunOptions& options,
                      pipelines::Solution solution);

/// Worker threads a run of `count` shards uses: `spec.workers` (0 = one
/// per shard), at most one per shard and exec::ThreadPool::kMaxThreads,
/// at least one. Each worker holds one shard's slice and device at a time.
int worker_count(const ShardSpec& spec, std::size_t count);

/// Smallest shard count whose largest shard has at most `limit` elements
/// along a `dim`-sized axis, given the admission-time block alignment.
/// Returns 0 when no count achieves it (limit < align). The serving layer
/// uses this to turn an oversized shape into a shard count before the
/// solver resolves the real geometry.
std::size_t min_shards_for_limit(std::size_t dim, std::size_t align,
                                 std::size_t limit);

}  // namespace ksum::shard
