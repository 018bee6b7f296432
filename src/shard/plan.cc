#include "shard/plan.h"

#include <algorithm>

#include "common/error.h"
#include "exec/thread_pool.h"
#include "workload/padding.h"

namespace ksum::shard {
namespace {

std::size_t ceil_div(std::size_t a, std::size_t b) {
  return a / b + (a % b != 0 ? 1 : 0);
}

}  // namespace

std::string to_string(ShardAxis axis) {
  switch (axis) {
    case ShardAxis::kAuto:
      return "auto";
    case ShardAxis::kM:
      return "m";
    case ShardAxis::kN:
      return "n";
  }
  return "unknown";
}

double replicated_bytes(ShardAxis axis, std::size_t m, std::size_t n,
                        std::size_t k, std::size_t tile_n,
                        std::size_t count) {
  if (count <= 1) return 0.0;
  const double extra = double(count - 1);
  if (axis == ShardAxis::kM) {
    // Every additional M shard re-reads B (k×n), its norms (n) and W (n).
    return extra * 4.0 * (double(k) * double(n) + 2.0 * double(n));
  }
  // Every additional N shard re-reads A (m×k) and its norms (m); on top,
  // the staged (non-atomic) reduction writes and re-reads one partial per
  // (row, column-CTA) instead of the unsharded run's single atomic per
  // (row, column-CTA) — charge the staging round trip once.
  return extra * 4.0 * (double(m) * double(k) + double(m)) +
         2.0 * 4.0 * double(m) * double(ceil_div(n, tile_n));
}

ShardPlan plan_shards(std::size_t m, std::size_t n, std::size_t k,
                      const pipelines::RunOptions& options,
                      pipelines::Solution solution) {
  KSUM_REQUIRE(m > 0 && n > 0 && k > 0,
               "shard planning needs nonzero problem dimensions");
  const ShardSpec& spec = options.shards;
  const gpukernels::TileGeometry& geometry = options.mainloop.geometry;
  const std::size_t tile_n = static_cast<std::size_t>(geometry.tile_n);
  const auto alignment = gpukernels::solve_alignment(geometry);

  ShardAxis axis = spec.axis;
  if (axis == ShardAxis::kAuto) {
    // M (concatenation merge, any backend) is the default; prefer N only
    // when the fused backend can replay its staged reduction and the
    // analytic model says the replicated-operand traffic is lower.
    axis = ShardAxis::kM;
    if (solution == pipelines::Solution::kFused) {
      const std::size_t probe = spec.count == 0 ? 2 : spec.count;
      if (replicated_bytes(ShardAxis::kN, m, n, k, tile_n, probe) <
          replicated_bytes(ShardAxis::kM, m, n, k, tile_n, probe)) {
        axis = ShardAxis::kN;
      }
    }
  } else if (axis == ShardAxis::kN) {
    KSUM_REQUIRE(solution == pipelines::Solution::kFused,
                 "target-axis (N) sharding requires the fused backend — the "
                 "unfused pipelines have no staged reduction to replay");
  }

  const std::size_t dim = axis == ShardAxis::kM ? m : n;
  const std::size_t align = axis == ShardAxis::kM ? alignment.m : alignment.n;
  const std::size_t blocks = ceil_div(dim, align);

  // Device arena of the largest shard of a c-way split: the first one,
  // which takes ceil(blocks / c) blocks.
  const auto shard_arena = [&](std::size_t c) {
    const std::size_t largest = ceil_div(blocks, c) * align;
    const bool along_m = axis == ShardAxis::kM;
    return pipelines::required_device_bytes(
        along_m ? largest : workload::round_up(m, alignment.m),
        along_m ? workload::round_up(n, alignment.n) : largest,
        workload::round_up(k, alignment.k),
        solution != pipelines::Solution::kFused, tile_n);
  };
  std::size_t count = 0;
  if (spec.count == 0) {
    // Auto: smallest count whose largest shard fits the active profile's
    // per-device arena. The arena only shrinks as the count grows, so a
    // shape whose single-block shard does not fit is refused up front and
    // the count is a binary search.
    const std::size_t budget = options.device.shard_arena_bytes;
    KSUM_REQUIRE(shard_arena(blocks) <= budget,
                 "auto shard count: even a single-CTA-block shard exceeds "
                 "the per-device budget");
    std::size_t lo = 1;
    count = blocks;
    while (lo < count) {
      const std::size_t mid = lo + (count - lo) / 2;
      if (shard_arena(mid) <= budget) {
        count = mid;
      } else {
        lo = mid + 1;
      }
    }
  } else {
    count = std::min(spec.count, blocks);
  }

  ShardPlan plan;
  plan.axis = axis;
  plan.align = align;
  plan.arena_bytes = shard_arena(count);
  plan.ranges.reserve(count);
  // Even block partition: the first (blocks % count) shards take one extra
  // block; the last shard absorbs the ragged element tail.
  std::size_t start_block = 0;
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t nblocks = blocks / count + (i < blocks % count ? 1 : 0);
    ShardRange range;
    range.begin = start_block * align;
    range.end = std::min(dim, (start_block + nblocks) * align);
    plan.ranges.push_back(range);
    start_block += nblocks;
  }
  return plan;
}

int worker_count(const ShardSpec& spec, std::size_t count) {
  std::size_t workers =
      spec.workers > 0 ? static_cast<std::size_t>(spec.workers) : count;
  workers = std::min(
      {workers, count, std::size_t{exec::ThreadPool::kMaxThreads}});
  return static_cast<int>(std::max<std::size_t>(workers, 1));
}

std::size_t min_shards_for_limit(std::size_t dim, std::size_t align,
                                 std::size_t limit) {
  if (dim == 0 || align == 0) return 0;
  if (dim <= limit) return 1;
  if (limit < align) return 0;
  // The largest of c shards holds ceil(blocks / c) blocks, so the smallest
  // count keeping it within limit / align blocks is ceil(blocks / that).
  return ceil_div(ceil_div(dim, align), limit / align);
}

}  // namespace ksum::shard
