// Planner unit tests: block-aligned cuts, even partition with ragged tail,
// auto axis/count selection, and the admission-side helper.
#include <algorithm>

#include <gtest/gtest.h>

#include "shard/plan.h"

namespace ksum {
namespace {

using pipelines::RunOptions;
using pipelines::Solution;
using shard::ShardAxis;
using shard::ShardPlan;

ShardPlan plan_for(std::size_t m, std::size_t n, std::size_t k,
                   std::size_t count, ShardAxis axis,
                   Solution solution = Solution::kFused,
                   std::size_t budget = 0) {
  RunOptions options;
  options.shards.count = count;
  options.shards.axis = axis;
  if (budget != 0) options.device.shard_arena_bytes = budget;
  return shard::plan_shards(m, n, k, options, solution);
}

TEST(ShardPlanTest, RangesPartitionTheAxisOnAlignedBoundaries) {
  // Default geometry: tile 128 → align 128. 1000 rows = 8 blocks.
  const ShardPlan plan = plan_for(1000, 256, 8, 3, ShardAxis::kM);
  ASSERT_EQ(plan.count(), 3u);
  EXPECT_EQ(plan.align, 128u);
  std::size_t covered = 0;
  for (const auto& range : plan.ranges) {
    EXPECT_EQ(range.begin, covered);
    EXPECT_GT(range.end, range.begin);
    covered = range.end;
  }
  EXPECT_EQ(covered, 1000u);
  // Interior boundaries are block aligned; earlier shards take the extra
  // block (8 = 3+3+2), the last shard carries the ragged tail.
  EXPECT_EQ(plan.ranges[0].end, 384u);
  EXPECT_EQ(plan.ranges[1].end, 768u);
  EXPECT_EQ(plan.ranges[2].end, 1000u);
}

TEST(ShardPlanTest, CountClampsToBlockCount) {
  const ShardPlan plan = plan_for(300, 256, 8, 8, ShardAxis::kM);
  EXPECT_EQ(plan.count(), 3u);  // ceil(300/128) blocks
}

TEST(ShardPlanTest, ExplicitNAxisRequiresFused) {
  EXPECT_THROW(
      plan_for(256, 512, 8, 2, ShardAxis::kN, Solution::kCublasUnfused),
      Error);
  EXPECT_NO_THROW(
      plan_for(256, 512, 8, 2, ShardAxis::kN, Solution::kFused));
}

TEST(ShardPlanTest, AutoAxisFollowsReplicatedTraffic) {
  // Tall problem (m >> n): splitting M replicates the small B — cheap.
  EXPECT_EQ(plan_for(4096, 128, 32, 4, ShardAxis::kAuto).axis, ShardAxis::kM);
  // Wide problem (n >> m): splitting N replicates the small A.
  EXPECT_EQ(plan_for(128, 4096, 32, 4, ShardAxis::kAuto).axis, ShardAxis::kN);
  // Unfused solutions never get N, whatever the traffic says.
  EXPECT_EQ(
      plan_for(128, 4096, 32, 4, ShardAxis::kAuto, Solution::kCudaUnfused)
          .axis,
      ShardAxis::kM);
}

TEST(ShardPlanTest, AutoCountPicksSmallestFittingBudget) {
  // Budget that holds two 128-row blocks of a 1024×256 problem.
  const std::size_t budget = pipelines::required_device_bytes(
      256, 256, 8, /*with_intermediate=*/false, 128);
  const ShardPlan plan = plan_for(1024, 256, 8, 0, ShardAxis::kM,
                                  Solution::kFused, budget);
  EXPECT_EQ(plan.count(), 4u);  // 8 blocks / 2 per shard
  // A generous budget keeps it unsharded.
  const ShardPlan one = plan_for(1024, 256, 8, 0, ShardAxis::kM,
                                 Solution::kFused, std::size_t{1} << 40);
  EXPECT_EQ(one.count(), 1u);
  // An impossible budget is a hard error, not a silent clamp.
  EXPECT_THROW(plan_for(1024, 256, 8, 0, ShardAxis::kM, Solution::kFused,
                        std::size_t{1} << 10),
               Error);
}

TEST(ShardPlanTest, ReplicatedBytesModel) {
  // More shards replicate more; count 1 replicates nothing.
  EXPECT_EQ(shard::replicated_bytes(ShardAxis::kM, 512, 512, 32, 128, 1),
            0.0);
  EXPECT_LT(shard::replicated_bytes(ShardAxis::kM, 512, 512, 32, 128, 2),
            shard::replicated_bytes(ShardAxis::kM, 512, 512, 32, 128, 4));
  // Splitting the axis that replicates the smaller operand costs less.
  EXPECT_LT(shard::replicated_bytes(ShardAxis::kN, 128, 4096, 32, 128, 4),
            shard::replicated_bytes(ShardAxis::kM, 128, 4096, 32, 128, 4));
}

TEST(ShardPlanTest, MinShardsForLimit) {
  EXPECT_EQ(shard::min_shards_for_limit(1000, 128, 1024), 1u);
  EXPECT_EQ(shard::min_shards_for_limit(1000, 128, 512), 2u);
  EXPECT_EQ(shard::min_shards_for_limit(1000, 128, 128), 8u);
  // Limit below one block: impossible.
  EXPECT_EQ(shard::min_shards_for_limit(1000, 128, 100), 0u);
  // Small dim fits as one shard even under one block.
  EXPECT_EQ(shard::min_shards_for_limit(100, 128, 100), 1u);

  // The closed form answers what a scan over every count answers.
  const auto scan = [](std::size_t dim, std::size_t align,
                       std::size_t limit) -> std::size_t {
    const std::size_t blocks = (dim + align - 1) / align;
    for (std::size_t c = 1; c <= blocks; ++c) {
      if (std::min(dim, (blocks + c - 1) / c * align) <= limit) return c;
    }
    return 0;
  };
  for (std::size_t align : {1u, 3u, 8u, 128u}) {
    for (std::size_t dim = 1; dim <= 600; dim += 7) {
      for (std::size_t limit = 0; limit <= 700; limit += 13) {
        EXPECT_EQ(shard::min_shards_for_limit(dim, align, limit),
                  scan(dim, align, limit))
            << "dim=" << dim << " align=" << align << " limit=" << limit;
      }
    }
  }
  // A 2^60 axis is answered at once, not by a scan over 2^53 counts.
  const std::size_t huge = std::size_t{1} << 60;
  EXPECT_EQ(shard::min_shards_for_limit(huge, 128, 1024), huge / 1024);
  EXPECT_EQ(shard::min_shards_for_limit(huge, 128, huge / 4), 4u);
  EXPECT_EQ(shard::min_shards_for_limit(huge, 128, 64), 0u);
}

}  // namespace
}  // namespace ksum
