#include "gpukernels/smem_layout.h"

#include <gtest/gtest.h>

#include <set>

#include "gpukernels/gemm_mainloop.h"
#include "gpusim/shared_memory.h"
#include "tune/tile_search.h"

namespace ksum::gpukernels {
namespace {

using gpusim::SharedMemory;
using gpusim::SharedWarpAccess;

class LayoutTest : public ::testing::TestWithParam<TileLayout> {};

TEST_P(LayoutTest, TrackAssignmentIsABijection) {
  std::set<std::pair<int, int>> seen;
  for (int i = 0; i < kTileM; ++i) {
    const TrackAssignment ta = track_of_loader(GetParam(), i);
    EXPECT_GE(ta.microtile, 0);
    EXPECT_LT(ta.microtile, 16);
    EXPECT_GE(ta.track, 0);
    EXPECT_LT(ta.track, 8);
    EXPECT_TRUE(seen.insert({ta.microtile, ta.track}).second)
        << "duplicate track for loader " << i;
  }
  EXPECT_EQ(seen.size(), 128u);
}

TEST_P(LayoutTest, OffsetsAreInjectiveAndInBounds) {
  std::set<gpusim::SharedAddr> seen;
  for (int m = 0; m < 16; ++m) {
    for (int t = 0; t < 8; ++t) {
      for (int k = 0; k < kTileK; ++k) {
        const gpusim::SharedAddr off = tile_offset(GetParam(), m, t, k);
        EXPECT_LT(off, kTileBytes);
        EXPECT_EQ(off % 4, 0u);
        EXPECT_TRUE(seen.insert(off).second);
      }
    }
  }
  EXPECT_EQ(seen.size(), std::size_t(kTileFloats));
}

TEST_P(LayoutTest, StorePhaseIsConflictFree) {
  // Reconstruct the tile_loader store accesses: at store step k, lane l of
  // loader warp w writes element k of its track.
  for (int w = 0; w < 4; ++w) {
    for (int k = 0; k < kTileK; ++k) {
      SharedWarpAccess access;
      for (int lane = 0; lane < 32; ++lane) {
        const TrackAssignment ta =
            track_of_loader(GetParam(), w * 32 + lane);
        access.set_lane(lane,
                        tile_offset(GetParam(), ta.microtile, ta.track, k));
      }
      EXPECT_EQ(SharedMemory::transactions_for(access), 1)
          << "store conflict at warp " << w << " k " << k;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(BothLayouts, LayoutTest,
                         ::testing::Values(TileLayout::kFig5,
                                           TileLayout::kNaive));

TEST(SmemLayoutTest, OffsetTableMatchesTileOffset) {
  // The per-CTA table the loader and the main loop index must hold exactly
  // what the layout functions compute, for every geometry the tuner can run.
  int geometries = 0;
  for (const TileGeometry& g : tune::enumerate_candidates()) {
    if (!g.structurally_valid()) continue;
    ++geometries;
    for (const TileLayout layout : {TileLayout::kFig5, TileLayout::kNaive}) {
      for (const int tile_rows : {g.tile_m, g.tile_n}) {
        const TileOffsetTable table =
            make_tile_offset_table(layout, g, tile_rows);
        const int microtiles = tile_rows / g.micro;
        ASSERT_EQ(table.layout, layout);
        ASSERT_EQ(table.tracks(), tile_rows) << g.to_string();
        ASSERT_EQ(table.offsets.size(),
                  static_cast<std::size_t>(tile_rows * g.tile_k));
        for (int m = 0; m < microtiles; ++m) {
          for (int t = 0; t < g.micro; ++t) {
            for (int k = 0; k < g.tile_k; ++k) {
              ASSERT_EQ(table.at(g.micro * m + t, k),
                        tile_offset(layout, g, microtiles, m, t, k))
                  << g.to_string() << " rows=" << tile_rows << " m=" << m
                  << " t=" << t << " k=" << k;
            }
          }
        }
      }
    }
  }
  EXPECT_GT(geometries, 1);
}

// Compute-phase operand loads: thread (tx, ty) reads operand u of microtile
// ty from tileA and operand t of microtile tx from tileB.
int a_load_transactions(TileLayout layout, int warp, int u, int k) {
  SharedWarpAccess access;
  for (int lane = 0; lane < 32; ++lane) {
    const int tid = warp * 32 + lane;
    access.set_lane(lane, operand_offset(layout, thread_ty(tid), u, k));
  }
  return SharedMemory::transactions_for(access);
}

int b_load_transactions(TileLayout layout, int warp, int t, int k) {
  SharedWarpAccess access;
  for (int lane = 0; lane < 32; ++lane) {
    const int tid = warp * 32 + lane;
    access.set_lane(lane, operand_offset(layout, thread_tx(tid), t, k));
  }
  return SharedMemory::transactions_for(access);
}

TEST(Fig5LayoutTest, ComputeLoadsAreConflictFree) {
  for (int warp = 0; warp < kWarps; ++warp) {
    for (int e = 0; e < kMicro; ++e) {
      for (int k = 0; k < kTileK; ++k) {
        EXPECT_EQ(a_load_transactions(TileLayout::kFig5, warp, e, k), 1);
        EXPECT_EQ(b_load_transactions(TileLayout::kFig5, warp, e, k), 1);
      }
    }
  }
}

TEST(NaiveLayoutTest, BOperandLoadsConflictFourWay) {
  // The paper's "intuitive" placement: B operand reads hit four rows of the
  // same banks — the reason Fig. 5 re-arranges the data.
  for (int warp = 0; warp < kWarps; ++warp) {
    for (int t = 0; t < kMicro; ++t) {
      EXPECT_EQ(b_load_transactions(TileLayout::kNaive, warp, t, 0), 4);
    }
  }
}

TEST(NaiveLayoutTest, ALoadsHappenToBeConflictFree) {
  // A operands only span two microtiles per warp, which the naive layout
  // keeps within one row — the conflicts come from the B side.
  for (int warp = 0; warp < kWarps; ++warp) {
    for (int u = 0; u < kMicro; ++u) {
      EXPECT_EQ(a_load_transactions(TileLayout::kNaive, warp, u, 0), 1);
    }
  }
}

TEST(Fig5LayoutTest, MicrotilesSpreadAcrossAllBanks) {
  // Paper: "spread 16 microtiles among 32 banks" — microtile m owns banks
  // 2m and 2m+1.
  std::set<int> banks;
  for (int m = 0; m < 16; ++m) {
    for (int t = 0; t < 8; ++t) {
      for (int k = 0; k < kTileK; ++k) {
        banks.insert(int(fig5_offset(m, t, k) / 4 % 32));
      }
    }
  }
  EXPECT_EQ(banks.size(), 32u);
}

TEST(Fig5LayoutTest, PaperExampleThreadZeroAndOne) {
  // "Thread 0, 1 in warp 0 will store data of group 0 to (bank 0-1,
  // row 0-7)".
  const TrackAssignment t0 = track_of_loader(TileLayout::kFig5, 0);
  const TrackAssignment t1 = track_of_loader(TileLayout::kFig5, 1);
  EXPECT_EQ(t0.microtile, 0);
  EXPECT_EQ(t1.microtile, 0);
  for (int k = 0; k < kTileK; ++k) {
    const auto off0 = fig5_offset(t0.microtile, t0.track, k);
    const auto off1 = fig5_offset(t1.microtile, t1.track, k);
    EXPECT_EQ(off0 / 4 % 32, 0u);  // bank 0
    EXPECT_EQ(off1 / 4 % 32, 1u);  // bank 1
    EXPECT_LT(off0 / 128, 8u);     // rows 0-7
    EXPECT_LT(off1 / 128, 8u);
  }
  // "thread 32, 33 belonging to warp 1 will write group 1 tracks into
  // (bank 0-1, row 8-15)".
  const TrackAssignment t32 = track_of_loader(TileLayout::kFig5, 32);
  for (int k = 0; k < kTileK; ++k) {
    const auto off = fig5_offset(t32.microtile, t32.track, k);
    EXPECT_EQ(off / 4 % 32, 0u);
    EXPECT_GE(off / 128, 8u);
    EXPECT_LT(off / 128, 16u);
  }
}

}  // namespace
}  // namespace ksum::gpukernels
