#include "gpukernels/tile_loader.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "gpusim/device.h"

namespace ksum::gpukernels {
namespace {

class TileLoaderTest : public ::testing::TestWithParam<TileLayout> {
 protected:
  static constexpr std::size_t kK = 24;  // three K-tiles

  TileLoaderTest() : device_(config::DeviceSpec::gtx970(), 1 << 22) {
    buffer_ = device_.memory().allocate(kTileM * kK * 4, "tracks");
    AlignedBuffer<float> host(kTileM * kK);
    Rng rng(3);
    for (auto& x : host) x = rng.uniform(-1.0f, 1.0f);
    device_.memory().upload(buffer_, host.span());
    host_ = std::move(host);
  }

  gpusim::Device device_;
  gpusim::DeviceBuffer buffer_;
  AlignedBuffer<float> host_;
};

TEST_P(TileLoaderTest, LoadsEveryElementToItsLayoutSlot) {
  const TileLayout layout = GetParam();
  gpusim::LaunchConfig cfg;
  cfg.threads_per_block = 256;
  cfg.regs_per_thread = 64;
  cfg.smem_bytes_per_block = kTileBytes;

  const std::size_t k0 = 8;  // load the middle K-tile
  device_.launch(
      "loader", {1, 1}, {16, 16}, cfg, [&](gpusim::BlockContext& ctx) {
        TileSource src{buffer_, 0, kK};
        load_tile(ctx, TileGeometry{}, src, k0, 0,
                  make_tile_offset_table(layout, TileGeometry{}, kTileM), 0);
        // Verify every element landed where the layout function says.
        for (int m = 0; m < 16; ++m) {
          for (int t = 0; t < 8; ++t) {
            for (int k = 0; k < kTileK; ++k) {
              const std::size_t track = std::size_t(8 * m + t);
              const float expected = host_[track * kK + k0 + std::size_t(k)];
              EXPECT_EQ(ctx.smem().peek(tile_offset(layout, m, t, k)),
                        expected)
                  << "m=" << m << " t=" << t << " k=" << k;
            }
          }
        }
      });
}

TEST_P(TileLoaderTest, CountsArePredicted) {
  const TileLayout layout = GetParam();
  gpusim::LaunchConfig cfg;
  cfg.threads_per_block = 256;
  cfg.regs_per_thread = 64;
  cfg.smem_bytes_per_block = kTileBytes;

  const auto result = device_.launch(
      "loader", {1, 1}, {16, 16}, cfg, [&](gpusim::BlockContext& ctx) {
        TileSource src{buffer_, 0, kK};
        load_tile(ctx, TileGeometry{}, src, 0, 0,
                  make_tile_offset_table(layout, TileGeometry{}, kTileM), 0);
      });
  const auto& c = result.counters;
  // 4 warps × 2 float4 loads.
  EXPECT_EQ(c.global_load_requests, 8u);
  // Each float4 load touches 32 distinct sectors (one per track).
  EXPECT_EQ(c.l2_read_transactions, 8u * 32u);
  // The tile is 128 sectors; each sector is touched twice (two halves), so
  // DRAM sees each exactly once.
  EXPECT_EQ(c.dram_read_transactions, 128u);
  // 4 warps × 8 conflict-free scalar stores.
  EXPECT_EQ(c.smem_store_requests, 32u);
  EXPECT_EQ(c.smem_store_transactions, 32u);
  EXPECT_EQ(c.smem_bank_conflicts, 0u);
}

INSTANTIATE_TEST_SUITE_P(BothLayouts, TileLoaderTest,
                         ::testing::Values(TileLayout::kFig5,
                                           TileLayout::kNaive));

TEST(VectorSegmentTest, LoadsAndCounts) {
  gpusim::Device device(config::DeviceSpec::gtx970(), 1 << 20);
  auto buf = device.memory().allocate(256 * 4, "vec");
  AlignedBuffer<float> host(256);
  for (std::size_t i = 0; i < host.size(); ++i) host[i] = float(i);
  device.memory().upload(buf, host.span());

  gpusim::LaunchConfig cfg;
  cfg.threads_per_block = 256;
  cfg.regs_per_thread = 32;
  cfg.smem_bytes_per_block = 1024;
  const auto result = device.launch(
      "segment", {1, 1}, {16, 16}, cfg, [&](gpusim::BlockContext& ctx) {
        load_vector_segment(ctx, TileGeometry{}, buf, 128, 0, 128);
        for (int i = 0; i < 128; ++i) {
          EXPECT_EQ(ctx.smem().peek(gpusim::SharedAddr(i * 4)),
                    float(128 + i));
        }
      });
  EXPECT_EQ(result.counters.global_load_requests, 4u);
  EXPECT_EQ(result.counters.l2_read_transactions, 16u);  // 512 B
  EXPECT_EQ(result.counters.smem_store_transactions, 4u);
  EXPECT_EQ(result.counters.smem_bank_conflicts, 0u);
}

}  // namespace
}  // namespace ksum::gpukernels
