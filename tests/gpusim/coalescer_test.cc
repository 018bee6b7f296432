#include "gpusim/coalescer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <vector>

#include "common/error.h"
#include "common/prop.h"

namespace ksum::gpusim {
namespace {

GlobalWarpAccess make_access(GlobalAddr (*addr_of)(int), int width = 4) {
  GlobalWarpAccess a;
  a.width_bytes = width;
  for (int l = 0; l < 32; ++l) a.set_lane(l, addr_of(l));
  return a;
}

TEST(CoalescerTest, FullyCoalescedScalarLoadIsFourSectors) {
  Coalescer c(32);
  const auto a = make_access([](int l) { return GlobalAddr(l * 4); });
  EXPECT_EQ(c.sectors_for(a).size(), 4u);
}

TEST(CoalescerTest, SectorsAreAlignedAndSorted) {
  Coalescer c(32);
  const auto a = make_access([](int l) { return GlobalAddr(l * 4 + 64); });
  const auto sectors = c.sectors_for(a);
  ASSERT_EQ(sectors.size(), 4u);
  for (std::size_t i = 0; i < sectors.size(); ++i) {
    EXPECT_EQ(sectors[i] % 32, 0u);
    if (i > 0) {
      EXPECT_LT(sectors[i - 1], sectors[i]);
    }
  }
  EXPECT_EQ(sectors[0], 64u);
}

TEST(CoalescerTest, StridedAccessTouchesOneSectorPerLane) {
  Coalescer c(32);
  // 128-byte stride: worst case, 32 distinct sectors.
  const auto a = make_access([](int l) { return GlobalAddr(l * 128); });
  EXPECT_EQ(c.sectors_for(a).size(), 32u);
}

TEST(CoalescerTest, BroadcastIsOneSector) {
  Coalescer c(32);
  const auto a = make_access([](int) { return GlobalAddr(96); });
  EXPECT_EQ(c.sectors_for(a).size(), 1u);
}

TEST(CoalescerTest, Vec4CoalescedIsSixteenSectors) {
  Coalescer c(32);
  const auto a =
      make_access([](int l) { return GlobalAddr(l * 16); }, /*width=*/16);
  EXPECT_EQ(c.sectors_for(a).size(), 16u);
}

TEST(CoalescerTest, Vec4LaneSpanningTwoSectors) {
  Coalescer c(32);
  GlobalWarpAccess a;
  a.width_bytes = 16;
  a.active_mask = 1;
  a.set_lane(0, 24);  // bytes 24..40 cross a 32-byte boundary
  EXPECT_EQ(c.sectors_for(a).size(), 2u);
}

TEST(CoalescerTest, InactiveLanesIgnored) {
  Coalescer c(32);
  GlobalWarpAccess a;
  a.active_mask = 0b11;
  a.set_lane(0, 0);
  a.set_lane(1, 4);
  a.set_lane(2, 1 << 20);  // inactive
  EXPECT_EQ(c.sectors_for(a).size(), 1u);
}

TEST(CoalescerTest, TwoLanesPerSectorPattern) {
  Coalescer c(32);
  // 16-byte stride scalar lanes: two lanes share each sector.
  const auto a = make_access([](int l) { return GlobalAddr(l * 16); });
  EXPECT_EQ(c.sectors_for(a).size(), 16u);
}

TEST(CoalescerTest, RefusesWidthOutsideFourToSixteenBytes) {
  Coalescer c(32);
  std::array<GlobalAddr, Coalescer::kMaxSectors> out;
  for (const int width : {0, 2, 3, 17, 20, 32}) {
    const auto a =
        make_access([](int l) { return GlobalAddr(l * 32); }, width);
    EXPECT_THROW(c.sectors_for(a, out.data()), Error) << width;
    EXPECT_THROW(c.sectors_for(a), Error) << width;
    EXPECT_THROW(c.ideal_sectors_for(a), Error) << width;
  }
}

TEST(CoalescerTest, RefusesSectorsThatAreNotPowersOfTwo) {
  EXPECT_THROW(Coalescer(48), Error);
  EXPECT_THROW(Coalescer(0), Error);
  EXPECT_THROW(Coalescer(2), Error);
  EXPECT_NO_THROW(Coalescer(4));
}

// The per-piece definition: every 4-byte piece of every active lane names
// its sector; the request's sectors are that list sorted and deduplicated.
std::vector<GlobalAddr> reference_sectors(const GlobalWarpAccess& access,
                                          int sector_bytes) {
  std::vector<GlobalAddr> sectors;
  const auto sector = static_cast<GlobalAddr>(sector_bytes);
  for (int lane = 0; lane < kWarpSize; ++lane) {
    if (!access.lane_active(lane)) continue;
    const GlobalAddr base = access.addr[static_cast<std::size_t>(lane)];
    for (int piece = 0; piece < access.width_bytes; piece += 4) {
      sectors.push_back((base + static_cast<GlobalAddr>(piece)) / sector *
                        sector);
    }
  }
  std::sort(sectors.begin(), sectors.end());
  sectors.erase(std::unique(sectors.begin(), sectors.end()), sectors.end());
  return sectors;
}

// Distinct words, packed densely into sectors.
int reference_ideal(const GlobalWarpAccess& access, int sector_bytes) {
  const std::vector<GlobalAddr> words = reference_sectors(access, 4);
  return static_cast<int>((words.size() * 4 + sector_bytes - 1) /
                          static_cast<std::size_t>(sector_bytes));
}

struct CoalescerCase {
  int sector_bytes;
  GlobalWarpAccess access;
};

enum class Pattern {
  kCoalesced,
  kFloat4,
  kStrided128,
  kReversed,
  kBroadcast,
  kDuplicate,
  kRandom
};

CoalescerCase make_coalescer_case(prop::Gen& gen, std::size_t scale) {
  CoalescerCase c;
  c.sector_bytes = gen.pick(std::vector<int>{32, 64});
  GlobalWarpAccess& a = c.access;
  a.width_bytes = gen.pick(std::vector<int>{4, 8, 12, 16});
  switch (gen.int_in(0, 3)) {
    case 0:
      a.active_mask = 0;
      break;
    case 1:
      a.active_mask = 1u << gen.int_in(0, kWarpSize - 1);
      break;
    case 2:
      a.active_mask = 0xffffffffu;
      break;
    default:
      a.active_mask = static_cast<std::uint32_t>(gen.next_u64());
      break;
  }
  const auto pattern = static_cast<Pattern>(gen.int_in(0, 6));
  // Word-aligned base anywhere in a 4 GB window, so requests straddle
  // sector and line boundaries at every offset.
  const GlobalAddr base = (gen.next_u64() & 0xffffffffull) & ~GlobalAddr{3};
  const GlobalAddr width = static_cast<GlobalAddr>(a.width_bytes);
  for (int l = 0; l < kWarpSize; ++l) {
    const auto lane = static_cast<GlobalAddr>(l);
    GlobalAddr addr = base;
    switch (pattern) {
      case Pattern::kCoalesced:
        addr = base + lane * width;
        break;
      case Pattern::kFloat4:
        addr = (base & ~GlobalAddr{15}) + lane * 16;
        break;
      case Pattern::kStrided128:
        addr = base + lane * 128;
        break;
      case Pattern::kReversed:
        addr = base + (kWarpSize - 1 - lane) * width;
        break;
      case Pattern::kBroadcast:
        break;
      case Pattern::kDuplicate:
        addr = base + lane / 2 * width;
        break;
      case Pattern::kRandom:
        addr = base + 4 * gen.size_in(0, 4 * scale);
        break;
    }
    a.set_lane(l, addr);
  }
  return c;
}

TEST(CoalescerTest, BufferOverloadMatchesReference) {
  prop::Config config;
  config.seed = 0xc0a1e5ce;
  config.iterations = 4000;
  config.max_scale = 512;
  prop::check(
      "sectors_for == per-piece reference", config, make_coalescer_case,
      [](const CoalescerCase& c) {
        const Coalescer coalescer(c.sector_bytes);
        const std::vector<GlobalAddr> expected =
            reference_sectors(c.access, c.sector_bytes);
        std::array<GlobalAddr, Coalescer::kMaxSectors> out;
        const int count = coalescer.sectors_for(c.access, out.data());
        return std::vector<GlobalAddr>(out.begin(), out.begin() + count) ==
                   expected &&
               coalescer.sectors_for(c.access) == expected &&
               coalescer.ideal_sectors_for(c.access) ==
                   reference_ideal(c.access, c.sector_bytes);
      });
}

}  // namespace
}  // namespace ksum::gpusim
