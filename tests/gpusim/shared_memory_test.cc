#include "gpusim/shared_memory.h"

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <string>

#include "common/error.h"
#include "common/prop.h"

namespace ksum::gpusim {
namespace {

SharedWarpAccess all_lanes(std::uint32_t (*addr_of)(int lane)) {
  SharedWarpAccess a;
  for (int l = 0; l < 32; ++l) a.set_lane(l, addr_of(l));
  return a;
}

TEST(SharedMemoryTest, ConsecutiveWordsAreOneTransaction) {
  const auto a = all_lanes([](int l) { return std::uint32_t(l * 4); });
  EXPECT_EQ(SharedMemory::transactions_for(a), 1);
}

TEST(SharedMemoryTest, BroadcastSameWordIsOneTransaction) {
  const auto a = all_lanes([](int) { return std::uint32_t(64); });
  EXPECT_EQ(SharedMemory::transactions_for(a), 1);
}

TEST(SharedMemoryTest, PartialBroadcastWithinRowIsOneTransaction) {
  // Half the lanes read word 0, half read word 5 — same 128-byte row.
  const auto a =
      all_lanes([](int l) { return std::uint32_t(l < 16 ? 0 : 20); });
  EXPECT_EQ(SharedMemory::transactions_for(a), 1);
}

TEST(SharedMemoryTest, SameBankDifferentRowsConflict) {
  // All lanes hit bank 0 in distinct rows: 32 transactions (the paper's
  // row-select rule: replay per distinct 128-byte row).
  const auto a = all_lanes([](int l) { return std::uint32_t(l * 128); });
  EXPECT_EQ(SharedMemory::transactions_for(a), 32);
}

TEST(SharedMemoryTest, StrideTwoWordsSpansTwoRows) {
  // Words 0,2,4,...,62: rows 0 and 1 → 2 transactions.
  const auto a = all_lanes([](int l) { return std::uint32_t(l * 8); });
  EXPECT_EQ(SharedMemory::transactions_for(a), 2);
}

TEST(SharedMemoryTest, InactiveLanesDoNotCount) {
  SharedWarpAccess a;
  a.active_mask = 0x1;
  a.set_lane(0, 0);
  // Lane 5 has a wild address but is inactive.
  a.set_lane(5, 12800);
  EXPECT_EQ(SharedMemory::transactions_for(a), 1);
  SharedWarpAccess none;
  none.active_mask = 0;
  EXPECT_EQ(SharedMemory::transactions_for(none), 0);
}

TEST(SharedMemoryTest, IdealTransactionsByWidth) {
  SharedWarpAccess scalar;
  EXPECT_EQ(SharedMemory::ideal_transactions_for(scalar), 1);
  SharedWarpAccess vec4;
  vec4.width_bytes = 16;
  EXPECT_EQ(SharedMemory::ideal_transactions_for(vec4), 4);
}

TEST(SharedMemoryTest, LoadStoreRoundTrip) {
  Counters counters;
  SharedMemory smem(4096, &counters);
  SharedWarpAccess a = all_lanes([](int l) { return std::uint32_t(l * 4); });
  std::array<float, 32> values{};
  for (int l = 0; l < 32; ++l) values[std::size_t(l)] = float(l) * 1.5f;
  smem.store_warp(a, values);
  const auto loaded = smem.load_warp(a);
  for (int l = 0; l < 32; ++l) {
    EXPECT_EQ(loaded[std::size_t(l)], float(l) * 1.5f);
  }
  EXPECT_EQ(counters.smem_store_requests, 1u);
  EXPECT_EQ(counters.smem_load_requests, 1u);
  EXPECT_EQ(counters.smem_store_transactions, 1u);
  EXPECT_EQ(counters.smem_load_transactions, 1u);
  EXPECT_EQ(counters.smem_bank_conflicts, 0u);
}

TEST(SharedMemoryTest, ConflictsCountedAsExcessTransactions) {
  Counters counters;
  SharedMemory smem(128 * 32 * 4, &counters);
  // 4 distinct rows, same bank per group.
  const auto a = all_lanes([](int l) { return std::uint32_t((l % 4) * 128); });
  smem.load_warp(a);
  EXPECT_EQ(counters.smem_load_transactions, 4u);
  EXPECT_EQ(counters.smem_bank_conflicts, 3u);
}

TEST(SharedMemoryTest, OutOfBoundsAccessIsCaught) {
  Counters counters;
  SharedMemory smem(256, &counters);
  const auto a = all_lanes([](int l) { return std::uint32_t(l * 4 + 192); });
  EXPECT_THROW(smem.load_warp(a), InternalError);
}

TEST(SharedMemoryTest, MisalignedAccessIsCaught) {
  Counters counters;
  SharedMemory smem(256, &counters);
  SharedWarpAccess a;
  a.active_mask = 1;
  a.set_lane(0, 2);
  EXPECT_THROW(smem.load_warp(a), InternalError);
}

// The bank model as first written: one std::set insertion per 4-byte piece
// of every active lane. Kept here only, as the reference the allocation-free
// count must match.
int reference_transactions(const SharedWarpAccess& access) {
  std::set<std::uint32_t> rows;
  for (int lane = 0; lane < 32; ++lane) {
    if (!access.lane_active(lane)) continue;
    const SharedAddr base = access.addr[std::size_t(lane)];
    for (int piece = 0; piece < access.width_bytes; piece += 4) {
      rows.insert((base + std::uint32_t(piece)) / 128);
    }
  }
  return int(rows.size());
}

TEST(SharedMemoryTest, TransactionsMatchSetReference) {
  // 16 iterations × 1024 accesses: every mask kind × width × address
  // pattern, many times over.
  prop::Config config;
  config.seed = 24;
  config.iterations = 16;
  config.max_scale = 1024;
  const std::vector<std::uint32_t> single_lanes = {1u, 1u << 7, 1u << 31};
  const std::vector<int> widths = {4, 8, 16};
  prop::check(
      "smem-transactions-exact", config,
      [&](prop::Gen& gen, std::size_t scale) {
        std::vector<SharedWarpAccess> accesses(scale);
        for (SharedWarpAccess& a : accesses) {
          switch (gen.int_in(0, 3)) {
            case 0: a.active_mask = 0; break;
            case 1: a.active_mask = gen.pick(single_lanes); break;
            case 2: a.active_mask = 0xffffffffu; break;
            default: a.active_mask = std::uint32_t(gen.next_u64()); break;
          }
          // Mostly the float/float2/float4 widths; sometimes any width up
          // to 16, where a partial piece rounds like the reference's.
          a.width_bytes =
              gen.int_in(0, 3) == 0 ? gen.int_in(0, 16) : gen.pick(widths);
          // One address pattern per access; "mixed" draws one per lane.
          const int pattern = gen.int_in(0, 6);
          const std::uint32_t row = std::uint32_t(gen.int_in(0, 1 << 12));
          const std::uint32_t window = std::uint32_t(gen.int_in(62, 66));
          for (int l = 0; l < 32; ++l) {
            const int p = pattern == 6 ? gen.int_in(0, 5) : pattern;
            std::uint32_t addr = 0;
            switch (p) {
              case 0:  // one row, any word
                addr = row * 128 + std::uint32_t(gen.int_in(0, 31)) * 4;
                break;
              case 1:  // broadcast
                addr = row * 128;
                break;
              case 2:  // two rows
                addr = (row + std::uint32_t(l % 2)) * 128 +
                       std::uint32_t(l) * 4;
                break;
              case 3:  // 32 rows, one bank
                addr = (row + std::uint32_t(l)) * 128;
                break;
              case 4:  // rows spread over a window around 64 rows wide
                addr = (row + std::uint32_t(gen.int_in(0, int(window)))) *
                       128;
                break;
              default:  // uniform random word, including huge addresses
                addr = std::uint32_t(gen.next_u64()) & ~3u;
                break;
            }
            a.set_lane(l, addr);
          }
        }
        return accesses;
      },
      [](const std::vector<SharedWarpAccess>& accesses) {
        for (const SharedWarpAccess& a : accesses) {
          if (SharedMemory::transactions_for(a) != reference_transactions(a)) {
            return false;
          }
        }
        return true;
      });

  // The stack buffer holds four pieces per lane; wider accesses are refused.
  SharedWarpAccess wide;
  wide.width_bytes = 20;
  EXPECT_THROW(SharedMemory::transactions_for(wide), Error);
}

TEST(SharedMemoryTest, CheckAccessNamesFirstBadLane) {
  Counters counters;
  SharedMemory smem(256, &counters);
  const auto message_of = [&](const SharedWarpAccess& a) -> std::string {
    try {
      smem.load_warp(a);
    } catch (const InternalError& e) {
      return e.what();
    }
    return "";
  };
  SharedWarpAccess a = all_lanes([](int l) { return std::uint32_t(l * 4); });
  // Lane 3 out of the allocation, lane 5 misaligned: lane 3 is reported.
  a.set_lane(3, 4096);
  a.set_lane(5, 22);
  const std::string oob = message_of(a);
  EXPECT_NE(oob.find("out of the CTA allocation"), std::string::npos) << oob;
  // Swapped: lane 3 misaligned, lane 5 out of the allocation.
  a.set_lane(3, 22);
  a.set_lane(5, 4096);
  const std::string misaligned = message_of(a);
  EXPECT_NE(misaligned.find("4-byte aligned"), std::string::npos)
      << misaligned;
  // Inactive lanes may hold anything.
  SharedWarpAccess quiet =
      all_lanes([](int l) { return std::uint32_t(l * 4); });
  quiet.active_mask = ~((1u << 3) | (1u << 5) | (1u << 31));
  quiet.set_lane(3, 4097);
  quiet.set_lane(5, 0xfffffffcu);
  quiet.set_lane(31, 0xffffffffu);
  EXPECT_NO_THROW(smem.load_warp(quiet));
  // A word whose end wraps the 32-bit offset space is still out of bounds.
  SharedWarpAccess wrap;
  wrap.active_mask = 1;
  wrap.set_lane(0, 0xfffffffcu);
  EXPECT_NE(message_of(wrap).find("out of the CTA allocation"),
            std::string::npos);
}

TEST(SharedMemoryTest, PoisonFillsNaN) {
  Counters counters;
  SharedMemory smem(64, &counters);
  smem.poison();
  EXPECT_TRUE(std::isnan(smem.peek(0)));
  EXPECT_TRUE(std::isnan(smem.peek(60)));
}

TEST(SharedMemoryTest, SizeRoundsUpToWords) {
  Counters counters;
  SharedMemory smem(10, &counters);
  EXPECT_GE(smem.size_bytes(), 10u);
  EXPECT_EQ(smem.size_bytes() % 4, 0u);
}

}  // namespace
}  // namespace ksum::gpusim
