#include "config/device_spec.h"

#include <gtest/gtest.h>

#include <string>

#include "common/error.h"

namespace ksum::config {
namespace {

TEST(DeviceSpecTest, Gtx970MatchesPaperTableI) {
  const DeviceSpec spec = DeviceSpec::gtx970();
  EXPECT_EQ(spec.num_sms, 13);
  EXPECT_EQ(spec.max_threads_per_block, 1024);
  EXPECT_EQ(spec.warp_size, 32);
  EXPECT_EQ(spec.max_threads_per_sm, 2048);
  EXPECT_EQ(spec.registers_per_sm, 64 * 1024);
  EXPECT_EQ(spec.max_registers_per_thread, 255);
  EXPECT_EQ(spec.smem_per_sm_bytes, 96u * 1024u);
  EXPECT_EQ(spec.smem_bank_width_bytes, 4);
  EXPECT_EQ(spec.smem_num_banks, 32);
  EXPECT_EQ(spec.num_warp_schedulers, 4);
  EXPECT_EQ(spec.l2_bytes, 1792u * 1024u);  // 1.75 MB
}

TEST(DeviceSpecTest, PeakFlopsIsLanesTimesTwoTimesClock) {
  const DeviceSpec spec = DeviceSpec::gtx970();
  // 13 SMs × 128 lanes × 2 × 1.05 GHz ≈ 3.49 TFLOP/s.
  EXPECT_NEAR(spec.peak_sp_flops(), 3.494e12, 1e10);
}

TEST(DeviceSpecTest, DerivedRates) {
  const DeviceSpec spec = DeviceSpec::gtx970();
  EXPECT_DOUBLE_EQ(spec.fma_slots_per_cycle(), 13.0 * 128.0);
  EXPECT_NEAR(spec.dram_bytes_per_cycle(), 196.0 / 1.05, 1e-9);
  EXPECT_DOUBLE_EQ(spec.smem_bytes_per_cycle_per_sm(), 128.0);
}

TEST(DeviceSpecTest, ValidateRejectsBadConfigs) {
  DeviceSpec spec = DeviceSpec::gtx970();
  spec.num_sms = 0;
  EXPECT_THROW(spec.validate(), Error);

  spec = DeviceSpec::gtx970();
  spec.warp_size = 33;
  EXPECT_THROW(spec.validate(), Error);

  spec = DeviceSpec::gtx970();
  spec.max_threads_per_block = 1000;  // not warp aligned
  EXPECT_THROW(spec.validate(), Error);

  spec = DeviceSpec::gtx970();
  spec.l2_line_bytes = 100;  // not whole sectors
  EXPECT_THROW(spec.validate(), Error);

  spec = DeviceSpec::gtx970();
  spec.core_clock_ghz = 0.0;
  EXPECT_THROW(spec.validate(), Error);
}

// The cache model and the coalescer shift and mask by the line and sector
// sizes, so both must be powers of two (every checked-in profile is
// 128/32).
TEST(DeviceSpecTest, ValidateRefusesNonPowerOfTwoLinesAndSectors) {
  const auto message_of = [](const DeviceSpec& spec) -> std::string {
    try {
      spec.validate();
    } catch (const Error& e) {
      return e.what();
    }
    return "";
  };
  DeviceSpec spec = DeviceSpec::gtx970();
  spec.l2_line_bytes = 96;  // three whole 32-byte sectors
  spec.l2_bytes = std::size_t{96} * 16 * 1024;
  EXPECT_NE(message_of(spec).find("L2 line size must be 2^k"),
            std::string::npos);

  spec = DeviceSpec::gtx970();
  spec.l2_sector_bytes = 48;
  EXPECT_NE(message_of(spec).find("L2 sector size must be 2^k"),
            std::string::npos);

  spec = DeviceSpec::gtx970();
  spec.l2_sector_bytes = 2;  // 2^k but narrower than a word
  EXPECT_NE(message_of(spec).find("L2 sector size must be 2^k"),
            std::string::npos);

  spec = DeviceSpec::gtx970();
  spec.l2_sector_bytes = 64;
  EXPECT_NO_THROW(spec.validate());
}

// Zero ways are refused before lines are divided among them.
TEST(DeviceSpecTest, ValidateRefusesZeroWays) {
  DeviceSpec spec = DeviceSpec::gtx970();
  spec.l2_ways = 0;
  EXPECT_THROW(spec.validate(), Error);

  spec = DeviceSpec::gtx970();
  spec.cache_globals_in_l1 = true;
  spec.l1_ways = 0;
  EXPECT_THROW(spec.validate(), Error);
}

}  // namespace
}  // namespace ksum::config
