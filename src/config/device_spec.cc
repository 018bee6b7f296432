#include "config/device_spec.h"

#include "common/error.h"
#include "common/math_util.h"

namespace ksum::config {

double DeviceSpec::peak_sp_flops() const {
  return static_cast<double>(fma_lanes_per_sm) * 2.0 * core_clock_ghz * 1e9 *
         static_cast<double>(num_sms);
}

double DeviceSpec::fma_slots_per_cycle() const {
  return static_cast<double>(fma_lanes_per_sm) *
         static_cast<double>(num_sms);
}

double DeviceSpec::dram_bytes_per_cycle() const {
  return dram_bandwidth_gb_s / core_clock_ghz;
}

double DeviceSpec::smem_bytes_per_cycle_per_sm() const {
  return static_cast<double>(smem_num_banks) *
         static_cast<double>(smem_bank_width_bytes);
}

void DeviceSpec::validate() const {
  KSUM_REQUIRE(num_sms > 0, "device must have at least one SM");
  KSUM_REQUIRE(warp_size > 0 && is_pow2(warp_size), "warp size must be 2^k");
  KSUM_REQUIRE(max_threads_per_block % warp_size == 0,
               "block limit must be warp aligned");
  KSUM_REQUIRE(max_threads_per_sm % warp_size == 0,
               "SM thread limit must be warp aligned");
  KSUM_REQUIRE(smem_num_banks > 0 && is_pow2(smem_num_banks),
               "bank count must be 2^k");
  KSUM_REQUIRE(is_pow2(l2_line_bytes), "L2 line size must be 2^k");
  KSUM_REQUIRE(l2_sector_bytes >= 4 && is_pow2(l2_sector_bytes),
               "L2 sector size must be 2^k, at least 4 bytes");
  KSUM_REQUIRE(l2_line_bytes % l2_sector_bytes == 0,
               "L2 line must be whole sectors");
  KSUM_REQUIRE(l2_bytes % static_cast<std::size_t>(l2_line_bytes) == 0,
               "L2 size must be whole lines");
  KSUM_REQUIRE(l2_ways > 0, "L2 ways must be positive");
  KSUM_REQUIRE((l2_bytes / static_cast<std::size_t>(l2_line_bytes)) %
                       static_cast<std::size_t>(l2_ways) ==
                   0,
               "L2 lines must divide evenly into ways");
  KSUM_REQUIRE(core_clock_ghz > 0.0, "clock must be positive");
  KSUM_REQUIRE(dram_bandwidth_gb_s > 0.0, "bandwidth must be positive");
  KSUM_REQUIRE(shard_arena_bytes > 0, "shard arena must be positive");
  if (cache_globals_in_l1) {
    KSUM_REQUIRE(l1_bytes % static_cast<std::size_t>(l2_line_bytes) == 0,
                 "L1 size must be whole lines");
    KSUM_REQUIRE(l1_ways > 0, "L1 ways must be positive");
    KSUM_REQUIRE((l1_bytes / static_cast<std::size_t>(l2_line_bytes)) %
                         static_cast<std::size_t>(l1_ways) ==
                     0,
                 "L1 lines must divide evenly into ways");
  }
}

DeviceSpec DeviceSpec::gtx970() {
  DeviceSpec spec;  // defaults are the GTX970 numbers
  spec.validate();
  return spec;
}

}  // namespace ksum::config
