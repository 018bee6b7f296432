// Device configuration for the simulated GPGPU.
//
// The default factory reproduces Table I of the paper (NVIDIA GTX970,
// Maxwell, compute capability 5.2) plus the public die/board figures the
// table omits but the timing model needs (clock, lane counts, bandwidths).
#pragma once

#include <cstddef>

namespace ksum::config {

struct DeviceSpec {
  // --- Table I of the paper -------------------------------------------------
  int num_sms = 13;
  int max_threads_per_block = 1024;
  int warp_size = 32;
  int max_threads_per_sm = 2048;
  int registers_per_sm = 64 * 1024;        // 32-bit registers
  int max_registers_per_thread = 255;
  std::size_t smem_per_sm_bytes = 96 * 1024;
  int smem_bank_width_bytes = 4;
  int smem_num_banks = 32;
  int num_warp_schedulers = 4;
  std::size_t l2_bytes = 1792 * 1024;      // 1.75 MB

  // --- Derived / public GTX970 figures used by the models -------------------
  int max_blocks_per_sm = 32;              // CC 5.2 hardware CTA slots
  std::size_t smem_per_block_limit = 48 * 1024;  // CUDA per-block default cap
  int l2_line_bytes = 128;
  int l2_sector_bytes = 32;                // Maxwell L2 is sectored
  int l2_ways = 16;
  int dram_transaction_bytes = 32;         // GDDR5 access granularity
  // Maxwell's unified L1/texture cache does not cache global loads unless
  // the program is compiled with -Xptxas -dlcm=ca (§II-C of the paper);
  // this flag models that compiler option.
  bool cache_globals_in_l1 = false;
  std::size_t l1_bytes = 24 * 1024;        // unified L1/tex per SM
  int l1_ways = 8;
  double core_clock_ghz = 1.05;            // base clock
  int fma_lanes_per_sm = 128;              // CUDA cores per Maxwell SM
  double dram_bandwidth_gb_s = 196.0;      // achievable (224 GB/s spec)
  double l2_bandwidth_bytes_per_cycle = 512.0;
  // Per-device arena: the largest simulated device a request may build
  // (pipelines/admission.h) and what --shards=auto fits each shard into
  // (conservative: well under the board's 4 GB so an admitted device
  // always allocates; bigger boards raise it through their profile).
  std::size_t shard_arena_bytes = std::size_t{512} << 20;

  /// Peak single-precision FLOP/s: lanes × 2 (FMA) × clock × SMs.
  double peak_sp_flops() const;

  /// Total FMA issue slots per cycle across the device.
  double fma_slots_per_cycle() const;

  /// DRAM bytes deliverable per core cycle (device total).
  double dram_bytes_per_cycle() const;

  /// Shared memory bytes per cycle per SM (all banks busy).
  double smem_bytes_per_cycle_per_sm() const;

  /// Validates internal consistency; throws ksum::Error on nonsense.
  void validate() const;

  /// The configuration of the paper's test machine (Table I).
  static DeviceSpec gtx970();
};

}  // namespace ksum::config
