#include "gpusim/shared_memory.h"

#include <algorithm>
#include <bit>
#include <limits>
#include <string>

#include "common/error.h"
#include "common/math_util.h"

namespace ksum::gpusim {

namespace {
constexpr std::uint32_t kRowBytes = 128;  // 32 banks × 4 bytes
}

SharedMemory::SharedMemory(std::uint32_t size_bytes, Counters* counters,
                           FaultInjector* injector)
    : data_(ceil_div<std::uint32_t>(size_bytes, 4), 0.0f),
      counters_(counters),
      injector_(injector) {
  KSUM_CHECK(counters_ != nullptr);
}

void SharedMemory::check_access(const SharedWarpAccess& access) const {
  KSUM_REQUIRE(access.width_bytes == 4,
               "shared memory model currently services 4-byte lanes; express "
               "float4 as four accesses (the kernels do)");
  // One pass over the active lanes: every address is aligned iff their OR
  // is, and every address is in bounds iff their maximum is. Only a failing
  // access takes the per-lane walk, which names the first bad lane.
  std::uint32_t any_bits = 0;
  SharedAddr highest = 0;
  for (int lane = 0; lane < kWarpSize; ++lane) {
    const SharedAddr a = access.lane_active(lane)
                             ? access.addr[static_cast<std::size_t>(lane)]
                             : 0;
    any_bits |= a;
    highest = a > highest ? a : highest;
  }
  const std::size_t bytes = data_.size() * sizeof(float);
  if (any_bits % 4 == 0 && std::size_t{highest} + 4 <= bytes) return;
  for (int lane = 0; lane < kWarpSize; ++lane) {
    if (!access.lane_active(lane)) continue;
    const SharedAddr a = access.addr[static_cast<std::size_t>(lane)];
    KSUM_CHECK_MSG(a % 4 == 0, "shared access must be 4-byte aligned");
    KSUM_CHECK_MSG(std::size_t{a} + 4 <= bytes,
                   "shared access out of the CTA allocation");
  }
}

int SharedMemory::transactions_for(const SharedWarpAccess& access) {
  // Distinct 128-byte rows touched by active lanes. Same word → broadcast
  // (no extra cost); same row, different banks → same transaction; different
  // rows → replay. A lane of width w touches the rows of its bytes base,
  // base+4, … below base+w (4-byte pieces).
  KSUM_REQUIRE(access.width_bytes <= kMaxWidthBytes,
               "shared access width " + std::to_string(access.width_bytes) +
                   " exceeds " + std::to_string(kMaxWidthBytes) + " bytes");
  const int pieces = access.width_bytes > 0 ? (access.width_bytes + 3) / 4 : 0;
  if (access.active_mask == 0 || pieces == 0) return 0;
  const auto row_of = [&access](int lane, int piece) -> std::uint32_t {
    return (access.addr[static_cast<std::size_t>(lane)] +
            static_cast<std::uint32_t>(4 * piece)) /
           kRowBytes;
  };

  // Min/max-row pass, branch-free over the lanes. One row is the common
  // (conflict-free) case.
  std::uint32_t lo = std::numeric_limits<std::uint32_t>::max();
  std::uint32_t hi = 0;
  for (int piece = 0; piece < pieces; ++piece) {
    for (int lane = 0; lane < kWarpSize; ++lane) {
      const std::uint32_t row = row_of(lane, piece);
      const bool active = access.lane_active(lane);
      lo = active && row < lo ? row : lo;
      hi = active && row > hi ? row : hi;
    }
  }
  if (lo == hi) return 1;

  // Rows within a 64-row window dedupe into one bitmask.
  if (hi - lo < 64) {
    std::uint64_t seen = 0;
    for (int piece = 0; piece < pieces; ++piece) {
      for (int lane = 0; lane < kWarpSize; ++lane) {
        seen |= std::uint64_t{access.lane_active(lane)}
                << ((row_of(lane, piece) - lo) & 63u);
      }
    }
    return std::popcount(seen);
  }

  // Wider spreads sort the rows in a stack buffer.
  std::array<std::uint32_t, kWarpSize * kMaxWidthBytes / 4> rows;
  std::size_t count = 0;
  for (int lane = 0; lane < kWarpSize; ++lane) {
    if (!access.lane_active(lane)) continue;
    for (int piece = 0; piece < pieces; ++piece) {
      rows[count++] = row_of(lane, piece);
    }
  }
  const auto end = rows.begin() + static_cast<std::ptrdiff_t>(count);
  std::sort(rows.begin(), end);
  return static_cast<int>(std::unique(rows.begin(), end) - rows.begin());
}

int SharedMemory::ideal_transactions_for(const SharedWarpAccess& access) {
  if (access.active_mask == 0) return 0;
  return access.width_bytes / 4 > 0 ? access.width_bytes / 4 : 1;
}

std::array<float, kWarpSize> SharedMemory::load_warp(
    const SharedWarpAccess& access) {
  check_access(access);
  std::array<float, kWarpSize> out{};
  if (access.active_mask == 0) return out;

  const int txns = transactions_for(access);
  const int ideal = ideal_transactions_for(access);
  counters_->smem_load_requests += 1;
  counters_->smem_load_transactions += static_cast<std::uint64_t>(txns);
  counters_->smem_bank_conflicts +=
      static_cast<std::uint64_t>(txns > ideal ? txns - ideal : 0);
  counters_->warp_instructions += 1;
  if (observer_ != nullptr) {
    observer_->on_shared_access({access, AccessKind::kLoad, txns, ideal});
  }

  for (int lane = 0; lane < kWarpSize; ++lane) {
    if (!access.lane_active(lane)) continue;
    out[static_cast<std::size_t>(lane)] =
        data_[access.addr[static_cast<std::size_t>(lane)] / 4];
  }
  return out;
}

void SharedMemory::store_warp(const SharedWarpAccess& access,
                              const std::array<float, kWarpSize>& values) {
  check_access(access);
  if (access.active_mask == 0) return;

  const int txns = transactions_for(access);
  const int ideal = ideal_transactions_for(access);
  counters_->smem_store_requests += 1;
  counters_->smem_store_transactions += static_cast<std::uint64_t>(txns);
  counters_->smem_bank_conflicts +=
      static_cast<std::uint64_t>(txns > ideal ? txns - ideal : 0);
  counters_->warp_instructions += 1;
  if (observer_ != nullptr) {
    observer_->on_shared_access({access, AccessKind::kStore, txns, ideal});
  }

  for (int lane = 0; lane < kWarpSize; ++lane) {
    if (!access.lane_active(lane)) continue;
    float value = values[static_cast<std::size_t>(lane)];
    if (injector_ != nullptr) {
      const float stored =
          injector_->corrupt_word(FaultSite::kSharedMemory, value);
      if (std::bit_cast<std::uint32_t>(stored) !=
          std::bit_cast<std::uint32_t>(value)) {
        counters_->faults_smem_bitflips += 1;
        value = stored;
      }
    }
    // Two active lanes writing the same word is a data race on hardware;
    // catching it here has saved every layout bug so far.
    data_[access.addr[static_cast<std::size_t>(lane)] / 4] = value;
  }
}

void SharedMemory::poison() {
  for (auto& w : data_) w = std::numeric_limits<float>::quiet_NaN();
}

float SharedMemory::peek(SharedAddr byte_offset) const {
  KSUM_CHECK(byte_offset % 4 == 0 &&
             byte_offset + 4 <= data_.size() * sizeof(float));
  return data_[byte_offset / 4];
}

}  // namespace ksum::gpusim
