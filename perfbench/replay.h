// gpusim component replay: re-runs the memory streams of captured CTAs
// (trace.h) through the simulator's components on their own, to price each
// component in host nanoseconds per event.
//
//   shared requests → SharedMemory::transactions_for
//   global requests → Coalescer::sectors_for
//   their sectors   → SectoredCache::read_sector / write_sector (a cold L2
//                     of the device's geometry, built fresh per pass)
//
// Before any timing is trusted, the replayed totals must equal what the
// device counted for the same CTAs: transactions for the simulated shared
// requests, L2 read and write sectors for the global ones.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "config/device_spec.h"
#include "trace.h"

namespace perfbench {

struct ReplayResult {
  /// Median over passes of host nanoseconds per event.
  double smem_ns_per_request = 0;
  double coalescer_ns_per_request = 0;
  double l2_ns_per_sector = 0;
  /// Events per pass.
  std::uint64_t smem_requests = 0;
  std::uint64_t global_requests = 0;
  std::uint64_t l2_sectors = 0;
  /// Empty when every replayed total equals the captured counters.
  std::string mismatch;
};

/// Replays every captured CTA, repeating each component's pass until it has
/// run for at least `min_seconds`.
ReplayResult replay_ctas(const std::vector<CapturedCta>& ctas,
                         const config::DeviceSpec& spec, double min_seconds);

}  // namespace perfbench
