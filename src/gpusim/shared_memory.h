// Shared-memory model: storage plus the Maxwell bank-conflict rules.
//
// The paper's §II-C model: 32 banks × 4 bytes, one row select shared by all
// banks, so a single transaction services lanes that fall in the same
// 128-byte row (with broadcast when lanes read the same word). A warp access
// therefore costs one transaction per *distinct 128-byte row* it touches;
// replays beyond the minimum possible for the access width are bank
// conflicts. A 4-byte access can always be serviced in 1 transaction when
// conflict-free; a 16-byte (float4) access needs at least 4.
#pragma once

#include <cstdint>
#include <vector>

#include "gpusim/access_observer.h"
#include "gpusim/address.h"
#include "gpusim/counters.h"
#include "gpusim/fault_injection.h"

namespace ksum::gpusim {

class SharedMemory {
 public:
  /// `size_bytes` is the CTA's static allocation; contents zero-initialised
  /// (matching CUDA's undefined-but-we-want-determinism; kernels must not
  /// rely on it and tests poison it). When `injector` is non-null every
  /// stored word is an injection opportunity for the kSharedMemory site.
  SharedMemory(std::uint32_t size_bytes, Counters* counters,
               FaultInjector* injector = nullptr);

  std::uint32_t size_bytes() const {
    return static_cast<std::uint32_t>(data_.size() * sizeof(float));
  }

  /// Warp-wide 4-byte loads. Returns per-lane values (inactive lanes get 0).
  std::array<float, kWarpSize> load_warp(const SharedWarpAccess& access);

  /// Warp-wide 4-byte stores.
  void store_warp(const SharedWarpAccess& access,
                  const std::array<float, kWarpSize>& values);

  /// Widest per-lane access transactions_for prices (a float4).
  static constexpr int kMaxWidthBytes = 16;

  /// Counts the transactions a warp access costs under the row-select model
  /// (also used standalone by unit tests and the analytic layer). Exact and
  /// allocation-free; a width above kMaxWidthBytes throws ksum::Error.
  static int transactions_for(const SharedWarpAccess& access);

  /// Minimum transactions possible for the access width (1 for 4-byte,
  /// width/4 for wider vector accesses, assuming any lane is active).
  static int ideal_transactions_for(const SharedWarpAccess& access);

  /// Overwrites every word with a NaN-ish poison pattern; tests use this to
  /// prove kernels never read uninitialised shared memory.
  void poison();

  float peek(SharedAddr byte_offset) const;

  /// Attaches the analysis observer; events fire after the request has been
  /// serviced and counted. Null detaches.
  void set_observer(AccessObserver* observer) { observer_ = observer; }

 private:
  void check_access(const SharedWarpAccess& access) const;

  std::vector<float> data_;
  Counters* counters_;
  FaultInjector* injector_;
  AccessObserver* observer_ = nullptr;
};

}  // namespace ksum::gpusim
