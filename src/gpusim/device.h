// The simulated device and the tile-program execution interface.
//
// Kernels are "tile programs": a functor invoked once per CTA with a
// BlockContext that exposes exactly the operations a CUDA kernel has —
// warp-wide global loads/stores (through the coalescer and L2), warp-wide
// shared memory accesses (through the bank model), barriers, atomics, and
// per-lane arithmetic counting. Functional execution is sequential
// (CTA-by-CTA, warp-by-warp), which is semantically equivalent for the
// barrier-synchronised programs in gpukernels/; concurrency only affects
// *timing*, which is modelled separately in timing.h from the counted events.
#pragma once

#include <atomic>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "config/device_spec.h"
#include "gpusim/access_observer.h"
#include "gpusim/cache.h"
#include "gpusim/coalescer.h"
#include "gpusim/counters.h"
#include "gpusim/fault_injection.h"
#include "gpusim/global_memory.h"
#include "gpusim/occupancy.h"
#include "gpusim/shared_memory.h"

namespace ksum::gpusim {

struct GridDim {
  int x = 1;
  int y = 1;
  std::size_t count() const {
    return static_cast<std::size_t>(x) * static_cast<std::size_t>(y);
  }
};

struct BlockDim {
  int x = 16;
  int y = 16;
  int count() const { return x * y; }
};

class Device;

/// Per-CTA execution context handed to tile programs.
class BlockContext {
 public:
  BlockContext(Device& device, GridDim grid, BlockDim block, int bx, int by,
               int sm_index, SharedMemory& smem, Counters& counters);

  int bx() const { return bx_; }
  int by() const { return by_; }
  GridDim grid() const { return grid_; }
  BlockDim block_dim() const { return block_; }

  SharedMemory& smem() { return smem_; }

  // --- Global memory (coalesced, through L2) -------------------------------
  std::array<float, kWarpSize> global_load(const GlobalWarpAccess& access);
  void global_store(const GlobalWarpAccess& access,
                    const std::array<float, kWarpSize>& values);

  /// 16-byte (float4) per-lane load: one warp instruction, one request,
  /// sectors deduplicated across the 4 words of each lane. `access.addr`
  /// must be 16-byte aligned and `width_bytes` must be 16.
  std::array<std::array<float, 4>, kWarpSize> global_load_vec4(
      const GlobalWarpAccess& access);

  /// 16-byte (float4) per-lane store.
  void global_store_vec4(
      const GlobalWarpAccess& access,
      const std::array<std::array<float, 4>, kWarpSize>& values);

  /// Warp-wide atomicAdd on float words. Performed at the L2 (Maxwell
  /// semantics); lanes apply in lane order, and lanes hitting the same
  /// address serialise (both functionally and in the counted transactions).
  void global_atomic_add(const GlobalWarpAccess& access,
                         const std::array<float, kWarpSize>& values);

  // --- Intra-CTA control ----------------------------------------------------
  /// __syncthreads(). Functionally a no-op under sequential execution but
  /// counted, used by tests to validate the barrier structure, and the
  /// epoch boundary the race detector keys shadow memory on.
  void barrier();

  /// Barrier epoch of this CTA: 0 until the first barrier(), then +1 per
  /// barrier. The race detector treats two accesses to the same word as
  /// ordered iff their epochs differ.
  int barrier_epoch() const { return barrier_epoch_; }

  /// Phase marker: declares that subsequent events belong to kernel phase
  /// `name` ("prologue", "mainloop", "epilogue", "reduction") until the next
  /// marker. Pure observation — it counts nothing and is a no-op without an
  /// attached observer, so marked and unmarked runs are bit-identical.
  /// `name` must have static storage duration.
  void phase(const char* name);

  // --- Arithmetic accounting (per active lane) ------------------------------
  void count_fma(std::uint64_t lane_ops);
  void count_alu(std::uint64_t lane_ops);
  void count_sfu(std::uint64_t lane_ops);
  /// Additional warp instructions not covered by the memory/compute helpers
  /// (address arithmetic, predicate setup) — kernels call this with small
  /// constants so MPKI has a realistic denominator.
  void count_warp_instructions(std::uint64_t n);

  /// Conflict-free shared-memory traffic attributed by black-box kernel
  /// models (the cuBLAS stand-in) whose smem behaviour is not simulated
  /// access by access.
  void count_smem_transactions(std::uint64_t loads, std::uint64_t stores);

  /// Offers `value` to the device's fault injector as one opportunity of
  /// `site` (identity when no injector is attached). Kernels route loaded
  /// operands through this to model datapath corruption — see
  /// gpukernels/tile_loader.cc for the kTileLoad channel.
  float filter_fault(FaultSite site, float value);

 private:
  /// Coalesces a global request, sends each of its sectors through the
  /// memory hierarchy as `kind` traffic, then reports the request with its
  /// achieved and ideal sector counts to the observer, if one is attached.
  void service_global(const GlobalWarpAccess& access, AccessKind kind);

  Device& device_;
  GridDim grid_;
  BlockDim block_;
  int bx_;
  int by_;
  int sm_index_;  // which SM hosts this CTA (routes L1 accesses)
  SharedMemory& smem_;
  Counters& counters_;
  int barrier_epoch_ = 0;
};

using TileProgram = std::function<void(BlockContext&)>;

struct LaunchResult {
  std::string kernel_name;
  GridDim grid;
  BlockDim block;
  LaunchConfig config;
  Occupancy occupancy;
  Counters counters;  // events of this launch only
};

class Device {
 public:
  explicit Device(config::DeviceSpec spec,
                  std::size_t memory_capacity_bytes = std::size_t{512} << 20);

  const config::DeviceSpec& spec() const { return spec_; }
  GlobalMemory& memory() { return memory_; }
  SectoredCache& l2() { return l2_; }

  /// Cumulative counters across all launches.
  const Counters& counters() const { return counters_; }
  void reset_counters() { counters_ = Counters{}; }

  /// Snapshot of the launch currently in flight (zeroed at every launch
  /// boundary). Profilers read this between phase markers; outside a launch
  /// it holds the counts of the last launch/flush.
  const Counters& in_flight_counters() const { return launch_counters_; }

  /// Attaches (or detaches, with nullptr) a fault injector. The memory and
  /// atomic datapaths consult it for every stored word and atomic request;
  /// injected faults tick the `faults_*` counters. The injector must
  /// outlive the device or be detached first.
  void set_fault_injector(FaultInjector* injector) { injector_ = injector; }
  FaultInjector* fault_injector() const { return injector_; }

  /// Attaches (or detaches, with nullptr) the analysis observer. Every
  /// launch then reports its structure and every serviced memory request —
  /// see access_observer.h. The observer must outlive the device or be
  /// detached first; it never changes functional results or counters.
  ///
  /// Thread-safety contract (docs/PARALLELISM.md): a Device is single-
  /// threaded — the batch engine gives every worker its own. Attaching an
  /// observer while a launch is in flight on another thread throws
  /// ksum::Error immediately, and Device::launch throws at the launch
  /// boundary if the attached observer changed mid-launch (even from the
  /// launching thread), so a torn observation stream can never pass
  /// silently.
  void set_access_observer(AccessObserver* observer);
  AccessObserver* access_observer() const { return observer_; }

  /// Runs `program` for every CTA of `grid`. Validates `config` against the
  /// device limits (throws ksum::Error if the kernel cannot launch) and
  /// returns the per-launch event counts and occupancy.
  LaunchResult launch(const std::string& name, GridDim grid, BlockDim block,
                      const LaunchConfig& config, const TileProgram& program);

  /// Writes every dirty L2 sector back to DRAM and returns the write
  /// transactions it generated (folded into the cumulative counters).
  /// Pipelines call this once at the end so streaming intermediates are
  /// charged their final writeback, like a real measurement window would.
  Counters flush_l2();

  /// Returns the device to its just-constructed state without reallocating
  /// the arena: counters zeroed, caches dropped (no writeback traffic),
  /// allocator rewound, injector/observer detached. This is the warm-device
  /// path the serving layer uses to reuse one per-worker Device across
  /// requests (docs/SERVING.md) — a reset+rerun is bit-identical to a run
  /// on a freshly constructed Device. Throws ksum::Error if a launch is in
  /// flight.
  void reset();

 private:
  friend class BlockContext;

  /// Routes a sector read through the (optional) per-SM L1 and the L2,
  /// counting DRAM reads on L2 misses.
  void read_global_sector(GlobalAddr sector, int sm_index);
  /// Stores bypass the L1 (Maxwell global-store semantics) and land in L2.
  void write_global_sector(GlobalAddr sector);

  config::DeviceSpec spec_;
  GlobalMemory memory_;
  Counters counters_;         // cumulative across launches
  Counters launch_counters_;  // events of the launch in flight (the caches
                              // count here too; folded into counters_ at
                              // the end of each launch)
  SectoredCache l2_;
  std::vector<SectoredCache> l1s_;  // per SM, when cache_globals_in_l1
  Coalescer coalescer_;
  FaultInjector* injector_ = nullptr;   // optional, not owned
  AccessObserver* observer_ = nullptr;  // optional, not owned

  // Guard state for the observer attach contract: the launching thread is
  // recorded before launch_in_flight_ is published (release) so a foreign
  // set_access_observer (acquire) reads a consistent pair.
  std::atomic<bool> launch_in_flight_{false};
  std::thread::id launch_thread_;
};

}  // namespace ksum::gpusim
