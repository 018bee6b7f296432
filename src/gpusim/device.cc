#include "gpusim/device.h"

#include <bit>

#include "common/error.h"

namespace ksum::gpusim {

BlockContext::BlockContext(Device& device, GridDim grid, BlockDim block,
                           int bx, int by, int sm_index, SharedMemory& smem,
                           Counters& counters)
    : device_(device),
      grid_(grid),
      block_(block),
      bx_(bx),
      by_(by),
      sm_index_(sm_index),
      smem_(smem),
      counters_(counters) {}

void BlockContext::service_global(const GlobalWarpAccess& access,
                                  AccessKind kind) {
  // Only the first `count` slots are written and read.
  std::array<GlobalAddr, Coalescer::kMaxSectors> sectors;
  const int count = device_.coalescer_.sectors_for(access, sectors.data());
  for (int i = 0; i < count; ++i) {
    const GlobalAddr sector = sectors[static_cast<std::size_t>(i)];
    switch (kind) {
      case AccessKind::kLoad:
        device_.read_global_sector(sector, sm_index_);
        break;
      case AccessKind::kStore:
        device_.write_global_sector(sector);
        break;
      case AccessKind::kAtomicAdd:
        // Atomics resolve at the L2 and bypass the (incoherent) L1.
        if (!device_.l2_.read_sector(sector)) {
          counters_.dram_read_transactions += 1;
        }
        device_.l2_.write_sector(sector);
        break;
    }
  }
  AccessObserver* observer = device_.observer_;
  if (observer == nullptr) return;
  const int ideal = device_.coalescer_.ideal_sectors_for(access);
  observer->on_global_access({access, kind, count, ideal});
}

std::array<float, kWarpSize> BlockContext::global_load(
    const GlobalWarpAccess& access) {
  counters_.global_load_requests += 1;
  counters_.warp_instructions += 1;
  service_global(access, AccessKind::kLoad);
  std::array<float, kWarpSize> out{};
  for (int lane = 0; lane < kWarpSize; ++lane) {
    if (!access.lane_active(lane)) continue;
    out[static_cast<std::size_t>(lane)] =
        device_.memory_.load_f32(access.addr[static_cast<std::size_t>(lane)]);
  }
  return out;
}

std::array<std::array<float, 4>, kWarpSize> BlockContext::global_load_vec4(
    const GlobalWarpAccess& access) {
  KSUM_REQUIRE(access.width_bytes == 16, "vec4 load needs width_bytes == 16");
  counters_.global_load_requests += 1;
  counters_.warp_instructions += 1;
  service_global(access, AccessKind::kLoad);
  std::array<std::array<float, 4>, kWarpSize> out{};
  for (int lane = 0; lane < kWarpSize; ++lane) {
    if (!access.lane_active(lane)) continue;
    const GlobalAddr base = access.addr[static_cast<std::size_t>(lane)];
    KSUM_CHECK_MSG(base % 16 == 0, "float4 load must be 16-byte aligned");
    for (int w = 0; w < 4; ++w) {
      out[static_cast<std::size_t>(lane)][static_cast<std::size_t>(w)] =
          device_.memory_.load_f32(base + static_cast<GlobalAddr>(w) * 4);
    }
  }
  return out;
}

void BlockContext::global_store_vec4(
    const GlobalWarpAccess& access,
    const std::array<std::array<float, 4>, kWarpSize>& values) {
  KSUM_REQUIRE(access.width_bytes == 16, "vec4 store needs width_bytes == 16");
  counters_.global_store_requests += 1;
  counters_.warp_instructions += 1;
  service_global(access, AccessKind::kStore);
  for (int lane = 0; lane < kWarpSize; ++lane) {
    if (!access.lane_active(lane)) continue;
    const GlobalAddr base = access.addr[static_cast<std::size_t>(lane)];
    KSUM_CHECK_MSG(base % 16 == 0, "float4 store must be 16-byte aligned");
    for (int w = 0; w < 4; ++w) {
      device_.memory_.store_f32(
          base + static_cast<GlobalAddr>(w) * 4,
          filter_fault(FaultSite::kGlobalMemory,
                       values[static_cast<std::size_t>(lane)]
                             [static_cast<std::size_t>(w)]));
    }
  }
}

void BlockContext::global_store(const GlobalWarpAccess& access,
                                const std::array<float, kWarpSize>& values) {
  counters_.global_store_requests += 1;
  counters_.warp_instructions += 1;
  service_global(access, AccessKind::kStore);
  for (int lane = 0; lane < kWarpSize; ++lane) {
    if (!access.lane_active(lane)) continue;
    device_.memory_.store_f32(
        access.addr[static_cast<std::size_t>(lane)],
        filter_fault(FaultSite::kGlobalMemory,
                     values[static_cast<std::size_t>(lane)]));
  }
}

void BlockContext::global_atomic_add(
    const GlobalWarpAccess& access,
    const std::array<float, kWarpSize>& values) {
  counters_.atomic_requests += 1;
  counters_.warp_instructions += 1;
  // Atomics resolve in the L2: each distinct sector is read-modify-written
  // once per warp request; lane-level serialisation on the same word is a
  // timing effect, not an extra transaction.
  service_global(access, AccessKind::kAtomicAdd);
  // One injection opportunity per warp request: the whole request is lost
  // or applied twice, modelling a dropped/replayed L2 atomic operation. The
  // request's traffic was already counted — the fault is functional only.
  AtomicFate fate = AtomicFate::kApply;
  if (device_.injector_ != nullptr) {
    fate = device_.injector_->atomic_fate();
    if (fate == AtomicFate::kDrop) {
      counters_.faults_atomics_dropped += 1;
    } else if (fate == AtomicFate::kDouble) {
      counters_.faults_atomics_doubled += 1;
    }
  }
  if (fate == AtomicFate::kDrop) return;
  const int applications = fate == AtomicFate::kDouble ? 2 : 1;
  for (int rep = 0; rep < applications; ++rep) {
    for (int lane = 0; lane < kWarpSize; ++lane) {
      if (!access.lane_active(lane)) continue;
      const GlobalAddr addr = access.addr[static_cast<std::size_t>(lane)];
      device_.memory_.store_f32(
          addr, device_.memory_.load_f32(addr) +
                    values[static_cast<std::size_t>(lane)]);
    }
  }
}

float BlockContext::filter_fault(FaultSite site, float value) {
  FaultInjector* injector = device_.injector_;
  if (injector == nullptr) return value;
  const float out = injector->corrupt_word(site, value);
  if (std::bit_cast<std::uint32_t>(out) !=
      std::bit_cast<std::uint32_t>(value)) {
    switch (site) {
      case FaultSite::kSharedMemory:
        counters_.faults_smem_bitflips += 1;
        break;
      case FaultSite::kGlobalMemory:
        counters_.faults_global_bitflips += 1;
        break;
      case FaultSite::kTileLoad:
        counters_.faults_tile_corruptions += 1;
        break;
      default:
        break;
    }
  }
  return out;
}

void BlockContext::phase(const char* name) {
  AccessObserver* observer = device_.observer_;
  if (observer == nullptr) return;
  observer->on_phase({name, counters_});
}

void BlockContext::barrier() {
  counters_.barriers += 1;
  counters_.warp_instructions +=
      static_cast<std::uint64_t>(block_.count() / kWarpSize);
  ++barrier_epoch_;
  if (device_.observer_ != nullptr) {
    device_.observer_->on_barrier(barrier_epoch_);
  }
}

void BlockContext::count_fma(std::uint64_t lane_ops) {
  counters_.fma_ops += lane_ops;
  counters_.warp_instructions += lane_ops / kWarpSize;
}

void BlockContext::count_alu(std::uint64_t lane_ops) {
  counters_.alu_ops += lane_ops;
  counters_.warp_instructions += lane_ops / kWarpSize;
}

void BlockContext::count_sfu(std::uint64_t lane_ops) {
  counters_.sfu_ops += lane_ops;
  counters_.warp_instructions += lane_ops / kWarpSize;
}

void BlockContext::count_warp_instructions(std::uint64_t n) {
  counters_.warp_instructions += n;
}

void BlockContext::count_smem_transactions(std::uint64_t loads,
                                           std::uint64_t stores) {
  counters_.smem_load_requests += loads;
  counters_.smem_load_transactions += loads;
  counters_.smem_store_requests += stores;
  counters_.smem_store_transactions += stores;
  counters_.warp_instructions += loads + stores;
}

Device::Device(config::DeviceSpec spec, std::size_t memory_capacity_bytes)
    : spec_(spec),
      memory_(memory_capacity_bytes),
      l2_(CacheGeometry{spec.l2_bytes, spec.l2_line_bytes,
                        spec.l2_sector_bytes, spec.l2_ways},
          CacheCounters{&launch_counters_.l2_read_transactions,
                        &launch_counters_.l2_read_hits,
                        &launch_counters_.l2_read_misses,
                        &launch_counters_.l2_write_transactions,
                        &launch_counters_.dram_write_transactions}),
      coalescer_(spec.l2_sector_bytes) {
  spec_.validate();
  if (spec_.cache_globals_in_l1) {
    const CacheGeometry l1_geometry{spec_.l1_bytes, spec_.l2_line_bytes,
                                    spec_.l2_sector_bytes, spec_.l1_ways};
    const CacheCounters l1_counters{
        &launch_counters_.l1_read_transactions,
        &launch_counters_.l1_read_hits, &launch_counters_.l1_read_misses,
        nullptr, nullptr};
    l1s_.reserve(static_cast<std::size_t>(spec_.num_sms));
    for (int sm = 0; sm < spec_.num_sms; ++sm) {
      l1s_.emplace_back(l1_geometry, l1_counters);
    }
  }
}

void Device::set_access_observer(AccessObserver* observer) {
  if (launch_in_flight_.load(std::memory_order_acquire) &&
      std::this_thread::get_id() != launch_thread_) {
    throw Error(
        "AccessObserver attached while a launch is in flight on another "
        "thread; a Device is single-threaded — give each worker its own "
        "device (docs/PARALLELISM.md)");
  }
  observer_ = observer;
}

void Device::read_global_sector(GlobalAddr sector, int sm_index) {
  if (!l1s_.empty()) {
    if (l1s_[static_cast<std::size_t>(sm_index)].read_sector(sector)) {
      return;  // serviced by the SM's L1
    }
  }
  if (!l2_.read_sector(sector)) {
    launch_counters_.dram_read_transactions += 1;
  }
}

void Device::write_global_sector(GlobalAddr sector) {
  // Global stores bypass the (incoherent) L1 and allocate in the L2.
  l2_.write_sector(sector);
}

LaunchResult Device::launch(const std::string& name, GridDim grid,
                            BlockDim block, const LaunchConfig& config,
                            const TileProgram& program) {
  KSUM_REQUIRE(grid.x > 0 && grid.y > 0, "grid must be non-empty");
  KSUM_REQUIRE(block.count() == config.threads_per_block,
               "block dim does not match launch config thread count");
  KSUM_REQUIRE(!launch_in_flight_.load(std::memory_order_acquire),
               "Device::launch re-entered while a launch is in flight");
  const Occupancy occ = compute_occupancy(spec_, config);

  // Publish the in-flight window for the observer attach guard (the thread
  // id must be visible before the flag — release/acquire pairing with
  // set_access_observer). The RAII guard keeps the flag honest when a tile
  // program throws.
  launch_thread_ = std::this_thread::get_id();
  launch_in_flight_.store(true, std::memory_order_release);
  struct InFlightGuard {
    std::atomic<bool>& flag;
    ~InFlightGuard() { flag.store(false, std::memory_order_release); }
  } in_flight_guard{launch_in_flight_};
  AccessObserver* const observer_at_begin = observer_;

  launch_counters_ = Counters{};
  launch_counters_.kernel_launches = 1;

  // The L1s do not survive kernel boundaries (hardware invalidates them
  // between launches; there is no coherence with stores).
  for (auto& l1 : l1s_) l1.reset();

  if (observer_ != nullptr) {
    observer_->on_launch_begin(
        {name, grid.x, grid.y, block.count(), config, occ});
  }

  int cta_linear = 0;
  for (int by = 0; by < grid.y; ++by) {
    for (int bx = 0; bx < grid.x; ++bx) {
      SharedMemory smem(config.smem_bytes_per_block, &launch_counters_,
                        injector_);
      smem.poison();
      smem.set_observer(observer_);
      // Round-robin CTA→SM placement, the scheduler's steady state.
      const int sm_index = cta_linear % spec_.num_sms;
      BlockContext ctx(*this, grid, block, bx, by, sm_index, smem,
                       launch_counters_);
      if (observer_ != nullptr) observer_->on_cta_begin(bx, by);
      program(ctx);
      if (observer_ != nullptr) observer_->on_cta_end();
      launch_counters_.ctas_launched += 1;
      ++cta_linear;
    }
  }

  if (observer_ != observer_at_begin) {
    throw Error("AccessObserver changed mid-launch of '" + name +
                "': attach observers only between launches "
                "(docs/PARALLELISM.md)");
  }
  if (observer_ != nullptr) observer_->on_launch_end(launch_counters_);

  LaunchResult result{name, grid, block, config, occ, launch_counters_};
  counters_ += launch_counters_;
  return result;
}

Counters Device::flush_l2() {
  launch_counters_ = Counters{};
  l2_.flush_dirty();
  counters_ += launch_counters_;
  return launch_counters_;
}

void Device::reset() {
  KSUM_REQUIRE(!launch_in_flight_.load(std::memory_order_acquire),
               "Device::reset while a launch is in flight");
  counters_ = Counters{};
  launch_counters_ = Counters{};
  l2_.reset();
  for (auto& l1 : l1s_) l1.reset();
  memory_.reset();
  injector_ = nullptr;
  observer_ = nullptr;
}

}  // namespace ksum::gpusim
