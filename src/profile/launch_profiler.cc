#include "profile/launch_profiler.h"

#include "common/error.h"

namespace ksum::profile {

double SiteTraffic::weighted_sectors() const {
  // Atomic sectors are read-modify-written at the L2: one read + one write
  // transaction per sector, versus one for a plain load or store.
  return static_cast<double>(global_sectors) +
         static_cast<double>(atomic_sectors_);
}

const PhaseSlice* LaunchProfile::find_phase(const std::string& name) const {
  for (const auto& slice : phases) {
    if (slice.phase == name) return &slice;
  }
  return nullptr;
}

const SiteTraffic* LaunchProfile::find_site(gpusim::SiteId site) const {
  for (const auto& traffic : sites) {
    if (traffic.site == site) return &traffic;
  }
  return nullptr;
}

LaunchProfiler::LaunchProfiler(gpusim::Device& device) : device_(device) {
  KSUM_REQUIRE(device.access_observer() == nullptr,
               "device already has an observer attached; profile either "
               "with the analyzer or the profiler, not both");
  device_.set_access_observer(this);
}

LaunchProfiler::~LaunchProfiler() {
  if (device_.access_observer() == this) {
    device_.set_access_observer(nullptr);
  }
}

void LaunchProfiler::on_launch_begin(
    const gpusim::LaunchObservation& launch) {
  current_ = LaunchProfile{};
  current_.launch = launch;
  in_launch_ = true;
  last_snapshot_ = gpusim::Counters{};
  // Device::launch pre-counts the launch itself before the first CTA runs;
  // absorb it into the snapshot so the first phase slice starts clean.
  last_snapshot_.kernel_launches = 1;
  active_phase_ = "kernel";
}

void LaunchProfiler::flush_phase(const gpusim::Counters& upto) {
  const gpusim::Counters delta = upto - last_snapshot_;
  last_snapshot_ = upto;
  if (delta == gpusim::Counters{}) return;
  for (auto& slice : current_.phases) {
    if (slice.phase == active_phase_) {
      slice.counters += delta;
      return;
    }
  }
  current_.phases.push_back({active_phase_, delta});
}

void LaunchProfiler::on_phase(const gpusim::PhaseObservation& marker) {
  if (!in_launch_) return;
  flush_phase(marker.counters);
  active_phase_ = marker.phase;
}

SiteTraffic& LaunchProfiler::site_slot(gpusim::SiteId site) {
  for (auto& traffic : current_.sites) {
    if (traffic.site == site) return traffic;
  }
  current_.sites.emplace_back();
  current_.sites.back().site = site;
  return current_.sites.back();
}

void LaunchProfiler::on_shared_access(
    const gpusim::SharedAccessEvent& event) {
  if (!in_launch_) return;
  SiteTraffic& traffic = site_slot(event.access.site);
  traffic.smem_requests += 1;
  traffic.smem_transactions += static_cast<std::uint64_t>(event.transactions);
  traffic.smem_ideal_transactions +=
      static_cast<std::uint64_t>(event.ideal_transactions);
}

void LaunchProfiler::on_global_access(
    const gpusim::GlobalAccessEvent& event) {
  if (!in_launch_) return;
  SiteTraffic& traffic = site_slot(event.access.site);
  switch (event.kind) {
    case gpusim::AccessKind::kLoad:
      traffic.global_load_requests += 1;
      break;
    case gpusim::AccessKind::kStore:
      traffic.global_store_requests += 1;
      break;
    case gpusim::AccessKind::kAtomicAdd:
      traffic.atomic_requests += 1;
      traffic.atomic_sectors_ += static_cast<std::uint64_t>(event.sectors);
      break;
  }
  traffic.global_sectors += static_cast<std::uint64_t>(event.sectors);
  traffic.global_ideal_sectors +=
      static_cast<std::uint64_t>(event.ideal_sectors);
}

void LaunchProfiler::on_launch_end(const gpusim::Counters& launch_counters) {
  if (!in_launch_) return;
  flush_phase(launch_counters);
  current_.counters = launch_counters;
  // The pre-counted launch event belongs to the record even though it was
  // kept out of the phase slices.
  launches_.push_back(std::move(current_));
  current_ = LaunchProfile{};
  in_launch_ = false;
}

TimingHints default_timing_hints(const std::string& kernel_name,
                                 std::size_t k_total) {
  TimingHints hints;
  const double iters = gpusim::mainloop_iters_for_k(k_total);
  if (kernel_name == "fused_ksum" || kernel_name == "gemm_cudac" ||
      kernel_name == "fused_knn") {
    hints.mainloop_iters = iters;
    hints.grade = config::KernelGrade::cuda_c();
  } else if (kernel_name == "gemm_cublas") {
    hints.mainloop_iters = iters;
    hints.grade = config::KernelGrade::assembly();
  } else {
    // Streaming passes (norms, eval, gemv, reductions, merges).
    hints.mainloop_iters = 0;
    hints.grade = config::KernelGrade::cuda_c();
  }
  return hints;
}

void finalize_profile(const config::DeviceSpec& device,
                      const config::TimingSpec& timing,
                      const TimingHints& hints, LaunchProfile& profile) {
  gpusim::LaunchShape shape;
  shape.num_ctas = static_cast<std::size_t>(profile.launch.grid_x) *
                   static_cast<std::size_t>(profile.launch.grid_y);
  shape.config = profile.launch.config;
  shape.occupancy = profile.launch.occupancy;
  shape.mainloop_iters = hints.mainloop_iters;
  shape.grade = hints.grade;
  shape.overlapped_memory = hints.overlapped_memory;
  profile.timing = gpusim::estimate_kernel_time(
      device, timing, gpusim::CostInputs::from_counters(profile.counters),
      shape);
  profile.seconds = profile.timing.seconds(device);
}

}  // namespace ksum::profile
