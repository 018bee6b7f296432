// google-benchmark timings of the simulator itself: how fast the functional
// device executes tile programs and how cheap the analytic model is. These
// bound the cost of the test suite and of the reproduction sweeps.
#include <benchmark/benchmark.h>

#include "analytic/pipeline_model.h"
#include "gpukernels/device_workspace.h"
#include "gpukernels/fused_ksum.h"
#include "gpukernels/gemm_cudac.h"
#include "gpukernels/norms.h"
#include "gpusim/cache.h"
#include "gpusim/coalescer.h"
#include "gpusim/shared_memory.h"
#include "workload/point_generators.h"

namespace {

using namespace ksum;

// Arg = distinct 128-byte rows the warp access touches: 1 is the
// conflict-free case the Fig.-5 kernels produce, 4 the naive layout's
// B-operand reads, 32 the worst case (every lane in the same bank, another
// row).
void BM_SmemTransactionCount(benchmark::State& state) {
  const int rows = static_cast<int>(state.range(0));
  gpusim::SharedWarpAccess access;
  for (int l = 0; l < 32; ++l) {
    access.set_lane(l, gpusim::SharedAddr((l % rows) * 128 + (l / rows) * 4));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        gpusim::SharedMemory::transactions_for(access));
  }
}
BENCHMARK(BM_SmemTransactionCount)->Arg(1)->Arg(4)->Arg(32);

void BM_L2SectorStream(benchmark::State& state) {
  std::uint64_t reads = 0, hits = 0, misses = 0;
  gpusim::SectoredCache cache(
      gpusim::CacheGeometry{},
      gpusim::CacheCounters{&reads, &hits, &misses, nullptr, nullptr});
  const auto sectors = std::size_t(state.range(0));
  std::size_t next = 0;
  for (auto _ : state) {
    cache.read_sector(gpusim::GlobalAddr(next) * 32);
    next = (next + 1) % sectors;
  }
  state.SetItemsProcessed(int64_t(state.iterations()));
}
BENCHMARK(BM_L2SectorStream)->Arg(1024)->Arg(262144);

// Arg = lane address pattern of one warp request on 32-byte sectors:
// 0 coalesced floats (4 sectors), 1 coalesced float4s (16), 2 floats at a
// 128-byte stride (32), 3 coalesced floats in reversed lane order (4,
// through the sort).
void BM_CoalescerSectors(benchmark::State& state) {
  const gpusim::Coalescer coalescer(32);
  gpusim::GlobalWarpAccess access;
  const int pattern = static_cast<int>(state.range(0));
  access.width_bytes = pattern == 1 ? 16 : 4;
  for (int l = 0; l < 32; ++l) {
    const int slot = pattern == 3 ? 31 - l : l;
    const int stride = pattern == 1 ? 16 : pattern == 2 ? 128 : 4;
    access.set_lane(l, gpusim::GlobalAddr(4096 + slot * stride));
  }
  std::array<gpusim::GlobalAddr, gpusim::Coalescer::kMaxSectors> sectors;
  for (auto _ : state) {
    benchmark::DoNotOptimize(coalescer.sectors_for(access, sectors.data()));
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(int64_t(state.iterations()));
}
BENCHMARK(BM_CoalescerSectors)->DenseRange(0, 3);

void BM_FunctionalFusedKernel(benchmark::State& state) {
  const std::size_t k = std::size_t(state.range(0));
  workload::ProblemSpec spec;
  spec.m = 128;
  spec.n = 128;
  spec.k = k;
  const auto inst = workload::make_instance(spec);
  const auto params = core::params_from_spec(spec);
  for (auto _ : state) {
    gpusim::Device device(config::DeviceSpec::gtx970(), std::size_t{16} << 20);
    auto ws = gpukernels::allocate_workspace(device, 128, 128, k, false);
    gpukernels::upload_instance(device, ws, inst);
    gpukernels::run_norms_a(device, ws);
    gpukernels::run_norms_b(device, ws);
    gpukernels::run_fused_ksum(device, ws, params);
    benchmark::DoNotOptimize(device.counters().fma_ops);
  }
  // Simulated lane-FMAs per wall second.
  state.SetItemsProcessed(int64_t(state.iterations()) *
                          int64_t(128 * 128 * k));
}
BENCHMARK(BM_FunctionalFusedKernel)->Arg(32)->Arg(128);

void BM_FunctionalGemmCta(benchmark::State& state) {
  const std::size_t k = std::size_t(state.range(0));
  workload::ProblemSpec spec;
  spec.m = 128;
  spec.n = 128;
  spec.k = k;
  const auto inst = workload::make_instance(spec);
  for (auto _ : state) {
    gpusim::Device device(config::DeviceSpec::gtx970(), std::size_t{16} << 20);
    auto ws = gpukernels::allocate_workspace(device, 128, 128, k, true);
    gpukernels::upload_instance(device, ws, inst);
    gpukernels::run_gemm_cudac(device, ws.a, ws.b, ws.c, 128, 128, k,
                               gpukernels::GemmOptions{});
    benchmark::DoNotOptimize(device.counters().fma_ops);
  }
  state.SetItemsProcessed(int64_t(state.iterations()) *
                          int64_t(128 * 128 * k));
}
BENCHMARK(BM_FunctionalGemmCta)->Arg(32)->Arg(128);

void BM_AnalyticPipelineEstimate(benchmark::State& state) {
  analytic::PipelineModel model;
  // Warm the calibration cache so the loop measures the estimate itself.
  model.estimate(pipelines::Solution::kFused, 1024, 1024, 32);
  std::size_t m = 1024;
  for (auto _ : state) {
    auto est = model.estimate(pipelines::Solution::kFused, m, 1024, 32);
    benchmark::DoNotOptimize(est.seconds);
    m = m == 524288 ? 1024 : m * 2;
  }
}
BENCHMARK(BM_AnalyticPipelineEstimate);

}  // namespace
