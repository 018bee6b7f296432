#include "analytic/calibration.h"

#include "common/error.h"
#include "gpukernels/device_workspace.h"
#include "gpukernels/fused_ksum.h"
#include "gpukernels/gemm_cublas_model.h"
#include "gpukernels/gemm_cudac.h"
#include "gpukernels/gemv_summation.h"
#include "gpukernels/kernel_eval.h"
#include "gpukernels/norms.h"
#include "gpusim/device.h"
#include "pipelines/pipeline.h"

namespace ksum::analytic {
namespace {

using gpukernels::Workspace;

// Divides the grid-uniform counters by the CTA count (exact by
// construction: every CTA of these kernels issues a congruent access
// stream). Cache-state-dependent fields (hits/misses/DRAM) are dropped —
// the DRAM model owns them.
CalibrationResult from_launch(const gpusim::LaunchResult& launch) {
  const std::uint64_t ctas = launch.grid.count();
  KSUM_CHECK(ctas >= 1);
  const auto div = [ctas](std::uint64_t v, const char* what) {
    KSUM_CHECK_MSG(v % ctas == 0,
                   std::string("non-uniform per-CTA counter: ") + what);
    return v / ctas;
  };
  const gpusim::Counters& c = launch.counters;
  CalibrationResult out;
  gpusim::Counters& p = out.per_cta;
  p.fma_ops = div(c.fma_ops, "fma");
  p.alu_ops = div(c.alu_ops, "alu");
  p.sfu_ops = div(c.sfu_ops, "sfu");
  p.warp_instructions = div(c.warp_instructions, "warp_instructions");
  p.smem_load_requests = div(c.smem_load_requests, "smem_load_requests");
  p.smem_store_requests = div(c.smem_store_requests, "smem_store_requests");
  p.smem_load_transactions =
      div(c.smem_load_transactions, "smem_load_transactions");
  p.smem_store_transactions =
      div(c.smem_store_transactions, "smem_store_transactions");
  p.smem_bank_conflicts = div(c.smem_bank_conflicts, "smem_bank_conflicts");
  p.global_load_requests = div(c.global_load_requests, "global_loads");
  p.global_store_requests = div(c.global_store_requests, "global_stores");
  p.atomic_requests = div(c.atomic_requests, "atomics");
  p.l2_read_transactions = div(c.l2_read_transactions, "l2_reads");
  p.l2_write_transactions = div(c.l2_write_transactions, "l2_writes");
  p.barriers = div(c.barriers, "barriers");
  p.ctas_launched = 1;
  p.kernel_launches = 1;
  out.config = launch.config;
  return out;
}

// The workspace of one kernel's unit launch: rows × cols points over K,
// with the M×N intermediate for the kernels that read or write it.
struct UnitShape {
  std::size_t rows = 0, cols = 0, k = 0;
  bool intermediate = false;
};

UnitShape unit_shape(const CalibrationKey& key) {
  // One CTA of the tile kernels: a single tile_m×tile_n submatrixC.
  const auto tile_m = static_cast<std::size_t>(key.geometry.tile_m);
  const auto tile_n = static_cast<std::size_t>(key.geometry.tile_n);
  switch (key.kind) {
    case KernelKind::kNorms:
      return {128, 128, key.k, false};
    case KernelKind::kGemmCudaC:
      return {tile_m, tile_n, key.k, true};
    case KernelKind::kGemmCublas:
      return {128, 128, key.k, true};
    case KernelKind::kFused:
      return {tile_m, tile_n, key.k, false};
    case KernelKind::kFusedStaged:
      // The staged variant's partial-vector stores stride by grid.x, so the
      // calibration must use the real column-grid width (key.n = N).
      return {tile_m, key.n, key.k, false};
    case KernelKind::kPartialReduce:
      // A one-CTA-row staged fused run with the real column-grid width
      // (key.n = N); its second pass is what gets calibrated.
      return {tile_m, key.n,
              static_cast<std::size_t>(key.geometry.tile_k), false};
    case KernelKind::kKernelEval:
      return {8, key.n, 8, true};
    case KernelKind::kGemv:
      return {128, key.n, 8, true};
  }
  KSUM_CHECK_MSG(false, "unhandled kernel kind");
  return {};
}

CalibrationResult calibrate(const config::DeviceSpec& spec,
                            const CalibrationKey& key) {
  const UnitShape unit = unit_shape(key);
  const std::size_t arena = pipelines::required_device_bytes(
      unit.rows, unit.cols, unit.k, unit.intermediate,
      static_cast<std::size_t>(key.geometry.tile_n));
  // The unit spans the request's K (and N, for the row-wide kernels), so
  // an absurd shape is refused here, before its device is built.
  KSUM_REQUIRE(arena <= spec.shard_arena_bytes,
               "the calibration CTA at K=" + std::to_string(key.k) +
                   " needs a " + std::to_string(arena) +
                   "-byte device arena, over the profile's " +
                   std::to_string(spec.shard_arena_bytes) +
                   "-byte per-device arena");
  gpusim::Device device(spec, arena);
  Workspace ws = gpukernels::allocate_workspace(device, unit.rows, unit.cols,
                                                unit.k, unit.intermediate);
  core::KernelParams params;  // Gaussian defaults; counts are data-blind
  gpukernels::MainloopConfig mainloop;
  mainloop.layout = key.layout;
  mainloop.double_buffer = key.double_buffer;
  mainloop.geometry = key.geometry;
  gpukernels::FusedOptions fused;
  fused.mainloop = mainloop;
  fused.fuse_norms = key.fuse_norms;

  switch (key.kind) {
    case KernelKind::kNorms:
      return from_launch(gpukernels::run_norms_a(device, ws));
    case KernelKind::kGemmCudaC: {
      gpukernels::GemmOptions opts;
      opts.mainloop = mainloop;
      return from_launch(gpukernels::run_gemm_cudac(
          device, ws.a, ws.b, ws.c, unit.rows, unit.cols, unit.k, opts));
    }
    case KernelKind::kGemmCublas:
      return from_launch(gpukernels::run_gemm_cublas_model(
          device, ws.a, ws.b, ws.c, unit.rows, unit.cols, unit.k));
    case KernelKind::kFused:
      return from_launch(
          gpukernels::run_fused_ksum(device, ws, params, fused).main);
    case KernelKind::kFusedStaged:
      fused.atomic_reduction = false;
      return from_launch(
          gpukernels::run_fused_ksum(device, ws, params, fused).main);
    case KernelKind::kPartialReduce: {
      fused.atomic_reduction = false;
      const auto result = gpukernels::run_fused_ksum(device, ws, params, fused);
      KSUM_CHECK(result.extra.size() == 1);
      return from_launch(result.extra.front());
    }
    case KernelKind::kKernelEval:
      return from_launch(gpukernels::run_kernel_eval(device, ws, params));
    case KernelKind::kGemv:
      return from_launch(gpukernels::run_gemv_summation(device, ws));
  }
  KSUM_CHECK_MSG(false, "unhandled kernel kind");
  return {};
}

}  // namespace

gpusim::Counters scale_counters(const gpusim::Counters& per_cta,
                                std::size_t num_ctas) {
  gpusim::Counters out;
  const auto s = [num_ctas](std::uint64_t v) { return v * num_ctas; };
  out.fma_ops = s(per_cta.fma_ops);
  out.alu_ops = s(per_cta.alu_ops);
  out.sfu_ops = s(per_cta.sfu_ops);
  out.warp_instructions = s(per_cta.warp_instructions);
  out.smem_load_requests = s(per_cta.smem_load_requests);
  out.smem_store_requests = s(per_cta.smem_store_requests);
  out.smem_load_transactions = s(per_cta.smem_load_transactions);
  out.smem_store_transactions = s(per_cta.smem_store_transactions);
  out.smem_bank_conflicts = s(per_cta.smem_bank_conflicts);
  out.global_load_requests = s(per_cta.global_load_requests);
  out.global_store_requests = s(per_cta.global_store_requests);
  out.atomic_requests = s(per_cta.atomic_requests);
  out.l2_read_transactions = s(per_cta.l2_read_transactions);
  out.l2_write_transactions = s(per_cta.l2_write_transactions);
  out.barriers = s(per_cta.barriers);
  out.ctas_launched = num_ctas;
  out.kernel_launches = 1;
  return out;
}

const CalibrationResult& Calibrator::get(const CalibrationKey& key) {
  auto it = cache_.find(key);
  if (it == cache_.end()) {
    it = cache_.emplace(key, calibrate(device_, key)).first;
  }
  return it->second;
}

}  // namespace ksum::analytic
