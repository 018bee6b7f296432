// The fused kernel summation of the paper's Algorithm 2.
//
// One launch computes V = K·W end to end: every CTA runs the GEMM main loop
// for its 128×128 subC, evaluates the kernel function on the accumulators
// while they are still in registers, performs the three-level reduction
// (intra-thread weighted row sums → intra-CTA reduction through shared
// memory scratch that reuses the tileA buffers → inter-CTA atomicAdd into
// V), and retires. The M×N intermediate never exists in global memory.
//
// Deviation from the paper's pseudo-code, documented in DESIGN.md §2: the
// squared norms arrive as the M- and N-length vectors vecα/vecβ (128+128
// scalars per CTA), not as materialised M×N `squareA/squareB` matrices; and
// the weight/output segments are indexed subW = W + 128·bx (columns),
// subV = V + 128·by (rows), fixing the obvious index typo in Algorithm 2.
#pragma once

#include "core/kernels.h"
#include "gpukernels/abft_check.h"
#include "gpukernels/device_workspace.h"
#include "gpukernels/gemm_mainloop.h"
#include "gpusim/device.h"

namespace ksum::gpukernels {

struct FusedOptions {
  MainloopConfig mainloop;
  /// When false, replaces the inter-CTA atomicAdd with a two-pass scheme
  /// (each CTA stores its partial vector to a (grid.x × M) staging buffer
  /// and a second kernel reduces it) — the deterministic ablation the paper
  /// argues against because it doubles the partial-result traffic.
  bool atomic_reduction = true;
  /// Beyond the paper: accumulate the squared norms on the fly while the
  /// tiles stream through shared memory, instead of reading precomputed
  /// vecα/vecβ vectors. Eliminates the two norms kernels — and with them a
  /// full extra DRAM pass over A and B.
  bool fuse_norms = false;
  /// ABFT second path: when enabled, each CTA forks its total γ contribution
  /// (signed and absolute) right after kernel evaluation — before the shared
  /// memory scratch reduction and the inter-CTA atomicAdd — and folds it
  /// into the per-row-block checksum cells. Anything that diverges between
  /// that fork and V (scratch bit-flips, dropped/doubled atomics, store
  /// corruption) shows up as a block-checksum mismatch.
  ChecksumSink checksum;
};

struct FusedResult {
  gpusim::LaunchResult main;                 // the fused kernel itself
  std::vector<gpusim::LaunchResult> extra;   // second pass when non-atomic
  /// The (M × grid.x) staging buffer of the non-atomic two-pass scheme
  /// (invalid handle under atomic reduction). Still resident on the device
  /// when run_fused_ksum returns; the sharding layer downloads it to replay
  /// the partial-reduce fold across shards (src/shard/runner.cc).
  gpusim::DeviceBuffer staged;
};

/// Runs the fused kernel. V must be zeroed beforehand (the pipelines use a
/// cudaMemset stand-in). Requires norm_a/norm_b already computed.
FusedResult run_fused_ksum(gpusim::Device& device, const Workspace& ws,
                           const core::KernelParams& params,
                           const FusedOptions& options = {});

}  // namespace ksum::gpukernels
