// The tile-geometry autotuner: executes the pruned candidates on the
// simulated device and picks the winner for a problem shape.
//
// Every surviving geometry runs the requested pipeline on a fixed proxy
// shape (small enough to simulate quickly, large enough that every candidate
// tile fits it a whole number of times), on its own private Device via
// pipelines::solve — candidates are independent, so they fan out over an
// exec::ThreadPool and the measurement vector is aggregated by candidate
// index, byte-identical for any worker count.
//
// Scoring re-runs the timing model at the requested shape rather than
// extrapolating wall time linearly: for each tile-structured kernel in the
// proxy report (mainloop_iters > 0) the measured event counters are rescaled
// by the CTA-count and main-loop-iteration ratios between the proxy and the
// (lcm-padded) requested shape, and estimate_kernel_time re-runs with the
// real launch geometry. That keeps the effects a tiny proxy distorts —
// tail-wave fill, CTA-dispatch waves, prologue amortisation (K/tileK
// iterations) — honest at the real shape, while the per-iteration event
// mix (smem/L2/DRAM traffic per tile, issue grade) comes from actual
// simulation. Non-tile kernels (norms, eval, GEMV, reductions) are
// geometry-independent, so their proxy seconds scale by the M·N ratio — a
// common additive term that cannot perturb the ranking. Ties break
// deterministically (paper geometry first, then to_string order), so the
// tuner is a pure function of (shape, backend, options).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "config/energy_spec.h"
#include "pipelines/solver.h"
#include "tune/tile_search.h"

namespace ksum::tune {

/// The shape every candidate is actually simulated on: a multiple of every
/// candidate tile edge (all edges divide 256) and of the non-tile kernels'
/// 128-row CTAs; K is a multiple of every candidate tileK.
inline constexpr std::size_t kProxyM = 512;
inline constexpr std::size_t kProxyN = 512;
inline constexpr std::size_t kProxyK = 16;

struct TuneRequest {
  std::size_t m = 0, n = 0, k = 0;
  pipelines::Backend backend = pipelines::Backend::kSimFused;
};

struct TuneOptions {
  /// Worker threads for the candidate fan-out, in
  /// [1, exec::ThreadPool::kMaxThreads].
  int threads = 1;
  config::DeviceSpec device = config::DeviceSpec::gtx970();
  config::TimingSpec timing = config::TimingSpec::gtx970();
  config::EnergySpec energy = config::EnergySpec::gtx970_mcpat();
  /// Identity of the device profile the specs above came from. Keys the
  /// tuning cache (a geometry tuned for one architecture must never be
  /// served to another).
  std::string profile = "gtx970";
  gpukernels::TileLayout layout = gpukernels::TileLayout::kFig5;
};

/// One candidate's pruning verdict plus (for survivors) its measurement.
struct TuneMeasurement {
  CandidateVerdict verdict;
  bool executed = false;
  double proxy_seconds = 0;    // modelled seconds of the proxy run
  double proxy_energy_j = 0;
  double scaled_seconds = 0;   // re-modelled at the requested shape
  double oracle_rel_error = 0; // proxy result vs the host oracle
};

struct TuneReport {
  TuneRequest request;
  std::vector<TuneMeasurement> measurements;  // enumeration order
  /// Winner among the executed candidates (lowest scaled_seconds).
  gpukernels::TileGeometry best;
  double best_scaled_seconds = 0;
  double best_proxy_seconds = 0;
};

/// True for the backends the tuner can execute (the simulated ones).
bool is_simulated(pipelines::Backend backend);

/// Runs the full enumerate → prune → execute → score pass. Throws
/// ksum::Error for a host backend, a zero dimension, or when no candidate
/// survives pruning (cannot happen with the stock grid — the paper geometry
/// always survives).
TuneReport tune(const TuneRequest& request, const TuneOptions& options = {});

}  // namespace ksum::tune
