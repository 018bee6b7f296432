// The tile-geometry autotuner: prices the pruned candidates on the active
// device and picks the winner for a problem shape.
//
// Every surviving geometry is scored by the analytic pipeline model
// (analytic/pipeline_model.h) at the shape pipelines::solve would run it
// on: the request zero-padded to that geometry's alignment. The model
// calibrates one CTA of the candidate's tile kernels on the active device
// and scales it by the CTA count, so every compute, shared-memory and L2
// count is the one a full simulation of that solve produces, and DRAM comes
// from the closed-form model. Candidates are independent, so they fan out
// over an exec::ThreadPool and the measurement vector is aggregated by
// candidate index, byte-identical for any worker count. Ties break
// deterministically (paper geometry first, then to_string order), so the
// tuner is a pure function of (shape, backend, options).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "pipelines/solver.h"
#include "tune/tile_search.h"

namespace ksum::tune {

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
  /// Identity of the device profile the specs above came from. Keys the
  /// tuning cache (a geometry tuned for one architecture must never be
  /// served to another).
  std::string profile = "gtx970";
  gpukernels::TileLayout layout = gpukernels::TileLayout::kFig5;
};

/// One candidate's pruning verdict plus (for survivors) its price.
struct TuneMeasurement {
  CandidateVerdict verdict;
  /// True for the viable candidates: one CTA of each ran on the
  /// calibration device.
  bool executed = false;
  /// Modelled seconds of the solve at the request padded for this geometry.
  double scaled_seconds = 0;
};

struct TuneReport {
  TuneRequest request;
  std::vector<TuneMeasurement> measurements;  // enumeration order
  /// Winner among the executed candidates (lowest scaled_seconds).
  gpukernels::TileGeometry best;
  double best_scaled_seconds = 0;
};

/// Tuner options matching a solve's RunOptions (same device, timing and
/// layout), keyed under `profile` so cached winners never leak across
/// architectures.
TuneOptions options_for(const pipelines::RunOptions& options,
                        const std::string& profile);

/// The tuner's deterministic winner order: lower modelled seconds first;
/// ties fall to the paper geometry, then to to_string order.
bool ranks_before(double seconds, const gpukernels::TileGeometry& geometry,
                  double other_seconds,
                  const gpukernels::TileGeometry& other);

/// Runs the full enumerate → prune → price → pick pass. Throws
/// ksum::Error for a host backend, a zero dimension, or when no candidate
/// survives pruning (cannot happen with the stock grid — the paper geometry
/// always survives).
TuneReport tune(const TuneRequest& request, const TuneOptions& options = {});

}  // namespace ksum::tune
