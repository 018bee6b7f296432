// Request admission: every size a request will allocate, computed before
// anything is allocated.
//
// The paper's unfused baseline writes an M×N intermediate to device memory
// and the fused kernel never stores it, so the memory a request needs
// depends on its shape *and* its solution. admit() computes, with checked
// size_t arithmetic (common/math_util.h), the padded shape, the host
// instance and the arena of every simulated device the request builds —
// its one device or each planned shard — and refuses the request with
// ksum::Error (exit 2 in the tools, `invalid` in ksum-serve) when a size
// overflows or an arena exceeds the profile's per-device arena,
// DeviceSpec::shard_arena_bytes: the number --shards=auto already fits
// shards into (docs/ROBUSTNESS.md §Admission). The tuner's calibration CTA
// is held to the same arena where it is built (analytic::calibrate).
//
// The library entry points (pipelines::solve, run_pipeline) do not admit;
// execute() (batch.h), ksum-serve's intake and ksum-cli knn do, once per
// request, before the instance is generated.
#pragma once

#include <cstddef>

#include "pipelines/knn_pipeline.h"
#include "pipelines/solver.h"
#include "workload/problem_spec.h"

namespace ksum::pipelines {

/// Admits one solve of `spec` on `backend` under `options`, resolving the
/// tile geometry exactly as pipelines::solve does, and returns the largest
/// device arena the solve builds: its one device, or its biggest planned
/// shard; 0 on the host backends. An unsharded fused request under
/// recovery includes the M×N intermediate of the cuBLAS fallback, so a
/// device of this size serves every attempt. Throws ksum::Error on refusal.
std::size_t admit(const workload::ProblemSpec& spec, Backend backend,
                  const RunOptions& options);

/// Admits a kNN search: the instance and run_knn_pipeline's one device.
void admit_knn(const workload::ProblemSpec& spec, KnnSolution solution,
               std::size_t k_nn, const RunOptions& options);

}  // namespace ksum::pipelines
