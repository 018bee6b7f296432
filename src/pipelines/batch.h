// The request path. execute() is the one executor a solve request goes
// through: admit (admission.h) → make_instance → fault plan →
// pipelines::solve → oracle check → StatusCode. ksum-cli solve (single and
// --batch) and solve_many call it; ksum-serve keeps its own retry/degrade
// ladder but shares admit(), check_oracle() and current_failure().
//
// solve_many() runs the requests concurrently on an exec::ThreadPool, each
// on its own private simulated Device (run_pipeline builds it from
// options.device), and aggregates the results in submission order, so the
// returned vector (numerics, Counters, energy records, recovery reports) is
// byte-identical for any thread count (docs/PARALLELISM.md spells out the
// contract; the thread-invariance tests pin it).
//
// Fault injection is per request: a request with fault_rate > 0 gets its own
// robust::FaultPlan whose RNG streams are seeded from the request's
// fault_seed — or, when that is 0, derived deterministically from the
// request's submission index — never from the worker that happens to run it.
// A request that is itself sharded (options.shards.count != 1) routes the
// same seed through shard::shard_fault_seed into a per-(shard, dispatch)
// injector factory, since sharded runs reject a plain injector.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/status.h"
#include "pipelines/solver.h"
#include "workload/problem_spec.h"

namespace ksum::pipelines {

struct BatchRequest {
  workload::ProblemSpec spec;
  core::KernelParams params;
  Backend backend = Backend::kSimFused;
  /// Per-request run options. `options.fault_injector` must be null — the
  /// batch engine owns injector construction (see fault_rate/fault_seed);
  /// solve_many throws ksum::Error otherwise.
  RunOptions options;
  /// Per-opportunity injection probability on every fault site (0 = off).
  double fault_rate = 0;
  /// Seed for this request's private FaultPlan; 0 derives a seed from the
  /// submission index so every request draws an independent, reproducible
  /// fault stream regardless of worker scheduling.
  std::uint64_t fault_seed = 0;
  /// Cross-check the result against the double-precision host oracle
  /// (check_oracle).
  bool verify = false;
};

struct BatchResult {
  std::size_t index = 0;  // submission index of the request
  SolveResult solve;
  /// max_rel_diff vs the host oracle; only meaningful when verify was set.
  double oracle_rel_error = 0;
  bool verified = false;  // verify ran and the error was within tolerance
  /// ok = no unrecovered fault and (when verify) within tolerance.
  bool ok = true;
  /// Structured outcome class (common/status.h): callers branch on this
  /// instead of parsing `error`. kInvalid = the request itself was bad
  /// (ksum::Error), kTimeout = its cancel token fired mid-run,
  /// kFaultUnrecovered = every recovery attempt stayed flagged, kInternal =
  /// the result verified wrong without a detected fault (silent
  /// corruption). `ok` remains `status == kOk`.
  StatusCode status = StatusCode::kOk;
  /// Non-empty when the request itself failed with ksum::Error (bad spec,
  /// conflicting options, refused admission). The rest of the batch still
  /// runs.
  std::string error;
  /// FaultPlan::to_string of the unsharded fault plan after the run.
  std::string fault_plan;
};

struct BatchOptions {
  /// Worker threads, in [1, exec::ThreadPool::kMaxThreads].
  int threads = 1;
};

/// The repo-wide oracle rule (docs/TESTING.md): `result.v` agrees with the
/// host oracle within 5e-3 · max(0.01, |V_exact|). A request with a
/// treecode budget ε (result.tree present, also after a dense fallback)
/// passes when every entry is within ε + 5e-3 · max(0.01, |V_exact,i|):
/// the ε contract of docs/TREECODE.md.
struct OracleCheck {
  double rel_error = 0;  // max_rel_diff against the oracle, 0.01 floor
  bool ok = false;
};
OracleCheck check_oracle(const workload::Instance& instance,
                         const core::KernelParams& params,
                         const SolveResult& result);

/// How a request that threw is classified, from inside its catch block:
/// exec::Cancelled → kTimeout, ksum::Error → kInvalid, anything else (a
/// ksum::InternalError, a foreign exception) → kInternal.
struct RequestFailure {
  StatusCode status = StatusCode::kInternal;
  std::string message;
};
RequestFailure current_failure();

/// Runs one request. A failing request comes back with its status and
/// `error` set; only an internal error (a bug) propagates. `fault_seed` is
/// used as given (solve_many first derives a zero one from the index).
BatchResult execute(const BatchRequest& request);

/// Runs every request through execute() and returns one BatchResult per
/// request, in submission order.
std::vector<BatchResult> solve_many(const std::vector<BatchRequest>& requests,
                                    const BatchOptions& options = {});

/// Parses the ksum-cli --batch CSV: one request per line, columns
/// `m,n,k[,seed[,h]]`, '#' comments and an optional `m,n,k,...` header line
/// skipped. Every parsed request starts from `base` (flags shared by the
/// whole batch: backend, kernel type, robustness, layout...) with the
/// per-line shape fields overriding base.spec. Throws ksum::Error on
/// malformed rows.
std::vector<BatchRequest> parse_batch_csv(std::istream& in,
                                          const BatchRequest& base);

}  // namespace ksum::pipelines
