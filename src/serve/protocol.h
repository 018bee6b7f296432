// ksum-serve wire protocol: newline-delimited JSON request/reply pairs.
//
// One request per line, one reply per line (replies may interleave across
// requests — the echoed `id` correlates them). The grammar is specified in
// docs/SERVING.md; this header is the single implementation both transports
// (stdio, unix socket) and the in-process test harness share.
//
// Requests:
//   {"op":"solve","id":"r1","m":256,"n":128,"k":8,
//    "seed":42,"h":1.0,"backend":"sim-fused","robust":true,"verify":false,
//    "deadline_ms":50,"fault_rate":0.01,"fault_seed":7}
//   {"op":"health","id":"h1"}
//   {"op":"stats","id":"s1"}
//
// Replies always carry "id" and "status" (common/status.h spellings). A
// solve reply's payload fields (digest, modelled_ms, energy_j, recovery
// counters) are a pure function of the request — no wall-clock values — so
// successful replies are byte-identical for any worker count or arrival
// order (the serving extension of the docs/PARALLELISM.md contract).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <utility>

#include "common/error.h"
#include "common/status.h"
#include "pipelines/solver.h"
#include "workload/problem_spec.h"

namespace ksum::serve {

enum class Op { kSolve, kHealth, kStats };

struct ServeRequest {
  std::string id;          // echoed on the reply; "" = transport assigns
  Op op = Op::kSolve;
  workload::ProblemSpec spec;
  pipelines::Backend backend = pipelines::Backend::kSimFused;
  /// Enable ABFT checks + detect→retry→fallback recovery for this request.
  bool robust = true;
  /// Cross-check against the host oracle (slow; test traffic only).
  bool verify = false;
  /// Per-request deadline in milliseconds; < 0 = use the server default,
  /// 0 = no deadline.
  double deadline_ms = -1;
  /// Per-opportunity fault-injection probability (0 = fault-free).
  double fault_rate = 0;
  /// Base seed for this request's fault streams; 0 derives one from `id`,
  /// so every request draws an independent, reproducible pattern.
  std::uint64_t fault_seed = 0;
};

/// What parse_request throws: `id` is the request's id when it parsed
/// ("" otherwise), so the `invalid` reply still correlates by id.
struct RequestError : Error {
  RequestError(const std::string& what, std::string request_id)
      : Error(what), id(std::move(request_id)) {}
  std::string id;
};

/// Parses one request line. Throws RequestError on malformed JSON, unknown
/// op/backend, missing solve dimensions, or out-of-range fields — the server
/// turns that into an immediate `invalid` reply. Admission bounds (max
/// shape) are the server's to enforce, not the parser's.
ServeRequest parse_request(const std::string& line);

/// Seed actually used for a request's fault plan: fault_seed when nonzero,
/// otherwise an FNV-1a hash of the id (never 0).
std::uint64_t effective_fault_seed(const ServeRequest& request);

/// Fault-plan seed for serve-level attempt `attempt` (0-based) of a request
/// whose base seed is effective_fault_seed(). Part of the deterministic
/// contract: a request's outcome is reproducible from (request, attempt)
/// alone, so the fault-campaign oracle can replay it exactly.
std::uint64_t attempt_fault_seed(std::uint64_t base, int attempt);

/// FNV-1a64 over the little-endian bit patterns of the floats, as 16 hex
/// digits. The reply's `digest` commits to every bit of V without shipping
/// the vector.
std::string digest_hex(std::span<const float> values);

/// Reply builders — each returns one complete single-line JSON document
/// (no trailing newline). `error_reply` is for every non-payload outcome;
/// `message` is omitted when empty.
std::string error_reply(const std::string& id, StatusCode status,
                        const std::string& message);

struct SolveReplyInfo {
  pipelines::Backend backend = pipelines::Backend::kSimFused;
  /// Serve-level attempts consumed (1 = first try succeeded).
  int serve_attempts = 1;
  /// Aggregated solver-level recovery counters across serve attempts.
  int solver_attempts = 0;
  int faults_detected = 0;
  bool fallback_used = false;
  /// True when the request fell back to the fault-free host path after all
  /// simulated attempts stayed flagged (status remains ok).
  bool degraded = false;
  double modelled_seconds = 0;  // 0 for host backends
  double energy_joules = 0;     // 0 for host backends
  double oracle_rel_error = 0;  // only with verify
  bool verified = false;
  /// Shards the request was split into at admission (docs/SHARDING.md).
  /// The reply emits a `shards` field only when > 1, so single-device
  /// replies are byte-identical to the pre-sharding protocol.
  std::size_t shards = 1;
};

std::string solve_reply(const std::string& id, const ServeRequest& request,
                        const SolveReplyInfo& info,
                        std::span<const float> v);

}  // namespace ksum::serve
