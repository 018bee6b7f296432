#include "pipelines/batch.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <exception>
#include <istream>

#include "blas/vector_ops.h"
#include "common/error.h"
#include "core/exact.h"
#include "exec/batch_engine.h"
#include "exec/cancel.h"
#include "pipelines/admission.h"
#include "workload/point_generators.h"

namespace ksum::pipelines {

namespace {

// splitmix-style spread of the submission index, so index-derived fault
// seeds are far apart in the seed space (and never collide with the small
// literal seeds campaigns use).
std::uint64_t derived_fault_seed(std::size_t index) {
  std::uint64_t z = (static_cast<std::uint64_t>(index) + 1) *
                    0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// Parses a whole CSV field, surrounding blanks aside: "128x" is malformed,
// not 128.
template <typename T>
bool parse_whole(const std::string& text, T& out) {
  const auto first = text.find_first_not_of(" \t");
  if (first == std::string::npos) return false;
  const char* begin = text.data() + first;
  const char* end = text.data() + text.find_last_not_of(" \t") + 1;
  const auto [ptr, ec] = std::from_chars(begin, end, out);
  return ec == std::errc() && ptr == end;
}

}  // namespace

OracleCheck check_oracle(const workload::Instance& instance,
                         const core::KernelParams& params,
                         const SolveResult& result) {
  constexpr double kSlack = 5e-3;
  constexpr double kFloor = 1e-2;
  const Vector oracle = solve(instance, params, Backend::kCpuDirect).v;
  OracleCheck out;
  out.rel_error = blas::max_rel_diff(result.v.span(), oracle.span(), kFloor);
  out.ok = out.rel_error < kSlack;
  if (!out.ok && result.tree.has_value()) {
    // The ε contract, entry by entry: the request's truncation budget plus
    // the dense slack of that entry. It holds the request, so it also
    // holds a dense fallback.
    out.ok = true;
    for (std::size_t i = 0; i < oracle.size() && out.ok; ++i) {
      const double o = oracle[i];
      out.ok = std::abs(double(result.v[i]) - o) <=
               result.tree->eps + kSlack * std::max(kFloor, std::abs(o));
    }
  }
  return out;
}

RequestFailure current_failure() {
  try {
    throw;
  } catch (const exec::Cancelled& e) {
    return {StatusCode::kTimeout, e.what()};
  } catch (const Error& e) {
    return {StatusCode::kInvalid, e.what()};
  } catch (const std::exception& e) {
    return {StatusCode::kInternal, e.what()};
  } catch (...) {
    return {StatusCode::kInternal, "unknown exception"};
  }
}

BatchResult execute(const BatchRequest& request) {
  BatchResult out;
  try {
    KSUM_REQUIRE(request.fault_rate <= 1.0,
                 "batch request fault rate must be in [0, 1]");
    admit(request.spec, request.backend, request.options);
    const workload::Instance instance = workload::make_instance(request.spec);
    RunOptions options = request.options;
    const auto plan =
        attach_fault_plan(options, request.fault_seed, request.fault_rate);

    out.solve = solve(instance, request.params, request.backend, options);
    if (plan) out.fault_plan = plan->to_string();
    if (out.solve.recovery.gave_up) {
      out.status = StatusCode::kFaultUnrecovered;
    }
    if (request.verify) {
      const OracleCheck check =
          check_oracle(instance, request.params, out.solve);
      out.oracle_rel_error = check.rel_error;
      out.verified = check.ok;
      if (!out.verified && out.status == StatusCode::kOk) {
        // Wrong answer with nothing flagged: silent corruption, which is
        // our bug (or an injected fault the checks missed), not the
        // caller's — classed internal, never invalid.
        out.status = StatusCode::kInternal;
      }
    }
  } catch (...) {
    const RequestFailure failure = current_failure();
    // A bug, not a bad request: abort loudly.
    if (failure.status == StatusCode::kInternal) throw;
    out.status = failure.status;
    out.error = failure.message;
  }
  out.ok = out.status == StatusCode::kOk;
  return out;
}

std::vector<BatchResult> solve_many(const std::vector<BatchRequest>& requests,
                                    const BatchOptions& options) {
  for (const BatchRequest& request : requests) {
    KSUM_REQUIRE(request.options.fault_injector == nullptr,
                 "batch requests must not carry a fault injector; set "
                 "fault_rate/fault_seed and solve_many builds a per-request "
                 "plan");
  }
  exec::ThreadPool pool(options.threads);
  return exec::map_ordered(pool, requests.size(), [&](std::size_t index) {
    BatchRequest request = requests[index];
    if (request.fault_seed == 0) request.fault_seed = derived_fault_seed(index);
    BatchResult out = execute(request);
    out.index = index;
    return out;
  });
}

std::vector<BatchRequest> parse_batch_csv(std::istream& in,
                                          const BatchRequest& base) {
  std::vector<BatchRequest> requests;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    // Trim whitespace and skip blanks / comments.
    const auto first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos) continue;
    const auto last = line.find_last_not_of(" \t\r");
    std::string row = line.substr(first, last - first + 1);
    if (row[0] == '#') continue;

    std::vector<std::string> fields;
    std::size_t start = 0;
    while (true) {
      const std::size_t comma = row.find(',', start);
      fields.push_back(row.substr(
          start, comma == std::string::npos ? std::string::npos
                                            : comma - start));
      if (comma == std::string::npos) break;
      start = comma + 1;
    }
    // A header row ("m,n,k,...") is recognised by its non-numeric first
    // field and skipped, but only as the first data-carrying line.
    if (requests.empty() &&
        fields[0].find_first_not_of(" \t0123456789") != std::string::npos) {
      continue;
    }
    KSUM_REQUIRE(fields.size() >= 3 && fields.size() <= 5,
                 "batch CSV line " + std::to_string(line_no) +
                     ": expected m,n,k[,seed[,h]], got '" + row + "'");

    BatchRequest request = base;
    const std::string where = "batch CSV line " + std::to_string(line_no);
    auto parse_size = [&](const std::string& text, const char* what) {
      long long v = 0;
      KSUM_REQUIRE(parse_whole(text, v),
                   where + ": malformed " + what + " '" + text + "'");
      KSUM_REQUIRE(v >= 1, where + ": " + what + " must be >= 1");
      return static_cast<std::size_t>(v);
    };
    request.spec.m = parse_size(fields[0], "m");
    request.spec.n = parse_size(fields[1], "n");
    request.spec.k = parse_size(fields[2], "k");
    if (fields.size() >= 4) {
      long long signed_seed = 0;
      KSUM_REQUIRE(!parse_whole(fields[3], signed_seed) || signed_seed >= 0,
                   where + ": seed must be non-negative, got '" + fields[3] +
                       "'");
      KSUM_REQUIRE(parse_whole(fields[3], request.spec.seed),
                   where + ": malformed seed '" + fields[3] + "'");
    }
    if (fields.size() >= 5) {
      KSUM_REQUIRE(parse_whole(fields[4], request.spec.bandwidth),
                   where + ": malformed bandwidth '" + fields[4] + "'");
      KSUM_REQUIRE(request.spec.bandwidth > 0,
                   where + ": bandwidth must be positive");
    }
    // Kernel params follow the per-line spec (bandwidth feeds the kernel)
    // while keeping the batch-wide kernel type.
    const core::KernelType type = base.params.type;
    request.params = core::params_from_spec(request.spec);
    request.params.type = type;
    requests.push_back(std::move(request));
  }
  return requests;
}

}  // namespace ksum::pipelines
