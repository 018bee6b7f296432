#include "serve/protocol.h"

#include <bit>
#include <cstdio>

#include "common/error.h"
#include "profile/json.h"
#include "profile/record.h"

namespace ksum::serve {

namespace {

using profile::Json;

// FNV-1a, 64-bit. Used both for V digests (over float bit patterns) and for
// deriving a fault seed from a request id.
constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

std::uint64_t fnv1a64_byte(std::uint64_t h, unsigned char byte) {
  return (h ^ byte) * kFnvPrime;
}

std::uint64_t fnv1a64_string(std::string_view text) {
  std::uint64_t h = kFnvOffset;
  for (const char c : text) {
    h = fnv1a64_byte(h, static_cast<unsigned char>(c));
  }
  return h;
}

pipelines::Backend parse_backend(const profile::Reader& value) {
  using pipelines::Backend;
  const std::string& name = value.string();
  if (name == "sim-fused") return Backend::kSimFused;
  if (name == "sim-cuda-unfused") return Backend::kSimCudaUnfused;
  if (name == "sim-cublas-unfused") return Backend::kSimCublasUnfused;
  if (name == "cpu-direct") return Backend::kCpuDirect;
  if (name == "cpu-expansion") return Backend::kCpuExpansion;
  value.fail("unknown backend '" + name + "'");
}

// Fills `request` field by field, so request.id is set as soon as it has
// parsed and parse_request can echo it on any later rejection.
void parse_into(const std::string& line, ServeRequest& request) {
  Json doc;
  try {
    doc = Json::parse(line);
  } catch (const Error& e) {
    throw Error(std::string("serve: malformed request JSON: ") + e.what());
  }
  KSUM_REQUIRE(doc.is_object(), "serve: request must be a JSON object");
  const profile::Reader r(doc, "serve");

  if (const auto id = r.find("id")) {
    if (id->json().is_number()) {
      request.id = profile::json_number(id->number());
    } else {
      id->expect(id->json().is_string(), "must be a string or number");
      request.id = id->string();
    }
  }

  const auto op = r.find("op");
  const std::string_view name = op ? std::string_view(op->string()) : "solve";
  if (name == "health" || name == "stats") {
    request.op = name == "health" ? Op::kHealth : Op::kStats;
    return;
  }
  if (name != "solve") op->fail("unknown op '" + std::string(name) + "'");
  request.op = Op::kSolve;

  request.spec.m = r.member("m").integer<std::size_t>(1);
  request.spec.n = r.member("n").integer<std::size_t>(1);
  request.spec.k = r.member("k").integer<std::size_t>(1);
  request.spec.seed = r.value_or<std::uint64_t>("seed", 42);
  const double h = r.value_or("h", 1.0);
  if (!(h > 0)) r.member("h").fail("must be positive");
  request.spec.bandwidth = static_cast<float>(h);

  if (const auto backend = r.find("backend")) {
    request.backend = parse_backend(*backend);
  }
  request.robust = r.value_or("robust", true);
  request.verify = r.value_or("verify", false);
  request.deadline_ms = r.value_or("deadline_ms", -1.0);
  request.fault_rate = r.value_or("fault_rate", 0.0);
  if (!(request.fault_rate >= 0 && request.fault_rate <= 1)) {
    r.member("fault_rate").fail("must be in [0, 1]");
  }
  request.fault_seed = r.value_or<std::uint64_t>("fault_seed", 0);
}

}  // namespace

ServeRequest parse_request(const std::string& line) {
  ServeRequest request;
  try {
    parse_into(line, request);
  } catch (const Error& e) {
    throw RequestError(e.what(), request.id);
  }
  return request;
}

std::uint64_t effective_fault_seed(const ServeRequest& request) {
  if (request.fault_seed != 0) return request.fault_seed;
  const std::uint64_t derived = fnv1a64_string(request.id);
  return derived != 0 ? derived : 1;
}

std::uint64_t attempt_fault_seed(std::uint64_t base, int attempt) {
  // splitmix64 finalizer: spreads (base, attempt) into far-apart seeds so
  // every retry draws an independent, reproducible fault pattern.
  std::uint64_t z =
      base + (static_cast<std::uint64_t>(attempt) + 1) * 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  z = z ^ (z >> 31);
  return z != 0 ? z : 1;
}

std::string digest_hex(std::span<const float> values) {
  std::uint64_t h = kFnvOffset;
  for (const float v : values) {
    const std::uint32_t bits = std::bit_cast<std::uint32_t>(v);
    h = fnv1a64_byte(h, static_cast<unsigned char>(bits & 0xff));
    h = fnv1a64_byte(h, static_cast<unsigned char>((bits >> 8) & 0xff));
    h = fnv1a64_byte(h, static_cast<unsigned char>((bits >> 16) & 0xff));
    h = fnv1a64_byte(h, static_cast<unsigned char>((bits >> 24) & 0xff));
  }
  char buffer[17];
  std::snprintf(buffer, sizeof(buffer), "%016llx",
                static_cast<unsigned long long>(h));
  return std::string(buffer);
}

std::string error_reply(const std::string& id, StatusCode status,
                        const std::string& message) {
  Json reply = Json::object();
  reply.set("id", id);
  reply.set("status", to_string(status));
  if (!message.empty()) reply.set("error", message);
  return reply.dump_compact();
}

std::string solve_reply(const std::string& id, const ServeRequest& request,
                        const SolveReplyInfo& info,
                        std::span<const float> v) {
  Json reply = Json::object();
  reply.set("id", id);
  reply.set("status", to_string(StatusCode::kOk));
  reply.set("m", std::uint64_t(request.spec.m));
  reply.set("n", std::uint64_t(request.spec.n));
  reply.set("k", std::uint64_t(request.spec.k));
  reply.set("backend", pipelines::to_string(info.backend));
  reply.set("serve_attempts", info.serve_attempts);
  reply.set("solver_attempts", info.solver_attempts);
  reply.set("faults_detected", info.faults_detected);
  reply.set("fallback_used", info.fallback_used);
  reply.set("degraded", info.degraded);
  reply.set("modelled_ms", info.modelled_seconds * 1e3);
  reply.set("energy_j", info.energy_joules);
  if (info.shards > 1) reply.set("shards", std::uint64_t(info.shards));
  reply.set("digest", digest_hex(v));
  if (info.verified || info.oracle_rel_error != 0) {
    reply.set("oracle_rel_error", info.oracle_rel_error);
    reply.set("verified", info.verified);
  }
  return reply.dump_compact();
}

}  // namespace ksum::serve
