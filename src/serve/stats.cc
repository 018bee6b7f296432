#include "serve/stats.h"

#include <algorithm>
#include <cmath>
#include <iterator>

#include "common/error.h"
#include "profile/record.h"

namespace ksum::serve {

namespace {

using profile::Json;

constexpr StatusCode kAllStatuses[] = {
    StatusCode::kOk,         StatusCode::kInvalid,
    StatusCode::kTimeout,    StatusCode::kOverloaded,
    StatusCode::kFaultUnrecovered, StatusCode::kInternal};

LatencySummary summarise(std::vector<double> sample) {
  LatencySummary out;
  out.count = sample.size();
  if (sample.empty()) return out;
  std::sort(sample.begin(), sample.end());
  const auto rank = [&](double p) {
    const std::size_t r = static_cast<std::size_t>(
        std::ceil(p / 100.0 * double(sample.size())));
    return sample[r == 0 ? 0 : r - 1];
  };
  out.p50 = rank(50);
  out.p90 = rank(90);
  out.p99 = rank(99);
  out.max = sample.back();
  return out;
}

Json summary_to_json(const LatencySummary& summary) {
  Json j = Json::object();
  j.set("count", std::uint64_t(summary.count));
  j.set("p50", summary.p50 * 1e3);
  j.set("p90", summary.p90 * 1e3);
  j.set("p99", summary.p99 * 1e3);
  j.set("max", summary.max * 1e3);
  return j;
}

void validate_summary(const profile::Reader& summary) {
  summary.expect(summary.member("p50").number() <=
                         summary.member("p99").number() &&
                     summary.member("p99").number() <=
                         summary.member("max").number(),
                 "percentiles out of order");
}

}  // namespace

double percentile(std::vector<double> sample, double p) {
  KSUM_REQUIRE(p >= 0 && p <= 100, "percentile p must be in [0, 100]");
  if (sample.empty()) return 0;
  std::sort(sample.begin(), sample.end());
  const std::size_t r = static_cast<std::size_t>(
      std::ceil(p / 100.0 * double(sample.size())));
  return sample[r == 0 ? 0 : r - 1];
}

LatencySummary ServeStats::modelled_summary() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return summarise(modelled_seconds_);
}

LatencySummary ServeStats::wall_summary() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return summarise(wall_seconds_);
}

Json ServeStats::to_json(int workers, std::size_t queue_capacity,
                         std::size_t queue_depth) const {
  Json record = Json::object();
  record.set("schema", "ksum-serve-v1");
  record.set("workers", workers);
  record.set("queue_capacity", std::uint64_t(queue_capacity));
  record.set("queue_depth", std::uint64_t(queue_depth));
  record.set("in_flight", in_flight());

  Json counters = Json::object();
  counters.set("received", received());
  counters.set("accepted", accepted());
  // record_status bumps the per-status cell and completed_ as two separate
  // relaxed increments, so a concurrent snapshot can catch them mid-update.
  // Load each status cell once and report completed as their sum: the
  // emitted record is then self-consistent by construction, which the
  // schema validator requires.
  std::uint64_t snapshot[std::size(kAllStatuses)] = {};
  std::uint64_t status_total = 0;
  for (std::size_t i = 0; i < std::size(kAllStatuses); ++i) {
    snapshot[i] = by_status(kAllStatuses[i]);
    status_total += snapshot[i];
  }
  counters.set("completed", status_total);
  std::uint64_t overloaded = 0;
  for (std::size_t i = 0; i < std::size(kAllStatuses); ++i) {
    counters.set(to_string(kAllStatuses[i]), snapshot[i]);
    if (kAllStatuses[i] == StatusCode::kOverloaded) overloaded = snapshot[i];
  }
  // "shed" is the operator-facing alias for overloaded replies; retries are
  // serve-level re-submissions past the first attempt.
  counters.set("shed", overloaded);
  counters.set("retries", retries());
  counters.set("degraded", degraded());
  counters.set("faults_detected", faults_detected());
  record.set("counters", std::move(counters));

  Json latency = Json::object();
  latency.set("modelled", summary_to_json(modelled_summary()));
  latency.set("wall", summary_to_json(wall_summary()));
  record.set("latency_ms", std::move(latency));

  validate_serve_json(record);
  return record;
}

void validate_serve_json(const Json& json) {
  const profile::Reader record(json, "ksum-serve-v1");
  const profile::Reader schema = record.member("schema");
  schema.expect(schema.string() == "ksum-serve-v1",
                "must be \"ksum-serve-v1\"");
  const profile::Reader counters = record.member("counters");
  counters.expect(counters.member("shed").number() ==
                      counters.member("overloaded").number(),
                  "shed must equal overloaded");
  double by_status_total = 0;
  for (const StatusCode status : kAllStatuses) {
    by_status_total += counters.member(to_string(status)).number();
  }
  counters.expect(by_status_total == counters.member("completed").number(),
                  "per-status counts must sum to completed");
  const profile::Reader latency = record.member("latency_ms");
  validate_summary(latency.member("modelled"));
  validate_summary(latency.member("wall"));
}

}  // namespace ksum::serve
