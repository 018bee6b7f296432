// Shared vocabulary of the perfbench binary: run arguments, the result line,
// and small statistics helpers.
//
// Two clocks are kept apart everywhere in this directory. Host metrics are
// wall time measured here with std::chrono::steady_clock; modelled metrics
// come from the simulated device (pipelines::PipelineReport) and must repeat
// bit-for-bit, so they are checked for exactness rather than timed.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace ksum {}

namespace perfbench {

// The library's modules (pipelines, gpusim, ...) by their own names.
using namespace ::ksum;

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Open-loop arrival rate of serve_mixed (requests per second).
  double rate = 0;
};

struct Metric {
  double value = 0;
  std::string unit;
};

/// One run's outcome: the last stdout line, which run.py checks.
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// False when the run itself is not trustworthy (an open-loop generator
  /// that fell behind, a traced run whose spans do not cover the untraced
  /// wall time, a replica that diverged from the library).
  bool valid = true;
  std::map<std::string, Metric> metrics;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  /// Counts one checked operation; `ok` false counts it as failed.
  void check(bool ok, const std::string& what);
  /// Marks the whole run invalid with a reason on stderr.
  void invalidate(const std::string& why);
};

/// Median of a non-empty sample (mean of the two middle values when even).
double median(std::vector<double> sample);
/// Nearest-rank percentile p in [0, 100] of a non-empty sample.
double percentile(std::vector<double> sample, double p);
double sum(const std::vector<double>& sample);

/// Peak resident set size of this process in MiB.
double peak_rss_mb();

/// Prints a diagnostic line to stderr (never to stdout, whose last line is
/// the result).
void note(const char* format, ...) __attribute__((format(printf, 1, 2)));

// Workload entry points (one translation unit each).
Result run_dense(const Args& args);
Result run_serve(const Args& args);
Result run_tree(const Args& args);

}  // namespace perfbench
