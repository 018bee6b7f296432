// perfbench: the host-wall benchmark binary of the ksum library.
//
//   perfbench --workload <fused_dense|unfused_stream|serve_mixed|
//                         tree_clustered>
//             --seed <n> --seconds <s> --trace <0|1> [--rate <req/s>]
//
// The last stdout line is one JSON object:
//   {"correct": bool, "attempted": n, "failed": n, "metrics": {...}}
// with the end-to-end metrics for --trace 0 and the per-layer metrics for
// --trace 1 (perfbench/README.md lists them). Diagnostics go to stderr.
// Exit status is 0 whenever a result line was printed; usage errors exit 2
// and exceptions 3, without one.
#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include <sys/resource.h>

#include "common.h"

namespace perfbench {

void Result::check(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) {
    ++failed;
    note("FAILED: %s", what.c_str());
  }
}

void Result::invalidate(const std::string& why) {
  valid = false;
  note("INVALID RUN: %s", why.c_str());
}

double median(std::vector<double> sample) {
  if (sample.empty()) return 0;
  std::sort(sample.begin(), sample.end());
  const std::size_t n = sample.size();
  return n % 2 == 1 ? sample[n / 2] : 0.5 * (sample[n / 2 - 1] + sample[n / 2]);
}

double percentile(std::vector<double> sample, double p) {
  if (sample.empty()) return 0;
  std::sort(sample.begin(), sample.end());
  const double rank = std::ceil(p / 100.0 * double(sample.size()));
  const std::size_t index =
      rank < 1 ? 0 : std::min(sample.size(), std::size_t(rank)) - 1;
  return sample[index];
}

double sum(const std::vector<double>& sample) {
  double total = 0;
  for (const double v : sample) total += v;
  return total;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return double(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

void note(const char* format, ...) {
  std::va_list args;
  va_start(args, format);
  std::fputs("perfbench: ", stderr);
  std::vfprintf(stderr, format, args);
  std::fputc('\n', stderr);
  va_end(args);
}

}  // namespace perfbench

namespace {

using namespace perfbench;

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--rate <req/s>]\n",
               why);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      args.trace = value == "1";
      if (value != "0" && value != "1") usage("--trace takes 0 or 1");
    } else if (flag == "--rate") {
      args.rate = std::strtod(value.c_str(), &end);
    } else {
      usage(("unknown flag " + flag).c_str());
    }
    if (end != nullptr && *end != '\0') {
      usage(("malformed value for " + flag).c_str());
    }
  }
  if (!have_workload) usage("--workload is required");
  if (!(args.seconds > 0 && args.seconds <= 120)) {
    usage("--seconds must be in (0, 120]");
  }
  return args;
}

void print_result(const Result& result) {
  std::string metrics;
  for (const auto& [name, metric] : result.metrics) {
    if (!std::isfinite(metric.value)) {
      std::fprintf(stderr, "perfbench: metric %s is not finite\n",
                   name.c_str());
      std::exit(3);
    }
    char buffer[256];
    std::snprintf(buffer, sizeof(buffer),
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  metrics.empty() ? "" : ", ", name.c_str(), metric.value,
                  metric.unit.c_str());
    metrics += buffer;
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
      ", \"metrics\": {%s}}\n",
      result.valid && result.failed == 0 ? "true" : "false",
      result.attempted, result.failed, metrics.c_str());
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  try {
    Result result;
    if (args.workload == "fused_dense" || args.workload == "unfused_stream") {
      result = run_dense(args);
    } else if (args.workload == "serve_mixed") {
      if (!(args.rate > 0)) usage("serve_mixed needs --rate > 0");
      result = run_serve(args);
    } else if (args.workload == "tree_clustered") {
      result = run_tree(args);
    } else {
      usage(("unknown workload " + args.workload).c_str());
    }
    if (result.attempted == 0) {
      result.invalidate("no operation was checked");
      result.attempted = 1;
      result.failed = 1;
    }
    print_result(result);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", args.workload.c_str(),
                 e.what());
    return 3;
  }
  return 0;
}
