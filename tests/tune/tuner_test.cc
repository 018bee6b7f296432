// The enumerate → prune → price → pick pass: winner selection, the
// scoring invariants, agreement with full simulation, and the error
// contract for requests the tuner cannot serve.
#include "tune/tuner.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <string>
#include <vector>

#include "common/error.h"
#include "config/profiles/device_profile.h"
#include "pipelines/solver.h"
#include "tune/tune_json.h"

namespace ksum {
namespace {

using pipelines::Backend;

// One tune, shared across the assertions below (each full pass calibrates
// every surviving candidate, so run it once).
const tune::TuneReport& paper_shape_report() {
  static const tune::TuneReport report = [] {
    tune::TuneRequest request;
    request.m = 4096;
    request.n = 4096;
    request.k = 8;
    request.backend = Backend::kSimFused;
    tune::TuneOptions options;
    options.threads = 4;
    return tune::tune(request, options);
  }();
  return report;
}

TEST(TunerTest, SimulatedBackendsOnly) {
  EXPECT_TRUE(pipelines::is_simulated(Backend::kSimFused));
  EXPECT_TRUE(pipelines::is_simulated(Backend::kSimCudaUnfused));
  EXPECT_TRUE(pipelines::is_simulated(Backend::kSimCublasUnfused));
  EXPECT_FALSE(pipelines::is_simulated(Backend::kCpuDirect));
  EXPECT_FALSE(pipelines::is_simulated(Backend::kCpuExpansion));
}

TEST(TunerTest, RejectsHostBackendsAndEmptyShapes) {
  tune::TuneRequest request;
  request.m = 128;
  request.n = 128;
  request.k = 8;
  request.backend = Backend::kCpuDirect;
  EXPECT_THROW(tune::tune(request), Error);

  request.backend = Backend::kSimFused;
  request.m = 0;
  EXPECT_THROW(tune::tune(request), Error);
}

TEST(TunerTest, PaperShapeSelectsThePaperGeometry) {
  // The acceptance bar: at the paper's operating point (M=N=4096, K=8) the
  // tuner must rediscover the paper's 128×128/8×8 blocking.
  const auto& report = paper_shape_report();
  EXPECT_TRUE(report.best.is_paper()) << "picked " << report.best.to_string();
  EXPECT_GT(report.best_scaled_seconds, 0.0);
}

TEST(TunerTest, ExactlyTheViableCandidatesExecute) {
  const auto& report = paper_shape_report();
  ASSERT_EQ(report.measurements.size(), 54u);  // full enumeration order
  for (const auto& m : report.measurements) {
    EXPECT_EQ(m.executed, m.verdict.viable) << m.verdict.geometry.to_string();
    // Each geometry's V is checked against the host oracle by
    // ExactCountTest (tests/analytic/calibration_test.cc), not here.
    if (m.executed) {
      EXPECT_GT(m.scaled_seconds, 0.0);
    } else {
      EXPECT_EQ(m.scaled_seconds, 0.0);
    }
  }
}

TEST(TunerTest, WinnerHasTheMinimumScaledSeconds) {
  const auto& report = paper_shape_report();
  double best = 0;
  bool found = false;
  for (const auto& m : report.measurements) {
    if (!m.executed) continue;
    if (!found || m.scaled_seconds < best) best = m.scaled_seconds;
    found = true;
    if (m.verdict.geometry == report.best) {
      EXPECT_DOUBLE_EQ(m.scaled_seconds, report.best_scaled_seconds);
    }
  }
  ASSERT_TRUE(found);
  EXPECT_DOUBLE_EQ(report.best_scaled_seconds, best);
}

TEST(TunerTest, DeepKTilesWinTheLongAccumulation) {
  // At K=250 the loop-overhead instructions the simulator actually counts
  // favour 16-deep k-tiles; the winner must at least match the paper's
  // modelled time (strictly better on this grid).
  tune::TuneRequest request;
  request.m = 4096;
  request.n = 4096;
  request.k = 250;
  request.backend = Backend::kSimFused;
  tune::TuneOptions options;
  options.threads = 4;
  const auto report = tune::tune(request, options);
  double paper_seconds = 0;
  for (const auto& m : report.measurements) {
    if (m.executed && m.verdict.geometry.is_paper()) {
      paper_seconds = m.scaled_seconds;
    }
  }
  ASSERT_GT(paper_seconds, 0.0);
  EXPECT_LE(report.best_scaled_seconds, paper_seconds);
  EXPECT_EQ(report.best.tile_k, 16) << report.best.to_string();
}

TEST(TunerTest, WinnerMatchesFullSimulation) {
  // The tuner prices each candidate from one calibrated CTA; full
  // simulation of every viable candidate's solve (zero-padded to its own
  // alignment, exactly as solve pads it) must agree on the winner. The
  // score is the summed modelled kernel seconds, with the main loop in
  // paper-equivalent rank-8 steps for every tileK.
  struct Case {
    const char* profile;
    std::size_t m, n, k;
  };
  for (const Case& c : {Case{"gtx970", 256, 256, 8},
                        Case{"gtx970", 640, 384, 8},
                        Case{"modern", 640, 384, 8},
                        Case{"gtx970", 200, 200, 16}}) {
    SCOPED_TRACE(std::string(c.profile) + " " + std::to_string(c.m) + "x" +
                 std::to_string(c.n) + "x" + std::to_string(c.k));
    const auto profile = config::profiles::builtin(c.profile);
    pipelines::RunOptions base;
    base.device = profile.device;
    base.timing = profile.timing;
    base.energy = profile.energy;
    auto options = tune::options_for(base, profile.name);
    options.threads = 4;
    const auto report =
        tune::tune({c.m, c.n, c.k, Backend::kSimFused}, options);

    workload::ProblemSpec spec;
    spec.m = c.m;
    spec.n = c.n;
    spec.k = c.k;
    spec.seed = 42;
    const auto instance = workload::make_instance(spec);
    const auto params = core::params_from_spec(spec);
    double best_simulated = std::numeric_limits<double>::infinity();
    double winner_simulated = -1;
    for (const auto& m : report.measurements) {
      if (!m.executed) continue;
      pipelines::RunOptions run = base;
      run.mainloop.geometry = m.verdict.geometry;
      const auto result =
          pipelines::solve(instance, params, Backend::kSimFused, run);
      ASSERT_TRUE(result.report.has_value());
      double seconds = 0;
      for (const auto& kernel : result.report->kernels) {
        seconds += kernel.timing.seconds(run.device);
      }
      best_simulated = std::min(best_simulated, seconds);
      if (m.verdict.geometry == report.best) winner_simulated = seconds;
    }
    EXPECT_EQ(winner_simulated, best_simulated)
        << "tuner picked " << report.best.to_string();
  }
}

TEST(TunerTest, RecordIsThreadCountInvariant) {
  // Every viable candidate runs on its own simulated device and the
  // results are gathered in enumeration order, so the serialised record
  // must be byte-identical for any worker count.
  tune::TuneRequest request;
  request.m = 640;
  request.n = 384;
  request.k = 8;
  request.backend = Backend::kSimFused;

  std::vector<std::string> dumps;
  for (const int threads : {1, 2, 8}) {
    tune::TuneOptions options;
    options.threads = threads;
    dumps.push_back(
        tune::tune_record("best", {tune::tune(request, options)}).dump());
  }
  ASSERT_EQ(dumps.size(), 3u);
  EXPECT_EQ(dumps[0], dumps[1]) << "1-thread vs 2-thread record diverged";
  EXPECT_EQ(dumps[0], dumps[2]) << "1-thread vs 8-thread record diverged";
}

}  // namespace
}  // namespace ksum
