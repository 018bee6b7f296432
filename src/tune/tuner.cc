#include "tune/tuner.h"

#include "analytic/pipeline_model.h"
#include "common/error.h"
#include "exec/thread_pool.h"

namespace ksum::tune {

using gpukernels::TileGeometry;

TuneOptions options_for(const pipelines::RunOptions& options,
                        const std::string& profile) {
  TuneOptions tune_options;
  tune_options.device = options.device;
  tune_options.timing = options.timing;
  tune_options.layout = options.mainloop.layout;
  tune_options.profile = profile;
  return tune_options;
}

bool ranks_before(double seconds, const TileGeometry& geometry,
                  double other_seconds, const TileGeometry& other) {
  if (seconds != other_seconds) return seconds < other_seconds;
  return !other.is_paper() &&
         (geometry.is_paper() || geometry.to_string() < other.to_string());
}

TuneReport tune(const TuneRequest& request, const TuneOptions& options) {
  KSUM_REQUIRE(request.m > 0 && request.n > 0 && request.k > 0,
               "tune needs nonzero problem dimensions");
  KSUM_REQUIRE(pipelines::is_simulated(request.backend),
               "tune needs a simulated backend; " +
                   pipelines::to_string(request.backend) +
                   " runs on the host and has no tile geometry");

  TuneReport report;
  report.request = request;
  for (const auto& verdict :
       evaluate_candidates(options.device, options.layout)) {
    TuneMeasurement m;
    m.verdict = verdict;
    report.measurements.push_back(std::move(m));
  }

  std::vector<std::size_t> survivors;
  for (std::size_t i = 0; i < report.measurements.size(); ++i) {
    if (report.measurements[i].verdict.viable) survivors.push_back(i);
  }
  KSUM_CHECK_MSG(!survivors.empty(),
             "no tile-geometry candidate survived pruning");

  exec::ThreadPool pool(options.threads);
  pool.parallel_for(survivors.size(), [&](std::size_t idx) {
    TuneMeasurement& m = report.measurements[survivors[idx]];
    pipelines::RunOptions run_options;
    run_options.device = options.device;
    run_options.timing = options.timing;
    run_options.mainloop.layout = options.layout;
    run_options.mainloop.geometry = m.verdict.geometry;
    analytic::PipelineModel model(run_options);
    m.executed = true;
    m.scaled_seconds =
        model
            .estimate_solve(pipelines::solution_of(request.backend),
                            request.m, request.n, request.k)
            .seconds;
  });

  const TuneMeasurement* best = nullptr;
  for (const auto& m : report.measurements) {
    if (m.executed &&
        (best == nullptr ||
         ranks_before(m.scaled_seconds, m.verdict.geometry,
                      best->scaled_seconds, best->verdict.geometry))) {
      best = &m;
    }
  }
  KSUM_CHECK_MSG(best != nullptr, "no candidate executed");
  report.best = best->verdict.geometry;
  report.best_scaled_seconds = best->scaled_seconds;
  return report;
}

}  // namespace ksum::tune
