// Host-side tracing for the --trace 1 runs: an in-memory span recorder, a
// replica of pipelines::run_pipeline that puts a span around every call into
// the gpukernels layer, an AccessObserver that timestamps kernel phases and
// captures one CTA's memory streams per launch, and the per-layer metric
// helpers the workloads share.
//
// Spans live only in this directory: the library itself is not instrumented.
// The replica calls the same public functions run_pipeline calls, in the same
// order, so its V and counters must be bit-identical to pipelines::solve's;
// the workloads check that before they trust any span.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common.h"
#include "gpusim/access_observer.h"
#include "gpusim/device.h"
#include "pipelines/pipeline.h"
#include "workload/point_generators.h"

namespace perfbench {

class SpanRecorder {
 public:
  struct Span {
    std::string name;
    double start_s = 0;  // since the recorder was built
    double end_s = 0;
    int parent = -1;
    double seconds() const { return end_s - start_s; }
  };

  SpanRecorder() : origin_(Clock::now()) {}

  int begin(const std::string& name, int parent = -1);
  /// Closes span `id`; a non-empty `rename` replaces its name (for spans
  /// named after what the call returned, such as the launched kernel).
  void end(int id, const std::string& rename = "");

  const std::vector<Span>& spans() const { return spans_; }
  /// Σ durations of the direct children of span `id`.
  double children(int id) const;
  /// Per-name totals, for the stderr summary.
  void print_summary() const;

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// One captured memory request of a CTA; shared ones carry the bank
/// model's verdict.
struct CapturedShared {
  gpusim::SharedWarpAccess access;
  gpusim::AccessKind kind = gpusim::AccessKind::kLoad;
  int transactions = 0;
};
struct CapturedGlobal {
  gpusim::GlobalWarpAccess access;
  gpusim::AccessKind kind = gpusim::AccessKind::kLoad;
};

/// The first CTA of one launch: its access streams and the counter delta
/// the device recorded while it ran.
struct CapturedCta {
  std::string kernel;
  std::vector<CapturedShared> shared;
  std::vector<CapturedGlobal> global;
  gpusim::Counters counters;
};

/// Timestamps phase markers (per kernel, summed over CTAs), counts every
/// observed request, and captures the first CTA of each launch.
class PhaseObserver final : public gpusim::AccessObserver {
 public:
  /// The device whose in-flight counters delimit captured CTAs; set by
  /// run_replica before the observer is attached.
  void attach_to(const gpusim::Device& device);

  void on_launch_begin(const gpusim::LaunchObservation& launch) override;
  void on_cta_begin(int bx, int by) override;
  void on_phase(const gpusim::PhaseObservation& marker) override;
  void on_shared_access(const gpusim::SharedAccessEvent& event) override;
  void on_global_access(const gpusim::GlobalAccessEvent& event) override;
  void on_cta_end() override;

  /// Host seconds per "<kernel>.<phase>", summed over every CTA.
  const std::map<std::string, double>& phase_seconds() const {
    return phase_seconds_;
  }
  const std::vector<CapturedCta>& captured() const { return captured_; }
  std::uint64_t shared_events() const { return shared_events_; }
  std::uint64_t global_events() const { return global_events_; }

 private:
  void close_phase(Clock::time_point now);

  const gpusim::Device* device_ = nullptr;
  std::string kernel_;
  std::string phase_;
  Clock::time_point phase_start_;
  bool capturing_ = false;
  bool first_cta_ = false;
  gpusim::Counters cta_start_;
  std::map<std::string, double> phase_seconds_;
  std::vector<CapturedCta> captured_;
  std::uint64_t shared_events_ = 0;
  std::uint64_t global_events_ = 0;
};

struct ReplicaRun {
  Vector v;
  gpusim::Counters counters;
  double wall_s = 0;
  int span = -1;  // the enclosing "pipelines.solve" span
};

/// Runs `solution` on `instance` the way pipelines::solve does for the
/// default RunOptions (plus ABFT checks when `checks`): zero-padding to the
/// 128/8 tile alignment, a fresh Device (or `warm`, reset, when it is large
/// enough), workspace and upload, every launch through gpukernels::run_*,
/// the L2 flush and the download. Spans: pipelines.solve around it all,
/// with children pipelines.setup, gpukernels.<launched kernel> and
/// pipelines.download. `observer`, when set, is attached for the launches.
ReplicaRun run_replica(SpanRecorder& spans, pipelines::Solution solution,
                       const workload::Instance& instance,
                       const core::KernelParams& params, bool checks,
                       gpusim::Device* warm, PhaseObserver* observer);

// --- per-layer metric helpers shared by the workloads -----------------------

/// The kernels the per-layer metrics name, in pipeline order.
extern const char* const kKernels[6];

/// Bit-exact comparison of two result vectors.
bool same_bits(const Vector& a, const Vector& b);
/// The repository's dense agreement tolerance against the host oracle.
bool agrees_with_oracle(const Vector& v, const Vector& oracle);
/// Counters, modelled seconds and joules identical to the last bit.
bool same_model(const pipelines::PipelineReport& a,
                const pipelines::PipelineReport& b);

/// model.modelled_s and model.energy_j of one operation.
void set_model_metrics(Result& r, double modelled_s, double energy_j);

/// gpusim.* counts of one operation plus gpusim.host_ns_per_warp_inst, the
/// operation's untraced host seconds per simulated warp instruction.
void set_gpusim_counts(Result& r, const gpusim::Counters& c,
                       double host_seconds);

/// Replays `observer`'s captured CTAs (replay.h) and sets the gpusim.*_ns_*
/// metrics plus gpusim.smem_est_s / gpusim.global_est_s: ns per event times
/// the events the observed operation simulated. A replay whose totals
/// differ from the captured counters fails one check.
void set_replay_metrics(Result& r, const PhaseObserver& observer,
                        const gpusim::Counters& total, double min_seconds);

/// Σ, over the replica spans of one operation, of their children's host
/// seconds by child name (pipelines.setup, gpukernels.<k>, ...).
std::map<std::string, double> child_totals(const SpanRecorder& spans,
                                           const std::vector<int>& replicas);

/// Adds one report's modelled seconds per kernel into `modelled`.
void add_modelled(std::map<std::string, double>& modelled,
                  const pipelines::PipelineReport& report);

/// gpukernels.<k>.host_s / .modelled_s, pipelines.setup_s / download_s and
/// the fused_ksum phase times. `ops` holds each measured operation's child
/// totals (the median over operations is reported); `modelled` is one
/// operation's modelled seconds per kernel; `observer` may be null.
void set_kernel_metrics(Result& r,
                        const std::vector<std::map<std::string, double>>& ops,
                        const std::map<std::string, double>& modelled,
                        const PhaseObserver* observer);

/// trace.coverage = the median over pairs of traced span seconds / the
/// untraced wall seconds of the same operation measured next to it. A
/// coverage off 1 by more than `share` invalidates the run.
void set_coverage(Result& r, const std::vector<double>& traced_s,
                  const std::vector<double>& untraced_s, double share);

}  // namespace perfbench
