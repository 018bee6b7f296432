#include "trace.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <optional>

#include "blas/vector_ops.h"
#include "common/error.h"
#include "gpukernels/abft_check.h"
#include "gpukernels/device_workspace.h"
#include "gpukernels/fused_ksum.h"
#include "gpukernels/gemm_cublas_model.h"
#include "gpukernels/gemv_summation.h"
#include "gpukernels/kernel_eval.h"
#include "gpukernels/norms.h"
#include "replay.h"
#include "workload/padding.h"

namespace perfbench {

int SpanRecorder::begin(const std::string& name, int parent) {
  Span span;
  span.name = name;
  span.parent = parent;
  span.start_s = seconds_since(origin_);
  spans_.push_back(std::move(span));
  return static_cast<int>(spans_.size()) - 1;
}

void SpanRecorder::end(int id, const std::string& rename) {
  Span& span = spans_.at(static_cast<std::size_t>(id));
  span.end_s = seconds_since(origin_);
  if (!rename.empty()) span.name = rename;
}

double SpanRecorder::children(int id) const {
  double total = 0;
  for (const Span& span : spans_) {
    if (span.parent == id) total += span.seconds();
  }
  return total;
}

void SpanRecorder::print_summary() const {
  std::map<std::string, std::pair<std::size_t, double>> by_name;
  for (const Span& span : spans_) {
    auto& entry = by_name[span.name];
    ++entry.first;
    entry.second += span.seconds();
  }
  note("spans (name, count, total s):");
  for (const auto& [name, entry] : by_name) {
    note("  %-40s %6zu %12.6f", name.c_str(), entry.first, entry.second);
  }
}

void PhaseObserver::attach_to(const gpusim::Device& device) {
  device_ = &device;
}

void PhaseObserver::on_launch_begin(const gpusim::LaunchObservation& launch) {
  kernel_ = launch.kernel_name;
  first_cta_ = true;
}

void PhaseObserver::on_cta_begin(int bx, int by) {
  (void)bx;
  (void)by;
  phase_ = "cta";
  phase_start_ = Clock::now();
  capturing_ = first_cta_;
  first_cta_ = false;
  if (capturing_) {
    captured_.push_back(CapturedCta{kernel_, {}, {}, {}});
    cta_start_ = device_->in_flight_counters();
  }
}

void PhaseObserver::close_phase(Clock::time_point now) {
  phase_seconds_[kernel_ + "." + phase_] +=
      std::chrono::duration<double>(now - phase_start_).count();
  phase_start_ = now;
}

void PhaseObserver::on_phase(const gpusim::PhaseObservation& marker) {
  close_phase(Clock::now());
  phase_ = marker.phase;
}

void PhaseObserver::on_shared_access(const gpusim::SharedAccessEvent& event) {
  ++shared_events_;
  if (capturing_) {
    captured_.back().shared.push_back(
        CapturedShared{event.access, event.kind, event.transactions});
  }
}

void PhaseObserver::on_global_access(const gpusim::GlobalAccessEvent& event) {
  ++global_events_;
  if (capturing_) {
    captured_.back().global.push_back(
        CapturedGlobal{event.access, event.kind});
  }
}

void PhaseObserver::on_cta_end() {
  close_phase(Clock::now());
  if (capturing_) {
    captured_.back().counters = device_->in_flight_counters() - cta_start_;
    capturing_ = false;
  }
}

ReplicaRun run_replica(SpanRecorder& spans, pipelines::Solution solution,
                       const workload::Instance& instance,
                       const core::KernelParams& params, bool checks,
                       gpusim::Device* warm, PhaseObserver* observer) {
  namespace gk = gpukernels;
  const Clock::time_point start = Clock::now();
  ReplicaRun out;
  out.span = spans.begin("pipelines.solve");
  const bool unfused = solution != pipelines::Solution::kFused;
  const pipelines::RunOptions defaults;
  const gk::TileGeometry& geometry = defaults.mainloop.geometry;
  const std::size_t block_rows =
      unfused ? 128 : static_cast<std::size_t>(geometry.tile_m);

  // --- setup: padding, device, workspace, upload --------------------------
  const int setup = spans.begin("pipelines.setup", out.span);
  std::optional<workload::Instance> padded;
  const bool ragged = !workload::is_tile_aligned(instance.spec);
  if (ragged) padded.emplace(workload::pad_instance(instance));
  const workload::Instance& run = ragged ? *padded : instance;
  const std::size_t m = run.spec.m, n = run.spec.n, k = run.spec.k;
  const std::size_t arena = pipelines::required_device_bytes(
      m, n, k, unfused, static_cast<std::size_t>(geometry.tile_n));
  std::optional<gpusim::Device> fresh;
  gpusim::Device* device = warm;
  if (device != nullptr && device->memory().capacity() >= arena) {
    device->reset();
  } else {
    device = &fresh.emplace(defaults.device, arena);
  }
  gk::Workspace ws =
      gk::allocate_workspace(*device, m, n, k, unfused, checks, block_rows);
  gk::upload_instance(*device, ws, run);
  gk::ChecksumSink vsink;
  if (checks) {
    vsink.enabled = true;
    vsink.buffer = ws.vsum_check;
    vsink.blocks = m / block_rows;
  }
  spans.end(setup);

  // --- launches, in run_pipeline's order -----------------------------------
  if (observer != nullptr) {
    observer->attach_to(*device);
    device->set_access_observer(observer);
  }
  const auto launch = [&](auto&& call) {
    const int id = spans.begin("gpukernels.launch", out.span);
    const gpusim::LaunchResult result = call();
    spans.end(id, "gpukernels." + result.kernel_name);
  };
  launch([&] { return gk::run_norms_a(*device, ws); });
  launch([&] { return gk::run_norms_b(*device, ws); });
  if (!unfused) {
    gk::FusedOptions fused;
    fused.mainloop = defaults.mainloop;
    fused.atomic_reduction = defaults.atomic_reduction;
    fused.checksum = vsink;
    launch([&] { return gk::run_fused_ksum(*device, ws, params, fused).main; });
  } else {
    KSUM_REQUIRE(solution == pipelines::Solution::kCublasUnfused,
                 "the replica covers the fused and cuBLAS-unfused solutions");
    launch([&] {
      return gk::run_gemm_cublas_model(*device, ws.a, ws.b, ws.c, m, n, k);
    });
    if (checks) launch([&] { return gk::run_abft_colsum(*device, ws); });
    launch([&] { return gk::run_kernel_eval(*device, ws, params); });
    launch([&] { return gk::run_gemv_summation(*device, ws, vsink); });
  }
  if (observer != nullptr) device->set_access_observer(nullptr);

  // --- download: final writeback and V -------------------------------------
  const int download = spans.begin("pipelines.download", out.span);
  device->flush_l2();
  Vector v = gk::download_result(*device, ws);
  if (ragged) {
    out.v = Vector(instance.spec.m);
    std::copy_n(v.data(), instance.spec.m, out.v.data());
  } else {
    out.v = std::move(v);
  }
  spans.end(download);

  out.counters = device->counters();
  spans.end(out.span);
  out.wall_s = seconds_since(start);
  return out;
}

const char* const kKernels[6] = {"norms_a",     "norms_b",
                                 "fused_ksum",  "gemm_cublas",
                                 "kernel_eval", "gemv_summation"};

bool same_bits(const Vector& a, const Vector& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

bool agrees_with_oracle(const Vector& v, const Vector& oracle) {
  // docs/TESTING.md: relative error ≤ 5e-3 with a 1e-2 absolute floor.
  return v.size() == oracle.size() &&
         blas::max_rel_diff(v.span(), oracle.span(), 1e-2) < 5e-3;
}

bool same_model(const pipelines::PipelineReport& a,
                const pipelines::PipelineReport& b) {
  return a.total == b.total && a.seconds == b.seconds &&
         a.energy.total() == b.energy.total();
}

void set_model_metrics(Result& r, double modelled_s, double energy_j) {
  r.set("model.modelled_s", modelled_s, "sim_s");
  r.set("model.energy_j", energy_j, "sim_J");
}

void set_gpusim_counts(Result& r, const gpusim::Counters& c,
                       double host_seconds) {
  const auto count = [&](const char* name, std::uint64_t value) {
    r.set(name, double(value), "count");
  };
  count("gpusim.smem_requests", c.smem_load_requests + c.smem_store_requests);
  count("gpusim.smem_transactions", c.smem_total_transactions());
  count("gpusim.smem_bank_conflicts", c.smem_bank_conflicts);
  count("gpusim.global_requests", c.global_load_requests +
                                      c.global_store_requests +
                                      c.atomic_requests);
  count("gpusim.l2_sectors", c.l2_total_transactions());
  count("gpusim.dram_transactions", c.dram_total_transactions());
  count("gpusim.warp_instructions", c.warp_instructions);
  r.set("gpusim.l2_read_hit_ratio",
        c.l2_read_transactions == 0
            ? 0.0
            : double(c.l2_read_hits) / double(c.l2_read_transactions),
        "ratio");
  r.set("gpusim.host_ns_per_warp_inst",
        c.warp_instructions == 0
            ? 0.0
            : host_seconds * 1e9 / double(c.warp_instructions),
        "ns");
}

void set_replay_metrics(Result& r, const PhaseObserver& observer,
                        const gpusim::Counters& total, double min_seconds) {
  const pipelines::RunOptions defaults;
  const ReplayResult replay =
      replay_ctas(observer.captured(), defaults.device, min_seconds);
  r.check(replay.mismatch.empty(),
          "gpusim replay totals differ from the captured counters: " +
              replay.mismatch);
  note("replay: %llu smem requests, %llu global requests, %llu L2 sectors "
       "from %zu captured CTAs",
       static_cast<unsigned long long>(replay.smem_requests),
       static_cast<unsigned long long>(replay.global_requests),
       static_cast<unsigned long long>(replay.l2_sectors),
       observer.captured().size());
  r.set("gpusim.smem_ns_per_request", replay.smem_ns_per_request, "ns");
  r.set("gpusim.coalescer_ns_per_request", replay.coalescer_ns_per_request,
        "ns");
  r.set("gpusim.l2_ns_per_sector", replay.l2_ns_per_sector, "ns");
  r.set("gpusim.smem_est_s",
        replay.smem_ns_per_request * double(observer.shared_events()) * 1e-9,
        "s");
  r.set("gpusim.global_est_s",
        (replay.coalescer_ns_per_request * double(observer.global_events()) +
         replay.l2_ns_per_sector * double(total.l2_total_transactions())) *
            1e-9,
        "s");
}

std::map<std::string, double> child_totals(const SpanRecorder& spans,
                                           const std::vector<int>& replicas) {
  std::map<std::string, double> totals;
  for (const SpanRecorder::Span& span : spans.spans()) {
    if (std::find(replicas.begin(), replicas.end(), span.parent) !=
        replicas.end()) {
      totals[span.name] += span.seconds();
    }
  }
  return totals;
}

void add_modelled(std::map<std::string, double>& modelled,
                  const pipelines::PipelineReport& report) {
  const pipelines::RunOptions defaults;
  for (const pipelines::KernelReport& kernel : report.kernels) {
    modelled[kernel.name] += kernel.timing.seconds(defaults.device);
  }
}

void set_kernel_metrics(Result& r,
                        const std::vector<std::map<std::string, double>>& ops,
                        const std::map<std::string, double>& modelled,
                        const PhaseObserver* observer) {
  const auto op_median = [&](const std::string& name) {
    std::vector<double> values;
    for (const auto& op : ops) {
      const auto it = op.find(name);
      values.push_back(it == op.end() ? 0.0 : it->second);
    }
    return median(values);
  };
  for (const char* kernel : kKernels) {
    const std::string prefix = std::string("gpukernels.") + kernel;
    r.set(prefix + ".host_s", op_median(prefix), "s");
    const auto it = modelled.find(kernel);
    r.set(prefix + ".modelled_s", it == modelled.end() ? 0.0 : it->second,
          "sim_s");
  }
  r.set("pipelines.setup_s", op_median("pipelines.setup"), "s");
  r.set("pipelines.download_s", op_median("pipelines.download"), "s");
  const auto phase = [&](const char* name) {
    if (observer == nullptr) return 0.0;
    const auto it = observer->phase_seconds().find(
        std::string("fused_ksum.") + name);
    return it == observer->phase_seconds().end() ? 0.0 : it->second;
  };
  // Work before a CTA's first marker belongs to its prologue.
  r.set("gpukernels.fused_ksum.prologue.host_s",
        phase("cta") + phase("prologue"), "s");
  for (const char* name : {"mainloop", "epilogue", "reduction"}) {
    r.set(std::string("gpukernels.fused_ksum.") + name + ".host_s",
          phase(name), "s");
  }
}

void set_coverage(Result& r, const std::vector<double>& traced_s,
                  const std::vector<double>& untraced_s, double share) {
  std::vector<double> ratios;
  for (std::size_t i = 0; i < traced_s.size() && i < untraced_s.size(); ++i) {
    if (untraced_s[i] > 0) ratios.push_back(traced_s[i] / untraced_s[i]);
  }
  const double coverage = median(ratios);
  r.set("trace.coverage", coverage, "ratio");
  note("coverage: traced spans cover %.1f%% of the untraced time (median of "
       "%zu pairs, allowed ±%.0f%%)",
       100.0 * coverage, ratios.size(), 100.0 * share);
  if (std::abs(coverage - 1.0) > share) {
    r.invalidate("traced spans cover " + std::to_string(100.0 * coverage) +
                 "% of the untraced wall time");
  }
}

}  // namespace perfbench
