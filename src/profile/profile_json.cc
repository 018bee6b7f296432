#include "profile/profile_json.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"
#include "gpusim/access_site.h"
#include "profile/record.h"

namespace ksum::profile {

ProgramProfile build_program_profile(const std::string& program,
                                     std::size_t m, std::size_t n,
                                     std::size_t k,
                                     const config::DeviceSpec& device,
                                     const config::TimingSpec& timing,
                                     const config::EnergySpec& energy,
                                     std::vector<LaunchProfile> launches,
                                     const std::string& device_name) {
  ProgramProfile out;
  out.program = program;
  out.m = m;
  out.n = n;
  out.k = k;
  out.device_name = device_name;
  out.device = device;
  out.launches = std::move(launches);
  for (auto& launch : out.launches) {
    finalize_profile(device, timing,
                     default_timing_hints(launch.launch.kernel_name, k),
                     launch);
    out.energies.push_back(attribute_energy(energy, launch, launch.seconds));
    out.total_seconds += launch.seconds;
    out.total_counters += launch.counters;
  }
  out.total_energy = gpusim::compute_energy(
      energy, gpusim::CostInputs::from_counters(out.total_counters),
      out.total_seconds);
  return out;
}

Json counters_to_json(const gpusim::Counters& c) {
  // One member per counter; the assert ties this list to the struct so a
  // new counter cannot be added without extending the schema here.
  static_assert(sizeof(gpusim::Counters) == 29 * sizeof(std::uint64_t),
                "Counters changed: update counters_to_json and the "
                "ksum-prof-v1 schema docs");
  Json j = Json::object();
  j.set("fma_ops", c.fma_ops);
  j.set("alu_ops", c.alu_ops);
  j.set("sfu_ops", c.sfu_ops);
  j.set("warp_instructions", c.warp_instructions);
  j.set("smem_load_requests", c.smem_load_requests);
  j.set("smem_store_requests", c.smem_store_requests);
  j.set("smem_load_transactions", c.smem_load_transactions);
  j.set("smem_store_transactions", c.smem_store_transactions);
  j.set("smem_bank_conflicts", c.smem_bank_conflicts);
  j.set("global_load_requests", c.global_load_requests);
  j.set("global_store_requests", c.global_store_requests);
  j.set("atomic_requests", c.atomic_requests);
  j.set("l1_read_transactions", c.l1_read_transactions);
  j.set("l1_read_hits", c.l1_read_hits);
  j.set("l1_read_misses", c.l1_read_misses);
  j.set("l2_read_transactions", c.l2_read_transactions);
  j.set("l2_write_transactions", c.l2_write_transactions);
  j.set("l2_read_hits", c.l2_read_hits);
  j.set("l2_read_misses", c.l2_read_misses);
  j.set("dram_read_transactions", c.dram_read_transactions);
  j.set("dram_write_transactions", c.dram_write_transactions);
  j.set("barriers", c.barriers);
  j.set("ctas_launched", c.ctas_launched);
  j.set("kernel_launches", c.kernel_launches);
  j.set("faults_smem_bitflips", c.faults_smem_bitflips);
  j.set("faults_global_bitflips", c.faults_global_bitflips);
  j.set("faults_tile_corruptions", c.faults_tile_corruptions);
  j.set("faults_atomics_dropped", c.faults_atomics_dropped);
  j.set("faults_atomics_doubled", c.faults_atomics_doubled);
  return j;
}

Json energy_breakdown_json(const gpusim::EnergyBreakdown& e) {
  Json j = Json::object();
  j.set("compute", e.compute_j);
  j.set("smem", e.smem_j);
  j.set("l2", e.l2_j);
  j.set("dram", e.dram_j);
  j.set("static", e.static_j);
  j.set("total", e.total());
  return j;
}

namespace {

/// Maps process-global SiteIds (assigned in lazy intern order, which depends
/// on what ran earlier in the process — and, in batched profiling, on worker
/// scheduling) to record-local ids dense in order of first appearance, so a
/// record is a pure function of the profiled program. Built per record
/// across its launches in order.
class RecordSiteIds {
 public:
  std::uint64_t id_for(gpusim::SiteId site) {
    for (std::size_t i = 0; i < seen_.size(); ++i) {
      if (seen_[i] == site) return i + 1;  // 0 stays the untagged sentinel
    }
    seen_.push_back(site);
    return seen_.size();
  }

 private:
  std::vector<gpusim::SiteId> seen_;
};

Json launch_json(const LaunchProfile& launch,
                 const EnergyAttribution& energy, RecordSiteIds& site_ids) {
  Json j = Json::object();
  j.set("kernel", launch.launch.kernel_name);
  Json grid = Json::array();
  grid.push_back(launch.launch.grid_x);
  grid.push_back(launch.launch.grid_y);
  j.set("grid", std::move(grid));
  j.set("block_threads", launch.launch.block_threads);
  j.set("occupancy_blocks_per_sm", launch.launch.occupancy.blocks_per_sm);
  j.set("seconds", launch.seconds);
  j.set("bound", launch.timing.bound);
  j.set("counters", counters_to_json(launch.counters));

  Json phases = Json::array();
  const double total_wi =
      static_cast<double>(launch.counters.warp_instructions);
  for (const auto& slice : launch.phases) {
    Json p = Json::object();
    p.set("phase", slice.phase);
    // Phase wall time is apportioned by warp-instruction share — the
    // functional simulator has no intra-launch clock, and issue slots are
    // the one resource every phase consumes (see docs/PROFILING.md).
    const double share =
        total_wi > 0
            ? static_cast<double>(slice.counters.warp_instructions) / total_wi
            : 0.0;
    p.set("seconds", launch.seconds * share);
    p.set("counters", counters_to_json(slice.counters));
    phases.push_back(std::move(p));
  }
  j.set("phases", std::move(phases));

  Json sites = Json::array();
  const auto& registry = gpusim::SiteRegistry::instance();
  for (std::size_t i = 0; i < launch.sites.size(); ++i) {
    const SiteTraffic& traffic = launch.sites[i];
    const gpusim::AccessSite& info = registry.site(traffic.site);
    Json s = Json::object();
    s.set("site", traffic.site == 0 ? std::uint64_t{0}
                                    : site_ids.id_for(traffic.site));
    s.set("location", info.location());
    s.set("label", info.label);
    s.set("global_requests", traffic.global_requests());
    s.set("atomic_requests", traffic.atomic_requests);
    s.set("sectors", traffic.global_sectors);
    s.set("ideal_sectors", traffic.global_ideal_sectors);
    s.set("smem_requests", traffic.smem_requests);
    s.set("smem_transactions", traffic.smem_transactions);
    s.set("smem_ideal_transactions", traffic.smem_ideal_transactions);
    const SiteEnergy& se = energy.sites[i];
    Json ej = Json::object();
    ej.set("smem", se.smem_j);
    ej.set("l2", se.l2_j);
    ej.set("dram", se.dram_j);
    ej.set("total", se.total());
    s.set("energy_j", std::move(ej));
    sites.push_back(std::move(s));
  }
  j.set("sites", std::move(sites));

  Json launch_energy = energy_breakdown_json(energy.aggregate);
  Json residual = Json::object();
  residual.set("smem", energy.residual.smem_j);
  residual.set("l2", energy.residual.l2_j);
  residual.set("dram", energy.residual.dram_j);
  launch_energy.set("residual", std::move(residual));
  j.set("energy_j", std::move(launch_energy));
  return j;
}

}  // namespace

Json profile_to_json(const ProgramProfile& profile,
                     const std::string& timestamp) {
  KSUM_CHECK(profile.launches.size() == profile.energies.size());
  Json j = Json::object();
  j.set("schema", "ksum-prof-v1");
  j.set("program", profile.program);
  Json shape = Json::object();
  shape.set("m", profile.m);
  shape.set("n", profile.n);
  shape.set("k", profile.k);
  j.set("shape", std::move(shape));
  Json device = Json::object();
  device.set("name", profile.device_name);
  device.set("num_sms", profile.device.num_sms);
  device.set("core_clock_ghz", profile.device.core_clock_ghz);
  device.set("dram_bandwidth_gb_s", profile.device.dram_bandwidth_gb_s);
  j.set("device", std::move(device));
  Json launches = Json::array();
  RecordSiteIds site_ids;
  for (std::size_t i = 0; i < profile.launches.size(); ++i) {
    launches.push_back(
        launch_json(profile.launches[i], profile.energies[i], site_ids));
  }
  j.set("launches", std::move(launches));
  Json totals = Json::object();
  totals.set("seconds", profile.total_seconds);
  totals.set("counters", counters_to_json(profile.total_counters));
  totals.set("energy_j", energy_breakdown_json(profile.total_energy));
  j.set("totals", std::move(totals));
  if (!timestamp.empty()) j.set("timestamp", timestamp);
  return j;
}

namespace {

// The validators check the records' invariants — recomposition, contiguity,
// positivity — and read every field they need through the checked Reader.

void expect_schema(const Reader& record, std::string_view tag) {
  const Reader schema = record.member("schema");
  if (schema.string() != tag) {
    schema.fail("unknown schema \"" + schema.string() + "\"");
  }
}

void expect_positive_dims(const Reader& shape) {
  for (const char* key : {"m", "n", "k"}) {
    shape.member(key).expect(shape.member(key).number() > 0,
                             "must be positive");
  }
}

// `value` must equal `sum` within 1e-9 relative tolerance.
void expect_sum(const Reader& value, double sum, const char* parts) {
  const double v = value.number();
  const double scale = std::max({1.0, std::fabs(v), std::fabs(sum)});
  if (std::fabs(v - sum) > 1e-9 * scale) {
    value.fail(std::string("does not recompose ") + parts);
  }
}

void validate_energy(const Reader& energy) {
  double sum = 0;
  for (const char* key : {"compute", "smem", "l2", "dram", "static"}) {
    sum += energy.member(key).number();
  }
  expect_sum(energy.member("total"), sum, "its components");
}

void validate_launch(const Reader& launch) {
  const Reader energy = launch.member("energy_j");
  validate_energy(energy);
  // The attribution acceptance check: per-site energies + residual +
  // compute/static pseudo-buckets must recompose the aggregate total.
  double attributed =
      energy.member("compute").number() + energy.member("static").number();
  for (const char* key : {"smem", "l2", "dram"}) {
    attributed += energy.member("residual").member(key).number();
  }
  const Reader sites = launch.member("sites");
  for (std::size_t i = 0; i < sites.size(); ++i) {
    const Reader site_energy = sites.at(i).member("energy_j");
    const Reader total = site_energy.member("total");
    expect_sum(total,
               site_energy.member("smem").number() +
                   site_energy.member("l2").number() +
                   site_energy.member("dram").number(),
               "its components");
    attributed += total.number();
  }
  expect_sum(energy.member("total"), attributed, "the per-site energies");
}

void validate_profile(const Reader& record) {
  expect_schema(record, "ksum-prof-v1");
  expect_positive_dims(record.member("shape"));
  const Reader launches = record.member("launches");
  launches.expect(launches.size() > 0, "must not be empty");
  for (std::size_t i = 0; i < launches.size(); ++i) {
    validate_launch(launches.at(i));
  }
  validate_energy(record.member("totals").member("energy_j"));
}

}  // namespace

void validate_profile_json(const Json& record) {
  validate_profile(Reader(record, "ksum-prof-v1"));
}

Json batch_profiles_to_json(const std::vector<Json>& programs,
                            const std::string& timestamp) {
  Json record = Json::object();
  record.set("schema", "ksum-prof-batch-v1");
  double total_seconds = 0;
  double total_energy = 0;
  Json array = Json::array();
  for (const Json& program : programs) {
    const Json& totals = program.at("totals");
    total_seconds += totals.at("seconds").as_double();
    total_energy += totals.at("energy_j").at("total").as_double();
    array.push_back(program);
  }
  record.set("programs", std::move(array));
  Json totals = Json::object();
  totals.set("seconds", total_seconds);
  totals.set("energy_j_total", total_energy);
  record.set("totals", std::move(totals));
  if (!timestamp.empty()) record.set("timestamp", timestamp);
  return record;
}

Json shard_profiles_to_json(const std::string& axis, std::size_t m,
                            std::size_t n, std::size_t k,
                            const std::vector<ShardProfileEntry>& shards,
                            const std::string& timestamp) {
  KSUM_REQUIRE(axis == "m" || axis == "n",
               "shard record axis must be \"m\" or \"n\", got \"" + axis +
                   "\"");
  Json record = Json::object();
  record.set("schema", "ksum-prof-shard-v1");
  record.set("axis", axis);
  Json shape = Json::object();
  shape.set("m", std::uint64_t(m));
  shape.set("n", std::uint64_t(n));
  shape.set("k", std::uint64_t(k));
  record.set("shape", std::move(shape));
  double max_seconds = 0;
  double total_energy = 0;
  Json array = Json::array();
  for (const ShardProfileEntry& shard : shards) {
    const Json& totals = shard.profile.at("totals");
    max_seconds = std::max(max_seconds, totals.at("seconds").as_double());
    total_energy += totals.at("energy_j").at("total").as_double();
    Json entry = Json::object();
    entry.set("index", std::uint64_t(shard.index));
    entry.set("begin", std::uint64_t(shard.begin));
    entry.set("end", std::uint64_t(shard.end));
    entry.set("profile", shard.profile);
    array.push_back(std::move(entry));
  }
  record.set("shards", std::move(array));
  Json totals = Json::object();
  totals.set("seconds", max_seconds);
  totals.set("energy_j_total", total_energy);
  record.set("totals", std::move(totals));
  if (!timestamp.empty()) record.set("timestamp", timestamp);
  return record;
}

void validate_profile_shard_json(const Json& json) {
  const Reader record(json, "ksum-prof-shard-v1");
  expect_schema(record, "ksum-prof-shard-v1");
  const Reader axis = record.member("axis");
  axis.expect(axis.string() == "m" || axis.string() == "n",
              "must be \"m\" or \"n\"");
  const Reader shape = record.member("shape");
  expect_positive_dims(shape);
  const Reader shards = record.member("shards");
  shards.expect(shards.size() > 0, "must not be empty");
  double max_seconds = 0;
  double energy = 0;
  double cursor = 0;
  for (std::size_t i = 0; i < shards.size(); ++i) {
    const Reader shard = shards.at(i);
    shard.member("index").expect(shard.member("index").number() == double(i),
                                 "shard indexes must ascend from 0");
    const double begin = shard.member("begin").number();
    const double end = shard.member("end").number();
    shard.expect(begin == cursor && end > begin,
                 "shard ranges must tile the axis contiguously");
    cursor = end;
    const Reader profile = shard.member("profile");
    validate_profile(profile);
    const Reader totals = profile.member("totals");
    max_seconds = std::max(max_seconds, totals.member("seconds").number());
    energy += totals.member("energy_j").member("total").number();
  }
  shards.expect(cursor == shape.member(axis.string()).number(),
                "shard ranges must cover the whole axis dimension");
  expect_sum(record.member("totals").member("seconds"), max_seconds,
             "the shards");
  expect_sum(record.member("totals").member("energy_j_total"), energy,
             "the shards");
}

void validate_profile_batch_json(const Json& json) {
  const Reader record(json, "ksum-prof-batch-v1");
  expect_schema(record, "ksum-prof-batch-v1");
  const Reader programs = record.member("programs");
  programs.expect(programs.size() > 0, "must not be empty");
  double seconds = 0;
  double energy = 0;
  for (std::size_t i = 0; i < programs.size(); ++i) {
    validate_profile(programs.at(i));
    const Reader totals = programs.at(i).member("totals");
    seconds += totals.member("seconds").number();
    energy += totals.member("energy_j").member("total").number();
  }
  expect_sum(record.member("totals").member("seconds"), seconds,
             "the programs");
  expect_sum(record.member("totals").member("energy_j_total"), energy,
             "the programs");
}

void validate_bench_json(const Json& json) {
  const Reader record(json, "ksum-bench-v1");
  expect_schema(record, "ksum-bench-v1");
  (void)record.member("bench").string();
  const Reader points = record.member("points");
  for (std::size_t i = 0; i < points.size(); ++i) {
    expect_positive_dims(points.at(i));
    const Reader pipelines = points.at(i).member("pipelines");
    pipelines.expect(pipelines.object().size() > 0, "must not be empty");
    for (const auto& [name, value] : pipelines.object().members()) {
      const Reader seconds = pipelines.member(name).member("seconds");
      seconds.expect(seconds.number() >= 0, "must be non-negative");
      validate_energy(pipelines.member(name).member("energy_j"));
    }
  }
}

Json tree_profile_to_json(const TreeProfile& tree) {
  Json record = Json::object();
  record.set("schema", "ksum-prof-tree-v1");
  record.set("shape", Json::object()
                          .set("m", std::uint64_t(tree.m))
                          .set("n", std::uint64_t(tree.n))
                          .set("k", std::uint64_t(tree.k)));
  record.set("eps", tree.eps);
  record.set("device", Json::object().set("name", tree.device_name));
  const double total_interactions =
      static_cast<double>(tree.m) * static_cast<double>(tree.n);
  record.set("plan",
             Json::object()
                 .set("row_clusters", std::uint64_t(tree.row_clusters))
                 .set("boxes", std::uint64_t(tree.boxes))
                 .set("near_pairs", std::uint64_t(tree.near_pairs))
                 .set("far0_pairs", std::uint64_t(tree.far0_pairs))
                 .set("far1_pairs", std::uint64_t(tree.far1_pairs))
                 .set("near_interactions", tree.near_interactions)
                 .set("near_fraction",
                      tree.near_interactions / total_interactions)
                 .set("budget", tree.budget)
                 .set("bound_total", tree.bound_total));
  record.set("model",
             Json::object()
                 .set("dense_seconds", tree.dense_seconds)
                 .set("tree_seconds", tree.tree_seconds)
                 .set("speedup", tree.dense_seconds / tree.tree_seconds));
  return record;
}

void validate_profile_tree_json(const Json& json) {
  const Reader record(json, "ksum-prof-tree-v1");
  expect_schema(record, "ksum-prof-tree-v1");
  expect_positive_dims(record.member("shape"));
  const Reader eps = record.member("eps");
  eps.expect(eps.number() > 0, "must be positive");

  const Reader plan = record.member("plan");
  for (const char* key : {"row_clusters", "boxes", "near_pairs",
                          "near_interactions"}) {
    (void)plan.member(key).integer<std::uint64_t>();
  }
  const auto far_pairs = plan.member("far0_pairs").integer<std::uint64_t>() +
                         plan.member("far1_pairs").integer<std::uint64_t>();
  const Reader near_fraction = plan.member("near_fraction");
  near_fraction.expect(
      near_fraction.number() >= 0 && near_fraction.number() <= 1,
      "must be in [0, 1]");
  // The plan-wide guarantee (docs/TREECODE.md): whenever a far pair is
  // approximated, the analytic bound stays within the error budget.
  const Reader bound = plan.member("bound_total");
  bound.expect(far_pairs == 0 || bound.number() <= eps.number(),
               "exceeds eps although far pairs exist");

  const Reader model = record.member("model");
  const Reader speedup = model.member("speedup");
  speedup.expect(speedup.number() ==
                     model.member("dense_seconds").number() /
                         model.member("tree_seconds").number(),
                 "does not equal dense_seconds / tree_seconds");
}

}  // namespace ksum::profile
