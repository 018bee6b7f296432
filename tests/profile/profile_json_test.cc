// The JSON document model (ordered builder + strict parser) and the
// executable schema definitions for ksum-prof-v1 / ksum-bench-v1 records.
#include "profile/profile_json.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "analysis/program_registry.h"
#include "common/error.h"
#include "config/device_spec.h"
#include "gpusim/device.h"
#include "profile/json.h"
#include "profile/launch_profiler.h"

namespace ksum::profile {
namespace {

ProgramProfile profiled(const std::string& name) {
  const auto* program = analysis::find_program(name);
  EXPECT_NE(program, nullptr) << name;
  gpusim::Device device(config::DeviceSpec::gtx970(),
                        analysis::registry_device_bytes());
  LaunchProfiler profiler(device);
  program->run(device, analysis::ProgramOptions{});
  const auto shape = analysis::registry_shape();
  return build_program_profile(name, shape.m, shape.n, shape.k,
                               config::DeviceSpec::gtx970(),
                               config::TimingSpec::gtx970(),
                               config::EnergySpec::gtx970_mcpat(),
                               profiler.take_launches());
}

// Rebuilds `node` with the value at `path` replaced (object keys and
// decimal array indices), using only the public Json API.
Json replaced(const Json& node, const std::vector<std::string>& path,
              std::size_t depth, Json value) {
  if (depth == path.size()) return value;
  if (node.is_array()) {
    Json out = Json::array();
    const std::size_t target = std::stoul(path[depth]);
    for (std::size_t i = 0; i < node.size(); ++i) {
      out.push_back(i == target ? replaced(node.at(i), path, depth + 1,
                                           std::move(value))
                                : node.at(i));
    }
    return out;
  }
  Json out = Json::object();
  for (const auto& [key, member] : node.members()) {
    out.set(key, key == path[depth]
                     ? replaced(member, path, depth + 1, std::move(value))
                     : member);
  }
  return out;
}

Json without(const Json& object, const std::string& key) {
  Json out = Json::object();
  for (const auto& [name, member] : object.members()) {
    if (name != key) out.set(name, member);
  }
  return out;
}

TEST(JsonTest, RoundTripsThroughDumpAndParse) {
  Json doc = Json::object();
  doc.set("text", "with \"quotes\", commas,\nand newlines");
  doc.set("integral", std::uint64_t{9007199254740993ull});
  doc.set("fraction", 0.1);
  doc.set("negative", -2.5e-9);
  doc.set("flag", true);
  doc.set("nothing", Json());
  Json arr = Json::array();
  arr.push_back(1).push_back("two").push_back(Json::object());
  doc.set("arr", std::move(arr));

  const std::string text = doc.dump();
  const Json back = Json::parse(text);
  EXPECT_EQ(back.dump(), text);
  EXPECT_EQ(back.at("text").as_string(),
            "with \"quotes\", commas,\nand newlines");
  EXPECT_DOUBLE_EQ(back.at("fraction").as_double(), 0.1);
  EXPECT_TRUE(back.at("flag").as_bool());
  EXPECT_TRUE(back.at("nothing").is_null());
  EXPECT_EQ(back.at("arr").size(), 3u);
}

TEST(JsonTest, ParserRejectsMalformedInput) {
  EXPECT_THROW(Json::parse(""), Error);
  EXPECT_THROW(Json::parse("{"), Error);
  EXPECT_THROW(Json::parse("{\"a\": 1,}"), Error);
  EXPECT_THROW(Json::parse("[1, 2] trailing"), Error);
  EXPECT_THROW(Json::parse("'single'"), Error);
  EXPECT_THROW(Json::parse("{\"a\" 1}"), Error);
}

TEST(JsonTest, SetReplacesInPlaceKeepingOrder) {
  Json doc = Json::object();
  doc.set("first", 1).set("second", 2).set("first", 10);
  ASSERT_EQ(doc.size(), 2u);
  EXPECT_EQ(doc.members()[0].first, "first");
  EXPECT_DOUBLE_EQ(doc.at("first").as_double(), 10.0);
}

TEST(ProfileJsonTest, EmittedRecordValidates) {
  const ProgramProfile profile = profiled("fused_ksum");
  const Json record = profile_to_json(profile);
  EXPECT_NO_THROW(validate_profile_json(record));
  EXPECT_FALSE(record.has("timestamp"));

  const Json stamped = profile_to_json(profile, "2026-08-06T00:00:00Z");
  EXPECT_NO_THROW(validate_profile_json(stamped));
  EXPECT_EQ(stamped.at("timestamp").as_string(), "2026-08-06T00:00:00Z");
}

TEST(ProfileJsonTest, RecordSurvivesAReparse) {
  const Json record = profile_to_json(profiled("norms"));
  const Json back = Json::parse(record.dump());
  EXPECT_NO_THROW(validate_profile_json(back));
  EXPECT_EQ(back.dump(), record.dump());
}

TEST(ProfileJsonTest, ValidatorRejectsMutatedRecords) {
  const Json record = profile_to_json(profiled("norms"));

  EXPECT_THROW(validate_profile_json(replaced(record, {"schema"}, 0,
                                              Json("ksum-prof-v0"))),
               Error);
  EXPECT_THROW(validate_profile_json(replaced(record, {"shape", "m"}, 0,
                                              Json(0))),
               Error);
  EXPECT_THROW(validate_profile_json(replaced(record, {"launches"}, 0,
                                              Json::array())),
               Error);
  EXPECT_THROW(validate_profile_json(without(record, "totals")), Error);

  // Breaking one per-site energy value must trip the 1e-9 recomposition
  // check, the acceptance criterion.
  const Json& site_energy = record.at("launches")
                                .at(0)
                                .at("sites")
                                .at(0)
                                .at("energy_j")
                                .at("total");
  EXPECT_THROW(
      validate_profile_json(replaced(
          record, {"launches", "0", "sites", "0", "energy_j", "total"}, 0,
          Json(site_energy.as_double() + 1.0))),
      Error);
}

// ksum-prof-shard-v1: per-shard ksum-prof-v1 records wrapped with the shard
// plan's ranges. Two shards tiling a 512-row axis are enough to exercise
// the contiguity, recomposition and embedded-record checks.
Json shard_record() {
  const Json profile = profile_to_json(profiled("fused_ksum"));
  std::vector<ShardProfileEntry> shards;
  shards.push_back({0, 0, 256, profile});
  shards.push_back({1, 256, 512, profile});
  return shard_profiles_to_json("m", 512, 256, 16, shards);
}

TEST(ShardProfileJsonTest, EmittedRecordValidatesAndReparses) {
  const Json record = shard_record();
  EXPECT_NO_THROW(validate_profile_shard_json(record));
  EXPECT_FALSE(record.has("timestamp"));
  EXPECT_EQ(record.at("axis").as_string(), "m");
  EXPECT_EQ(record.at("shards").size(), 2u);

  const Json back = Json::parse(record.dump());
  EXPECT_NO_THROW(validate_profile_shard_json(back));
  EXPECT_EQ(back.dump(), record.dump());
}

TEST(ShardProfileJsonTest, BuilderRejectsBogusAxis) {
  EXPECT_THROW(shard_profiles_to_json("k", 512, 256, 16, {}), Error);
}

TEST(ShardProfileJsonTest, ValidatorRejectsMutatedRecords) {
  const Json record = shard_record();

  EXPECT_THROW(validate_profile_shard_json(replaced(
                   record, {"schema"}, 0, Json("ksum-prof-shard-v0"))),
               Error);
  EXPECT_THROW(validate_profile_shard_json(replaced(record, {"axis"}, 0,
                                                    Json("k"))),
               Error);
  EXPECT_THROW(validate_profile_shard_json(without(record, "shards")),
               Error);
  // A gap between shard 0 and shard 1 breaks the contiguous tiling.
  EXPECT_THROW(validate_profile_shard_json(replaced(
                   record, {"shards", "1", "begin"}, 0, Json(300))),
               Error);
  // The last shard stopping short of the axis dimension breaks coverage.
  EXPECT_THROW(validate_profile_shard_json(replaced(
                   record, {"shards", "1", "end"}, 0, Json(480))),
               Error);
  // Indexes must ascend from 0 in array order.
  EXPECT_THROW(validate_profile_shard_json(replaced(
                   record, {"shards", "0", "index"}, 0, Json(1))),
               Error);
  // Totals must recompose from the embedded per-shard totals.
  const double energy =
      record.at("totals").at("energy_j_total").as_double();
  EXPECT_THROW(validate_profile_shard_json(replaced(
                   record, {"totals", "energy_j_total"}, 0,
                   Json(energy + 1.0))),
               Error);
}

// ksum-prof-tree-v1: a treecode plan at one error budget and its price.
TreeProfile tree_profile() {
  return {.m = 512,
          .n = 2048,
          .k = 2,
          .eps = 1e-4,
          .device_name = "gtx970",
          .row_clusters = 8,
          .boxes = 32,
          .near_pairs = 50,
          .far0_pairs = 100,
          .far1_pairs = 106,
          .near_interactions = 262144,  // a quarter of 512 x 2048
          .budget = 1e-6,
          .bound_total = 5e-5,
          .dense_seconds = 1e-4,
          .tree_seconds = 5e-5};
}

TEST(TreeProfileJsonTest, EmittedRecordValidatesAndReparses) {
  const Json record = tree_profile_to_json(tree_profile());
  EXPECT_NO_THROW(validate_profile_tree_json(record));
  EXPECT_EQ(record.at("plan").at("near_fraction").as_double(), 0.25);
  EXPECT_EQ(record.at("model").at("speedup").as_double(), 2.0);
  EXPECT_NO_THROW(validate_profile_tree_json(Json::parse(record.dump())));

  // Without far pairs nothing is approximated, so the bound is not held to
  // the budget.
  TreeProfile dense_only = tree_profile();
  dense_only.far0_pairs = 0;
  dense_only.far1_pairs = 0;
  dense_only.bound_total = 1.0;
  EXPECT_NO_THROW(
      validate_profile_tree_json(tree_profile_to_json(dense_only)));
}

TEST(TreeProfileJsonTest, ValidatorRejectsBrokenRecords) {
  const Json record = tree_profile_to_json(tree_profile());
  const auto rejected = [&](const std::vector<std::string>& path,
                            Json value) {
    try {
      validate_profile_tree_json(replaced(record, path, 0, std::move(value)));
    } catch (const Error& e) {
      return std::string(e.what()).find("ksum-prof-tree-v1: " + path[0] +
                                        "." + path.back() + ": ") !=
             std::string::npos;
    }
    return false;
  };
  EXPECT_TRUE(rejected({"plan", "near_pairs"}, Json(2.5)));
  EXPECT_TRUE(rejected({"plan", "boxes"}, Json(-1.0)));
  EXPECT_TRUE(rejected({"plan", "far1_pairs"}, Json("106")));
  EXPECT_TRUE(rejected({"plan", "near_fraction"}, Json(1.5)));
  EXPECT_TRUE(rejected({"plan", "bound_total"}, Json(2e-4)));
  EXPECT_TRUE(rejected({"model", "speedup"}, Json(3.0)));
  EXPECT_TRUE(rejected({"shape", "m"}, Json(0)));
  EXPECT_THROW(validate_profile_tree_json(replaced(record, {"schema"}, 0,
                                                   Json("ksum-prof-tree-v0"))),
               Error);
}

TEST(ProfileJsonTest, CountersRoundTripEveryField) {
  gpusim::Counters c;
  c.fma_ops = 1;
  c.atomic_requests = 2;
  c.smem_bank_conflicts = 3;
  c.faults_atomics_doubled = 4;
  const Json j = counters_to_json(c);
  // One member per 64-bit word — the static_assert in counters_to_json
  // keeps this in lockstep with the struct.
  EXPECT_EQ(j.size(), sizeof(gpusim::Counters) / sizeof(std::uint64_t));
  EXPECT_DOUBLE_EQ(j.at("fma_ops").as_double(), 1.0);
  EXPECT_DOUBLE_EQ(j.at("atomic_requests").as_double(), 2.0);
  EXPECT_DOUBLE_EQ(j.at("smem_bank_conflicts").as_double(), 3.0);
  EXPECT_DOUBLE_EQ(j.at("faults_atomics_doubled").as_double(), 4.0);
}

Json minimal_bench_record() {
  Json pipe = Json::object();
  pipe.set("seconds", 1e-3);
  Json energy = Json::object();
  energy.set("compute", 1.0).set("smem", 0.5).set("l2", 0.25);
  energy.set("dram", 0.125).set("static", 0.0625).set("total", 1.9375);
  pipe.set("energy_j", std::move(energy));
  pipe.set("l2_transactions", 100);
  pipe.set("dram_transactions", 50);

  Json point = Json::object();
  point.set("m", 1024).set("n", 1024).set("k", 32);
  Json pipelines = Json::object();
  pipelines.set("fused", std::move(pipe));
  point.set("pipelines", std::move(pipelines));

  Json table = Json::object();
  table.set("name", "table2").set("csv", "a,b\n1,2\n");

  Json record = Json::object();
  record.set("schema", "ksum-bench-v1");
  record.set("bench", "unit-test");
  record.set("points", Json::array().push_back(std::move(point)));
  record.set("tables", Json::array().push_back(std::move(table)));
  return record;
}

TEST(BenchJsonTest, ValidatorAcceptsAWellFormedRecord) {
  EXPECT_NO_THROW(validate_bench_json(minimal_bench_record()));
}

TEST(BenchJsonTest, ValidatorRejectsBrokenRecords) {
  const Json good = minimal_bench_record();
  EXPECT_THROW(validate_bench_json(replaced(good, {"schema"}, 0, Json("v2"))),
               Error);
  EXPECT_THROW(validate_bench_json(without(good, "bench")), Error);
  EXPECT_THROW(
      validate_bench_json(replaced(good, {"points", "0", "m"}, 0, Json(0))),
      Error);
  EXPECT_THROW(
      validate_bench_json(replaced(
          good, {"points", "0", "pipelines", "fused", "seconds"}, 0,
          Json(-1.0))),
      Error);
  // An energy object whose parts stop summing to its total is invalid.
  EXPECT_THROW(
      validate_bench_json(replaced(
          good, {"points", "0", "pipelines", "fused", "energy_j", "total"},
          0, Json(5.0))),
      Error);
}

}  // namespace
}  // namespace ksum::profile
