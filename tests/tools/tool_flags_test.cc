#include "tools/tool_flags.h"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/error.h"

namespace ksum::tools {
namespace {

using pipelines::Backend;

/// The shared flags as ksum-cli solve declares them.
FlagParser solve_flags() {
  FlagParser flags;
  declare_device_flags(flags);
  for (const char* name :
       {"solution", "threads", "batch", "fault-rate", "fault-seed", "shards",
        "shard-axis", "tree-eps", "tree", "tree-box-leaf", "tree-row-leaf"}) {
    flags.declare(name, "");
  }
  for (const char* name : {"robust", "no-double-buffer", "staged-reduction",
                           "fuse-norms", "l1"}) {
    flags.declare(name, "", /*takes_value=*/false);
  }
  return flags;
}

/// The shared flags as ksum-serve declares them: no --layout, no --tree.
FlagParser serve_flags() {
  FlagParser flags;
  declare_device_flags(flags, /*with_layout=*/false);
  flags.declare("tree-eps", "");
  return flags;
}

FlagParser parsed(FlagParser flags, std::vector<const char*> args) {
  args.insert(args.begin(), "prog");
  flags.parse(static_cast<int>(args.size()), args.data());
  return flags;
}

TEST(ToolFlagsTest, RunMainMapsExceptionsToExitCodes) {
  EXPECT_EQ(run_main("t", [] { return 1; }), 1);
  EXPECT_EQ(run_main("t", []() -> int { throw Error("bad input"); }), 2);
  EXPECT_EQ(run_main("t", []() -> int { throw InternalError("bug"); }), 3);
  EXPECT_EQ(run_main("t", []() -> int { throw std::runtime_error("x"); }), 3);
}

TEST(ToolFlagsTest, DeviceGroupResolvesProfileAndStrictLayout) {
  const auto paper = device_from_flags(parsed(solve_flags(), {}));
  EXPECT_EQ(paper.profile.name, "gtx970");
  EXPECT_EQ(paper.layout, gpukernels::TileLayout::kFig5);

  const auto modern = device_from_flags(
      parsed(solve_flags(), {"--profile=modern", "--layout=naive"}));
  const auto run = modern.run_options();
  EXPECT_EQ(modern.profile.name, "modern");
  EXPECT_EQ(run.device.num_sms, modern.profile.device.num_sms);
  EXPECT_NE(run.device.num_sms, paper.run_options().device.num_sms);
  EXPECT_EQ(run.mainloop.layout, gpukernels::TileLayout::kNaive);

  EXPECT_THROW(device_from_flags(parsed(solve_flags(), {"--layout=bogus"})),
               Error);
  EXPECT_THROW(device_from_flags(parsed(serve_flags(), {"--profile=nope"})),
               Error);
  // A tool without --layout runs the paper layout.
  EXPECT_EQ(device_from_flags(parsed(serve_flags(), {})).layout,
            gpukernels::TileLayout::kFig5);
}

TEST(ToolFlagsTest, SolutionParserAndTheTunersHostRefusal) {
  EXPECT_EQ(solution_from_flags(parsed(solve_flags(), {}), false),
            Backend::kSimFused);
  const auto host = parsed(solve_flags(), {"--solution=cpu-direct"});
  EXPECT_EQ(solution_from_flags(host, false), Backend::kCpuDirect);
  EXPECT_THROW(solution_from_flags(host, /*simulated_only=*/true), Error);
  EXPECT_THROW(
      solution_from_flags(parsed(solve_flags(), {"--solution=bogus"}), false),
      Error);
}

TEST(ToolFlagsTest, ThreadsRangeAndBatchQualifier) {
  EXPECT_EQ(threads_from_flags(
                parsed(solve_flags(), {"--threads=4", "--batch=f.csv"})),
            4);
  EXPECT_THROW(threads_from_flags(parsed(solve_flags(), {"--threads=0"})),
               Error);
  // --threads drives --batch where the tool has one...
  EXPECT_THROW(threads_from_flags(parsed(solve_flags(), {"--threads=2"})),
               Error);
  // ...and is a plain worker count where it does not (ksum-tune).
  FlagParser tune;
  tune.declare("threads", "");
  EXPECT_EQ(threads_from_flags(parsed(tune, {"--threads=2"})), 2);
}

TEST(ToolFlagsTest, FusedOnlyKernelFlags) {
  pipelines::RunOptions options;
  kernel_flags_from_flags(
      parsed(solve_flags(), {"--staged-reduction", "--no-double-buffer"}),
      /*fused_solve=*/true, options);
  EXPECT_FALSE(options.atomic_reduction);
  EXPECT_FALSE(options.mainloop.double_buffer);

  for (const char* flag : {"--staged-reduction", "--fuse-norms"}) {
    pipelines::RunOptions other;
    EXPECT_THROW(kernel_flags_from_flags(parsed(solve_flags(), {flag}),
                                         /*fused_solve=*/false, other),
                 Error)
        << flag;
  }
}

TEST(ToolFlagsTest, FaultFlagsAndTheirConflicts) {
  pipelines::RunOptions options;
  const auto faults = faults_from_flags(
      parsed(solve_flags(), {"--fault-rate=1e-3", "--fault-seed=9",
                             "--robust"}),
      Backend::kSimFused, options);
  EXPECT_DOUBLE_EQ(faults.rate, 1e-3);
  EXPECT_EQ(faults.seed.value_or(0), 9u);
  EXPECT_TRUE(options.checks.enabled);
  EXPECT_TRUE(options.recovery.enabled);

  const std::vector<std::vector<const char*>> bad = {
      {"--fault-rate=1.5"},
      {"--fault-seed=5"},  // the seed qualifies --fault-rate
  };
  for (const auto& args : bad) {
    pipelines::RunOptions o;
    EXPECT_THROW(faults_from_flags(parsed(solve_flags(), args),
                                   Backend::kSimFused, o),
                 Error)
        << args[0];
  }
  for (const char* flag : {"--robust", "--fault-rate=0.5"}) {
    pipelines::RunOptions o;
    EXPECT_THROW(faults_from_flags(parsed(solve_flags(), {flag}),
                                   Backend::kCpuDirect, o),
                 Error)
        << flag;
  }
}

TEST(ToolFlagsTest, ShardsTakeAWholeIntegerOrAuto) {
  pipelines::RunOptions options;
  shards_from_flags(parsed(solve_flags(), {"--shards=3", "--shard-axis=n"}),
                    Backend::kSimFused, options);
  EXPECT_EQ(options.shards.count, 3u);
  EXPECT_EQ(options.shards.axis, shard::ShardAxis::kN);

  pipelines::RunOptions automatic;
  shards_from_flags(parsed(solve_flags(), {"--shards=auto"}),
                    Backend::kSimCublasUnfused, automatic);
  EXPECT_EQ(automatic.shards.count, 0u);

  const std::vector<std::vector<const char*>> bad = {
      {"--shards=2x"},  // a prefix is not a count
      {"--shards=0"},
      {"--shard-axis=m"},  // the axis qualifies --shards
      {"--shards=2", "--shard-axis=k"},
  };
  for (const auto& args : bad) {
    pipelines::RunOptions o;
    EXPECT_THROW(
        shards_from_flags(parsed(solve_flags(), args), Backend::kSimFused, o),
        Error)
        << args[0];
  }
  pipelines::RunOptions o;
  EXPECT_THROW(shards_from_flags(parsed(solve_flags(), {"--shards=2"}),
                                 Backend::kCpuDirect, o),
               Error);
  EXPECT_THROW(
      shards_from_flags(
          parsed(solve_flags(), {"--shards=2", "--shard-axis=n"}),
          Backend::kSimCudaUnfused, o),
      Error);
  // A bounded tool (ksum-prof) refuses 'auto' and counts past its bound.
  EXPECT_THROW(shards_from_flags(parsed(solve_flags(), {"--shards=auto"}),
                                 Backend::kSimFused, o, /*max_shards=*/64),
               Error);
  EXPECT_THROW(shards_from_flags(parsed(solve_flags(), {"--shards=65"}),
                                 Backend::kSimFused, o, /*max_shards=*/64),
               Error);
}

TEST(ToolFlagsTest, TreeFlagsAndTheirQualifiers) {
  pipelines::RunOptions options;
  options.tree.row_leaf = 64;  // a tool's own default survives
  tree_from_flags(
      parsed(solve_flags(),
             {"--tree-eps=1e-4", "--tree=auto", "--tree-box-leaf=32"}),
      options);
  const auto model = attach_dense_cost(options);
  EXPECT_DOUBLE_EQ(options.tree.eps, 1e-4);
  EXPECT_EQ(options.tree.box_leaf, 32u);
  EXPECT_EQ(options.tree.row_leaf, 64u);
  EXPECT_EQ(options.tree.mode, tree::TreeMode::kAuto);
  ASSERT_NE(model, nullptr);
  EXPECT_EQ(options.tree.cost_model, model.get());

  const std::vector<std::vector<const char*>> bad = {
      {"--tree-box-leaf=32"},  // leaf sizes qualify --tree-eps
      {"--tree-row-leaf=32"},
      {"--tree=auto"},
      {"--tree-eps=-1"},
      {"--tree-eps=1e-4", "--tree=banana"},
      {"--tree-eps=1e-4", "--tree-box-leaf=0"},
      {"--tree-eps=1e-4", "--fault-rate=0.5"},
  };
  for (const auto& args : bad) {
    pipelines::RunOptions o;
    EXPECT_THROW(tree_from_flags(parsed(solve_flags(), args), o), Error)
        << args[0];
  }

  // ksum-serve declares --tree-eps alone.
  pipelines::RunOptions serve;
  tree_from_flags(parsed(serve_flags(), {"--tree-eps=1e-3"}), serve);
  EXPECT_EQ(attach_dense_cost(serve), nullptr);
  EXPECT_DOUBLE_EQ(serve.tree.eps, 1e-3);
}

TEST(ToolFlagsTest, JsonFlagsAreExclusiveAndShareOneWriter) {
  FlagParser json;
  json.declare("json", "", false).declare("json-out", "");
  EXPECT_THROW(
      check_json_flags(parsed(json, {"--json", "--json-out=x.json"}), ""),
      Error);

  profile::Json record = profile::Json::object();
  record.set("schema", "test-v1");
  testing::internal::CaptureStdout();
  EXPECT_TRUE(emit_json(parsed(json, {"--json"}), record, "t", "record"));
  EXPECT_EQ(testing::internal::GetCapturedStdout(), record.dump());

  const std::string path = testing::TempDir() + "tool_flags_test.json";
  EXPECT_FALSE(emit_json(parsed(json, {("--json-out=" + path).c_str()}),
                         record, "t", "record"));
  std::ifstream in(path);
  std::stringstream written;
  written << in.rdbuf();
  EXPECT_EQ(written.str(), record.dump());
}

}  // namespace
}  // namespace ksum::tools
