// The device-profile subsystem: built-in registry (names, order, gtx970
// bit-identity with the config factories), the ksum-device-profile-v1
// schema (strict validation, unknown-key rejection, byte-identical
// round-trip), file loading, and the resolve() surface the --profile flags
// share. Every built-in must also actually run a solve — a profile that
// validates but cannot launch the paper kernels would be useless.
#include "config/profiles/device_profile.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>

#include "common/error.h"
#include "core/exact.h"
#include "pipelines/solver.h"
#include "workload/point_generators.h"

namespace ksum {
namespace {

using config::profiles::DeviceProfile;

TEST(DeviceProfileTest, BuiltinNamesAreTheFixedCiOrder) {
  const auto& names = config::profiles::builtin_names();
  ASSERT_EQ(names.size(), 3u);
  EXPECT_EQ(names[0], "gtx970");
  EXPECT_EQ(names[1], "titanx-maxwell");
  EXPECT_EQ(names[2], "modern");
  for (const auto& name : names) {
    EXPECT_TRUE(config::profiles::is_builtin(name)) << name;
  }
  EXPECT_FALSE(config::profiles::is_builtin("gtx980"));
  EXPECT_FALSE(config::profiles::is_builtin(""));
}

TEST(DeviceProfileTest, Gtx970IsBitIdenticalToTheConfigFactories) {
  // The default profile must reproduce the paper machine exactly: a profile
  // assembled from the pre-profile factories serialises to the same bytes.
  const auto builtin = config::profiles::gtx970();
  DeviceProfile factory;
  factory.name = builtin.name;
  factory.description = builtin.description;
  factory.device = config::DeviceSpec::gtx970();
  factory.timing = config::TimingSpec::gtx970();
  factory.energy = config::EnergySpec::gtx970_mcpat();
  EXPECT_EQ(config::profiles::to_json(builtin).dump(),
            config::profiles::to_json(factory).dump());
}

TEST(DeviceProfileTest, BuiltinsValidateAndDiffer) {
  const auto gtx = config::profiles::builtin("gtx970");
  const auto titanx = config::profiles::builtin("titanx-maxwell");
  const auto modern = config::profiles::builtin("modern");
  EXPECT_NO_THROW(gtx.validate());
  EXPECT_NO_THROW(titanx.validate());
  EXPECT_NO_THROW(modern.validate());
  // Architecturally distinct machines, not renamed copies.
  EXPECT_GT(titanx.device.num_sms, gtx.device.num_sms);
  EXPECT_GT(modern.device.num_sms, titanx.device.num_sms);
  EXPECT_NE(config::profiles::to_json(gtx).dump(),
            config::profiles::to_json(titanx).dump());
  EXPECT_NE(config::profiles::to_json(titanx).dump(),
            config::profiles::to_json(modern).dump());
}

TEST(DeviceProfileTest, UnknownBuiltinErrorListsTheOptions) {
  try {
    config::profiles::builtin("gtx980");
    FAIL() << "expected ksum::Error";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("gtx970"), std::string::npos) << what;
    EXPECT_NE(what.find("titanx-maxwell"), std::string::npos) << what;
    EXPECT_NE(what.find("modern"), std::string::npos) << what;
  }
}

TEST(DeviceProfileTest, ValidateRejectsBadNames) {
  auto p = config::profiles::gtx970();
  p.name = "";
  EXPECT_THROW(p.validate(), Error);
  p.name = "has space";
  EXPECT_THROW(p.validate(), Error);
  p.name = "tab\tname";
  EXPECT_THROW(p.validate(), Error);
  p.name = "custom-4.2_ok";
  EXPECT_NO_THROW(p.validate());
}

TEST(DeviceProfileTest, JsonRoundTripIsByteIdenticalForEveryBuiltin) {
  for (const auto& name : config::profiles::builtin_names()) {
    const auto profile = config::profiles::builtin(name);
    const auto once = config::profiles::to_json(profile);
    const auto reloaded = config::profiles::from_json(once);
    const auto twice = config::profiles::to_json(reloaded);
    EXPECT_EQ(once.dump(), twice.dump())
        << name << ": to_json ∘ from_json ∘ to_json must be the identity";
    EXPECT_EQ(reloaded.name, profile.name);
    EXPECT_EQ(once.at("schema").as_string(), "ksum-device-profile-v1");
  }
}

TEST(DeviceProfileTest, ValidatorRejectsUnknownAndMissingKeys) {
  const auto good = config::profiles::to_json(config::profiles::gtx970());
  EXPECT_NO_THROW(config::profiles::validate_device_profile_json(good));
  {
    auto bad = profile::Json::parse(good.dump());
    bad.set("vendor", profile::Json("nvidia"));  // unknown top-level key
    EXPECT_THROW(config::profiles::validate_device_profile_json(bad), Error);
  }
  {
    auto device = profile::Json::parse(good.dump()).at("device");
    device.set("chiplets", profile::Json(2.0));  // unknown nested key
    auto bad = profile::Json::parse(good.dump());
    bad.set("device", device);
    EXPECT_THROW(config::profiles::validate_device_profile_json(bad), Error);
  }
  {
    // Every field is required: rebuild without "timing".
    auto bad = profile::Json::object();
    bad.set("schema", good.at("schema"));
    bad.set("name", good.at("name"));
    bad.set("description", good.at("description"));
    bad.set("device", good.at("device"));
    bad.set("energy", good.at("energy"));
    EXPECT_THROW(config::profiles::validate_device_profile_json(bad), Error);
  }
  {
    auto bad = profile::Json::parse(good.dump());
    bad.set("schema", profile::Json("ksum-device-profile-v2"));
    EXPECT_THROW(config::profiles::validate_device_profile_json(bad), Error);
  }
  {
    // A missing nested field is refused with the schema tag and the path.
    auto device = profile::Json::object();
    for (const auto& [key, value] : good.at("device").members()) {
      if (key != "num_sms") device.set(key, value);
    }
    auto bad = profile::Json::parse(good.dump());
    bad.set("device", device);
    try {
      config::profiles::validate_device_profile_json(bad);
      ADD_FAILURE() << "a profile without device.num_sms validated";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find(
                    "ksum-device-profile-v1: device.num_sms: "),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(DeviceProfileTest, FileRoundTripAndResolve) {
  const auto titanx = config::profiles::builtin("titanx-maxwell");
  const std::string path = testing::TempDir() + "/ksum_profile_test.json";
  config::profiles::save(titanx, path);

  const auto loaded = config::profiles::load(path);
  EXPECT_EQ(config::profiles::to_json(loaded).dump(),
            config::profiles::to_json(titanx).dump());

  // resolve() takes a built-in name or a file path.
  const auto by_name = config::profiles::resolve("titanx-maxwell");
  const auto by_path = config::profiles::resolve(path);
  EXPECT_EQ(config::profiles::to_json(by_name).dump(),
            config::profiles::to_json(by_path).dump());
  std::remove(path.c_str());

  EXPECT_THROW(config::profiles::load("/no/such/profile.json"), Error);
  try {
    config::profiles::resolve("no-such-profile");
    FAIL() << "expected ksum::Error";
  } catch (const Error& e) {
    // The CLI surfaces this message; it must list the built-ins.
    EXPECT_NE(std::string(e.what()).find("gtx970"), std::string::npos);
  }
}

TEST(DeviceProfileTest, LoadRejectsCorruptFiles) {
  const std::string path = testing::TempDir() + "/ksum_profile_bad.json";
  {
    std::ofstream out(path, std::ios::binary);
    out << "{\"schema\":\"ksum-device-profile-v1\",\"name\":\"x\"}";
  }
  EXPECT_THROW(config::profiles::load(path), Error);
  {
    std::ofstream out(path, std::ios::binary);
    out << "not json at all";
  }
  EXPECT_THROW(config::profiles::load(path), Error);
  std::remove(path.c_str());
}

TEST(DeviceProfileTest, EveryBuiltinRunsTheFusedPipeline) {
  // The smoke contract behind the CI matrix: each built-in's specs must
  // carry a real solve end to end, and the functional result must not
  // depend on the architecture (the simulator is bit-deterministic; only
  // time and energy move across profiles).
  workload::ProblemSpec spec;
  spec.m = 128;
  spec.n = 128;
  spec.k = 8;
  spec.seed = 42;
  const auto instance = workload::make_instance(spec);
  const auto params = core::params_from_spec(spec);
  const auto oracle =
      pipelines::solve(instance, params, pipelines::Backend::kCpuDirect);

  for (const auto& name : config::profiles::builtin_names()) {
    const auto profile = config::profiles::builtin(name);
    pipelines::RunOptions options;
    options.device = profile.device;
    options.timing = profile.timing;
    options.energy = profile.energy;
    const auto result = pipelines::solve(instance, params,
                                         pipelines::Backend::kSimFused,
                                         options);
    ASSERT_EQ(result.v.size(), spec.m) << name;
    ASSERT_TRUE(result.report.has_value()) << name;
    EXPECT_GT(result.report->seconds, 0) << name;
    EXPECT_GT(result.report->energy.total(), 0) << name;
    for (std::size_t i = 0; i < result.v.size(); ++i) {
      ASSERT_NEAR(result.v[i], oracle.v[i], 5e-3f * std::abs(oracle.v[i]) +
                                                1e-2f)
          << name << " diverged from the host oracle at V[" << i << "]";
    }
  }
}

}  // namespace
}  // namespace ksum
