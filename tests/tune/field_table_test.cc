// Every field of every field table, mutated. The tables (profile/record.h)
// drive both the emitted records and their loaders, so for each field of
// DeviceSpec, TimingSpec, EnergySpec and TileGeometry:
//   - read(write(x)) == x, field by field, for the built-in profiles, every
//     evaluate_candidates geometry and seeded random values;
//   - deleting it, retyping it to a string and (integer fields) setting it
//     to 2.5 or 1e30, or (sizes) to -1, makes the loader throw an Error
//     naming the schema and the field's path.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

#include "common/error.h"
#include "common/prop.h"
#include "config/profiles/device_profile.h"
#include "profile/json.h"
#include "profile/record.h"
#include "tune/tile_search.h"
#include "tune/tune_json.h"
#include "tune/tuning_cache.h"

namespace ksum {
namespace {

using profile::Json;

// `node` with the member at `path` (object keys, decimal array indices)
// replaced by `value`, or removed when `value` is empty; order is kept.
Json edited(const Json& node, std::span<const std::string> path,
            const std::optional<Json>& value) {
  if (node.is_array()) {
    Json out = Json::array();
    const std::size_t target = std::stoul(path[0]);
    for (std::size_t i = 0; i < node.size(); ++i) {
      out.push_back(i == target ? edited(node.at(i), path.subspan(1), value)
                                : node.at(i));
    }
    return out;
  }
  Json out = Json::object();
  for (const auto& [key, member] : node.members()) {
    if (key != path[0]) {
      out.set(key, member);
    } else if (path.size() > 1) {
      out.set(key, edited(member, path.subspan(1), value));
    } else if (value.has_value()) {
      out.set(key, *value);
    }
  }
  return out;
}

// Each field's value, bumped so a field the reader skips cannot pass.
template <class S>
S bumped(const S& x, profile::Fields<S> fields) {
  S out = x;
  for (const auto& field : fields) {
    std::visit(
        [&](auto member) {
          using T = std::remove_reference_t<decltype(out.*member)>;
          if constexpr (std::is_same_v<T, bool>) {
            out.*member = !(x.*member);
          } else if constexpr (std::is_integral_v<T>) {
            out.*member = x.*member ^ 1;
          } else {
            out.*member = x.*member + 1;
          }
        },
        field.member);
  }
  return out;
}

// read(write(x)) == x through the dumped text, field by field.
template <class S>
bool round_trips(const S& x, profile::Fields<S> fields) {
  Json object = Json::object();
  profile::write(object, x, fields);
  const Json reparsed = Json::parse(object.dump());
  S back = bumped(x, fields);
  profile::read(profile::Reader(reparsed, "test"), back, fields);
  bool same = object.size() == fields.size();
  for (const auto& field : fields) {
    std::visit(
        [&](auto member) {
          if (!(back.*member == x.*member)) {
            ADD_FAILURE() << field.name << " does not round-trip";
            same = false;
          }
        },
        field.member);
  }
  return same;
}

// The corruptions a field of this type must refuse.
template <class S>
std::vector<std::pair<std::string, std::optional<Json>>> corruptions(
    const profile::Field<S>& field) {
  std::vector<std::pair<std::string, std::optional<Json>>> out = {
      {"deleted", std::nullopt}, {"retyped to a string", Json("7")}};
  const bool is_int = std::holds_alternative<int S::*>(field.member);
  const bool is_size = std::holds_alternative<std::size_t S::*>(field.member);
  if (is_int || is_size) {
    out.emplace_back("2.5", Json(2.5));
    out.emplace_back("1e30", Json(1e30));
  }
  if (is_size) out.emplace_back("-1", Json(-1.0));
  return out;
}

// Every corruption of every field of `fields`, applied to `record` under
// `prefix`, must make `load` throw "<schema>: <where><field>: ...".
template <class S, class Load>
bool rejects_corruptions(const Json& record,
                         const std::vector<std::string>& prefix,
                         const std::string& where, profile::Fields<S> fields,
                         const std::string& schema, const Load& load) {
  bool all = true;
  for (const auto& field : fields) {
    std::vector<std::string> path = prefix;
    path.emplace_back(field.name);
    const std::string expected =
        schema + ": " + where + std::string(field.name) + ": ";
    for (const auto& [what, value] : corruptions(field)) {
      std::string message;
      try {
        load(edited(record, path, value));
      } catch (const Error& e) {
        message = e.what();
      }
      if (message.find(expected) == std::string::npos) {
        ADD_FAILURE() << where << field.name << " " << what
                      << ": expected an error containing \"" << expected
                      << "\", got \"" << message << "\"";
        all = false;
      }
    }
  }
  return all;
}

// Uniform value of T (sizes stay below 2^53, where a JSON number is exact).
template <class T>
T random_value(prop::Gen& gen) {
  if constexpr (std::is_same_v<T, bool>) {
    return gen.next_u64() % 2 == 1;
  } else if constexpr (std::is_same_v<T, double>) {
    return static_cast<double>(gen.next_u64() >> 11) * 0x1p-20 - 1e6;
  } else if constexpr (std::is_same_v<T, int>) {
    return static_cast<int>(static_cast<std::int64_t>(gen.next_u64() >> 32) +
                            std::numeric_limits<int>::min());
  } else {
    return static_cast<T>(gen.next_u64() >> 11);
  }
}

template <class S>
S random_struct(prop::Gen& gen, profile::Fields<S> fields) {
  S out;
  for (const auto& field : fields) {
    std::visit(
        [&](auto member) {
          using T = std::remove_reference_t<decltype(out.*member)>;
          out.*member = random_value<T>(gen);
        },
        field.member);
  }
  return out;
}

TEST(FieldTableTest, EveryFieldRoundTripsAndEveryCorruptionIsNamed) {
  namespace profiles = config::profiles;
  const auto geometries =
      tune::evaluate_candidates(config::DeviceSpec::gtx970());
  ASSERT_FALSE(geometries.empty());

  for (const auto& name : profiles::builtin_names()) {
    const auto p = profiles::builtin(name);
    EXPECT_TRUE(round_trips(p.device, profiles::device_fields())) << name;
    EXPECT_TRUE(round_trips(p.timing, profiles::timing_fields())) << name;
    EXPECT_TRUE(round_trips(p.energy, profiles::energy_fields())) << name;
  }
  std::vector<gpukernels::TileGeometry> viable;
  for (const auto& verdict : geometries) {
    EXPECT_TRUE(round_trips(verdict.geometry, tune::geometry_fields()))
        << verdict.geometry.to_string();
    if (verdict.viable) viable.push_back(verdict.geometry);
  }
  ASSERT_FALSE(viable.empty());

  // Each case: random values for every table, one built-in profile record
  // and one tuning-cache record holding a viable geometry to corrupt.
  struct Case {
    config::DeviceSpec device;
    config::TimingSpec timing;
    config::EnergySpec energy;
    gpukernels::TileGeometry geometry;
    std::string profile;
    gpukernels::TileGeometry cached;
  };
  prop::Config config;
  config.seed = 18;
  config.iterations = 6;
  config.max_scale = 1;
  prop::check(
      "field tables", config,
      [&](prop::Gen& gen, std::size_t) {
        Case c;
        c.device = random_struct(gen, profiles::device_fields());
        c.timing = random_struct(gen, profiles::timing_fields());
        c.energy = random_struct(gen, profiles::energy_fields());
        c.geometry = random_struct(gen, tune::geometry_fields());
        c.profile = gen.pick(profiles::builtin_names());
        c.cached = gen.pick(viable);
        return c;
      },
      [&](const Case& c) {
        bool ok = round_trips(c.device, profiles::device_fields()) &&
                  round_trips(c.timing, profiles::timing_fields()) &&
                  round_trips(c.energy, profiles::energy_fields()) &&
                  round_trips(c.geometry, tune::geometry_fields());

        const Json record = profiles::to_json(profiles::builtin(c.profile));
        const auto load_profile = [](const Json& r) {
          (void)profiles::from_json(r);
        };
        const std::string schema = "ksum-device-profile-v1";
        ok = rejects_corruptions(record, {"device"}, "device.",
                                 profiles::device_fields(), schema,
                                 load_profile) &&
             ok;
        ok = rejects_corruptions(record, {"timing"}, "timing.",
                                 profiles::timing_fields(), schema,
                                 load_profile) &&
             ok;
        ok = rejects_corruptions(record, {"energy"}, "energy.",
                                 profiles::energy_fields(), schema,
                                 load_profile) &&
             ok;

        tune::TuningCache cache;
        cache.insert(256, 256, 8, pipelines::Solution::kFused,
                     {c.cached, 1e-3}, c.profile);
        ok = rejects_corruptions(
                 cache.to_json(), {"entries", "0"}, "entries[0].",
                 tune::geometry_fields(), "ksum-tune-cache-v2",
                 [](const Json& r) { tune::TuningCache().load_json(r); }) &&
             ok;
        return ok;
      });
}

}  // namespace
}  // namespace ksum
