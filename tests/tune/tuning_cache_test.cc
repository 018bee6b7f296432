// The tuner's memoization layer: lookup semantics, the resolver contract
// the solver consults, and the ksum-tune-cache-v2 determinism contract
// (sorted serialisation, validating loads, file round-trip, refusal of the
// retired v1 schema).
#include "tune/tuning_cache.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "common/error.h"
#include "gpukernels/tile_geometry.h"
#include "pipelines/solver.h"

namespace ksum {
namespace {

using gpukernels::TileGeometry;
using pipelines::Backend;
using pipelines::Solution;

TileGeometry small_square() {
  TileGeometry g;
  g.tile_m = 32;
  g.tile_n = 32;
  g.tile_k = 8;
  g.block_x = 8;
  g.block_y = 8;
  g.micro = 4;
  return g;
}

tune::TuningCache::Entry entry_of(const TileGeometry& g, double scaled) {
  tune::TuningCache::Entry e;
  e.geometry = g;
  e.scaled_seconds = scaled;
  return e;
}

TEST(TuningCacheTest, SolutionOfMapsTheSimulatedBackends) {
  EXPECT_EQ(pipelines::solution_of(Backend::kSimFused), Solution::kFused);
  EXPECT_EQ(pipelines::solution_of(Backend::kSimCudaUnfused),
            Solution::kCudaUnfused);
  EXPECT_EQ(pipelines::solution_of(Backend::kSimCublasUnfused),
            Solution::kCublasUnfused);
  EXPECT_THROW(pipelines::solution_of(Backend::kCpuDirect), Error);
  EXPECT_THROW(pipelines::solution_of(Backend::kCpuExpansion), Error);
}

TEST(TuningCacheTest, InsertFindResolve) {
  tune::TuningCache cache;
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.find(64, 64, 8, Solution::kFused).has_value());
  EXPECT_FALSE(cache.resolve(64, 64, 8, Solution::kFused).has_value());

  cache.insert(64, 64, 8, Solution::kFused,
               entry_of(small_square(), 1e-3));
  EXPECT_EQ(cache.size(), 1u);
  const auto hit = cache.find(64, 64, 8, Solution::kFused);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->geometry, small_square());
  EXPECT_DOUBLE_EQ(hit->scaled_seconds, 1e-3);

  const auto resolved = cache.resolve(64, 64, 8, Solution::kFused);
  ASSERT_TRUE(resolved.has_value());
  EXPECT_EQ(*resolved, small_square());

  // The key is (m, n, k, solution) — the same shape under another pipeline
  // is a distinct entry.
  EXPECT_FALSE(cache.find(64, 64, 8, Solution::kCudaUnfused).has_value());
  cache.insert(64, 64, 8, Solution::kCudaUnfused,
               entry_of(TileGeometry{}, 3e-3));
  EXPECT_EQ(cache.size(), 2u);

  // Replacing a key keeps the size and updates the value.
  cache.insert(64, 64, 8, Solution::kFused,
               entry_of(TileGeometry{}, 5e-3));
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_TRUE(cache.find(64, 64, 8, Solution::kFused)->geometry.is_paper());
}

TEST(TuningCacheTest, ProfileIsPartOfTheKey) {
  // Regression for the multi-architecture cache: the same (m, n, k,
  // solution) tuned under two profiles must be two distinct entries, and
  // the resolver must only ever serve the active profile's winner — a
  // geometry tuned for gtx970's 13 SMs must never reach a 128-SM part.
  tune::TuningCache cache;
  EXPECT_EQ(cache.profile(), "gtx970");

  TileGeometry wide;
  wide.tile_m = 64;
  wide.tile_n = 128;
  wide.tile_k = 8;
  wide.block_x = 16;
  wide.block_y = 8;
  wide.micro = 8;

  cache.insert(64, 64, 8, Solution::kFused,
               entry_of(small_square(), 1e-3));  // default = gtx970
  cache.insert(64, 64, 8, Solution::kFused, entry_of(wide, 3e-3),
               "titanx-maxwell");
  EXPECT_EQ(cache.size(), 2u);

  const auto gtx = cache.find(64, 64, 8, Solution::kFused);
  const auto titanx = cache.find(64, 64, 8, Solution::kFused,
                                 "titanx-maxwell");
  ASSERT_TRUE(gtx.has_value());
  ASSERT_TRUE(titanx.has_value());
  EXPECT_EQ(gtx->geometry, small_square());
  EXPECT_EQ(titanx->geometry, wide);
  EXPECT_FALSE(cache.find(64, 64, 8, Solution::kFused, "modern")
                   .has_value());

  // The TileGeometryResolver interface carries no profile of its own; it
  // resolves against the cache's active profile.
  EXPECT_EQ(*cache.resolve(64, 64, 8, Solution::kFused), small_square());
  cache.set_profile("titanx-maxwell");
  EXPECT_EQ(cache.profile(), "titanx-maxwell");
  EXPECT_EQ(*cache.resolve(64, 64, 8, Solution::kFused), wide);
  cache.set_profile("modern");
  EXPECT_FALSE(cache.resolve(64, 64, 8, Solution::kFused).has_value());

  // The profile survives serialisation: both entries round-trip and stay
  // distinct.
  const auto record = cache.to_json();
  tune::validate_tune_cache_json(record);
  tune::TuningCache loaded;
  loaded.load_json(record);
  EXPECT_EQ(loaded.size(), 2u);
  EXPECT_EQ(loaded.to_json().dump(), record.dump());
  EXPECT_EQ(loaded.find(64, 64, 8, Solution::kFused, "titanx-maxwell")
                ->geometry,
            wide);
}

TEST(TuningCacheTest, SerialisationIsSortedAndRoundTrips) {
  tune::TuningCache cache;
  // Insert in descending key order; the record must come out ascending.
  cache.insert(512, 512, 16, Solution::kFused,
               entry_of(TileGeometry{}, 2e-3));
  cache.insert(128, 256, 8, Solution::kCublasUnfused,
               entry_of(TileGeometry{}, 1e-3));
  cache.insert(128, 128, 8, Solution::kFused,
               entry_of(small_square(), 5e-4));

  const auto record = cache.to_json();
  tune::validate_tune_cache_json(record);
  EXPECT_EQ(record.at("schema").as_string(), "ksum-tune-cache-v2");
  const auto& entries = record.at("entries");
  ASSERT_EQ(entries.size(), 3u);
  EXPECT_EQ(entries.at(std::size_t{0}).at("m").as_double(), 128);
  EXPECT_EQ(entries.at(std::size_t{0}).at("n").as_double(), 128);
  EXPECT_EQ(entries.at(std::size_t{2}).at("m").as_double(), 512);

  tune::TuningCache loaded;
  loaded.load_json(record);
  EXPECT_EQ(loaded.size(), cache.size());
  EXPECT_EQ(loaded.to_json().dump(), record.dump())
      << "load → dump must be byte-identical";
  EXPECT_EQ(*loaded.resolve(128, 128, 8, Solution::kFused), small_square());
}

TEST(TuningCacheTest, FileRoundTrip) {
  tune::TuningCache cache;
  cache.insert(200, 200, 8, Solution::kFused,
               entry_of(small_square(), 1e-3));
  const std::string path =
      testing::TempDir() + "/ksum_tuning_cache_test.json";
  cache.save(path);

  tune::TuningCache loaded;
  loaded.load(path);
  EXPECT_EQ(loaded.to_json().dump(), cache.to_json().dump());
  std::remove(path.c_str());

  EXPECT_THROW(loaded.load("/no/such/dir/cache.json"), Error);
}

TEST(TuningCacheTest, ValidatorRejectsBrokenRecords) {
  tune::TuningCache cache;
  cache.insert(128, 128, 8, Solution::kFused,
               entry_of(TileGeometry{}, 1e-3));
  cache.insert(256, 128, 8, Solution::kFused,
               entry_of(TileGeometry{}, 1e-3));
  const auto good = cache.to_json();
  const std::string text = good.dump();

  {
    auto bad = profile::Json::parse(text);
    bad.set("schema", profile::Json("ksum-tune-cache-v3"));
    EXPECT_THROW(tune::validate_tune_cache_json(bad), Error);
  }
  {
    // Swap the two entries: ordering violation.
    auto bad = profile::Json::object();
    bad.set("schema", profile::Json("ksum-tune-cache-v2"));
    auto entries = profile::Json::array();
    entries.push_back(good.at("entries").at(std::size_t{1}));
    entries.push_back(good.at("entries").at(std::size_t{0}));
    bad.set("entries", entries);
    EXPECT_THROW(tune::validate_tune_cache_json(bad), Error);
  }
  {
    // Duplicate key.
    auto bad = profile::Json::object();
    bad.set("schema", profile::Json("ksum-tune-cache-v2"));
    auto entries = profile::Json::array();
    entries.push_back(good.at("entries").at(std::size_t{0}));
    entries.push_back(good.at("entries").at(std::size_t{0}));
    bad.set("entries", entries);
    EXPECT_THROW(tune::validate_tune_cache_json(bad), Error);
  }
  {
    // Structurally invalid geometry (micro does not divide the tile).
    auto bad = profile::Json::parse(text);
    // Rebuild with a corrupted first entry.
    auto entries = profile::Json::array();
    auto first = bad.at("entries").at(std::size_t{0});
    first.set("micro", profile::Json(12.0));
    entries.push_back(first);
    auto outer = profile::Json::object();
    outer.set("schema", profile::Json("ksum-tune-cache-v2"));
    outer.set("entries", entries);
    EXPECT_THROW(tune::validate_tune_cache_json(outer), Error);
  }
  {
    // A wrongly-typed field is refused with the schema tag and the path.
    auto entries = profile::Json::array();
    auto first = good.at("entries").at(std::size_t{0});
    first.set("tile_m", profile::Json("128"));
    entries.push_back(first);
    auto bad = profile::Json::object();
    bad.set("schema", profile::Json("ksum-tune-cache-v2"));
    bad.set("entries", entries);
    try {
      tune::validate_tune_cache_json(bad);
      ADD_FAILURE() << "a string tile_m validated";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find(
                    "ksum-tune-cache-v2: entries[0].tile_m: "),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(TuningCacheTest, RejectsNonIntegralOutOfRangeAndUnknownFields) {
  // A cache file is outside input. A fractional geometry used to load
  // truncated, 1e12 was an undefined double→int conversion, and an unknown
  // key was ignored; each must now be refused naming the field.
  tune::TuningCache cache;
  cache.insert(128, 128, 8, Solution::kFused,
               entry_of(TileGeometry{}, 1e-3));
  const auto good = cache.to_json();
  const struct {
    const char* key;
    double value;
  } cases[] = {{"tile_m", 128.5},
               {"tile_m", 1e12},
               {"micro", -4e18},
               {"m", 1e30},
               {"bogus", 1.0}};
  for (const auto& c : cases) {
    auto entry = good.at("entries").at(std::size_t{0});
    entry.set(c.key, profile::Json(c.value));
    auto entries = profile::Json::array();
    entries.push_back(entry);
    auto bad = profile::Json::object();
    bad.set("schema", good.at("schema"));
    bad.set("entries", entries);
    tune::TuningCache loaded;
    try {
      loaded.load_json(bad);
      ADD_FAILURE() << c.key << "=" << c.value << " loaded";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find(std::string("entries[0].") +
                                           c.key + ": "),
                std::string::npos)
          << e.what();
    }
    EXPECT_EQ(loaded.size(), 0u);
  }
}

TEST(TuningCacheTest, RetiredV1SchemaAsksForARetune) {
  // v1 winners were ranked by the retired proxy re-model, and its entries
  // carry a proxy_seconds field v2 no longer has: a stale file must be
  // refused with a re-tune instruction, never half-loaded.
  tune::TuningCache cache;
  cache.insert(128, 128, 8, Solution::kFused, entry_of(TileGeometry{}, 1e-3));
  auto stale = profile::Json::parse(cache.to_json().dump());
  stale.set("schema", profile::Json("ksum-tune-cache-v1"));
  try {
    tune::validate_tune_cache_json(stale);
    ADD_FAILURE() << "a v1 cache validated";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("re-tune"), std::string::npos)
        << e.what();
  }
  tune::TuningCache loaded;
  EXPECT_THROW(loaded.load_json(stale), Error);
  EXPECT_EQ(loaded.size(), 0u);
}

}  // namespace
}  // namespace ksum
