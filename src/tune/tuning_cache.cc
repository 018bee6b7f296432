#include "tune/tuning_cache.h"

#include "common/error.h"
#include "profile/record.h"
#include "tune/tune_json.h"

namespace ksum::tune {

using profile::Json;

namespace {

using profile::Reader;

constexpr const char* kSchema = "ksum-tune-cache-v2";

pipelines::Solution solution_named(const Reader& name) {
  for (const auto solution :
       {pipelines::Solution::kFused, pipelines::Solution::kCudaUnfused,
        pipelines::Solution::kCublasUnfused}) {
    if (name.string() == to_string(solution)) return solution;
  }
  name.fail("unknown solution \"" + name.string() + "\"");
}

}  // namespace

void TuningCache::set_profile(std::string profile) {
  KSUM_REQUIRE(!profile.empty(), "cache profile must be non-empty");
  std::lock_guard<std::mutex> lock(mutex_);
  profile_ = std::move(profile);
}

std::string TuningCache::profile() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return profile_;
}

std::optional<gpukernels::TileGeometry> TuningCache::resolve(
    std::size_t m, std::size_t n, std::size_t k,
    pipelines::Solution solution) const {
  const auto entry = find(m, n, k, solution, profile());
  if (!entry.has_value()) return std::nullopt;
  return entry->geometry;
}

std::optional<TuningCache::Entry> TuningCache::find(
    std::size_t m, std::size_t n, std::size_t k,
    pipelines::Solution solution, const std::string& profile) const {
  const Key key{m, n, k, static_cast<int>(solution), profile};
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = entries_.find(key);
  if (it == entries_.end()) return std::nullopt;
  return it->second;
}

void TuningCache::insert(std::size_t m, std::size_t n, std::size_t k,
                         pipelines::Solution solution, Entry entry,
                         const std::string& profile) {
  entry.geometry.validate();
  KSUM_REQUIRE(!profile.empty(), "cache entry profile must be non-empty");
  const Key key{m, n, k, static_cast<int>(solution), profile};
  std::lock_guard<std::mutex> lock(mutex_);
  entries_[key] = entry;
}

TuningCache::Entry TuningCache::get_or_tune(std::size_t m, std::size_t n,
                                            std::size_t k,
                                            pipelines::Backend backend,
                                            const TuneOptions& options) {
  const auto solution = pipelines::solution_of(backend);
  if (const auto hit = find(m, n, k, solution, options.profile);
      hit.has_value()) {
    return *hit;
  }
  // Tune outside the lock — a concurrent miss on the same key redoes the
  // (deterministic) work and the second insert is a no-op overwrite.
  TuneRequest request;
  request.m = m;
  request.n = n;
  request.k = k;
  request.backend = backend;
  const auto report = tune(request, options);
  Entry entry;
  entry.geometry = report.best;
  entry.scaled_seconds = report.best_scaled_seconds;
  insert(m, n, k, solution, entry, options.profile);
  return entry;
}

std::size_t TuningCache::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

Json TuningCache::to_json() const {
  Json record = Json::object();
  record.set("schema", kSchema);
  Json entries = Json::array();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    // std::map iterates in key order, so the record is already sorted — the
    // determinism contract the validator enforces.
    for (const auto& [key, entry] : entries_) {
      Json e = Json::object();
      e.set("m", static_cast<std::uint64_t>(key.m));
      e.set("n", static_cast<std::uint64_t>(key.n));
      e.set("k", static_cast<std::uint64_t>(key.k));
      e.set("solution",
            to_string(static_cast<pipelines::Solution>(key.solution)));
      e.set("profile", key.profile);
      profile::write(e, entry.geometry, geometry_fields());
      e.set("scaled_seconds", entry.scaled_seconds);
      entries.push_back(std::move(e));
    }
  }
  record.set("entries", std::move(entries));
  validate_tune_cache_json(record);
  return record;
}

void TuningCache::load_json(const Json& json) {
  const Reader record(json, kSchema);
  const Reader schema = record.member("schema");
  if (schema.string() == "ksum-tune-cache-v1") {
    throw Error("ksum-tune-cache-v1 is retired: its winners were priced by "
                "a proxy re-model; re-tune (delete the file, then rerun with "
                "--cache) to write a " + std::string(kSchema) + " cache");
  }
  schema.expect(schema.string() == kSchema,
                "must be \"ksum-tune-cache-v2\"");
  record.closed({"schema", "entries"});
  const Reader list = record.member("entries");
  std::map<Key, Entry> entries;
  for (std::size_t i = 0; i < list.size(); ++i) {
    const Reader e = list.at(i);
    e.closed({"m", "n", "k", "solution", "profile", "scaled_seconds"},
             geometry_fields());
    Key key;
    key.m = e.member("m").integer<std::size_t>(1);
    key.n = e.member("n").integer<std::size_t>(1);
    key.k = e.member("k").integer<std::size_t>(1);
    key.solution = static_cast<int>(solution_named(e.member("solution")));
    const Reader profile = e.member("profile");
    key.profile = profile.string();
    profile.expect(!key.profile.empty(), "must be non-empty");
    // The determinism contract: a cache serialises in key order.
    e.expect(entries.empty() || entries.rbegin()->first < key,
             "entries must be strictly sorted by (m, n, k, solution, "
             "profile)");

    Entry entry;
    profile::read(e, entry.geometry, geometry_fields());
    if (!entry.geometry.structurally_valid()) {
      e.fail("geometry " + entry.geometry.to_string() +
             " is structurally invalid");
    }
    const Reader seconds = e.member("scaled_seconds");
    entry.scaled_seconds = seconds.number();
    seconds.expect(entry.scaled_seconds > 0, "must be positive");
    entries.emplace_hint(entries.end(), std::move(key), entry);
  }
  std::lock_guard<std::mutex> lock(mutex_);
  entries_ = std::move(entries);
}

void TuningCache::save(const std::string& path) const {
  profile::write_file(path, to_json().dump());
}

void TuningCache::load(const std::string& path) {
  load_json(profile::read_file(path, "tuning cache"));
}

void validate_tune_cache_json(const Json& record) {
  TuningCache parsed;
  parsed.load_json(record);
}

}  // namespace ksum::tune
