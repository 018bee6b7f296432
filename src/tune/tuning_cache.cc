#include "tune/tuning_cache.h"

#include <fstream>
#include <sstream>
#include <tuple>

#include "common/error.h"

namespace ksum::tune {

using profile::Json;

namespace {

constexpr const char* kSchema = "ksum-tune-cache-v2";

pipelines::Solution solution_from_string(const std::string& name) {
  if (name == to_string(pipelines::Solution::kFused)) {
    return pipelines::Solution::kFused;
  }
  if (name == to_string(pipelines::Solution::kCudaUnfused)) {
    return pipelines::Solution::kCudaUnfused;
  }
  if (name == to_string(pipelines::Solution::kCublasUnfused)) {
    return pipelines::Solution::kCublasUnfused;
  }
  throw Error(std::string(kSchema) + ": unknown solution: " + name);
}

void check(bool cond, const std::string& what) {
  if (!cond) throw Error(std::string(kSchema) + ": " + what);
}

std::size_t entry_size(const Json& e, const char* key) {
  const double v = e.at(key).as_double();
  check(v > 0 && v == static_cast<double>(static_cast<std::size_t>(v)),
        std::string(key) + " must be a positive integer");
  return static_cast<std::size_t>(v);
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
      const auto& g = entry.geometry;
      e.set("tile_m", g.tile_m);
      e.set("tile_n", g.tile_n);
      e.set("tile_k", g.tile_k);
      e.set("block_x", g.block_x);
      e.set("block_y", g.block_y);
      e.set("micro", g.micro);
      e.set("scaled_seconds", entry.scaled_seconds);
      entries.push_back(std::move(e));
    }
  }
  record.set("entries", std::move(entries));
  validate_tune_cache_json(record);
  return record;
}

void TuningCache::load_json(const Json& record) {
  validate_tune_cache_json(record);
  std::map<Key, Entry> entries;
  for (const auto& e : record.at("entries").items()) {
    Key key;
    key.m = entry_size(e, "m");
    key.n = entry_size(e, "n");
    key.k = entry_size(e, "k");
    key.solution =
        static_cast<int>(solution_from_string(e.at("solution").as_string()));
    key.profile = e.at("profile").as_string();
    Entry entry;
    entry.geometry.tile_m = static_cast<int>(e.at("tile_m").as_double());
    entry.geometry.tile_n = static_cast<int>(e.at("tile_n").as_double());
    entry.geometry.tile_k = static_cast<int>(e.at("tile_k").as_double());
    entry.geometry.block_x = static_cast<int>(e.at("block_x").as_double());
    entry.geometry.block_y = static_cast<int>(e.at("block_y").as_double());
    entry.geometry.micro = static_cast<int>(e.at("micro").as_double());
    entry.scaled_seconds = e.at("scaled_seconds").as_double();
    entries[key] = entry;
  }
  std::lock_guard<std::mutex> lock(mutex_);
  entries_ = std::move(entries);
}

void TuningCache::save(const std::string& path) const {
  const auto record = to_json();
  std::ofstream out(path, std::ios::binary);
  if (!out) throw Error("cannot write tuning cache: " + path);
  out << record.dump();
  out.close();
  if (!out) throw Error("failed writing tuning cache: " + path);
}

void TuningCache::load(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw Error("cannot open tuning cache: " + path);
  std::ostringstream text;
  text << in.rdbuf();
  load_json(Json::parse(text.str()));
}

void validate_tune_cache_json(const Json& record) {
  check(record.is_object(), "record must be an object");
  const std::string schema = record.at("schema").as_string();
  if (schema == "ksum-tune-cache-v1") {
    throw Error("ksum-tune-cache-v1 is retired: its winners were priced by "
                "a proxy re-model; re-tune (delete the file, then rerun with "
                "--cache) to write a " + std::string(kSchema) + " cache");
  }
  check(schema == kSchema, "schema must be " + std::string(kSchema));
  const auto& entries = record.at("entries");
  check(entries.is_array(), "entries must be an array");
  bool have_prev = false;
  std::size_t pm = 0, pn = 0, pk = 0;
  int ps = 0;
  std::string pp;
  for (const auto& e : entries.items()) {
    const std::size_t m = entry_size(e, "m");
    const std::size_t n = entry_size(e, "n");
    const std::size_t k = entry_size(e, "k");
    const int s =
        static_cast<int>(solution_from_string(e.at("solution").as_string()));
    const std::string p = e.at("profile").as_string();
    check(!p.empty(), "entry profile must be non-empty");
    if (have_prev) {
      const bool ascending =
          std::tie(pm, pn, pk, ps, pp) < std::tie(m, n, k, s, p);
      check(ascending,
            "entries must be strictly sorted by (m, n, k, solution, profile)");
    }
    have_prev = true;
    pm = m;
    pn = n;
    pk = k;
    ps = s;
    pp = p;

    gpukernels::TileGeometry g;
    g.tile_m = static_cast<int>(e.at("tile_m").as_double());
    g.tile_n = static_cast<int>(e.at("tile_n").as_double());
    g.tile_k = static_cast<int>(e.at("tile_k").as_double());
    g.block_x = static_cast<int>(e.at("block_x").as_double());
    g.block_y = static_cast<int>(e.at("block_y").as_double());
    g.micro = static_cast<int>(e.at("micro").as_double());
    check(g.structurally_valid(),
          "entry geometry " + g.to_string() + " is structurally invalid");
    check(e.at("scaled_seconds").as_double() > 0,
          "entry seconds must be positive");
  }
}

}  // namespace ksum::tune
