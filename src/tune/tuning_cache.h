// Deterministic memoization of tuner winners, and the TileGeometryResolver
// the solver consults.
//
// The cache maps (M, N, K, solution, profile) to the geometry the tuner
// picked. The profile is part of the key because a winner is only a winner
// on the architecture it was measured on — a geometry tuned for gtx970's
// 13 SMs must never be replayed for a 128-SM part. resolve() is a pure
// lookup (a miss keeps the caller's default geometry) against the cache's
// active profile; get_or_tune() runs the full tuner on a miss and memoizes
// the winner under TuneOptions::profile, so a batch of identical shapes
// tunes exactly once. All entry points are thread-safe, and the serialised
// form — schema "ksum-tune-cache-v2" — is a pure function of the entries:
// keys serialise in sorted order, values carry no clocks or host state, so
// the same tuning decisions always produce a byte-identical cache file
// (the golden tests pin this).
//
//   {
//     "schema": "ksum-tune-cache-v2",
//     "entries": [ {
//         "m":…, "n":…, "k":…, "solution": "Fused", "profile": "gtx970",
//         "tile_m":…, "tile_n":…, "tile_k":…, "block_x":…, "block_y":…,
//         "micro":…, "scaled_seconds":… } ]
//   }
//
// load_json() is the schema's executable definition (validation is the same
// parse, discarded). It enforces the determinism contract: entries must be
// strictly sorted by (m, n, k, solution, profile) with no duplicates. Every
// field is required and exactly typed, unknown keys are rejected, and every
// geometry must be structurally valid. A v1 file (winners picked by
// the retired 512×512×16 proxy re-model) is refused with a request to
// re-tune.
#pragma once

#include <map>
#include <mutex>
#include <string>

#include "pipelines/pipeline.h"
#include "profile/json.h"
#include "tune/tuner.h"

namespace ksum::tune {

class TuningCache : public pipelines::TileGeometryResolver {
 public:
  struct Entry {
    gpukernels::TileGeometry geometry;
    double scaled_seconds = 0;
  };

  TuningCache() = default;
  TuningCache(const TuningCache&) = delete;
  TuningCache& operator=(const TuningCache&) = delete;

  /// Profile the TileGeometryResolver interface resolves against (the
  /// solver's resolve() calls carry no profile of their own). Defaults to
  /// gtx970 — set it once when a run selects a different --profile.
  void set_profile(std::string profile);
  std::string profile() const;

  /// Pure lookup under the active profile; nullopt on a miss (the solver
  /// keeps its default).
  std::optional<gpukernels::TileGeometry> resolve(
      std::size_t m, std::size_t n, std::size_t k,
      pipelines::Solution solution) const override;

  /// Lookup returning the full entry; nullopt on a miss.
  std::optional<Entry> find(std::size_t m, std::size_t n, std::size_t k,
                            pipelines::Solution solution,
                            const std::string& profile = "gtx970") const;

  /// Inserts (or replaces) an entry.
  void insert(std::size_t m, std::size_t n, std::size_t k,
              pipelines::Solution solution, Entry entry,
              const std::string& profile = "gtx970");

  /// Memoized tuning keyed under options.profile: returns the cached
  /// winner or runs tune() and caches it. The tuner runs outside the cache
  /// lock; concurrent misses on the same key tune redundantly but
  /// deterministically agree.
  Entry get_or_tune(std::size_t m, std::size_t n, std::size_t k,
                    pipelines::Backend backend,
                    const TuneOptions& options = {});

  std::size_t size() const;

  /// Serialises to ksum-tune-cache-v2 (validated before returning).
  profile::Json to_json() const;
  /// Replaces the contents from a record (ksum::Error on any violation).
  void load_json(const profile::Json& record);

  /// File round-trip (dump() text; load validates).
  void save(const std::string& path) const;
  void load(const std::string& path);

 private:
  struct Key {
    std::size_t m = 0, n = 0, k = 0;
    int solution = 0;
    std::string profile;
    bool operator<(const Key& o) const {
      if (m != o.m) return m < o.m;
      if (n != o.n) return n < o.n;
      if (k != o.k) return k < o.k;
      if (solution != o.solution) return solution < o.solution;
      return profile < o.profile;
    }
  };

  mutable std::mutex mutex_;
  std::string profile_ = "gtx970";
  std::map<Key, Entry> entries_;
};

/// Parses the record as load_json() does and discards the result.
void validate_tune_cache_json(const profile::Json& record);

}  // namespace ksum::tune
