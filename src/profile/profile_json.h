// The ksum-prof record: a profiled program run and its stable JSON schema.
//
// Schema "ksum-prof-v1" (all energies in joules, all times in seconds):
//
//   {
//     "schema": "ksum-prof-v1",
//     "program": "<registry name or pipeline label>",
//     "shape": {"m": M, "n": N, "k": K},
//     "device": {"name": "<device profile, e.g. gtx970>", "num_sms": ..,
//                "core_clock_ghz": .., "dram_bandwidth_gb_s": ..},
//     "launches": [ {
//         "kernel": "...", "grid": [x, y], "block_threads": T,
//         "occupancy_blocks_per_sm": B,
//         "seconds": t, "bound": "dram|compute|smem|l2",
//         "counters": { <every Counters field by name> },
//         "phases":  [ {"phase": "...", "seconds": t,
//                       "counters": {...}} ],
//         "sites":   [ {"site": id, "location": "file:line", "label": "...",
//                       "global_requests": .., "sectors": ..,
//                       "ideal_sectors": .., "smem_transactions": ..,
//                       "energy_j": {"smem":..,"l2":..,"dram":..,"total":..}}],
//         "energy_j": {"compute":..,"smem":..,"l2":..,"dram":..,"static":..,
//                      "total":.., "residual":{"smem":..,"l2":..,"dram":..}}
//     } ],
//     "totals": {"seconds": .., "counters": {...},
//                "energy_j": {"compute":..,..,"total":..}},
//     "timestamp": "<optional, set by the CLI; excluded from determinism
//                    comparisons>"
//   }
//
// validate_profile_json() checks the record's invariants: the schema tag,
// positive shape, at least one launch, and that every launch's per-site
// energies (+ residual + the compute/static pseudo-buckets) and every
// energy object's parts recompose their totals within 1e-9 relative
// tolerance. validate_bench_json() does the same for the "ksum-bench-v1"
// records bench/ emits.
#pragma once

#include <string>
#include <vector>

#include "config/device_spec.h"
#include "config/energy_spec.h"
#include "config/timing_spec.h"
#include "profile/energy_attribution.h"
#include "profile/json.h"
#include "profile/launch_profiler.h"

namespace ksum::profile {

/// A fully finalized profiled run: timing, per-launch energy attribution,
/// and totals over raw LaunchProfiles.
struct ProgramProfile {
  std::string program;
  std::size_t m = 0, n = 0, k = 0;
  /// Device-profile identity serialised as device.name (default: the
  /// paper's machine, keeping pre-profile records byte-identical).
  std::string device_name = "gtx970";
  config::DeviceSpec device;
  std::vector<LaunchProfile> launches;
  std::vector<EnergyAttribution> energies;  // parallel to launches
  double total_seconds = 0;
  gpusim::Counters total_counters;
  gpusim::EnergyBreakdown total_energy;
};

/// Finalizes raw profiler output: per-launch timing (hints derived from the
/// kernel name and `k`), per-launch energy attribution, and totals.
ProgramProfile build_program_profile(const std::string& program,
                                     std::size_t m, std::size_t n,
                                     std::size_t k,
                                     const config::DeviceSpec& device,
                                     const config::TimingSpec& timing,
                                     const config::EnergySpec& energy,
                                     std::vector<LaunchProfile> launches,
                                     const std::string& device_name =
                                         "gtx970");

/// Serialises to the ksum-prof-v1 schema. `timestamp` is emitted verbatim
/// when non-empty (the determinism tests compare records with it stripped).
Json profile_to_json(const ProgramProfile& profile,
                     const std::string& timestamp = "");

/// Serialises one Counters bag as a flat JSON object, one member per
/// counter. The field list is pinned against the struct size, so adding a
/// counter without extending the schema fails to compile.
Json counters_to_json(const gpusim::Counters& c);

/// Serializes an EnergyBreakdown as the schema's energy object (per-bucket
/// joules plus "total"); shared by the profile and bench records.
Json energy_breakdown_json(const gpusim::EnergyBreakdown& energy);

/// Merges per-program ksum-prof-v1 records into one "ksum-prof-batch-v1"
/// record: {"schema", "programs": [<ksum-prof-v1>...], "totals": {"seconds",
/// "energy_j_total"}}. Programs appear in the order given (submission order
/// in the batched profiler), and neither the worker count nor — unless
/// `timestamp` is non-empty — any clock reading is embedded, so same-seed
/// batches serialise byte-identically for any thread count.
Json batch_profiles_to_json(const std::vector<Json>& programs,
                            const std::string& timestamp = "");

/// One shard of a sharded profiling run: its index, half-open element range
/// along the shard axis, and the embedded (timestamp-free) ksum-prof-v1
/// record of that shard's kernels.
struct ShardProfileEntry {
  std::size_t index = 0;
  std::size_t begin = 0;
  std::size_t end = 0;
  Json profile;
};

/// Merges per-shard ksum-prof-v1 records into one "ksum-prof-shard-v1"
/// record:
///
///   {"schema": "ksum-prof-shard-v1", "axis": "m"|"n",
///    "shape": {"m": M, "n": N, "k": K},
///    "shards": [{"index": i, "begin": b, "end": e,
///                "profile": <ksum-prof-v1>} ...],
///    "totals": {"seconds": .., "energy_j_total": ..}}
///
/// totals.seconds is the max over shards (each shard runs on its own
/// device, concurrently — matching the sharded pipeline report's modelled
/// wall time); totals.energy_j_total is the sum. Shards appear in index
/// order and no clock reading is embedded unless `timestamp` is non-empty,
/// so the record is a pure function of (shape, axis, shard plan).
Json shard_profiles_to_json(const std::string& axis, std::size_t m,
                            std::size_t n, std::size_t k,
                            const std::vector<ShardProfileEntry>& shards,
                            const std::string& timestamp = "");

/// A treecode interaction plan at one error budget and its modelled price
/// (ksum-prof --tree-eps; no solve runs).
struct TreeProfile {
  std::size_t m = 0, n = 0, k = 0;
  double eps = 0;
  std::string device_name;
  std::size_t row_clusters = 0, boxes = 0;
  std::size_t near_pairs = 0, far0_pairs = 0, far1_pairs = 0;
  double near_interactions = 0, budget = 0, bound_total = 0;
  double dense_seconds = 0, tree_seconds = 0;
};

/// Serialises to "ksum-prof-tree-v1": {"schema", "shape":{m,n,k}, "eps",
/// "device":{"name"}, "plan":{row_clusters, boxes, near_pairs, far0_pairs,
/// far1_pairs, near_interactions, near_fraction = near_interactions/(m·n),
/// budget, bound_total}, "model":{dense_seconds, tree_seconds, speedup =
/// dense/tree}}.
Json tree_profile_to_json(const TreeProfile& tree);

/// Every validator reads through profile::Reader (profile/record.h), so a
/// rejection names the schema and the path of the offending field. Each
/// throws ksum::Error on the first violation and returns normally on a
/// well-formed record.
void validate_profile_json(const Json& record);
/// Validates a ksum-prof-shard-v1 record: the axis must be "m" or "n", the
/// shard ranges must tile [0, shape.<axis>) contiguously in index order,
/// every embedded profile must validate as ksum-prof-v1, and the totals
/// must recompose (max of seconds, sum of energy).
void validate_profile_shard_json(const Json& record);
/// Validates a ksum-prof-batch-v1 record: every embedded program record must
/// validate, and the batch totals must recompose the per-program totals.
void validate_profile_batch_json(const Json& record);
void validate_bench_json(const Json& record);
/// Validates a ksum-prof-tree-v1 record: the counts are non-negative
/// integers, near_fraction is in [0, 1], speedup equals dense_seconds /
/// tree_seconds, and bound_total <= eps whenever a far pair exists.
void validate_profile_tree_json(const Json& record);

}  // namespace ksum::profile
