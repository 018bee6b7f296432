// JSON records of the autotuner and their executable schema.
//
// Schema "ksum-tune-v1" (emitted by `ksum-tune ... --json`):
//
//   {
//     "schema": "ksum-tune-v1",
//     "command": "list" | "prune" | "best" | "sweep",
//     // list/prune — the vetted candidate grid:
//     "candidates": [ {
//         "geometry": "128x128x8/16x16/8",
//         "tile_m":…, "tile_n":…, "tile_k":…, "block_x":…, "block_y":…,
//         "micro":…, "viable": bool, "reasons": ["…"],
//         "regs_per_thread":…, "smem_bytes":…, "blocks_per_sm":…,
//         "limiter": "…", "bank_conflicts":… } ],
//     // best/sweep — one object per tuned shape:
//     "tunes": [ {
//         "shape": {"m":…, "n":…, "k":…}, "backend": "sim-fused",
//         "best": {"geometry": "…", <geometry fields>},
//         "best_scaled_seconds":…,
//         "candidates": [ { <candidate fields>, "executed": bool,
//             "scaled_seconds":… } ] } ]
//   }
//
// validate_tune_json() is the schema's executable definition: beyond the
// structure it re-derives the invariants — a candidate has reasons iff it is
// not viable, and every tune's "best" is the executed candidate with the
// minimum scaled seconds (ties by the tuner's deterministic order), and
// exactly the viable candidates execute. A record whose winner or executed
// set does not recompose from its own measurements is rejected.
#pragma once

#include <string>
#include <vector>

#include "profile/json.h"
#include "profile/record.h"
#include "tune/tuner.h"

namespace ksum::tune {

/// The TileGeometry field table: the one place each geometry field's name
/// is spelled, shared by these records and the tuning cache.
profile::Fields<gpukernels::TileGeometry> geometry_fields();

/// One vetted candidate (the list/prune row).
profile::Json verdict_to_json(const CandidateVerdict& verdict);

/// One priced candidate (verdict fields + execution fields).
profile::Json measurement_to_json(const TuneMeasurement& m);

/// One tuned shape (the best/sweep element).
profile::Json tune_report_to_json(const TuneReport& report);

/// Assembles (and validates) a full ksum-tune-v1 record. `command` must be
/// "list" or "prune" for the verdict form.
profile::Json tune_grid_record(const std::string& command,
                               const std::vector<CandidateVerdict>& grid);
/// `command` must be "best" or "sweep".
profile::Json tune_record(const std::string& command,
                          const std::vector<TuneReport>& tunes);

/// Throws ksum::Error describing the first violation.
void validate_tune_json(const profile::Json& record);

}  // namespace ksum::tune
