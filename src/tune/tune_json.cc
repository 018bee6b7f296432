#include "tune/tune_json.h"

#include "common/error.h"
#include "profile/record.h"

namespace ksum::tune {

using profile::Json;

namespace {

using gpukernels::TileGeometry;
using profile::Reader;

constexpr char kSchema[] = "ksum-tune-v1";

constexpr profile::Field<TileGeometry> kGeometryFields[] = {
    {"tile_m", &TileGeometry::tile_m},   {"tile_n", &TileGeometry::tile_n},
    {"tile_k", &TileGeometry::tile_k},   {"block_x", &TileGeometry::block_x},
    {"block_y", &TileGeometry::block_y}, {"micro", &TileGeometry::micro},
};

// A tune record names each geometry by its to_string() ahead of the fields.
void write_geometry(Json& obj, const TileGeometry& g) {
  obj.set("geometry", g.to_string());
  profile::write(obj, g, kGeometryFields);
}

TileGeometry read_geometry(const Reader& obj) {
  TileGeometry g;
  profile::read(obj, g, kGeometryFields);
  return g;
}

// `measured` is false for grid (unmeasured) records.
void validate_candidate(const Reader& c, bool measured) {
  const Reader name = c.member("geometry");
  name.expect(read_geometry(c).to_string() == name.string(),
              "does not match the geometry fields");
  const bool viable = c.member("viable").boolean();
  const Reader reasons = c.member("reasons");
  reasons.expect(viable == (reasons.size() == 0),
                 "must be non-empty exactly when the candidate is not viable");
  for (std::size_t i = 0; i < reasons.size(); ++i) {
    reasons.at(i).expect(!reasons.at(i).string().empty(),
                         "must be a non-empty string");
  }
  if (viable) {
    const Reader blocks = c.member("blocks_per_sm");
    blocks.expect(blocks.number() >= 1,
                  "a viable candidate must fit at least one CTA per SM");
    const Reader conflicts = c.member("bank_conflicts");
    conflicts.expect(conflicts.number() == 0,
                     "a viable candidate must stage conflict-free");
  }
  if (!measured) return;
  const Reader executed = c.member("executed");
  executed.expect(executed.boolean() == viable,
                  "exactly the viable candidates execute");
  if (viable) {
    const Reader seconds = c.member("scaled_seconds");
    seconds.expect(seconds.number() > 0,
                   "an executed candidate must carry positive modelled "
                   "seconds");
  }
}

void validate_tune(const Reader& t) {
  const Reader shape = t.member("shape");
  for (const char* key : {"m", "n", "k"}) {
    shape.member(key).expect(shape.member(key).number() > 0,
                             "must be positive");
  }
  const Reader backend = t.member("backend");
  backend.expect(!backend.string().empty(), "must name the backend");
  const Reader candidates = t.member("candidates");
  candidates.expect(candidates.size() > 0, "must not be empty");

  // Re-derive the winner by the tuner's own order from the record's
  // measurements.
  bool found = false;
  TileGeometry best;
  double best_seconds = 0;
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    const Reader c = candidates.at(i);
    validate_candidate(c, /*measured=*/true);
    if (!c.member("executed").boolean()) continue;
    const double seconds = c.member("scaled_seconds").number();
    const TileGeometry g = read_geometry(c);
    if (!found || ranks_before(seconds, g, best_seconds, best)) {
      found = true;
      best = g;
      best_seconds = seconds;
    }
  }
  candidates.expect(found, "a tune must have at least one executed candidate");
  const Reader recorded = t.member("best");
  recorded.expect(read_geometry(recorded) == best,
                  "does not recompose from the measurements");
  const Reader recorded_seconds = t.member("best_scaled_seconds");
  recorded_seconds.expect(recorded_seconds.number() == best_seconds,
                          "does not match the winning candidate");
}

}  // namespace

profile::Fields<TileGeometry> geometry_fields() { return kGeometryFields; }

Json verdict_to_json(const CandidateVerdict& verdict) {
  Json c = Json::object();
  write_geometry(c, verdict.geometry);
  c.set("viable", verdict.viable);
  Json reasons = Json::array();
  for (const auto& r : verdict.reasons) reasons.push_back(r);
  c.set("reasons", std::move(reasons));
  c.set("regs_per_thread", verdict.regs_per_thread);
  c.set("smem_bytes", verdict.smem_bytes);
  c.set("blocks_per_sm", verdict.blocks_per_sm);
  c.set("limiter", verdict.limiter);
  c.set("bank_conflicts", verdict.bank_conflicts);
  return c;
}

Json measurement_to_json(const TuneMeasurement& m) {
  Json c = verdict_to_json(m.verdict);
  c.set("executed", m.executed);
  c.set("scaled_seconds", m.scaled_seconds);
  return c;
}

Json tune_report_to_json(const TuneReport& report) {
  Json t = Json::object();
  Json shape = Json::object();
  shape.set("m", static_cast<std::uint64_t>(report.request.m));
  shape.set("n", static_cast<std::uint64_t>(report.request.n));
  shape.set("k", static_cast<std::uint64_t>(report.request.k));
  t.set("shape", std::move(shape));
  t.set("backend", pipelines::to_string(report.request.backend));
  Json best = Json::object();
  write_geometry(best, report.best);
  t.set("best", std::move(best));
  t.set("best_scaled_seconds", report.best_scaled_seconds);
  Json candidates = Json::array();
  for (const auto& m : report.measurements) {
    candidates.push_back(measurement_to_json(m));
  }
  t.set("candidates", std::move(candidates));
  return t;
}

Json tune_grid_record(const std::string& command,
                      const std::vector<CandidateVerdict>& grid) {
  KSUM_REQUIRE(command == "list" || command == "prune",
               "grid records are list/prune only");
  Json record = Json::object();
  record.set("schema", "ksum-tune-v1");
  record.set("command", command);
  Json candidates = Json::array();
  for (const auto& v : grid) candidates.push_back(verdict_to_json(v));
  record.set("candidates", std::move(candidates));
  validate_tune_json(record);
  return record;
}

Json tune_record(const std::string& command,
                 const std::vector<TuneReport>& tunes) {
  KSUM_REQUIRE(command == "best" || command == "sweep",
               "tune records are best/sweep only");
  Json record = Json::object();
  record.set("schema", "ksum-tune-v1");
  record.set("command", command);
  Json items = Json::array();
  for (const auto& t : tunes) items.push_back(tune_report_to_json(t));
  record.set("tunes", std::move(items));
  validate_tune_json(record);
  return record;
}

void validate_tune_json(const Json& json) {
  const Reader record(json, kSchema);
  const Reader schema = record.member("schema");
  schema.expect(schema.string() == kSchema, "must be \"ksum-tune-v1\"");
  const Reader command = record.member("command");
  if (command.string() == "list" || command.string() == "prune") {
    const Reader candidates = record.member("candidates");
    candidates.expect(candidates.size() > 0, "must not be empty");
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      validate_candidate(candidates.at(i), /*measured=*/false);
    }
    return;
  }
  command.expect(command.string() == "best" || command.string() == "sweep",
                 "must be list, prune, best, or sweep");
  const Reader tunes = record.member("tunes");
  tunes.expect(tunes.size() > 0, "must not be empty");
  for (std::size_t i = 0; i < tunes.size(); ++i) validate_tune(tunes.at(i));
}

}  // namespace ksum::tune
