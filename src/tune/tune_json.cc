#include "tune/tune_json.h"

#include "common/error.h"

namespace ksum::tune {

using profile::Json;

namespace {

void set_geometry_fields(Json& obj, const gpukernels::TileGeometry& g) {
  obj.set("geometry", g.to_string());
  obj.set("tile_m", g.tile_m);
  obj.set("tile_n", g.tile_n);
  obj.set("tile_k", g.tile_k);
  obj.set("block_x", g.block_x);
  obj.set("block_y", g.block_y);
  obj.set("micro", g.micro);
}

gpukernels::TileGeometry geometry_from_json(const Json& obj) {
  gpukernels::TileGeometry g;
  g.tile_m = static_cast<int>(obj.at("tile_m").as_double());
  g.tile_n = static_cast<int>(obj.at("tile_n").as_double());
  g.tile_k = static_cast<int>(obj.at("tile_k").as_double());
  g.block_x = static_cast<int>(obj.at("block_x").as_double());
  g.block_y = static_cast<int>(obj.at("block_y").as_double());
  g.micro = static_cast<int>(obj.at("micro").as_double());
  return g;
}

void check(bool cond, const std::string& what) {
  if (!cond) throw Error("ksum-tune-v1: " + what);
}

// `measured` is false for grid (unmeasured) records.
void validate_candidate(const Json& c, bool measured) {
  check(c.at("geometry").is_string(), "candidate geometry must be a string");
  const auto g = geometry_from_json(c);
  check(g.to_string() == c.at("geometry").as_string(),
        "candidate geometry string does not match its fields");
  const bool viable = c.at("viable").as_bool();
  const auto& reasons = c.at("reasons");
  check(reasons.is_array(), "reasons must be an array");
  check(viable == (reasons.size() == 0),
        "a candidate must carry reasons exactly when it is not viable");
  for (const auto& r : reasons.items()) {
    check(r.is_string() && !r.as_string().empty(),
          "every reason must be a non-empty string");
  }
  if (viable) {
    check(c.at("blocks_per_sm").as_double() >= 1,
          "a viable candidate must fit at least one CTA per SM");
    check(c.at("bank_conflicts").as_double() == 0,
          "a viable candidate must stage conflict-free");
  }
  if (!measured) return;
  const bool executed = c.at("executed").as_bool();
  check(executed == viable, "exactly the viable candidates execute");
  if (executed) {
    check(c.at("proxy_seconds").as_double() > 0 &&
              c.at("scaled_seconds").as_double() > 0,
          "an executed candidate must carry positive modelled seconds");
    check(c.at("proxy_energy_j").as_double() > 0,
          "an executed candidate must carry positive modelled energy");
  }
}

void validate_tune(const Json& t) {
  const auto& shape = t.at("shape");
  check(shape.at("m").as_double() > 0 && shape.at("n").as_double() > 0 &&
            shape.at("k").as_double() > 0,
        "tune shape must be positive");
  check(!t.at("backend").as_string().empty(), "tune backend must be named");
  const auto& candidates = t.at("candidates");
  check(candidates.is_array() && candidates.size() > 0,
        "a tune must carry its candidate grid");

  // Re-derive the winner: minimum scaled seconds among the executed
  // candidates, ties to the paper geometry then to_string order — the
  // tuner's own rule, recomputed from the record's measurements.
  const Json* best = nullptr;
  for (const auto& c : candidates.items()) {
    validate_candidate(c, /*measured=*/true);
    if (!c.at("executed").as_bool()) continue;
    if (best == nullptr || c.at("scaled_seconds").as_double() <
                               (*best).at("scaled_seconds").as_double()) {
      best = &c;
      continue;
    }
    if (c.at("scaled_seconds").as_double() ==
        (*best).at("scaled_seconds").as_double()) {
      const auto bg = geometry_from_json(*best);
      const auto cg = geometry_from_json(c);
      if (!bg.is_paper() &&
          (cg.is_paper() || cg.to_string() < bg.to_string())) {
        best = &c;
      }
    }
  }
  check(best != nullptr, "a tune must have at least one executed candidate");
  const auto& recorded = t.at("best");
  check(geometry_from_json(recorded) == geometry_from_json(*best),
        "recorded best does not recompose from the measurements");
  check(t.at("best_scaled_seconds").as_double() ==
            (*best).at("scaled_seconds").as_double(),
        "best_scaled_seconds does not match the winning candidate");
  check(t.at("best_proxy_seconds").as_double() ==
            (*best).at("proxy_seconds").as_double(),
        "best_proxy_seconds does not match the winning candidate");
}

}  // namespace

Json verdict_to_json(const CandidateVerdict& verdict) {
  Json c = Json::object();
  set_geometry_fields(c, verdict.geometry);
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
  c.set("proxy_seconds", m.proxy_seconds);
  c.set("proxy_energy_j", m.proxy_energy_j);
  c.set("scaled_seconds", m.scaled_seconds);
  c.set("oracle_rel_error", m.oracle_rel_error);
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
  set_geometry_fields(best, report.best);
  t.set("best", std::move(best));
  t.set("best_scaled_seconds", report.best_scaled_seconds);
  t.set("best_proxy_seconds", report.best_proxy_seconds);
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

void validate_tune_json(const Json& record) {
  check(record.is_object(), "record must be an object");
  check(record.at("schema").as_string() == "ksum-tune-v1",
        "schema must be ksum-tune-v1");
  const std::string command = record.at("command").as_string();
  if (command == "list" || command == "prune") {
    const auto& candidates = record.at("candidates");
    check(candidates.is_array() && candidates.size() > 0,
          "a grid record must carry candidates");
    for (const auto& c : candidates.items()) {
      validate_candidate(c, /*measured=*/false);
    }
    return;
  }
  check(command == "best" || command == "sweep",
        "command must be list, prune, best, or sweep");
  const auto& tunes = record.at("tunes");
  check(tunes.is_array() && tunes.size() > 0,
        "a tune record must carry at least one tune");
  for (const auto& t : tunes.items()) validate_tune(t);
}

}  // namespace ksum::tune
