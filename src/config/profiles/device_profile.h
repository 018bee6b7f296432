// Named, loadable device profiles — the multi-architecture face of the
// config layer.
//
// A DeviceProfile bundles the three specs a simulated run needs (DeviceSpec
// geometry/bandwidths, TimingSpec overheads, EnergySpec per-event table)
// under a name. Three built-ins ship:
//
//   gtx970         — the paper's Table I machine; bit-identical to the
//                    DeviceSpec::gtx970() / TimingSpec::gtx970() /
//                    EnergySpec::gtx970_mcpat() factories, so running with
//                    --profile=gtx970 (or no --profile at all) reproduces
//                    every pre-profile artifact byte for byte.
//   titanx-maxwell — a GM200-class big Maxwell: 24 SMs, 3 MB L2, 296 GB/s
//                    achievable DRAM, same 28 nm energy table with the
//                    bigger die's static power.
//   modern         — a modern high-SM part (Ada-class): 128 SMs, 48 MB L2,
//                    2.2 GHz, 900 GB/s, a 5 nm-class energy table scaled
//                    per Lim et al.'s McPAT re-parameterisation approach.
//
// Profiles also load from JSON files (schema "ksum-device-profile-v1").
// validate_device_profile_json() is the schema's executable definition:
// every field is required, every value is range- and consistency-checked
// through the specs' own validate() rules, and unknown keys are rejected —
// a profile that validates will run, and serialisation round-trips
// byte-identically (to_json ∘ from_json ∘ to_json is the identity on the
// dumped text; CI pins this for every shipped profile).
#pragma once

#include <string>
#include <vector>

#include "config/device_spec.h"
#include "config/energy_spec.h"
#include "config/timing_spec.h"
#include "profile/json.h"
#include "profile/record.h"

namespace ksum::config::profiles {

struct DeviceProfile {
  std::string name;
  std::string description;
  DeviceSpec device;
  TimingSpec timing;
  EnergySpec energy;

  /// Validates the name (non-empty, [A-Za-z0-9._-]) and all three specs.
  void validate() const;
};

/// The paper's GTX 970 — bit-identical to the config factories.
DeviceProfile gtx970();
/// GM200-class big Maxwell (24 SMs, 3 MB L2).
DeviceProfile titanx_maxwell();
/// Modern high-SM configuration (128 SMs, 48 MB L2, 2.2 GHz).
DeviceProfile modern();

/// Built-in profile names, in the fixed order {gtx970, titanx-maxwell,
/// modern} the CI matrix iterates.
const std::vector<std::string>& builtin_names();

bool is_builtin(const std::string& name);

/// Returns the named built-in; throws ksum::Error listing the valid names.
DeviceProfile builtin(const std::string& name);

/// Resolves a --profile value: a built-in name, otherwise a path to a
/// ksum-device-profile-v1 JSON file. The error for an unknown name lists
/// the built-ins so CLI users see their options.
DeviceProfile resolve(const std::string& name_or_path);

/// Serialises to ksum-device-profile-v1 (validated before returning).
profile::Json to_json(const DeviceProfile& p);

/// Parses a validated record back into a profile.
DeviceProfile from_json(const profile::Json& record);

/// File round-trip (dump() text; load validates).
void save(const DeviceProfile& p, const std::string& path);
DeviceProfile load(const std::string& path);

/// Throws ksum::Error describing the first violation; the schema's
/// executable definition (strict: unknown keys are errors).
void validate_device_profile_json(const profile::Json& record);

/// The field tables of the device, timing and energy sections.
profile::Fields<DeviceSpec> device_fields();
profile::Fields<TimingSpec> timing_fields();
profile::Fields<EnergySpec> energy_fields();

}  // namespace ksum::config::profiles
