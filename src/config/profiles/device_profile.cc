#include "config/profiles/device_profile.h"

#include "common/error.h"
#include "profile/record.h"

namespace ksum::config::profiles {

using profile::Json;

namespace {

constexpr char kSchema[] = "ksum-device-profile-v1";

// The three spec tables, in the record's key order.
constexpr profile::Field<DeviceSpec> kDeviceFields[] = {
    {"num_sms", &DeviceSpec::num_sms},
    {"max_threads_per_block", &DeviceSpec::max_threads_per_block},
    {"warp_size", &DeviceSpec::warp_size},
    {"max_threads_per_sm", &DeviceSpec::max_threads_per_sm},
    {"registers_per_sm", &DeviceSpec::registers_per_sm},
    {"max_registers_per_thread", &DeviceSpec::max_registers_per_thread},
    {"smem_per_sm_bytes", &DeviceSpec::smem_per_sm_bytes},
    {"smem_bank_width_bytes", &DeviceSpec::smem_bank_width_bytes},
    {"smem_num_banks", &DeviceSpec::smem_num_banks},
    {"num_warp_schedulers", &DeviceSpec::num_warp_schedulers},
    {"l2_bytes", &DeviceSpec::l2_bytes},
    {"max_blocks_per_sm", &DeviceSpec::max_blocks_per_sm},
    {"smem_per_block_limit", &DeviceSpec::smem_per_block_limit},
    {"l2_line_bytes", &DeviceSpec::l2_line_bytes},
    {"l2_sector_bytes", &DeviceSpec::l2_sector_bytes},
    {"l2_ways", &DeviceSpec::l2_ways},
    {"dram_transaction_bytes", &DeviceSpec::dram_transaction_bytes},
    {"cache_globals_in_l1", &DeviceSpec::cache_globals_in_l1},
    {"l1_bytes", &DeviceSpec::l1_bytes},
    {"l1_ways", &DeviceSpec::l1_ways},
    {"core_clock_ghz", &DeviceSpec::core_clock_ghz},
    {"fma_lanes_per_sm", &DeviceSpec::fma_lanes_per_sm},
    {"dram_bandwidth_gb_s", &DeviceSpec::dram_bandwidth_gb_s},
    {"l2_bandwidth_bytes_per_cycle",
     &DeviceSpec::l2_bandwidth_bytes_per_cycle},
    {"shard_arena_bytes", &DeviceSpec::shard_arena_bytes},
};

constexpr profile::Field<TimingSpec> kTimingFields[] = {
    {"launch_overhead_cycles", &TimingSpec::launch_overhead_cycles},
    {"cta_dispatch_cycles", &TimingSpec::cta_dispatch_cycles},
    {"dram_efficiency", &TimingSpec::dram_efficiency},
};

constexpr profile::Field<EnergySpec> kEnergyFields[] = {
    {"fma_pj", &EnergySpec::fma_pj},
    {"sfu_pj", &EnergySpec::sfu_pj},
    {"instruction_pj", &EnergySpec::instruction_pj},
    {"smem_access_pj", &EnergySpec::smem_access_pj},
    {"l1_access_pj", &EnergySpec::l1_access_pj},
    {"l2_access_pj", &EnergySpec::l2_access_pj},
    {"dram_access_pj", &EnergySpec::dram_access_pj},
    {"static_power_w", &EnergySpec::static_power_w},
};

bool valid_name(const std::string& name) {
  if (name.empty()) return false;
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '-' || c == '_' || c == '.';
    if (!ok) return false;
  }
  return true;
}

template <class S>
Json section(const S& spec, profile::Fields<std::type_identity_t<S>> fields) {
  Json out = Json::object();
  profile::write(out, spec, fields);
  return out;
}

// Every field is required and typed; integer fields are exactly integral
// and in range (13.5 SMs is a schema error, not a truncation).
template <class S>
void read_section(const profile::Reader& record, const char* key, S& spec,
                  profile::Fields<std::type_identity_t<S>> fields) {
  const profile::Reader object = record.member(key);
  object.closed({}, fields);
  profile::read(object, spec, fields);
}

}  // namespace

DeviceProfile from_json(const Json& json) {
  const profile::Reader record(json, kSchema);
  record.closed({"schema", "name", "description", "device", "timing",
                 "energy"});
  const profile::Reader schema = record.member("schema");
  schema.expect(schema.string() == kSchema,
                "must be \"ksum-device-profile-v1\"");

  DeviceProfile p;
  p.name = record.member("name").string();
  p.description = record.member("description").string();
  read_section(record, "device", p.device, kDeviceFields);
  read_section(record, "timing", p.timing, kTimingFields);
  read_section(record, "energy", p.energy, kEnergyFields);

  // The name and cross-field consistency come from the specs' own rules —
  // the schema accepts exactly the profiles that can run.
  try {
    p.validate();
  } catch (const Error& err) {
    throw Error(std::string(kSchema) + ": " + err.what());
  }
  return p;
}

void DeviceProfile::validate() const {
  KSUM_REQUIRE(valid_name(name),
               "profile name must be non-empty [A-Za-z0-9._-]");
  device.validate();
  timing.validate();
  energy.validate();
}

DeviceProfile gtx970() {
  DeviceProfile p;
  p.name = "gtx970";
  p.description =
      "NVIDIA GTX 970 (Maxwell GM204, Table I of the paper): 13 SMs, "
      "1.75 MB L2, 196 GB/s achievable DRAM at 1.05 GHz";
  p.device = DeviceSpec::gtx970();
  p.timing = TimingSpec::gtx970();
  p.energy = EnergySpec::gtx970_mcpat();
  p.validate();
  return p;
}

DeviceProfile titanx_maxwell() {
  DeviceProfile p;
  p.name = "titanx-maxwell";
  p.description =
      "GM200-class big Maxwell (Titan X): 24 SMs, 3 MB L2, 296 GB/s "
      "achievable DRAM at 1.0 GHz, same 28 nm energy table with the "
      "bigger die's static power";
  p.device = DeviceSpec::gtx970();  // same architecture generation...
  p.device.num_sms = 24;            // ...bigger die
  p.device.l2_bytes = std::size_t{3} * 1024 * 1024;
  p.device.core_clock_ghz = 1.0;
  p.device.dram_bandwidth_gb_s = 296.0;  // 336.5 GB/s spec, streaming share
  p.device.l2_bandwidth_bytes_per_cycle = 768.0;
  p.device.shard_arena_bytes = std::size_t{2} << 30;  // 12 GB board
  p.timing = TimingSpec::gtx970();  // same launch/dispatch silicon
  p.energy = EnergySpec::gtx970_mcpat();
  p.energy.static_power_w = 14.0;  // 250 W TDP die vs the 970's 145 W
  p.validate();
  return p;
}

DeviceProfile modern() {
  DeviceProfile p;
  p.name = "modern";
  p.description =
      "Modern high-SM configuration (Ada-class): 128 SMs at 2.2 GHz, "
      "48 MB L2, 900 GB/s achievable DRAM, 100 KB smem/SM with the 99 KB "
      "opt-in per-block limit, 5 nm-class energy table";
  DeviceSpec& d = p.device;
  d.num_sms = 128;
  d.max_threads_per_sm = 1536;
  d.smem_per_sm_bytes = std::size_t{100} * 1024;
  d.smem_per_block_limit = std::size_t{99} * 1024;
  d.l2_bytes = std::size_t{48} * 1024 * 1024;
  d.l1_bytes = std::size_t{128} * 1024;
  d.core_clock_ghz = 2.2;
  d.dram_bandwidth_gb_s = 900.0;  // 1008 GB/s spec, streaming share
  d.l2_bandwidth_bytes_per_cycle = 4096.0;
  d.shard_arena_bytes = std::size_t{8} << 30;  // 24 GB board
  p.timing = TimingSpec::gtx970();
  p.timing.launch_overhead_cycles = 11000.0;  // ~5 us at 2.2 GHz
  EnergySpec& e = p.energy;
  e.fma_pj = 4.0;  // 5 nm-class datapath, per the Lim-style re-scaling
  e.sfu_pj = 15.0;
  e.instruction_pj = 6.0;
  e.smem_access_pj = 0.8;
  e.l1_access_pj = 10.0;
  e.l2_access_pj = 60.0;
  e.dram_access_pj = 500.0;  // GDDR6X-class, ~15 pJ/B
  e.static_power_w = 60.0;
  p.validate();
  return p;
}

const std::vector<std::string>& builtin_names() {
  static const std::vector<std::string> names = {"gtx970", "titanx-maxwell",
                                                 "modern"};
  return names;
}

bool is_builtin(const std::string& name) {
  for (const auto& n : builtin_names()) {
    if (n == name) return true;
  }
  return false;
}

DeviceProfile builtin(const std::string& name) {
  if (name == "gtx970") return gtx970();
  if (name == "titanx-maxwell") return titanx_maxwell();
  if (name == "modern") return modern();
  std::string names;
  for (const auto& n : builtin_names()) {
    if (!names.empty()) names += ", ";
    names += n;
  }
  throw Error("unknown device profile: " + name + " (built-ins: " + names +
              "; or pass a ksum-device-profile-v1 JSON file path)");
}

DeviceProfile resolve(const std::string& name_or_path) {
  if (is_builtin(name_or_path)) return builtin(name_or_path);
  // Not a built-in: only a path makes sense. Require it to look like one
  // so a typo'd name gets the name error, not a file error.
  if (name_or_path.find('/') == std::string::npos &&
      name_or_path.find(".json") == std::string::npos) {
    return builtin(name_or_path);  // throws, listing the built-ins
  }
  return load(name_or_path);
}

Json to_json(const DeviceProfile& p) {
  p.validate();
  Json record = Json::object();
  record.set("schema", kSchema);
  record.set("name", p.name);
  record.set("description", p.description);
  record.set("device", section(p.device, kDeviceFields));
  record.set("timing", section(p.timing, kTimingFields));
  record.set("energy", section(p.energy, kEnergyFields));
  validate_device_profile_json(record);
  return record;
}

profile::Fields<DeviceSpec> device_fields() { return kDeviceFields; }
profile::Fields<TimingSpec> timing_fields() { return kTimingFields; }
profile::Fields<EnergySpec> energy_fields() { return kEnergyFields; }

void validate_device_profile_json(const Json& record) {
  (void)from_json(record);
}

void save(const DeviceProfile& p, const std::string& path) {
  profile::write_file(path, to_json(p).dump());
}

DeviceProfile load(const std::string& path) {
  return from_json(profile::read_file(path, "device profile"));
}

}  // namespace ksum::config::profiles
