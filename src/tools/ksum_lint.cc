// ksum-lint — static-analysis driver over the simulated kernels.
//
//   ksum-lint [--program=<name>] [--layout=fig5|naive] [--profile=P]
//             [--verbose]
//   ksum-lint --list
//
// Runs every registered tile program (or one selected with --program)
// through the four analyzers — barrier-epoch race detection, shared-memory
// bank-conflict lint, global-load coalescing lint, and the occupancy /
// register-budget check — and prints source-attributed findings.
// --profile selects the device the programs run (and are occupancy-checked)
// on: a built-in name (gtx970 | titanx-maxwell | modern) or a
// ksum-device-profile-v1 file. The occupancy pin is profile-relative — the
// tile family must hit whatever the paper's 128-register configuration
// achieves on that architecture.
//
// Exit codes: 0 clean; 1 findings (errors or warnings); 2 invalid input or
// usage (ksum::Error); 3 internal bug (ksum::InternalError).
#include <cstdio>
#include <string>
#include <vector>

#include "analysis/analyzer.h"
#include "analysis/program_registry.h"
#include "common/error.h"
#include "config/device_spec.h"
#include "gpusim/access_site.h"
#include "tools/tool_flags.h"

namespace {

using namespace ksum;

void print_bank_table(const analysis::BankConflictLint& lint) {
  if (lint.stats().empty()) return;
  std::printf("  shared-memory sites:\n");
  std::printf("    %-52s %10s %12s %8s\n", "site", "requests", "transactions",
              "degree");
  auto& registry = gpusim::SiteRegistry::instance();
  for (const auto& [site_id, s] : lint.stats()) {
    const auto& site = registry.site(site_id);
    const std::string where =
        site.location() + " (" + std::string(site.label) + ")";
    std::printf("    %-52s %10llu %12llu %8d\n", where.c_str(),
                static_cast<unsigned long long>(s.requests),
                static_cast<unsigned long long>(s.transactions),
                s.worst_transactions);
  }
}

void print_coalescing_table(const analysis::CoalescingLint& lint) {
  if (lint.stats().empty()) return;
  std::printf("  global-memory sites:\n");
  std::printf("    %-52s %10s %10s %10s\n", "site", "requests", "sectors",
              "efficiency");
  auto& registry = gpusim::SiteRegistry::instance();
  for (const auto& [site_id, s] : lint.stats()) {
    const auto& site = registry.site(site_id);
    const std::string where =
        site.location() + " (" + std::string(site.label) + ")";
    std::printf("    %-52s %10llu %10llu %9.3f\n", where.c_str(),
                static_cast<unsigned long long>(s.requests),
                static_cast<unsigned long long>(s.sectors),
                s.sector_efficiency());
  }
}

struct LintTally {
  std::size_t errors = 0;
  std::size_t warnings = 0;
  std::size_t infos = 0;
};

LintTally lint_program(const analysis::RegisteredProgram& program,
                       const analysis::ProgramOptions& options,
                       const config::DeviceSpec& spec, bool verbose) {
  gpusim::Device device(spec, analysis::registry_device_bytes());
  analysis::AnalysisSession session(device, spec);
  program.run(device, options);
  const analysis::Diagnostics findings = session.finish();

  LintTally tally;
  tally.errors = analysis::count_of(findings, analysis::Severity::kError);
  tally.warnings =
      analysis::count_of(findings, analysis::Severity::kWarning);
  tally.infos = analysis::count_of(findings, analysis::Severity::kInfo);

  std::printf("%s: %s\n", program.name.c_str(),
              tally.errors + tally.warnings == 0 ? "ok" : "FAILED");
  for (const auto& d : findings) {
    if (d.severity == analysis::Severity::kInfo && !verbose) continue;
    std::printf("  %s\n", d.to_string().c_str());
  }
  if (verbose) {
    print_bank_table(session.bank_conflicts());
    print_coalescing_table(session.coalescing());
  }
  return tally;
}

int cmd_lint(int argc, const char* const* argv) {
  FlagParser flags;
  tools::declare_device_flags(flags);
  flags.declare("program", "lint only the named program (default: all)");
  flags.declare("list", "list registered programs and exit", false);
  flags.declare("verbose",
                "print info-level findings and per-site statistics", false);
  if (tools::parse_or_help(flags, argc, argv, 1, "usage: ksum-lint [flags]")) {
    return 0;
  }
  if (flags.get_bool("list")) {
    for (const auto& program : analysis::registered_programs()) {
      std::printf("%-26s %s\n", program.name.c_str(),
                  program.description.c_str());
    }
    return 0;
  }

  const auto device = tools::device_from_flags(flags);
  analysis::ProgramOptions options;
  options.layout = device.layout;

  std::vector<const analysis::RegisteredProgram*> selected;
  if (flags.has("program")) {
    const std::string name = flags.get_string("program", "");
    const auto* program = analysis::find_program(name);
    if (program == nullptr) {
      throw Error("unknown --program: " + name + " (try --list)");
    }
    selected.push_back(program);
  } else {
    for (const auto& program : analysis::registered_programs()) {
      selected.push_back(&program);
    }
  }

  LintTally total;
  for (const auto* program : selected) {
    const LintTally tally = lint_program(*program, options,
                                         device.profile.device,
                                         flags.get_bool("verbose"));
    total.errors += tally.errors;
    total.warnings += tally.warnings;
    total.infos += tally.infos;
  }
  std::printf("%zu program(s): %zu error(s), %zu warning(s), %zu note(s)\n",
              selected.size(), total.errors, total.warnings, total.infos);
  return total.errors + total.warnings == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  return tools::run_main("ksum-lint", [&] { return cmd_lint(argc, argv); });
}
