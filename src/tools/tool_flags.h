// The shared front end of the ksum command-line tools: the one place that
// declares, parses and cross-checks the flags several tools take, so
// ksum-cli, ksum-prof, ksum-tune, ksum-serve and ksum-lint make the same
// decision for the same flags by construction.
//
// Every parser reads only the flags its tool declared (a tool without
// --tree, say, gets the default) and throws ksum::Error — exit 2 under
// run_main — for a malformed value or a conflicting combination. A
// qualifier flag given without the flag it qualifies (--shard-axis without
// --shards, --tree-box-leaf without --tree-eps, --fault-seed without
// --fault-rate) is always a conflict, never silently ignored.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>

#include "common/flags.h"
#include "config/profiles/device_profile.h"
#include "pipelines/solver.h"
#include "profile/json.h"

namespace ksum::tools {

/// Runs a tool's `body` under the shared exit-code contract: its return
/// value passes through (0 ok, 1 a tool-specific failure); ksum::Error exits
/// 2 (invalid input or usage); ksum::InternalError or any other exception
/// exits 3. Failures print "<tool>: <message>" to stderr.
int run_main(const char* tool, const std::function<int()>& body);

/// Declares --help and parses argv from index `first`. For --help it prints
/// `title` and the flag list and returns true: the caller exits 0. A
/// non-empty `command` takes no positional arguments.
bool parse_or_help(FlagParser& flags, int argc, const char* const* argv,
                   int first, const std::string& title,
                   const std::string& command = "");

/// The simulated device a tool runs on, from --profile and --layout.
struct DeviceFlags {
  config::profiles::DeviceProfile profile;
  gpukernels::TileLayout layout = gpukernels::TileLayout::kFig5;

  /// RunOptions on this device: its device, timing and energy specs and the
  /// tile layout.
  pipelines::RunOptions run_options() const;
};

/// Declares --profile and, with `with_layout`, --layout.
void declare_device_flags(FlagParser& flags, bool with_layout = true);

/// --profile (default gtx970: a built-in name or a ksum-device-profile-v1
/// file) and --layout (fig5 | naive, default fig5).
DeviceFlags device_from_flags(const FlagParser& flags);

/// --solution (default fused). With `simulated_only` the host backends are
/// refused: they have no tile geometry to tune.
pipelines::Backend solution_from_flags(const FlagParser& flags,
                                       bool simulated_only);

/// --threads in [1, exec::ThreadPool::kMaxThreads] (default 1). In a tool
/// with a --batch mode, --threads drives it and needs --batch too.
int threads_from_flags(const FlagParser& flags);

/// --no-double-buffer, --staged-reduction, --fuse-norms and --l1 onto
/// `options`. The middle two change the fused kernel only: they are a
/// conflict unless `fused_solve`.
void kernel_flags_from_flags(const FlagParser& flags, bool fused_solve,
                             pipelines::RunOptions& options);

struct FaultFlags {
  double rate = 0;                    // --fault-rate, in [0, 1]
  std::optional<std::uint64_t> seed;  // --fault-seed
};

/// --fault-rate, --fault-seed and --robust (which turns the ABFT checks and
/// recovery on in `options`). Host backends take neither faults nor
/// --robust. Attach the plan with pipelines::attach_fault_plan once
/// options.shards is final.
FaultFlags faults_from_flags(const FlagParser& flags,
                             pipelines::Backend backend,
                             pipelines::RunOptions& options);

/// --shards=N|auto and --shard-axis=m|n|auto onto options.shards. N must be
/// a whole integer; `max_shards` > 0 bounds it to [1, max_shards] and
/// refuses 'auto'. Sharding needs a simulated backend, and the N axis the
/// fused one (its staged-partial merge replays the fused reduction).
void shards_from_flags(const FlagParser& flags, pipelines::Backend backend,
                       pipelines::RunOptions& options,
                       std::size_t max_shards = 0);

/// --tree-eps (>= 0) and its qualifiers --tree=force|auto, --tree-box-leaf
/// and --tree-row-leaf onto options.tree; leaf sizes not given keep the
/// values already in options.tree. The treecode's ε guarantee does not
/// survive --fault-rate.
void tree_from_flags(const FlagParser& flags, pipelines::RunOptions& options);

/// For --tree=auto, attaches the dense cost model the decision consults,
/// priced in options.mainloop.geometry as it stands, so call it after --tile
/// is applied. Returns null otherwise; keep it alive through the solve.
std::unique_ptr<tree::DenseCostModel> attach_dense_cost(
    pipelines::RunOptions& options);

/// --json (stdout) and --json-out=FILE are exclusive.
void check_json_flags(const FlagParser& flags, const std::string& usage);

/// Writes `record` to --json-out (announcing "<tool>: wrote <what> to FILE"
/// on stderr) and prints it for --json. Returns true when it printed, so the
/// caller skips its human-readable report.
bool emit_json(const FlagParser& flags, const profile::Json& record,
               const char* tool, const std::string& what);

}  // namespace ksum::tools
