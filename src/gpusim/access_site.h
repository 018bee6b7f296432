// Static access-site registry.
//
// Every warp-wide memory request a kernel builds can carry a SiteId tagging
// the source line that issued it. The registry maps ids back to file:line
// and a human label, so the analysis layer (src/analysis/) can attribute
// hazards, bank conflicts, and coalescing behaviour to the exact access in
// the kernel body instead of an aggregate counter.
//
// Sites register lazily through KSUM_ACCESS_SITE: the first execution of the
// expansion interns the site and every later execution reuses the id.
// Annotated variants record analyzer suppressions reviewed in code — e.g. a
// scratch layout whose bank conflicts are an accepted design trade-off.
#pragma once

#include <cstdint>
#include <deque>
#include <mutex>
#include <string>

#include "gpusim/address.h"

namespace ksum::gpusim {

/// Per-site analyzer suppressions (bitmask). An annotation never hides the
/// measurement — the analyzers still quantify the behaviour — it only stops
/// the finding from being a lint failure, and it must carry a rationale.
enum SiteFlags : std::uint32_t {
  kSiteNone = 0,
  /// Shared-memory bank conflicts at this site are an accepted trade-off.
  kSiteAllowBankConflicts = 1u << 0,
  /// Partially-filled sectors on this site's requests are accepted.
  kSiteAllowUncoalesced = 1u << 1,
  /// Same-epoch conflicts involving this site are known to be benign.
  kSiteAllowRace = 1u << 2,
};

struct AccessSite {
  SiteId id = 0;
  const char* file = "";
  int line = 0;
  const char* label = "";
  std::uint32_t flags = kSiteNone;
  const char* rationale = "";  // why the flags are justified (annotated sites)

  bool allows(SiteFlags flag) const { return (flags & flag) != 0; }
  /// "src/gpukernels/tile_loader.cc:41" — path trimmed to the repo-relative
  /// part when recognisable.
  std::string location() const;
};

/// Process-wide site table. Interning is cheap and happens once per site
/// (guarded by a function-local static at the macro expansion); lookups are
/// index reads. Guarded by a mutex because pool workers intern sites
/// concurrently.
class SiteRegistry {
 public:
  static SiteRegistry& instance();

  SiteId intern(const char* file, int line, const char* label,
                std::uint32_t flags = kSiteNone, const char* rationale = "");

  /// Site 0 is the reserved "<untagged>" entry.
  const AccessSite& site(SiteId id) const;

  /// Number of registered sites, including the untagged sentinel.
  std::size_t count() const;

 private:
  SiteRegistry();

  mutable std::mutex mutex_;
  std::deque<AccessSite> sites_;  // deque: interning never invalidates refs
};

}  // namespace ksum::gpusim

/// Tags the enclosing access-building statement with a static site. The
/// label should read like the access means something: "tile track scatter
/// store", "gemv kernel-matrix load".
#define KSUM_ACCESS_SITE(label)                                             \
  ([]() -> ::ksum::gpusim::SiteId {                                         \
    static const ::ksum::gpusim::SiteId ksum_site_id =                      \
        ::ksum::gpusim::SiteRegistry::instance().intern(__FILE__, __LINE__, \
                                                        (label));           \
    return ksum_site_id;                                                    \
  }())

/// Tagged site with reviewed analyzer suppressions. `flags` is a SiteFlags
/// mask; `rationale` documents why the behaviour is accepted — it is printed
/// next to the suppressed finding by ksum-lint.
#define KSUM_ACCESS_SITE_ANNOTATED(label, flags, rationale)                 \
  ([]() -> ::ksum::gpusim::SiteId {                                         \
    static const ::ksum::gpusim::SiteId ksum_site_id =                      \
        ::ksum::gpusim::SiteRegistry::instance().intern(                    \
            __FILE__, __LINE__, (label), (flags), (rationale));             \
    return ksum_site_id;                                                    \
  }())
