#include "replay.h"

#include <optional>

#include "gpusim/cache.h"
#include "gpusim/coalescer.h"
#include "gpusim/shared_memory.h"

namespace perfbench {
namespace {

using gpusim::AccessKind;

bool reads_l2(AccessKind kind) { return kind != AccessKind::kStore; }
bool writes_l2(AccessKind kind) { return kind != AccessKind::kLoad; }

/// Runs `prepare` (untimed) then `pass` (which returns its event count)
/// until `min_seconds` have passed and at least three passes ran; returns
/// the median ns per event.
template <typename Prepare, typename Pass>
double time_passes(double min_seconds, Prepare&& prepare, Pass&& pass) {
  std::vector<double> ns_per_event;
  const Clock::time_point begin = Clock::now();
  while (ns_per_event.size() < 3 || seconds_since(begin) < min_seconds) {
    prepare();
    const Clock::time_point start = Clock::now();
    const std::uint64_t events = pass();
    const double seconds = seconds_since(start);
    if (events == 0) return 0;
    ns_per_event.push_back(seconds * 1e9 / double(events));
  }
  return median(ns_per_event);
}

}  // namespace

ReplayResult replay_ctas(const std::vector<CapturedCta>& ctas,
                         const config::DeviceSpec& spec, double min_seconds) {
  ReplayResult out;
  const gpusim::Coalescer coalescer(spec.l2_sector_bytes);
  const gpusim::CacheGeometry l2_geometry{spec.l2_bytes, spec.l2_line_bytes,
                                          spec.l2_sector_bytes, spec.l2_ways};

  // --- equality of the replayed totals with the captured counters ---------
  std::vector<std::vector<gpusim::GlobalAddr>> sectors;
  for (const CapturedCta& cta : ctas) {
    const gpusim::Counters& c = cta.counters;
    std::uint64_t txns = 0, verdicts = 0;
    for (const CapturedShared& s : cta.shared) {
      txns += static_cast<std::uint64_t>(
          gpusim::SharedMemory::transactions_for(s.access));
      verdicts += static_cast<std::uint64_t>(s.transactions);
    }
    // Kernels that count shared traffic without simulating it (the cuBLAS
    // model) have more counted requests than observed ones; there the
    // replay can only match the observed verdicts.
    const bool all_simulated =
        cta.shared.size() == c.smem_load_requests + c.smem_store_requests;
    if (txns != verdicts ||
        (all_simulated && txns != c.smem_total_transactions())) {
      out.mismatch += cta.kernel + ": shared transactions replayed " +
                      std::to_string(txns) + ", counted " +
                      std::to_string(c.smem_total_transactions()) + "; ";
    }
    std::uint64_t reads = 0, writes = 0;
    for (const CapturedGlobal& g : cta.global) {
      sectors.push_back(coalescer.sectors_for(g.access));
      const std::uint64_t n = sectors.back().size();
      if (reads_l2(g.kind)) reads += n;
      if (writes_l2(g.kind)) writes += n;
    }
    if (reads != c.l2_read_transactions || writes != c.l2_write_transactions) {
      out.mismatch += cta.kernel + ": L2 sectors replayed " +
                      std::to_string(reads) + "r/" + std::to_string(writes) +
                      "w, counted " + std::to_string(c.l2_read_transactions) +
                      "r/" + std::to_string(c.l2_write_transactions) + "w; ";
    }
    out.smem_requests += cta.shared.size();
    out.global_requests += cta.global.size();
    out.l2_sectors += reads + writes;
  }

  // --- timed passes ---------------------------------------------------------
  std::uint64_t sink = 0;
  const auto nothing = [] {};
  out.smem_ns_per_request = time_passes(min_seconds, nothing, [&] {
    std::uint64_t events = 0;
    for (const CapturedCta& cta : ctas) {
      for (const CapturedShared& s : cta.shared) {
        sink += static_cast<std::uint64_t>(
            gpusim::SharedMemory::transactions_for(s.access));
        ++events;
      }
    }
    return events;
  });
  out.coalescer_ns_per_request = time_passes(min_seconds, nothing, [&] {
    std::uint64_t events = 0;
    for (const CapturedCta& cta : ctas) {
      for (const CapturedGlobal& g : cta.global) {
        sink += coalescer.sectors_for(g.access).size();
        ++events;
      }
    }
    return events;
  });
  std::uint64_t hits = 0, misses = 0, reads = 0, writes = 0, drained = 0;
  std::optional<gpusim::SectoredCache> l2;
  const auto cold_l2 = [&] {
    l2.emplace(l2_geometry, gpusim::CacheCounters{&reads, &hits, &misses,
                                                  &writes, &drained});
    reads = writes = 0;
  };
  out.l2_ns_per_sector = time_passes(min_seconds, cold_l2, [&] {
    std::size_t index = 0;
    for (const CapturedCta& cta : ctas) {
      for (const CapturedGlobal& g : cta.global) {
        for (const gpusim::GlobalAddr sector : sectors[index]) {
          if (reads_l2(g.kind)) sink += l2->read_sector(sector) ? 1u : 0u;
          if (writes_l2(g.kind)) l2->write_sector(sector);
        }
        ++index;
      }
    }
    return reads + writes;
  });
  if (sink == 0 && out.smem_requests + out.global_requests > 0) {
    out.mismatch += "replay produced no work; ";
  }
  return out;
}

}  // namespace perfbench
