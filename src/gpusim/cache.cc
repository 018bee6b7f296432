#include "gpusim/cache.h"

#include <algorithm>
#include <bit>

#include "common/error.h"
#include "common/math_util.h"

namespace ksum::gpusim {

void CacheGeometry::validate() const {
  KSUM_REQUIRE(line_bytes > 0 && sector_bytes > 0 && ways > 0,
               "cache geometry fields must be positive");
  KSUM_REQUIRE(is_pow2(line_bytes), "cache line size must be 2^k");
  KSUM_REQUIRE(is_pow2(sector_bytes), "cache sector size must be 2^k");
  KSUM_REQUIRE(line_bytes % sector_bytes == 0, "line must be whole sectors");
  KSUM_REQUIRE(sectors_per_line() <= 8,
               "sector masks are 8 bits; enlarge Line::valid for more");
  KSUM_REQUIRE(capacity_bytes % static_cast<std::size_t>(line_bytes) == 0,
               "capacity must be whole lines");
  KSUM_REQUIRE(num_lines() % static_cast<std::size_t>(ways) == 0,
               "lines must divide into ways");
  // Set indexing is plain modulo, so non-power-of-two set counts (the
  // GTX970's 1.75 MB partitioning) are fine.
}

SectoredCache::SectoredCache(const CacheGeometry& geometry,
                             CacheCounters counters)
    : geometry_(geometry), counters_(counters) {
  geometry_.validate();
  line_shift_ = std::countr_zero(static_cast<unsigned>(geometry_.line_bytes));
  sector_shift_ =
      std::countr_zero(static_cast<unsigned>(geometry_.sector_bytes));
  sector_index_mask_ =
      static_cast<GlobalAddr>(geometry_.sectors_per_line() - 1);
  num_sets_ = geometry_.num_sets();
  ways_ = static_cast<std::size_t>(geometry_.ways);
  lines_.resize(geometry_.num_lines());
}

SectoredCache::Line& SectoredCache::line_for(GlobalAddr sector_addr) {
  const GlobalAddr index = sector_addr >> line_shift_;
  // Streams touch a line's sectors back to back: the previous lookup's way
  // still holds that line unless an allocation has since replaced it.
  if (lines_[last_way_].index == index) return lines_[last_way_];
  const std::size_t first = (index % num_sets_) * ways_;
  Line* const set = lines_.data() + first;
  Line* victim = set;
  for (std::size_t w = 0; w < ways_; ++w) {
    if (set[w].index == index) {
      last_way_ = first + w;
      return set[w];
    }
    if (set[w].last_use < victim->last_use) victim = &set[w];
  }
  last_way_ = static_cast<std::size_t>(victim - lines_.data());
  if (victim->dirty != 0) {
    // Write back every dirty sector of the evicted line.
    bump(counters_.writebacks,
         static_cast<std::uint64_t>(
             std::popcount(static_cast<unsigned>(victim->dirty))));
  }
  *victim = Line{index, 0, 0, 0};
  return *victim;
}

bool SectoredCache::read_sector(GlobalAddr sector_addr) {
  KSUM_DCHECK(sector_addr %
                  static_cast<GlobalAddr>(geometry_.sector_bytes) ==
              0);
  bump(counters_.read_accesses);
  const std::uint8_t bit = sector_bit(sector_addr);
  Line& line = line_for(sector_addr);
  line.last_use = ++tick_;
  if ((line.valid & bit) != 0) {
    bump(counters_.read_hits);
    return true;
  }
  bump(counters_.read_misses);
  line.valid = static_cast<std::uint8_t>(line.valid | bit);
  return false;
}

void SectoredCache::write_sector(GlobalAddr sector_addr) {
  KSUM_DCHECK(sector_addr %
                  static_cast<GlobalAddr>(geometry_.sector_bytes) ==
              0);
  bump(counters_.write_accesses);
  const std::uint8_t bit = sector_bit(sector_addr);
  Line& line = line_for(sector_addr);
  line.valid = static_cast<std::uint8_t>(line.valid | bit);
  line.dirty = static_cast<std::uint8_t>(line.dirty | bit);
  line.last_use = ++tick_;
}

void SectoredCache::flush_dirty() {
  for (auto& line : lines_) {
    if (line.dirty != 0) {
      bump(counters_.writebacks,
           static_cast<std::uint64_t>(
               std::popcount(static_cast<unsigned>(line.dirty))));
      line.dirty = 0;
    }
  }
}

void SectoredCache::reset() {
  std::fill(lines_.begin(), lines_.end(), Line{});
  tick_ = 0;
}

std::size_t SectoredCache::resident_sectors() const {
  std::size_t total = 0;
  for (const auto& line : lines_) {
    total += static_cast<std::size_t>(
        std::popcount(static_cast<unsigned>(line.valid)));
  }
  return total;
}

}  // namespace ksum::gpusim
