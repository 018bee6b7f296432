// Sectored set-associative cache model (Maxwell-style), used for both the
// device-wide L2 and the optional per-SM L1/texture cache.
//
// Lines are 128 bytes of 32-byte sectors (sizes must be powers of two) with
// per-sector valid/dirty bits; fills happen at sector granularity (a miss
// fetches one sector, not the whole line), replacement is LRU at line
// granularity. Stores are write-back / write-allocate; a store to a missing
// sector installs it without a fetch (all device stores in this codebase
// are full-sector coalesced, so there is no partial-write merge problem —
// asserted).
//
// The cache only counts its *own* events through the CacheCounters hooks;
// the caller owns the hierarchy: an L1 miss is forwarded to the L2 by the
// Device, an L2 miss becomes a DRAM read there, and dirty evictions tick
// the writeback hook (wired to DRAM writes for the L2).
#pragma once

#include <cstdint>
#include <vector>

#include "gpusim/address.h"

namespace ksum::gpusim {

struct CacheGeometry {
  std::size_t capacity_bytes = 1792 * 1024;
  int line_bytes = 128;
  int sector_bytes = 32;
  int ways = 16;

  std::size_t num_lines() const {
    return capacity_bytes / static_cast<std::size_t>(line_bytes);
  }
  std::size_t num_sets() const {
    return num_lines() / static_cast<std::size_t>(ways);
  }
  int sectors_per_line() const { return line_bytes / sector_bytes; }

  void validate() const;
};

/// Event hooks; any pointer may be null (event not recorded).
struct CacheCounters {
  std::uint64_t* read_accesses = nullptr;
  std::uint64_t* read_hits = nullptr;
  std::uint64_t* read_misses = nullptr;
  std::uint64_t* write_accesses = nullptr;
  std::uint64_t* writebacks = nullptr;  // dirty sectors drained downstream
};

class SectoredCache {
 public:
  SectoredCache(const CacheGeometry& geometry, CacheCounters counters);

  /// Read one sector (addr must be sector aligned). Returns true on hit; a
  /// miss installs the sector (the caller performs the downstream fetch).
  bool read_sector(GlobalAddr sector_addr);

  /// Write one sector (write-allocate, no fetch).
  void write_sector(GlobalAddr sector_addr);

  /// Drains all dirty sectors (ticks the writeback hook per sector).
  void flush_dirty();

  /// Drops all content without traffic (test helper).
  void reset();

  /// Number of resident valid sectors (test observability).
  std::size_t resident_sectors() const;

  const CacheGeometry& geometry() const { return geometry_; }

 private:
  /// One way of one set. `index` is the resident line's address divided by
  /// the line size, kNoLine while the way is unallocated. An unallocated
  /// way has last_use 0 and no valid or dirty sector; every allocated way
  /// has last_use >= 1, so the least last_use is the first unallocated way
  /// if there is one and the least recently used way otherwise.
  struct Line {
    static constexpr GlobalAddr kNoLine = ~GlobalAddr{0};
    GlobalAddr index = kNoLine;
    std::uint64_t last_use = 0;
    std::uint8_t valid = 0;  // per-sector bitmask
    std::uint8_t dirty = 0;
  };

  static void bump(std::uint64_t* counter, std::uint64_t n = 1) {
    if (counter != nullptr) *counter += n;
  }

  /// The way holding the line of `sector_addr`, allocated (with the dirty
  /// sectors of the evicted line written back) when it is not resident.
  Line& line_for(GlobalAddr sector_addr);
  std::uint8_t sector_bit(GlobalAddr sector_addr) const {
    return static_cast<std::uint8_t>(
        1u << ((sector_addr >> sector_shift_) & sector_index_mask_));
  }

  CacheGeometry geometry_;
  CacheCounters counters_;
  // Geometry derived once: addr >> line_shift_ is the line index, its
  // remainder by num_sets_ the set (modulo, as set counts such as the
  // GTX970's 896 need not be powers of two).
  int line_shift_ = 0;
  int sector_shift_ = 0;
  GlobalAddr sector_index_mask_ = 0;
  std::size_t num_sets_ = 0;
  std::size_t ways_ = 0;
  std::vector<Line> lines_;  // sets × ways, one allocation
  std::size_t last_way_ = 0;  // position of the last line looked up
  std::uint64_t tick_ = 0;
};

}  // namespace ksum::gpusim
