#include "gpusim/cache.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/prop.h"

namespace ksum::gpusim {
namespace {

// Local event sinks standing in for the Device's counter wiring.
struct Events {
  std::uint64_t reads = 0, hits = 0, misses = 0, writes = 0, writebacks = 0;
  CacheCounters hooks() {
    return {&reads, &hits, &misses, &writes, &writebacks};
  }
  void reset() { *this = Events{}; }
};

CacheGeometry tiny_geometry() {
  CacheGeometry g;
  g.capacity_bytes = 4096;  // 32 lines of 128 B
  g.line_bytes = 128;
  g.sector_bytes = 32;
  g.ways = 4;  // 8 sets
  return g;
}

TEST(CacheTest, GeometryDerivedQuantities) {
  const CacheGeometry g = tiny_geometry();
  EXPECT_EQ(g.num_lines(), 32u);
  EXPECT_EQ(g.num_sets(), 8u);
  EXPECT_EQ(g.sectors_per_line(), 4);
  EXPECT_NO_THROW(g.validate());
}

TEST(CacheTest, GeometryValidation) {
  CacheGeometry g = tiny_geometry();
  g.line_bytes = 100;
  EXPECT_THROW(g.validate(), Error);
  g = tiny_geometry();
  g.sector_bytes = 8;  // 16 sectors per line > 8-bit mask
  EXPECT_THROW(g.validate(), Error);
  g = tiny_geometry();
  g.ways = 5;  // does not divide 32 lines
  EXPECT_THROW(g.validate(), Error);
}

TEST(CacheTest, GeometryRefusesNonPowerOfTwoLinesAndSectors) {
  CacheGeometry g = tiny_geometry();
  g.capacity_bytes = 96 * 32;
  g.line_bytes = 96;  // three 32-byte sectors, but not 2^k
  EXPECT_THROW(g.validate(), Error);
  g = tiny_geometry();
  g.line_bytes = 96;
  g.sector_bytes = 48;  // two sectors per line, neither 2^k
  EXPECT_THROW(g.validate(), Error);
  g = tiny_geometry();
  g.sector_bytes = 64;  // 2^k and whole: still valid
  EXPECT_NO_THROW(g.validate());
}

TEST(CacheTest, FirstReadMissesSecondHits) {
  Events ev;
  SectoredCache cache(tiny_geometry(), ev.hooks());
  EXPECT_FALSE(cache.read_sector(0));
  EXPECT_TRUE(cache.read_sector(0));
  EXPECT_EQ(ev.reads, 2u);
  EXPECT_EQ(ev.misses, 1u);
  EXPECT_EQ(ev.hits, 1u);
}

TEST(CacheTest, SectorsFillIndividually) {
  Events ev;
  SectoredCache cache(tiny_geometry(), ev.hooks());
  cache.read_sector(0);
  // Same line, different sector: still a miss (sectored fill).
  EXPECT_FALSE(cache.read_sector(32));
  EXPECT_EQ(ev.misses, 2u);
  EXPECT_EQ(cache.resident_sectors(), 2u);
}

TEST(CacheTest, WriteAllocateWithoutFetch) {
  Events ev;
  SectoredCache cache(tiny_geometry(), ev.hooks());
  cache.write_sector(64);
  EXPECT_EQ(ev.misses, 0u);
  EXPECT_EQ(ev.writes, 1u);
  // Written sector is now readable without a miss.
  EXPECT_TRUE(cache.read_sector(64));
}

TEST(CacheTest, DirtyEvictionWritesBack) {
  Events ev;
  SectoredCache cache(tiny_geometry(), ev.hooks());
  // Fill one set (4 ways) with dirty lines at stride num_sets*line.
  const GlobalAddr stride = 8 * 128;
  for (GlobalAddr i = 0; i < 4; ++i) cache.write_sector(i * stride);
  EXPECT_EQ(ev.writebacks, 0u);
  // Fifth line in the same set evicts the LRU dirty line.
  cache.write_sector(4 * stride);
  EXPECT_EQ(ev.writebacks, 1u);
}

TEST(CacheTest, LruVictimSelection) {
  Events ev;
  SectoredCache cache(tiny_geometry(), ev.hooks());
  const GlobalAddr stride = 8 * 128;
  for (GlobalAddr i = 0; i < 4; ++i) cache.read_sector(i * stride);
  // Touch line 0 so line 1 becomes LRU.
  cache.read_sector(0);
  cache.read_sector(4 * stride);  // evicts line 1
  EXPECT_TRUE(cache.read_sector(0));          // still resident
  EXPECT_FALSE(cache.read_sector(1 * stride));  // was evicted
}

TEST(CacheTest, CleanEvictionIsSilent) {
  Events ev;
  SectoredCache cache(tiny_geometry(), ev.hooks());
  const GlobalAddr stride = 8 * 128;
  for (GlobalAddr i = 0; i < 5; ++i) cache.read_sector(i * stride);
  EXPECT_EQ(ev.writebacks, 0u);
}

TEST(CacheTest, FlushWritesAllDirtySectors) {
  Events ev;
  SectoredCache cache(tiny_geometry(), ev.hooks());
  cache.write_sector(0);
  cache.write_sector(32);
  cache.write_sector(1024);
  cache.flush_dirty();
  EXPECT_EQ(ev.writebacks, 3u);
  // Second flush is a no-op.
  cache.flush_dirty();
  EXPECT_EQ(ev.writebacks, 3u);
}

TEST(CacheTest, ResetDropsContentSilently) {
  Events ev;
  SectoredCache cache(tiny_geometry(), ev.hooks());
  cache.write_sector(0);
  cache.reset();
  EXPECT_EQ(cache.resident_sectors(), 0u);
  EXPECT_EQ(ev.writebacks, 0u);
  EXPECT_FALSE(cache.read_sector(0));
}

TEST(CacheTest, WorkingSetLargerThanCapacityThrashes) {
  Events ev;
  SectoredCache cache(tiny_geometry(), ev.hooks());
  // Stream 2× capacity twice; second pass should still miss everywhere.
  const std::size_t sectors = 2 * tiny_geometry().capacity_bytes / 32;
  for (int pass = 0; pass < 2; ++pass) {
    for (std::size_t s = 0; s < sectors; ++s) {
      cache.read_sector(GlobalAddr(s) * 32);
    }
  }
  EXPECT_EQ(ev.misses, ev.reads);
}

TEST(CacheTest, WorkingSetWithinCapacityHitsOnReuse) {
  Events ev;
  SectoredCache cache(tiny_geometry(), ev.hooks());
  const std::size_t sectors = tiny_geometry().capacity_bytes / 32 / 2;
  for (std::size_t s = 0; s < sectors; ++s) cache.read_sector(s * 32);
  ev.reset();
  for (std::size_t s = 0; s < sectors; ++s) cache.read_sector(s * 32);
  EXPECT_EQ(ev.misses, 0u);
  EXPECT_EQ(ev.hits, sectors);
}

TEST(CacheTest, NonPowerOfTwoSetCountWorks) {
  // The GTX970's 1.75 MB L2 has a non-power-of-two set count.
  CacheGeometry g;
  g.capacity_bytes = 1792 * 1024;
  g.line_bytes = 128;
  g.sector_bytes = 32;
  g.ways = 16;
  EXPECT_NO_THROW(g.validate());
  Events ev;
  SectoredCache cache(g, ev.hooks());
  EXPECT_FALSE(cache.read_sector(0));
  EXPECT_TRUE(cache.read_sector(0));
}

TEST(CacheTest, NullHooksAreSafe) {
  SectoredCache cache(tiny_geometry(), CacheCounters{});
  EXPECT_FALSE(cache.read_sector(0));
  EXPECT_TRUE(cache.read_sector(0));
  cache.write_sector(0);
  cache.flush_dirty();
}

// The line-array cache the flat store replaced, kept as the reference: an
// `allocated` flag per line, the set recomputed by division on every
// lookup, a lookup pass and a separate victim pass.
class ReferenceCache {
 public:
  ReferenceCache(const CacheGeometry& geometry, CacheCounters counters)
      : geometry_(geometry), counters_(counters) {
    lines_.resize(geometry_.num_lines());
  }

  bool read_sector(GlobalAddr sector_addr) {
    bump(counters_.read_accesses);
    const GlobalAddr line_addr = line_of(sector_addr);
    const std::uint8_t bit = bit_of(sector_addr, line_addr);
    Line* line = find_line(line_addr);
    if (line != nullptr && (line->valid & bit) != 0) {
      line->last_use = ++tick_;
      bump(counters_.read_hits);
      return true;
    }
    bump(counters_.read_misses);
    if (line == nullptr) line = &allocate_line(line_addr);
    line->valid = static_cast<std::uint8_t>(line->valid | bit);
    line->last_use = ++tick_;
    return false;
  }

  void write_sector(GlobalAddr sector_addr) {
    bump(counters_.write_accesses);
    const GlobalAddr line_addr = line_of(sector_addr);
    const std::uint8_t bit = bit_of(sector_addr, line_addr);
    Line* line = find_line(line_addr);
    if (line == nullptr) line = &allocate_line(line_addr);
    line->valid = static_cast<std::uint8_t>(line->valid | bit);
    line->dirty = static_cast<std::uint8_t>(line->dirty | bit);
    line->last_use = ++tick_;
  }

  void flush_dirty() {
    for (auto& line : lines_) {
      if (line.allocated && line.dirty != 0) {
        bump(counters_.writebacks,
             static_cast<std::uint64_t>(std::popcount(line.dirty)));
        line.dirty = 0;
      }
    }
  }

  void reset() {
    for (auto& line : lines_) line = Line{};
    tick_ = 0;
  }

  std::size_t resident_sectors() const {
    std::size_t total = 0;
    for (const auto& line : lines_) {
      if (line.allocated) {
        total += static_cast<std::size_t>(std::popcount(line.valid));
      }
    }
    return total;
  }

 private:
  struct Line {
    bool allocated = false;
    GlobalAddr tag = 0;
    std::uint64_t last_use = 0;
    std::uint8_t valid = 0;
    std::uint8_t dirty = 0;
  };

  static void bump(std::uint64_t* counter, std::uint64_t n = 1) {
    if (counter != nullptr) *counter += n;
  }
  GlobalAddr line_of(GlobalAddr sector_addr) const {
    const auto line = static_cast<GlobalAddr>(geometry_.line_bytes);
    return sector_addr / line * line;
  }
  std::uint8_t bit_of(GlobalAddr sector_addr, GlobalAddr line_addr) const {
    return static_cast<std::uint8_t>(
        1u << ((sector_addr - line_addr) /
               static_cast<GlobalAddr>(geometry_.sector_bytes)));
  }
  Line* set_of(GlobalAddr line_addr) {
    const std::size_t set =
        (line_addr / static_cast<GlobalAddr>(geometry_.line_bytes)) %
        geometry_.num_sets();
    return lines_.data() + set * static_cast<std::size_t>(geometry_.ways);
  }
  Line* find_line(GlobalAddr line_addr) {
    Line* base = set_of(line_addr);
    for (int w = 0; w < geometry_.ways; ++w) {
      if (base[w].allocated && base[w].tag == line_addr) return &base[w];
    }
    return nullptr;
  }
  Line& allocate_line(GlobalAddr line_addr) {
    Line* base = set_of(line_addr);
    Line* victim = &base[0];
    for (int w = 0; w < geometry_.ways; ++w) {
      if (!base[w].allocated) {
        victim = &base[w];
        break;
      }
      if (base[w].last_use < victim->last_use) victim = &base[w];
    }
    if (victim->allocated && victim->dirty != 0) {
      bump(counters_.writebacks,
           static_cast<std::uint64_t>(std::popcount(victim->dirty)));
    }
    *victim = Line{true, line_addr, ++tick_, 0, 0};
    return *victim;
  }

  CacheGeometry geometry_;
  CacheCounters counters_;
  std::vector<Line> lines_;
  std::uint64_t tick_ = 0;
};

enum class CacheOp { kRead, kWrite, kFlush, kReset };

struct CacheStep {
  CacheOp op;
  GlobalAddr sector;
};

struct CacheStream {
  CacheGeometry geometry;
  std::vector<CacheStep> steps;
};

// A random stream over twice the cache's lines, so every geometry evicts:
// mostly reads and writes, half of them to a small hot window that stays
// resident, with rare flushes and resets.
CacheStream make_cache_stream(prop::Gen& gen, std::size_t scale,
                              const CacheGeometry& geometry) {
  CacheStream s{geometry, {}};
  const std::size_t lines = 2 * geometry.num_lines();
  const auto sectors_per_line =
      static_cast<std::size_t>(geometry.sectors_per_line());
  const std::size_t hot = std::min<std::size_t>(lines, 64);
  const std::size_t count = 16 * scale;
  s.steps.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const int roll = gen.int_in(0, 999);
    CacheOp op = roll < 600 ? CacheOp::kRead : CacheOp::kWrite;
    if (roll >= 997) op = CacheOp::kFlush;
    if (roll == 999) op = CacheOp::kReset;
    const std::size_t line =
        gen.int_in(0, 1) == 0 ? gen.size_in(0, hot - 1)
                              : gen.size_in(0, lines - 1);
    const std::size_t sector = gen.size_in(0, sectors_per_line - 1);
    s.steps.push_back(
        {op, static_cast<GlobalAddr>(line) *
                     static_cast<GlobalAddr>(geometry.line_bytes) +
                 static_cast<GlobalAddr>(sector) *
                     static_cast<GlobalAddr>(geometry.sector_bytes)});
  }
  return s;
}

// Replays the stream on both caches and requires every return value,
// every counter and the resident sector count to agree throughout.
bool flat_store_matches_reference(const CacheStream& s) {
  Events flat_ev;
  Events ref_ev;
  SectoredCache flat(s.geometry, flat_ev.hooks());
  ReferenceCache ref(s.geometry, ref_ev.hooks());
  const auto same_counters = [&] {
    return flat_ev.reads == ref_ev.reads && flat_ev.hits == ref_ev.hits &&
           flat_ev.misses == ref_ev.misses &&
           flat_ev.writes == ref_ev.writes &&
           flat_ev.writebacks == ref_ev.writebacks;
  };
  for (std::size_t i = 0; i < s.steps.size(); ++i) {
    const CacheStep& step = s.steps[i];
    switch (step.op) {
      case CacheOp::kRead:
        if (flat.read_sector(step.sector) != ref.read_sector(step.sector)) {
          return false;
        }
        break;
      case CacheOp::kWrite:
        flat.write_sector(step.sector);
        ref.write_sector(step.sector);
        break;
      case CacheOp::kFlush:
        flat.flush_dirty();
        ref.flush_dirty();
        break;
      case CacheOp::kReset:
        flat.reset();
        ref.reset();
        break;
    }
    if (!same_counters()) return false;
    if (i % 512 == 0 &&
        flat.resident_sectors() != ref.resident_sectors()) {
      return false;
    }
  }
  flat.flush_dirty();
  ref.flush_dirty();
  return same_counters() &&
         flat.resident_sectors() == ref.resident_sectors();
}

TEST(CacheTest, FlatStoreMatchesReference) {
  CacheGeometry gtx970_l2;  // 1.75 MB, 16 ways: 896 sets
  ASSERT_EQ(gtx970_l2.num_sets(), 896u);
  CacheGeometry l1;
  l1.capacity_bytes = 24 * 1024;
  l1.ways = 8;  // 24 sets
  CacheGeometry two_sets = tiny_geometry();
  two_sets.capacity_bytes = 1024;
  two_sets.ways = 4;
  ASSERT_EQ(two_sets.num_sets(), 2u);
  CacheGeometry wide_sectors = tiny_geometry();
  wide_sectors.sector_bytes = 64;

  struct Target {
    const char* name;
    CacheGeometry geometry;
    int iterations;
    std::size_t max_scale;
  };
  for (const Target& t :
       {Target{"gtx970 L2", gtx970_l2, 4, 4096},
        Target{"24 KB 8-way L1", l1, 12, 512},
        Target{"2 sets", two_sets, 24, 256},
        Target{"64-byte sectors", wide_sectors, 12, 256}}) {
    prop::Config config;
    config.seed = 0xf1a75707e;
    config.iterations = t.iterations;
    config.max_scale = t.max_scale;
    prop::check(
        std::string("flat store == line-array reference on ") + t.name,
        config,
        [&t](prop::Gen& gen, std::size_t scale) {
          return make_cache_stream(gen, scale, t.geometry);
        },
        flat_store_matches_reference);
  }
}

}  // namespace
}  // namespace ksum::gpusim
