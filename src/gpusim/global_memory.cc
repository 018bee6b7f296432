#include "gpusim/global_memory.h"

#include "common/error.h"
#include "common/math_util.h"

namespace ksum::gpusim {

GlobalMemory::GlobalMemory(std::size_t capacity_bytes)
    : arena_(ceil_div<std::size_t>(capacity_bytes, 4), 0.0f) {}

DeviceBuffer GlobalMemory::allocate(std::size_t bytes,
                                    const std::string& label) {
  const std::size_t aligned = round_up<std::size_t>(bytes, 128);
  KSUM_REQUIRE(next_ + aligned <= capacity(),
               "simulated device memory exhausted allocating " + label);
  DeviceBuffer buf(next_, bytes);
  next_ += aligned;
  return buf;
}

void GlobalMemory::check_range(GlobalAddr addr, std::size_t bytes) const {
  KSUM_CHECK_MSG(addr % 4 == 0, "global access must be 4-byte aligned");
  KSUM_CHECK_MSG(addr + bytes <= capacity(), "global access out of arena");
}

void GlobalMemory::upload(const DeviceBuffer& dst, std::span<const float> src) {
  KSUM_REQUIRE(src.size() * 4 <= dst.bytes(), "upload larger than buffer");
  check_range(dst.base(), src.size() * 4);
  for (std::size_t i = 0; i < src.size(); ++i) {
    arena_[dst.base() / 4 + i] = src[i];
  }
}

void GlobalMemory::download(const DeviceBuffer& src,
                            std::span<float> dst) const {
  KSUM_REQUIRE(dst.size() * 4 <= src.bytes(), "download larger than buffer");
  check_range(src.base(), dst.size() * 4);
  for (std::size_t i = 0; i < dst.size(); ++i) {
    dst[i] = arena_[src.base() / 4 + i];
  }
}

void GlobalMemory::upload_matrix(const DeviceBuffer& dst, const Matrix& src) {
  upload(dst, src.span());
}

void GlobalMemory::fill(const DeviceBuffer& dst, float value) {
  check_range(dst.base(), dst.bytes());
  for (std::size_t i = 0; i < dst.num_floats(); ++i) {
    arena_[dst.base() / 4 + i] = value;
  }
}

}  // namespace ksum::gpusim
