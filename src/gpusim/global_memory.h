// Simulated global memory: a flat byte-addressed arena with a bump
// allocator. Device buffers (the A/B matrices, vectors, intermediates) are
// carved out of it; kernels address it only through the coalescer/L2 path
// owned by Device.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/matrix.h"
#include "gpusim/address.h"

namespace ksum::gpusim {

/// A device allocation: base address + length, plus typed float accessors
/// for host-side staging (cudaMemcpy stand-ins).
class DeviceBuffer {
 public:
  DeviceBuffer() = default;
  DeviceBuffer(GlobalAddr base, std::size_t bytes) : base_(base), bytes_(bytes) {}

  GlobalAddr base() const { return base_; }
  std::size_t bytes() const { return bytes_; }
  std::size_t num_floats() const { return bytes_ / 4; }
  GlobalAddr addr_of_float(std::size_t index) const { return base_ + index * 4; }
  bool valid() const { return bytes_ != 0; }

 private:
  GlobalAddr base_ = 0;
  std::size_t bytes_ = 0;
};

class GlobalMemory {
 public:
  explicit GlobalMemory(std::size_t capacity_bytes);

  /// Allocates `bytes`, 128-byte aligned. Throws ksum::Error when the arena
  /// is exhausted.
  DeviceBuffer allocate(std::size_t bytes, const std::string& label);

  /// Host-side staging (not counted as device traffic, like cudaMemcpy in
  /// the paper's timing which excludes transfers).
  void upload(const DeviceBuffer& dst, std::span<const float> src);
  void download(const DeviceBuffer& src, std::span<float> dst) const;
  void upload_matrix(const DeviceBuffer& dst, const Matrix& src);
  void fill(const DeviceBuffer& dst, float value);

  /// Raw word access used by the memory pipeline after coalescing. A
  /// misaligned or out-of-arena word throws ksum::InternalError.
  float load_f32(GlobalAddr addr) const {
    if (!word_in_range(addr)) [[unlikely]] check_range(addr, 4);
    return arena_[addr / 4];
  }
  void store_f32(GlobalAddr addr, float value) {
    if (!word_in_range(addr)) [[unlikely]] check_range(addr, 4);
    arena_[addr / 4] = value;
  }

  std::size_t bytes_allocated() const { return next_; }
  std::size_t capacity() const { return arena_.size() * 4; }

  /// Rewinds the bump allocator, invalidating every DeviceBuffer handed out
  /// so far (the warm-device reuse path; Device::reset calls this). The
  /// arena contents are *not* scrubbed — every pipeline buffer is uploaded
  /// or filled before first read (see gpukernels::upload_instance), so
  /// reuse stays bit-deterministic without a 512 MB memset per request.
  void reset() { next_ = 0; }

 private:
  bool word_in_range(GlobalAddr addr) const {
    return addr % 4 == 0 && addr + 4 <= capacity();
  }
  /// Throws, naming the failed condition, unless [addr, addr + bytes) is
  /// an aligned range inside the arena.
  void check_range(GlobalAddr addr, std::size_t bytes) const;

  std::vector<float> arena_;
  std::size_t next_ = 0;
};

}  // namespace ksum::gpusim
