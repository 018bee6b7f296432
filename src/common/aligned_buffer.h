// Cache-line-aligned owning float/byte buffers.
//
// All matrices in the library live in AlignedBuffer<float>; alignment keeps
// host BLAS micro-kernels on their fast path and makes the simulated global
// address space 128-byte-segment aligned, which the coalescer model assumes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <span>
#include <utility>

#include "common/error.h"

namespace ksum {

inline constexpr std::size_t kBufferAlignment = 128;

template <typename T>
class AlignedBuffer {
 public:
  AlignedBuffer() = default;

  explicit AlignedBuffer(std::size_t n) { resize(n); }

  AlignedBuffer(const AlignedBuffer& other) { *this = other; }
  AlignedBuffer& operator=(const AlignedBuffer& other) {
    if (this != &other) {
      resize(other.size_);
      for (std::size_t i = 0; i < size_; ++i) data_[i] = other.data_[i];
    }
    return *this;
  }

  AlignedBuffer(AlignedBuffer&& other) noexcept
      : block_(std::exchange(other.block_, nullptr)),
        data_(std::exchange(other.data_, nullptr)),
        size_(std::exchange(other.size_, 0)) {}
  AlignedBuffer& operator=(AlignedBuffer&& other) noexcept {
    if (this != &other) {
      release();
      block_ = std::exchange(other.block_, nullptr);
      data_ = std::exchange(other.data_, nullptr);
      size_ = std::exchange(other.size_, 0);
    }
    return *this;
  }

  ~AlignedBuffer() { release(); }

  /// Reallocates to exactly `n` elements; contents are NOT preserved and are
  /// zero-initialised.
  void resize(std::size_t n) {
    release();
    if (n == 0) return;
    if (n > (SIZE_MAX - 2 * kBufferAlignment) / sizeof(T)) {
      throw std::bad_alloc();
    }
    // Not aligned_alloc: glibc's asks the heap for more than size plus
    // alignment, so a freed buffer's chunk never fits the next buffer of the
    // same size and a loop of same-size buffers keeps growing the heap.
    block_ = std::malloc(round_up_bytes(n * sizeof(T)) + kBufferAlignment);
    if (block_ == nullptr) throw std::bad_alloc();
    data_ = reinterpret_cast<T*>(
        round_up_bytes(reinterpret_cast<std::uintptr_t>(block_)));
    size_ = n;
    for (std::size_t i = 0; i < n; ++i) data_[i] = T{};
  }

  void fill(const T& v) {
    for (std::size_t i = 0; i < size_; ++i) data_[i] = v;
  }

  T* data() noexcept { return data_; }
  const T* data() const noexcept { return data_; }
  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }

  T& operator[](std::size_t i) {
    KSUM_DCHECK(i < size_);
    return data_[i];
  }
  const T& operator[](std::size_t i) const {
    KSUM_DCHECK(i < size_);
    return data_[i];
  }

  std::span<T> span() noexcept { return {data_, size_}; }
  std::span<const T> span() const noexcept { return {data_, size_}; }

  T* begin() noexcept { return data_; }
  T* end() noexcept { return data_ + size_; }
  const T* begin() const noexcept { return data_; }
  const T* end() const noexcept { return data_ + size_; }

 private:
  static std::size_t round_up_bytes(std::size_t bytes) {
    return (bytes + kBufferAlignment - 1) / kBufferAlignment *
           kBufferAlignment;
  }

  void release() noexcept {
    std::free(block_);
    block_ = nullptr;
    data_ = nullptr;
    size_ = 0;
  }

  void* block_ = nullptr;  // the malloc'd block; data_ is aligned inside it
  T* data_ = nullptr;
  std::size_t size_ = 0;
};

}  // namespace ksum
