#include "common/aligned_buffer.h"

#include <gtest/gtest.h>

#include <cstdint>

namespace ksum {
namespace {

TEST(AlignedBufferTest, AllocatesAligned) {
  AlignedBuffer<float> buf(100);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(buf.data()) % kBufferAlignment,
            0u);
  EXPECT_EQ(buf.size(), 100u);
}

TEST(AlignedBufferTest, RefusesASizeWhoseBytesOverflow) {
  EXPECT_THROW(AlignedBuffer<float>(SIZE_MAX / 2), std::bad_alloc);
  EXPECT_THROW(AlignedBuffer<float>(SIZE_MAX / sizeof(float)), std::bad_alloc);
}

TEST(AlignedBufferTest, ZeroInitialised) {
  AlignedBuffer<float> buf(1000);
  for (float x : buf) EXPECT_EQ(x, 0.0f);
}

TEST(AlignedBufferTest, EmptyBuffer) {
  AlignedBuffer<float> buf;
  EXPECT_TRUE(buf.empty());
  EXPECT_EQ(buf.size(), 0u);
}

TEST(AlignedBufferTest, FillAndIndex) {
  AlignedBuffer<float> buf(8);
  buf.fill(2.5f);
  for (std::size_t i = 0; i < buf.size(); ++i) EXPECT_EQ(buf[i], 2.5f);
  buf[3] = -1.0f;
  EXPECT_EQ(buf[3], -1.0f);
}

TEST(AlignedBufferTest, CopyIsDeep) {
  AlignedBuffer<float> a(4);
  a[0] = 7.0f;
  AlignedBuffer<float> b = a;
  b[0] = 9.0f;
  EXPECT_EQ(a[0], 7.0f);
  EXPECT_EQ(b[0], 9.0f);
}

TEST(AlignedBufferTest, CopyAssign) {
  AlignedBuffer<float> a(4), b(2);
  a[1] = 5.0f;
  b = a;
  EXPECT_EQ(b.size(), 4u);
  EXPECT_EQ(b[1], 5.0f);
}

TEST(AlignedBufferTest, MoveStealsStorage) {
  AlignedBuffer<float> a(4);
  a[2] = 3.0f;
  const float* p = a.data();
  AlignedBuffer<float> b = std::move(a);
  EXPECT_EQ(b.data(), p);
  EXPECT_EQ(b[2], 3.0f);
  EXPECT_TRUE(a.empty());  // NOLINT(bugprone-use-after-move)
}

TEST(AlignedBufferTest, SpanCoversBuffer) {
  AlignedBuffer<float> a(16);
  auto s = a.span();
  EXPECT_EQ(s.size(), 16u);
  EXPECT_EQ(s.data(), a.data());
}

TEST(AlignedBufferTest, ResizeDiscardsAndZeroes) {
  AlignedBuffer<float> a(4);
  a.fill(1.0f);
  a.resize(8);
  EXPECT_EQ(a.size(), 8u);
  for (float x : a) EXPECT_EQ(x, 0.0f);
}

}  // namespace
}  // namespace ksum
