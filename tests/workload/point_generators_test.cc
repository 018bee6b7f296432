#include "workload/point_generators.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <span>

namespace ksum::workload {
namespace {

ProblemSpec small_spec(Distribution dist) {
  ProblemSpec spec;
  spec.m = 64;
  spec.n = 48;
  spec.k = 8;
  spec.distribution = dist;
  spec.seed = 1234;
  return spec;
}

// FNV-1a64 over the little-endian bit patterns of the floats.
std::uint64_t fnv1a(std::span<const float> xs) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const float x : xs) {
    const auto bits = std::bit_cast<std::uint32_t>(x);
    for (int b = 0; b < 4; ++b) {
      h ^= (bits >> (8 * b)) & 0xffu;
      h *= 0x100000001b3ULL;
    }
  }
  return h;
}

// Instances are inputs to every golden and to the benchmark, so A, B and w
// must stay bit-identical for every distribution and seed, however the
// generator is written.
TEST(PointGeneratorsTest, InstanceDigestsArePinned) {
  struct Pinned {
    Distribution distribution;
    std::uint64_t seed;
    std::uint64_t a, b, w;
  };
  const Pinned pinned[] = {
      {Distribution::kUniformCube, 1, 0xe9b0dc301b5afde3ULL,
       0xf88b55d89389c5cdULL, 0xd0e270d4d7e3a7d3ULL},
      {Distribution::kUniformCube, 42, 0x41983daa9df4b09bULL,
       0xc653795219372086ULL, 0xa4fbb895b29dbc91ULL},
      {Distribution::kUniformCube, 0x9e3779b97f4a7c15ULL,
       0x2c3aded346232480ULL, 0x2560d813a3c2af9bULL, 0x226cbaff41d6742dULL},
      {Distribution::kGaussianMixture, 1, 0x59e21b7adba0c8dcULL,
       0x35180c49ee81ce26ULL, 0xd0e270d4d7e3a7d3ULL},
      {Distribution::kGaussianMixture, 42, 0xdaa3576fe873439cULL,
       0x9f8c3b239365cadaULL, 0xa4fbb895b29dbc91ULL},
      {Distribution::kGaussianMixture, 0x9e3779b97f4a7c15ULL,
       0x833cfedfbb5377f9ULL, 0x7ccca122bc2ec826ULL, 0x226cbaff41d6742dULL},
      {Distribution::kUnitSphere, 1, 0x59359bcb7b34fcccULL,
       0x55d6ec5bde523f95ULL, 0xd0e270d4d7e3a7d3ULL},
      {Distribution::kUnitSphere, 42, 0x4b23da532b3524bcULL,
       0xa44e4cd711098182ULL, 0xa4fbb895b29dbc91ULL},
      {Distribution::kUnitSphere, 0x9e3779b97f4a7c15ULL,
       0x81a4e8ce07aca4e5ULL, 0x536c016570938869ULL, 0x226cbaff41d6742dULL},
      {Distribution::kGrid, 1, 0xe449bc7dba73fb86ULL, 0x4f41dcabf3c18005ULL,
       0xd0e270d4d7e3a7d3ULL},
      {Distribution::kGrid, 42, 0xe449bc7dba73fb86ULL, 0x4f41dcabf3c18005ULL,
       0xa4fbb895b29dbc91ULL},
      {Distribution::kGrid, 0x9e3779b97f4a7c15ULL, 0xe449bc7dba73fb86ULL,
       0x4f41dcabf3c18005ULL, 0x226cbaff41d6742dULL},
  };
  for (const Pinned& p : pinned) {
    ProblemSpec spec;
    spec.m = 131;
    spec.n = 97;
    spec.k = 7;
    spec.distribution = p.distribution;
    spec.seed = p.seed;
    const Instance inst = make_instance(spec);
    SCOPED_TRACE(spec.to_string());
    EXPECT_EQ(fnv1a(inst.a.span()), p.a);
    EXPECT_EQ(fnv1a(inst.b.span()), p.b);
    EXPECT_EQ(fnv1a(inst.w.span()), p.w);
  }
}

TEST(PointGeneratorsTest, ShapesAndLayouts) {
  const auto inst = make_instance(small_spec(Distribution::kUniformCube));
  EXPECT_EQ(inst.a.rows(), 64u);
  EXPECT_EQ(inst.a.cols(), 8u);
  EXPECT_EQ(inst.a.layout(), Layout::kRowMajor);
  EXPECT_EQ(inst.b.rows(), 8u);
  EXPECT_EQ(inst.b.cols(), 48u);
  EXPECT_EQ(inst.b.layout(), Layout::kColMajor);
  EXPECT_EQ(inst.w.size(), 48u);
}

TEST(PointGeneratorsTest, DeterministicForSeed) {
  const auto a = make_instance(small_spec(Distribution::kUniformCube));
  const auto b = make_instance(small_spec(Distribution::kUniformCube));
  for (std::size_t i = 0; i < a.a.size(); ++i) {
    EXPECT_EQ(a.a.data()[i], b.a.data()[i]);
  }
  for (std::size_t i = 0; i < a.w.size(); ++i) {
    EXPECT_EQ(a.w[i], b.w[i]);
  }
}

TEST(PointGeneratorsTest, SeedChangesPoints) {
  auto spec = small_spec(Distribution::kUniformCube);
  const auto a = make_instance(spec);
  spec.seed = 999;
  const auto b = make_instance(spec);
  int same = 0;
  for (std::size_t i = 0; i < a.a.size(); ++i) {
    if (a.a.data()[i] == b.a.data()[i]) ++same;
  }
  EXPECT_LT(same, 5);
}

TEST(PointGeneratorsTest, SourcesAndTargetsAreIndependent) {
  const auto inst = make_instance(small_spec(Distribution::kUniformCube));
  // B is not a prefix/copy of A's stream.
  int same = 0;
  for (std::size_t j = 0; j < 8; ++j) {
    if (inst.a.at(0, j) == inst.b.at(j, 0)) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(PointGeneratorsTest, UniformCubeInBounds) {
  const auto inst = make_instance(small_spec(Distribution::kUniformCube));
  for (float x : inst.a.span()) {
    EXPECT_GE(x, 0.0f);
    EXPECT_LT(x, 1.0f);
  }
}

TEST(PointGeneratorsTest, UnitSphereHasUnitNorms) {
  const auto inst = make_instance(small_spec(Distribution::kUnitSphere));
  for (std::size_t i = 0; i < inst.a.rows(); ++i) {
    double n2 = 0;
    for (std::size_t d = 0; d < inst.a.cols(); ++d) {
      n2 += double(inst.a.at(i, d)) * double(inst.a.at(i, d));
    }
    EXPECT_NEAR(n2, 1.0, 1e-5);
  }
}

TEST(PointGeneratorsTest, GridIsDeterministicAndBounded) {
  const auto a = make_instance(small_spec(Distribution::kGrid));
  const auto b = make_instance(small_spec(Distribution::kGrid));
  for (std::size_t i = 0; i < a.a.size(); ++i) {
    EXPECT_EQ(a.a.data()[i], b.a.data()[i]);
    EXPECT_GE(a.a.data()[i], 0.0f);
    EXPECT_LT(a.a.data()[i], 1.0f);
  }
}

TEST(PointGeneratorsTest, MixtureClusters) {
  // Cluster spread is 0.05, centres in [0,1): points should stay within a
  // loose band around the unit cube.
  const auto inst = make_instance(small_spec(Distribution::kGaussianMixture));
  for (float x : inst.a.span()) {
    EXPECT_GT(x, -1.0f);
    EXPECT_LT(x, 2.0f);
  }
}

TEST(PointGeneratorsTest, InvalidSpecThrows) {
  ProblemSpec spec;
  spec.m = 0;
  EXPECT_THROW(make_instance(spec), Error);
  spec = ProblemSpec{};
  spec.bandwidth = 0.0f;
  EXPECT_THROW(make_instance(spec), Error);
}

class DistributionTest : public ::testing::TestWithParam<Distribution> {};

TEST_P(DistributionTest, AllFinite) {
  const auto inst = make_instance(small_spec(GetParam()));
  for (float x : inst.a.span()) EXPECT_TRUE(std::isfinite(x));
  for (float x : inst.b.span()) EXPECT_TRUE(std::isfinite(x));
}

INSTANTIATE_TEST_SUITE_P(AllDistributions, DistributionTest,
                         ::testing::Values(Distribution::kUniformCube,
                                           Distribution::kGaussianMixture,
                                           Distribution::kUnitSphere,
                                           Distribution::kGrid));

}  // namespace
}  // namespace ksum::workload
