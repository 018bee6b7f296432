#include "blas/gemm.h"

#include <gtest/gtest.h>

#include <cstring>

#include "blas/vector_ops.h"
#include "common/rng.h"
#include "exec/thread_pool.h"

namespace ksum::blas {
namespace {

Matrix random_matrix(std::size_t rows, std::size_t cols, Layout layout,
                     std::uint64_t seed) {
  Matrix m(rows, cols, layout);
  Rng rng(seed);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      m.at(r, c) = rng.uniform(-1.0f, 1.0f);
    }
  }
  return m;
}

TEST(GemmTest, NaiveKnownValues) {
  // A = [[1,2],[3,4]] (row major), B = [[5,6],[7,8]] (col major).
  Matrix a(2, 2, Layout::kRowMajor);
  a.at(0, 0) = 1;
  a.at(0, 1) = 2;
  a.at(1, 0) = 3;
  a.at(1, 1) = 4;
  Matrix b(2, 2, Layout::kColMajor);
  b.at(0, 0) = 5;
  b.at(0, 1) = 6;
  b.at(1, 0) = 7;
  b.at(1, 1) = 8;
  Matrix c(2, 2, Layout::kRowMajor);
  sgemm_naive(1.0f, a, b, 0.0f, c);
  EXPECT_FLOAT_EQ(c.at(0, 0), 19.0f);
  EXPECT_FLOAT_EQ(c.at(0, 1), 22.0f);
  EXPECT_FLOAT_EQ(c.at(1, 0), 43.0f);
  EXPECT_FLOAT_EQ(c.at(1, 1), 50.0f);
}

TEST(GemmTest, ShapeValidation) {
  Matrix a(4, 3, Layout::kRowMajor);
  Matrix b(2, 4, Layout::kColMajor);  // inner mismatch
  Matrix c(4, 4, Layout::kRowMajor);
  EXPECT_THROW(sgemm_naive(1.0f, a, b, 0.0f, c), Error);

  Matrix b2(3, 4, Layout::kColMajor);
  Matrix c2(3, 4, Layout::kRowMajor);  // wrong output rows
  EXPECT_THROW(sgemm_naive(1.0f, a, b2, 0.0f, c2), Error);
}

TEST(GemmTest, AlphaBetaSemantics) {
  Matrix a = random_matrix(8, 8, Layout::kRowMajor, 1);
  Matrix b = random_matrix(8, 8, Layout::kColMajor, 2);
  Matrix c(8, 8, Layout::kRowMajor);
  c.fill(1.0f);
  sgemm_naive(0.0f, a, b, 2.0f, c);  // pure scale
  for (float x : c.span()) EXPECT_FLOAT_EQ(x, 2.0f);

  Matrix c2(8, 8, Layout::kRowMajor);
  c2.fill(1.0f);
  sgemm_blocked(0.0f, a, b, 0.0f, c2);  // beta=0 clears
  for (float x : c2.span()) EXPECT_FLOAT_EQ(x, 0.0f);
}

struct GemmShape {
  std::size_t m, n, k;
};

class GemmAgreementTest : public ::testing::TestWithParam<GemmShape> {};

// Float accumulation against the double-accumulated oracle: tolerance must
// grow with the reduction length K (and absorb cancellation near zero via
// the relative-diff floor).
double gemm_tolerance(std::size_t k) { return 1e-5 * double(k); }

TEST_P(GemmAgreementTest, BlockedMatchesNaive) {
  const auto [m, n, k] = GetParam();
  Matrix a = random_matrix(m, k, Layout::kRowMajor, 10 + m);
  Matrix b = random_matrix(k, n, Layout::kColMajor, 20 + n);
  Matrix ref(m, n, Layout::kRowMajor);
  Matrix out(m, n, Layout::kRowMajor);
  sgemm_naive(1.5f, a, b, 0.0f, ref);
  sgemm_blocked(1.5f, a, b, 0.0f, out);
  EXPECT_LT(max_rel_diff(out.span(), ref.span(), 1e-3), gemm_tolerance(k));
}

// On a pool worker sgemm_blocked takes its serial path; it must still agree
// with the oracle and match the calling-thread result bit for bit.
TEST_P(GemmAgreementTest, OnPoolWorkerMatchesNaive) {
  const auto [m, n, k] = GetParam();
  Matrix a = random_matrix(m, k, Layout::kRowMajor, 30 + m);
  Matrix b = random_matrix(k, n, Layout::kColMajor, 40 + n);
  Matrix ref(m, n, Layout::kRowMajor);
  Matrix caller(m, n, Layout::kRowMajor);
  Matrix worker(m, n, Layout::kRowMajor);
  sgemm_naive(1.0f, a, b, 0.0f, ref);
  sgemm_blocked(1.0f, a, b, 0.0f, caller);
  exec::ThreadPool pool(1);
  pool.parallel_for(1, [&](std::size_t) {
    sgemm_blocked(1.0f, a, b, 0.0f, worker);
  });
  EXPECT_LT(max_rel_diff(worker.span(), ref.span(), 1e-3), gemm_tolerance(k));
  EXPECT_EQ(std::memcmp(worker.data(), caller.data(),
                        worker.span().size() * sizeof(float)),
            0);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmAgreementTest,
    ::testing::Values(GemmShape{1, 1, 1}, GemmShape{3, 5, 7},
                      GemmShape{16, 16, 16}, GemmShape{128, 128, 8},
                      GemmShape{129, 131, 33},  // ragged vs blocking
                      GemmShape{256, 64, 300},  // K > kKc forces K loop
                      GemmShape{64, 256, 17}));

TEST(GemmTest, AccumulateWithBetaOne) {
  Matrix a = random_matrix(16, 8, Layout::kRowMajor, 5);
  Matrix b = random_matrix(8, 16, Layout::kColMajor, 6);
  Matrix ref(16, 16, Layout::kRowMajor);
  Matrix out(16, 16, Layout::kRowMajor);
  ref.fill(0.5f);
  out.fill(0.5f);
  sgemm_naive(1.0f, a, b, 1.0f, ref);
  sgemm_blocked(1.0f, a, b, 1.0f, out);
  EXPECT_LT(max_rel_diff(out.span(), ref.span(), 1e-3), 2e-5);
}

// 1000 rows split into 8 panels of 128 (the last one ragged). On the calling
// thread the panels run on a pool; on a pool worker sgemm_blocked runs them
// serially. Either way every C element must come out bit-identical.
TEST(GemmTest, PanelSplitIsBitIdentical) {
  Matrix a = random_matrix(1000, 40, Layout::kRowMajor, 7);
  Matrix b = random_matrix(40, 300, Layout::kColMajor, 8);
  Matrix split(1000, 300, Layout::kRowMajor);
  Matrix serial(1000, 300, Layout::kRowMajor);
  sgemm_blocked(1.0f, a, b, 0.0f, split);
  exec::ThreadPool pool(1);
  pool.parallel_for(1, [&](std::size_t) {
    sgemm_blocked(1.0f, a, b, 0.0f, serial);
  });
  EXPECT_EQ(std::memcmp(split.data(), serial.data(),
                        split.span().size() * sizeof(float)),
            0);
}

}  // namespace
}  // namespace ksum::blas
