// google-benchmark timings of the host BLAS (the numerical oracle layer).
// Wall-clock here is host CPU time, not simulated device time — useful to
// keep the oracle fast enough for the property suites.
#include <benchmark/benchmark.h>

#include "blas/gemm.h"
#include "blas/gemv.h"
#include "blas/vector_ops.h"
#include "common/rng.h"

namespace {

using namespace ksum;

Matrix random_matrix(std::size_t rows, std::size_t cols, Layout layout,
                     std::uint64_t seed) {
  Matrix m(rows, cols, layout);
  Rng rng(seed);
  for (float& x : m.span()) x = rng.uniform(-1.0f, 1.0f);
  return m;
}

void BM_SgemmNaive(benchmark::State& state) {
  const auto n = std::size_t(state.range(0));
  Matrix a = random_matrix(n, n, Layout::kRowMajor, 1);
  Matrix b = random_matrix(n, n, Layout::kColMajor, 2);
  Matrix c(n, n, Layout::kRowMajor);
  for (auto _ : state) {
    blas::sgemm_naive(1.0f, a, b, 0.0f, c);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(int64_t(state.iterations()) * int64_t(2 * n * n * n));
}
BENCHMARK(BM_SgemmNaive)->Arg(64)->Arg(128);

void BM_SgemmBlocked(benchmark::State& state) {
  const auto n = std::size_t(state.range(0));
  Matrix a = random_matrix(n, n, Layout::kRowMajor, 1);
  Matrix b = random_matrix(n, n, Layout::kColMajor, 2);
  Matrix c(n, n, Layout::kRowMajor);
  for (auto _ : state) {
    blas::sgemm_blocked(1.0f, a, b, 0.0f, c);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(int64_t(state.iterations()) * int64_t(2 * n * n * n));
}
BENCHMARK(BM_SgemmBlocked)->Arg(64)->Arg(128)->Arg(256);

void BM_Sgemv(benchmark::State& state) {
  const auto n = std::size_t(state.range(0));
  Matrix a = random_matrix(n, n, Layout::kRowMajor, 3);
  AlignedBuffer<float> x(n), y(n);
  for (float& v : x) v = 0.5f;
  for (auto _ : state) {
    blas::sgemv(1.0f, a, x.span(), 0.0f, y.span());
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(int64_t(state.iterations()) * int64_t(2 * n * n));
}
BENCHMARK(BM_Sgemv)->Arg(256)->Arg(1024);

void BM_RowSquaredNorms(benchmark::State& state) {
  const auto n = std::size_t(state.range(0));
  Matrix a = random_matrix(n, 64, Layout::kRowMajor, 4);
  for (auto _ : state) {
    auto norms = blas::row_squared_norms(a);
    benchmark::DoNotOptimize(norms.data());
  }
}
BENCHMARK(BM_RowSquaredNorms)->Arg(1024)->Arg(8192);

}  // namespace
