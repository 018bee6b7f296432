#include "blas/gemm.h"

#include <algorithm>
#include <vector>

#include "common/error.h"
#include "common/math_util.h"
#include "exec/thread_pool.h"

namespace ksum::blas {
namespace {

// Cache blocking constants for the host micro-kernel: the A panel
// (kMc×kKc floats) fits in L2, the B panel (kKc×kNc) in L1-ish footprint.
constexpr std::size_t kMc = 128;
constexpr std::size_t kNc = 128;
constexpr std::size_t kKc = 256;
// Register tile of the micro-kernel.
constexpr std::size_t kMr = 4;
constexpr std::size_t kNr = 4;

// Computes a kMr×kNr register tile of C += Apanel·Bpanel. `ap` is packed
// row-major kMr×kc, `bp` packed column-major kc×kNr.
void micro_kernel(std::size_t kc, const float* ap, const float* bp,
                  float* acc /* kMr×kNr row major */) {
  for (std::size_t p = 0; p < kc; ++p) {
    const float* arow = ap + p * kMr;
    const float* bcol = bp + p * kNr;
    for (std::size_t i = 0; i < kMr; ++i) {
      const float aval = arow[i];
      float* crow = acc + i * kNr;
      for (std::size_t j = 0; j < kNr; ++j) {
        crow[j] += aval * bcol[j];
      }
    }
  }
}

// Packs a mc×kc block of A (row major M×K) as column panels of width kMr:
// element (i, p) of panel q lands at q·(kMr·kc) + p·kMr + i.
void pack_a(const Matrix& a, std::size_t row0, std::size_t mc,
            std::size_t col0, std::size_t kc, std::vector<float>& out) {
  const std::size_t panels = ceil_div(mc, kMr);
  out.assign(panels * kMr * kc, 0.0f);
  for (std::size_t q = 0; q < panels; ++q) {
    for (std::size_t p = 0; p < kc; ++p) {
      for (std::size_t i = 0; i < kMr; ++i) {
        const std::size_t r = q * kMr + i;
        if (r < mc) {
          out[q * kMr * kc + p * kMr + i] = a.at(row0 + r, col0 + p);
        }
      }
    }
  }
}

// Packs a kc×nc block of B (col major K×N) as row panels of width kNr.
void pack_b(const Matrix& b, std::size_t row0, std::size_t kc,
            std::size_t col0, std::size_t nc, std::vector<float>& out) {
  const std::size_t panels = ceil_div(nc, kNr);
  out.assign(panels * kNr * kc, 0.0f);
  for (std::size_t q = 0; q < panels; ++q) {
    for (std::size_t p = 0; p < kc; ++p) {
      for (std::size_t j = 0; j < kNr; ++j) {
        const std::size_t c = q * kNr + j;
        if (c < nc) {
          out[q * kNr * kc + p * kNr + j] = b.at(row0 + p, col0 + c);
        }
      }
    }
  }
}

void gemm_block_range(float alpha, const Matrix& a, const Matrix& b,
                      Matrix& c, std::size_t row_begin, std::size_t row_end) {
  const std::size_t n = c.cols();
  const std::size_t k = a.cols();
  std::vector<float> apack, bpack;
  float acc[kMr * kNr];

  for (std::size_t j0 = 0; j0 < n; j0 += kNc) {
    const std::size_t nc = std::min(kNc, n - j0);
    for (std::size_t p0 = 0; p0 < k; p0 += kKc) {
      const std::size_t kc = std::min(kKc, k - p0);
      pack_b(b, p0, kc, j0, nc, bpack);
      for (std::size_t i0 = row_begin; i0 < row_end; i0 += kMc) {
        const std::size_t mc = std::min(kMc, row_end - i0);
        pack_a(a, i0, mc, p0, kc, apack);
        const std::size_t mpanels = ceil_div(mc, kMr);
        const std::size_t npanels = ceil_div(nc, kNr);
        for (std::size_t qi = 0; qi < mpanels; ++qi) {
          for (std::size_t qj = 0; qj < npanels; ++qj) {
            std::fill(acc, acc + kMr * kNr, 0.0f);
            micro_kernel(kc, apack.data() + qi * kMr * kc,
                         bpack.data() + qj * kNr * kc, acc);
            const std::size_t rmax = std::min(kMr, mc - qi * kMr);
            const std::size_t cmax = std::min(kNr, nc - qj * kNr);
            for (std::size_t i = 0; i < rmax; ++i) {
              for (std::size_t j = 0; j < cmax; ++j) {
                c.at(i0 + qi * kMr + i, j0 + qj * kNr + j) +=
                    alpha * acc[i * kNr + j];
              }
            }
          }
        }
      }
    }
  }
}

void scale_c(float beta, Matrix& c) {
  if (beta == 1.0f) return;
  if (beta == 0.0f) {
    c.fill(0.0f);
    return;
  }
  for (float& x : c.span()) x *= beta;
}

}  // namespace

GemmDims check_gemm_shapes(const Matrix& a, const Matrix& b, const Matrix& c) {
  KSUM_REQUIRE(a.cols() == b.rows(), "GEMM inner dimensions must match");
  KSUM_REQUIRE(c.rows() == a.rows() && c.cols() == b.cols(),
               "GEMM output shape must be M×N");
  return {a.rows(), b.cols(), a.cols()};
}

void sgemm_naive(float alpha, const Matrix& a, const Matrix& b, float beta,
                 Matrix& c) {
  const auto [m, n, k] = check_gemm_shapes(a, b, c);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      // Accumulate in double so the oracle is strictly more accurate than
      // any single-precision implementation under test.
      double sum = 0.0;
      for (std::size_t p = 0; p < k; ++p) {
        sum += double(a.at(i, p)) * double(b.at(p, j));
      }
      c.at(i, j) = alpha * float(sum) + beta * c.at(i, j);
    }
  }
}

void sgemm_blocked(float alpha, const Matrix& a, const Matrix& b, float beta,
                   Matrix& c) {
  check_gemm_shapes(a, b, c);
  scale_c(beta, c);
  const std::size_t m = c.rows();
  // At most 8 row panels of whole kMc blocks. A panel only decides which
  // worker writes a row: each C element still accumulates its K products in
  // the same order, so C is bit-identical at any thread count.
  const std::size_t chunk =
      std::max(kMc, round_up(ceil_div<std::size_t>(m, 8), kMc));
  const std::size_t panels = ceil_div(m, chunk);
  static const int host_threads = exec::env_threads("OMP_NUM_THREADS");
  if (panels <= 1 || host_threads == 1 ||
      exec::ThreadPool::on_worker_thread()) {
    gemm_block_range(alpha, a, b, c, 0, m);
    return;
  }
  exec::ThreadPool pool(static_cast<int>(
      std::min(panels, static_cast<std::size_t>(host_threads))));
  pool.parallel_for(panels, [&](std::size_t panel) {
    const std::size_t row_begin = panel * chunk;
    gemm_block_range(alpha, a, b, c, row_begin,
                     std::min(m, row_begin + chunk));
  });
}

}  // namespace ksum::blas
