#include "core/exact.h"

#include <cmath>

#include "blas/gemm.h"
#include "blas/gemv.h"
#include "blas/vector_ops.h"
#include "common/error.h"

namespace ksum::core {

KernelParams params_from_spec(const workload::ProblemSpec& spec) {
  KernelParams params;
  params.type = KernelType::kGaussian;
  params.bandwidth = spec.bandwidth;
  return params;
}

Vector solve_direct(const workload::Instance& instance,
                    const KernelParams& params) {
  const Matrix& a = instance.a;
  const Matrix& b = instance.b;
  KSUM_REQUIRE(a.cols() == b.rows(), "A and B disagree on dimension K");
  KSUM_REQUIRE(instance.w.size() == b.cols(), "weights must have length N");

  const std::size_t m = a.rows();
  const std::size_t n = b.cols();
  const std::size_t k = a.cols();

  Vector v(m);
  for (std::size_t i = 0; i < m; ++i) {
    double acc = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      double d2 = 0.0;
      double dot = 0.0;
      for (std::size_t d = 0; d < k; ++d) {
        const double diff = double(a.at(i, d)) - double(b.at(d, j));
        d2 += diff * diff;
        dot += double(a.at(i, d)) * double(b.at(d, j));
      }
      acc += double(evaluate(params, float(d2), float(dot))) *
             double(instance.w[j]);
    }
    v[i] = float(acc);
  }
  return v;
}

Vector solve_expansion(const workload::Instance& instance,
                       const KernelParams& params,
                       Matrix* keep_kernel_matrix) {
  const Matrix& a = instance.a;
  const Matrix& b = instance.b;
  KSUM_REQUIRE(a.cols() == b.rows(), "A and B disagree on dimension K");
  KSUM_REQUIRE(instance.w.size() == b.cols(), "weights must have length N");

  const std::size_t m = a.rows();
  const std::size_t n = b.cols();

  // vecα, vecβ — squared norms (Algorithm 1 lines 3–4).
  const Vector norm_a = blas::row_squared_norms(a);
  const Vector norm_b = blas::col_squared_norms(b);

  // C = A·B (line 10); kernel evaluation on R = squareA + squareB − 2C
  // (lines 11–14), fused here into one elementwise pass over C.
  Matrix kmat(m, n, Layout::kRowMajor);
  blas::sgemm_blocked(1.0f, a, b, 0.0f, kmat);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      const float dot = kmat.at(i, j);
      const float d2 = norm_a[i] + norm_b[j] - 2.0f * dot;
      kmat.at(i, j) = evaluate(params, d2, dot);
    }
  }

  // V = K·W (line 16).
  Vector v(m);
  blas::sgemv(1.0f, kmat, instance.w.span(), 0.0f, v.span());

  if (keep_kernel_matrix != nullptr) *keep_kernel_matrix = std::move(kmat);
  return v;
}

}  // namespace ksum::core
