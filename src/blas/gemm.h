// Host single-precision GEMM: C = alpha · A·B + beta · C.
//
// A is M×K row major, B is K×N column major, C is M×N row major — the
// operand layouts of the paper's Algorithm 1. Two implementations:
//
//  * sgemm_naive   — triple loop; the correctness oracle for everything else.
//  * sgemm_blocked — cache-blocked with a small register micro-kernel; the
//                    host path. Runs its row panels on an exec::ThreadPool of
//                    up to OMP_NUM_THREADS workers (default: every hardware
//                    thread), serially when called on a pool worker.
#pragma once

#include "common/matrix.h"

namespace ksum::blas {

struct GemmDims {
  std::size_t m, n, k;
};

/// Extracts and validates the dimensions of C = A·B.
GemmDims check_gemm_shapes(const Matrix& a, const Matrix& b, const Matrix& c);

void sgemm_naive(float alpha, const Matrix& a, const Matrix& b, float beta,
                 Matrix& c);

void sgemm_blocked(float alpha, const Matrix& a, const Matrix& b, float beta,
                   Matrix& c);

}  // namespace ksum::blas
