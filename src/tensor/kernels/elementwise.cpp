// Elementwise, reduction and fused-optimiser kernels. Branch-free loops with
// per-element expressions copied exactly from the naive implementations they
// replace (ops.cpp, nn/sgd.cpp, hfl/simulator.cpp), so results
// are bitwise identical. Compiled with -O3 -ffp-contract=off: the compiler
// may vectorise the independent-lane loops freely, but must not fuse mul+add
// into FMA (which would round differently from the scalar reference).
//
// The reductions (dot, squared_norm) and the ordered sums (col_sums,
// row_sums) are NOT reassociated: their fixed summation chains are part of
// the determinism contract (gradient-norm observables must not depend on
// thread count or ISA), so they intentionally stay serial chains.
//
// No function multi-versioning here: target_clones de-optimises hot loops on
// GCC 12 (see gemm_blocked.cpp). Wider-than-baseline vectors are available
// via the opt-in MACH_NATIVE_ARCH CMake option.
#include "tensor/kernels/kernels.h"

namespace mach::tensor::kernels {

void relu(std::size_t n, const float* x, float* y) {
  for (std::size_t i = 0; i < n; ++i) y[i] = x[i] > 0.0f ? x[i] : 0.0f;
}

void relu_bwd(std::size_t n, const float* x, const float* gy, float* gx) {
  for (std::size_t i = 0; i < n; ++i) gx[i] = x[i] > 0.0f ? gy[i] : 0.0f;
}

void axpy(std::size_t n, float alpha, const float* x, float* y) {
  for (std::size_t i = 0; i < n; ++i) y[i] += alpha * x[i];
}

void axpy_delta(std::size_t n, float alpha, const float* x, const float* base,
                float* y) {
  for (std::size_t i = 0; i < n; ++i) y[i] += alpha * (x[i] - base[i]);
}

void scale(std::size_t n, float alpha, float* x) {
  for (std::size_t i = 0; i < n; ++i) x[i] *= alpha;
}

void scale_copy(std::size_t n, float alpha, const float* x, float* y) {
  for (std::size_t i = 0; i < n; ++i) y[i] = alpha * x[i];
}

void vadd(std::size_t n, const float* x, float* y) {
  for (std::size_t i = 0; i < n; ++i) y[i] += x[i];
}

void add_bias_rows(std::size_t m, std::size_t n, const float* bias, float* x) {
  for (std::size_t i = 0; i < m; ++i) {
    float* row = x + i * n;
    for (std::size_t j = 0; j < n; ++j) row[j] += bias[j];
  }
}

void col_sums(std::size_t m, std::size_t n, const float* x, float* out,
              bool accumulate) {
  if (!accumulate) {
    for (std::size_t j = 0; j < n; ++j) out[j] = 0.0f;
  }
  for (std::size_t i = 0; i < m; ++i) {
    const float* row = x + i * n;
    for (std::size_t j = 0; j < n; ++j) out[j] += row[j];
  }
}

void row_sums(std::size_t m, std::size_t n, const float* x, float* out) {
  for (std::size_t i = 0; i < m; ++i) {
    const float* row = x + i * n;
    float acc = 0.0f;
    for (std::size_t j = 0; j < n; ++j) acc += row[j];
    out[i] += acc;
  }
}

double dot(std::size_t n, const float* x, const float* y) {
  double total = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    total += static_cast<double>(x[i]) * static_cast<double>(y[i]);
  }
  return total;
}

double squared_norm(std::size_t n, const float* x) {
  double total = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double v = static_cast<double>(x[i]);
    total += v * v;
  }
  return total;
}

void sgd_step(std::size_t n, float lr, float weight_decay, const float* grad,
              float* value) {
  for (std::size_t j = 0; j < n; ++j) {
    value[j] -= lr * (grad[j] + weight_decay * value[j]);
  }
}

void sgd_momentum_step(std::size_t n, float lr, float momentum,
                       float weight_decay, const float* grad, float* velocity,
                       float* value) {
  for (std::size_t j = 0; j < n; ++j) {
    const float g = grad[j] + weight_decay * value[j];
    velocity[j] = momentum * velocity[j] + g;
    value[j] -= lr * velocity[j];
  }
}

}  // namespace mach::tensor::kernels
