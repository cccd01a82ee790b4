// Cache-blocked, vectorizable math kernels behind the tensor ops.
//
// Everything here works on raw float buffers (or the lightweight 2-D views
// below) so the nn/ hot path can run GEMMs directly over weight/activation
// storage without materialising intermediate Tensors. Two implementations
// coexist:
//
//   * kernels::*       — the production kernels: register-blocked micro-kernel
//                        GEMMs over packed A/B panels, branch-free elementwise
//                        loops the compiler auto-vectorises, fused bias-add
//                        epilogues for the forward paths.
//   * kernels::ref::*  — the retained reference kernels (the seed's naive
//                        loops). They define the summation-order contract and
//                        serve as the equivalence-test and microbench baseline.
//
// Determinism contract (relied on by the parallel runtime's bitwise
// serial-vs-parallel equality): every kernel is single-threaded and uses a
// FIXED summation order identical to the reference kernel's order —
//   * gemm_nn / gemm_tn: C[i,j] accumulates its k contributions in increasing
//     p order directly into the output accumulator (cache blocking only
//     spills/reloads the exact partial value, which is lossless);
//   * gemm_nt: a fresh accumulator per element sums k products in increasing
//     p order and is added to C once at the end (dot-product form);
//   * reductions (dot, squared_norm, col/row sums): strict element order.
// Because the order is fixed and float mul/add are exactly rounded, blocked
// and reference kernels produce bitwise-identical results, at any thread
// count, provided FMA contraction is disabled (see the build flags: the
// kernel TUs are compiled with -ffp-contract=off).
#pragma once

#include <cstddef>

namespace mach::tensor::kernels {

// ---------------------------------------------------------------------------
// Lightweight non-owning 2-D views. Row-major and fully packed (leading
// dimension == cols), which every caller in this codebase satisfies: weight,
// activation and im2col buffers are contiguous, and per-image slices of NCHW
// tensors are contiguous [channels, h*w] planes.
// ---------------------------------------------------------------------------
struct ConstMat {
  const float* data = nullptr;
  std::size_t rows = 0;
  std::size_t cols = 0;
};

struct Mat {
  float* data = nullptr;
  std::size_t rows = 0;
  std::size_t cols = 0;

  operator ConstMat() const noexcept { return {data, rows, cols}; }
};

// Blocking parameters (exported so the equivalence suite can probe
// non-multiple-of-block shapes deliberately). MR x NR is the register tile
// of the micro-kernel; KC/MC/NC are the cache-tiling panel sizes.
inline constexpr std::size_t kMR = 4;
inline constexpr std::size_t kNR = 8;
inline constexpr std::size_t kKC = 256;
inline constexpr std::size_t kMC = 64;
inline constexpr std::size_t kNC = 256;

// ---------------------------------------------------------------------------
// GEMM. Shapes (rows x cols of the stored views):
//   gemm_nn: C[m,n] (+)= A[m,k]  · B[k,n]
//   gemm_tn: C[m,n] (+)= A[k,m]ᵀ · B[k,n]
//   gemm_nt: C[m,n] (+)= A[m,k]  · B[n,k]ᵀ
// With accumulate=false C is fully overwritten (no pre-zeroing needed).
// gemm_nn optionally fuses a bias epilogue applied once after the final
// k-contribution: bias_row[i] is added to every element of row i (conv
// forward, bias per output channel), bias_col[j] to every element of column
// j (dense forward, bias per output feature). Both default to nullptr.
// ---------------------------------------------------------------------------
void gemm_nn(ConstMat a, ConstMat b, Mat c, bool accumulate = false,
             const float* bias_row = nullptr, const float* bias_col = nullptr);
void gemm_tn(ConstMat a, ConstMat b, Mat c, bool accumulate = false);
void gemm_nt(ConstMat a, ConstMat b, Mat c, bool accumulate = false);

// ---------------------------------------------------------------------------
// im2col / col2im on one NCHW image plane (square kernel, symmetric zero
// padding). `image` points at [channels, height, width]; `cols` holds
// [channels*kernel*kernel, out_h*out_w]. The production im2col splits the
// zero-padded border from the interior so the interior of each (channel,
// ky, kx) row is a straight contiguous row copy for stride 1 (and a
// branch-free strided copy otherwise).
// ---------------------------------------------------------------------------
void im2col(const float* image, std::size_t channels, std::size_t height,
            std::size_t width, std::size_t kernel, std::size_t pad,
            std::size_t stride, float* cols);
/// Adjoint of im2col: accumulates columns back into the image gradient
/// (which must be pre-zeroed by the caller, matching the reference).
void col2im(const float* cols, std::size_t channels, std::size_t height,
            std::size_t width, std::size_t kernel, std::size_t pad,
            std::size_t stride, float* grad_image);

// ---------------------------------------------------------------------------
// Elementwise kernels (branch-free, auto-vectorizable; exact per-element
// semantics match the naive loops they replaced).
// ---------------------------------------------------------------------------
void relu(std::size_t n, const float* x, float* y);
void relu_bwd(std::size_t n, const float* x, const float* gy, float* gx);
/// y[i] += alpha * x[i]
void axpy(std::size_t n, float alpha, const float* x, float* y);
/// y[i] += alpha * (x[i] - base[i])  (HT update-form aggregation)
void axpy_delta(std::size_t n, float alpha, const float* x, const float* base,
                float* y);
/// x[i] *= alpha
void scale(std::size_t n, float alpha, float* x);
/// y[i] = alpha * x[i]
void scale_copy(std::size_t n, float alpha, const float* x, float* y);
/// y[i] += x[i]
void vadd(std::size_t n, const float* x, float* y);
/// x[i,j] += bias[j] for every row i of x[m,n].
void add_bias_rows(std::size_t m, std::size_t n, const float* bias, float* x);
/// out[j] (+)= sum_i x[i,j]; rows accumulated in increasing i order.
void col_sums(std::size_t m, std::size_t n, const float* x, float* out,
              bool accumulate);
/// out[i] += sum_j x[i,j]; each row summed into a fresh accumulator in
/// increasing j order, then added to out once (conv bias gradient).
void row_sums(std::size_t m, std::size_t n, const float* x, float* out);

// ---------------------------------------------------------------------------
// Reductions. Double accumulators in strict element order — the fixed order
// is what keeps gradient-norm observables identical at any thread count, so
// these intentionally stay serial chains (documented in DESIGN.md §9).
// ---------------------------------------------------------------------------
double dot(std::size_t n, const float* x, const float* y);
double squared_norm(std::size_t n, const float* x);

// ---------------------------------------------------------------------------
// Fused optimiser update steps (per-element math identical to the loops
// they replaced in nn::Sgd).
// ---------------------------------------------------------------------------
void sgd_step(std::size_t n, float lr, float weight_decay, const float* grad,
              float* value);
void sgd_momentum_step(std::size_t n, float lr, float momentum,
                       float weight_decay, const float* grad, float* velocity,
                       float* value);

// ---------------------------------------------------------------------------
// Retained reference kernels — the seed implementation, kept verbatim as the
// summation-order contract, equivalence baseline and microbench yardstick.
// ---------------------------------------------------------------------------
namespace ref {
void gemm_nn(ConstMat a, ConstMat b, Mat c, bool accumulate = false,
             const float* bias_row = nullptr, const float* bias_col = nullptr);
void gemm_tn(ConstMat a, ConstMat b, Mat c, bool accumulate = false);
void gemm_nt(ConstMat a, ConstMat b, Mat c, bool accumulate = false);
void im2col(const float* image, std::size_t channels, std::size_t height,
            std::size_t width, std::size_t kernel, std::size_t pad,
            std::size_t stride, float* cols);
void col2im(const float* cols, std::size_t channels, std::size_t height,
            std::size_t width, std::size_t kernel, std::size_t pad,
            std::size_t stride, float* grad_image);
}  // namespace ref

}  // namespace mach::tensor::kernels
