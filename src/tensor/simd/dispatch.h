// Runtime-dispatched SIMD kernel backend.
//
// The tensor ops in ops.cc route their innermost loops through a
// `Kernels` table of function pointers. Which table is active is decided
// at runtime:
//
//   * Detection: at first use the best ISA the build AND the host CPU
//     support is picked (AVX2+FMA > SSE2 > scalar on x86, NEON on ARM).
//   * Override: `IMR_KERNEL_BACKEND={auto,scalar,sse2,avx2,neon}` in the
//     environment, the `--imr_kernel_backend` bench/example flag, or a
//     ScopedEvalBackend in tests pin the eval table explicitly.
//   * Dispatch rule: under NoGradGuard (eval, serving, snapshot replay)
//     Active() returns the fastest (or pinned) table. While autograd
//     records (GradModeEnabled()), Active() returns TrainKernels(): the
//     same backend's EXACT entries with the scalar APPROXIMATE ones.
//
// Contract: the scalar table is the bit-identity reference — its kernels
// are the exact loops the ops had before this backend existed. Every
// entry is one of two kinds, marked on its declaration below:
//
//   * [exact] bitwise equal to the scalar reference on every backend, for
//     every shape. A vector lane repeats the scalar per-element sequence
//     (same operations, same order, a separate multiply and add), so
//     nothing is reassociated. The scalar, SSE2 and exact AVX2 kernel TUs
//     are built with -ffp-contract=off, the AVX2 one without -mfma,
//     because a compiler that fuses a multiply and an add into one FMA
//     changes the rounding (tests/simd_test.cc sweeps every exact entry on
//     every backend and fails if that happens). Training therefore keeps
//     the scalar bits on any backend and at any thread count while running
//     these.
//   * [approximate] vector tables may reassociate reductions, use FMA and
//     polynomial transcendentals; their error bounds are documented in
//     vec_math.h and enforced by tests/simd_test.cc. Training always uses
//     the scalar version, so it keeps the scalar bits on every backend.
//
// Thread model: resolve Active()/EvalKernels() ONCE on the op-calling
// thread and pass the table (by reference) into any ParallelFor body.
// GradModeEnabled() is thread-local, so resolving on a worker would read
// the worker's grad mode, not the caller's.
#ifndef IMR_TENSOR_SIMD_DISPATCH_H_
#define IMR_TENSOR_SIMD_DISPATCH_H_

#include <cstdint>
#include <string>
#include <vector>

#include "util/status.h"

namespace imr::tensor::simd {

enum class Backend : int {
  kScalar = 0,
  kSse2 = 1,
  kAvx2 = 2,
  kNeon = 3,
};

const char* BackendName(Backend backend);

// One entry per vectorizable inner loop. Pointers are never null — ISA
// tables that do not vectorize an entry inherit the scalar reference.
struct Kernels {
  Backend backend = Backend::kScalar;

  // [exact] Elementwise over n contiguous floats (out may alias an input).
  void (*add)(const float* a, const float* b, float* out, size_t n) = nullptr;
  void (*sub)(const float* a, const float* b, float* out, size_t n) = nullptr;
  void (*mul)(const float* a, const float* b, float* out, size_t n) = nullptr;
  void (*scale)(const float* a, float s, float* out, size_t n) = nullptr;
  // [exact] y[i] += a * x[i], one rounded multiply then one rounded add.
  void (*axpy)(float a, const float* x, float* y, size_t n) = nullptr;

  // [exact] Same-padded window convolution (tensor::Conv1dSame). x is
  // [time x dim], weight [filters x window*dim] with inner index w*dim + d,
  // out [time x filters]. conv1d_pack writes the layout conv1d_rows reads
  // into `packed` (filters * window * dim floats of caller scratch): vector
  // tables transpose to [window*dim x filters] so a register holds
  // consecutive filters; the scalar reference reads `weight` and leaves
  // `packed` untouched. conv1d_rows fills rows [t_lo, t_hi): each
  // out[t, f] starts from bias[f] and adds, for every window position w
  // whose source row t + w - window/2 is in range (ascending w), one
  // acc = sum over d ascending of x[src, d] * weight[f, w*dim + d]
  // accumulated from 0.
  void (*conv1d_pack)(const float* weight, int filters, int inner,
                      float* packed) = nullptr;
  void (*conv1d_rows)(const float* x, const float* weight,
                      const float* packed, const float* bias, float* out,
                      int time, int dim, int filters, int window,
                      int64_t t_lo, int64_t t_hi) = nullptr;

  // [exact] Quantized GEMM: out[i,j] = sum_k a[i,k] * wt[j,k] in int32; a
  // is [rows x inner] row-major, wt is the packed transposed weight
  // [cols x inner]. Pure integer arithmetic — bit-identical across
  // backends by construction (inner must stay < 2^16 to avoid overflow;
  // model widths here are O(100)).
  void (*gemm_s8s32)(const int8_t* a, const int8_t* wt, int32_t* out,
                     int rows, int inner, int cols) = nullptr;

  // [approximate] out[i] = tanh(x[i]).
  void (*tanh)(const float* x, float* out, size_t n) = nullptr;
  // [approximate] Fused affine epilogue: inout[r,c] = tanh(inout[r,c] +
  // bias[c]).
  void (*affine_tanh_finish)(float* inout, const float* bias, int rows,
                             int cols) = nullptr;

  // [approximate] out[i,j] = dot(a[i,:], bt[j,:]) for i in [row_lo,row_hi),
  // all j; bt is the packed B^T panel ([cols x inner], the blocked
  // transpose ops.cc's PackTranspose writes).
  void (*matmul_panel_dot)(const float* a, const float* bt, float* out,
                           int64_t row_lo, int64_t row_hi, int inner,
                           int cols) = nullptr;
  // [approximate] out += a @ b in ikj order; out is pre-zeroed
  // [rows x cols]. (The AVX2 body fuses with FMA.)
  void (*matmul_ikj)(const float* a, const float* b, float* out, int rows,
                     int inner, int cols) = nullptr;

  // [approximate] Row-wise softmax / log-softmax of in ([rows x cols])
  // into out.
  void (*softmax_rows)(const float* in, float* out, int rows, int cols) = nullptr;
  void (*log_softmax_rows)(const float* in, float* out, int rows, int cols) = nullptr;

  // [approximate] ANN distance sweeps (src/graph/ann/): score one query
  // against `rows` contiguous base rows ([rows x dim] row-major). Scalar
  // accumulates sequentially in ascending k — that ordering is the
  // exactness reference for FlatIndex tests; vector tiers may reassociate.
  // out[r] = dot(query, base[r,:]).
  void (*ann_dot_many)(const float* query, const float* base, size_t rows,
                       size_t dim, float* out) = nullptr;
  // out[r] = ||query - base[r,:]||^2.
  void (*ann_l2sqr_many)(const float* query, const float* base, size_t rows,
                         size_t dim, float* out) = nullptr;
  // out[r] = dot(query, base[r,:]) * inv_norms[r] * query_inv_norm, i.e.
  // cosine with the per-row inverse norms precomputed at index build.
  void (*ann_cosine_many)(const float* query, const float* base,
                          const float* inv_norms, float query_inv_norm,
                          size_t rows, size_t dim, float* out) = nullptr;
  // Query batch: out[q*rows + r] = dot(queries[q,:], base[r,:]).
  void (*ann_dot_batch)(const float* queries, size_t num_queries,
                        const float* base, size_t rows, size_t dim,
                        float* out) = nullptr;
};

/// Best ISA supported by this build AND the host CPU.
Backend DetectBestBackend();

/// True when `backend` was compiled in and the host CPU can execute it.
bool BackendSupported(Backend backend);

/// All supported backends, scalar first.
std::vector<Backend> SupportedBackends();

/// Table for an explicit backend. IMR_CHECKs BackendSupported(backend).
const Kernels& KernelsFor(Backend backend);

/// Table used under NoGradGuard (eval/serve): the pinned backend if one
/// was set, otherwise DetectBestBackend().
const Kernels& EvalKernels();

/// Table used while autograd records: the [exact] entries of the
/// EvalKernels() backend with the scalar [approximate] ones, so training
/// runs vector code without moving a bit. Its `backend` names the backend
/// whose exact entries it carries.
const Kernels& TrainKernels();

/// The dispatch rule ops.cc uses: TrainKernels() when GradModeEnabled()
/// on the calling thread, EvalKernels() otherwise.
const Kernels& Active();

/// Backend EvalKernels() currently resolves to.
Backend ActiveEvalBackend();

/// True when the eval backend was pinned via env/flag/scope (a pinned
/// scalar backend is an explicit choice, not a silent fallback).
bool EvalBackendPinned();

/// Pins the eval backend by name: "auto"/"" clears the pin, otherwise one
/// of "scalar", "sse2", "avx2", "neon". InvalidArgument on unknown names,
/// FailedPrecondition when the host cannot run the requested backend.
[[nodiscard]] util::Status SetBackendByName(const std::string& name);

/// RAII pin of the eval backend (tests, benchmark A/B loops).
class ScopedEvalBackend {
 public:
  explicit ScopedEvalBackend(Backend backend);
  ~ScopedEvalBackend();
  ScopedEvalBackend(const ScopedEvalBackend&) = delete;
  ScopedEvalBackend& operator=(const ScopedEvalBackend&) = delete;

 private:
  int previous_pin_;  // -1 = was unpinned
};

}  // namespace imr::tensor::simd

#endif  // IMR_TENSOR_SIMD_DISPATCH_H_
