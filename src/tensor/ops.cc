#include "tensor/ops.h"

#include <algorithm>
#include <cmath>
#include <initializer_list>
#include <limits>

#include "tensor/buffer_pool.h"
#include "tensor/simd/dispatch.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace imr::tensor {

namespace {

using internal::AcquireBuffer;
using internal::AcquireBufferFill;
using internal::MakeResult;
using internal::PooledFloats;
using internal::TensorImpl;

// Accumulates `delta` into the grad of `parent` if it requires grad.
inline bool WantsGrad(const Tensor& t) {
  return t.defined() && t.requires_grad();
}

inline std::vector<float>* GradOf(const Tensor& t) {
  // Routes through the thread-local gradient sink (when one is active) so
  // data-parallel backward passes accumulate leaf grads privately.
  return internal::GradTarget(t.impl());
}

void CheckSameShape(const Tensor& a, const Tensor& b) {
  IMR_CHECK(a.shape() == b.shape());
}

// True when an op on these parents records a backward closure (MakeResult's
// own test). Ops whose closure copies index lists build it only then, so a
// no-grad forward (serving) copies nothing.
inline bool Records(std::initializer_list<const Tensor*> parents) {
  if (!GradModeEnabled()) return false;
  for (const Tensor* p : parents) {
    if (WantsGrad(*p)) return true;
  }
  return false;
}

// Checks `offsets` against the segment contract in ops.h for `rows` rows.
void CheckOffsets(const std::vector<int>& offsets, int rows) {
  IMR_CHECK_GE(offsets.size(), 2u);
  IMR_CHECK_EQ(offsets.front(), 0);
  IMR_CHECK_EQ(offsets.back(), rows);
  for (size_t s = 1; s < offsets.size(); ++s) {
    IMR_CHECK_LT(offsets[s - 1], offsets[s]);
  }
}

// The segments a segmented op walks: `offsets` as in ops.h, or, when empty,
// one segment of all `rows` (the one-segment wrappers pass an empty list,
// which a backward closure copies without allocating).
struct SegmentView {
  const std::vector<int>& offsets;
  int rows;

  int count() const {
    return offsets.empty() ? 1 : static_cast<int>(offsets.size()) - 1;
  }
  int begin(int s) const {
    return offsets.empty() ? 0 : offsets[static_cast<size_t>(s)];
  }
  int end(int s) const {
    return offsets.empty() ? rows : offsets[static_cast<size_t>(s) + 1];
  }
  // The segment that holds row t.
  int Find(int64_t t) const {
    if (offsets.empty()) return 0;
    return static_cast<int>(
               std::upper_bound(offsets.begin(), offsets.end(), t) -
               offsets.begin()) -
           1;
  }
};

// ---- MatMul kernels -------------------------------------------------------
//
// Bit-exactness contract (scalar backend): every output element's float
// accumulation sequence is fixed by the element itself (k ascending for the
// forward/dA dots, i ascending for dB), never by chunk boundaries or thread
// count, so results are identical at any --imr_threads — and identical to
// the original scalar kernels (zero operands are skipped exactly as before).
//
// Inner loops dispatch through tensor/simd: simd::Active() resolves to
// TrainKernels() while autograd records — the backend's [exact] entries
// with the scalar [approximate] ones — and to the fastest ISA under
// NoGradGuard. [exact] entries (the elementwise ops, axpy and the sentence
// conv, forward and backward) give the scalar bits on every backend;
// [approximate] ones keep per-shape determinism but may reassociate
// reductions. See tensor/simd/dispatch.h for the contract. The MatMul
// backward kernels below are plain loops.

// Work below this many multiply-adds is not worth a pool dispatch.
constexpr int64_t kMatMulParallelFlops = 1 << 14;
// Packing pays for itself only when the packed panel is reused many times.
constexpr int kMatMulMinRowsForPack = 8;

// Grain (rows per chunk) is a pure function of the shape, keeping chunk
// boundaries independent of the worker count.
inline int64_t RowGrain(int64_t per_row_work) {
  return std::max<int64_t>(1, kMatMulParallelFlops / std::max<int64_t>(1, per_row_work));
}

// Conv1dSame's pool threshold, in multiply-adds, derived from the
// vectorized per-row cost. On a shared 4-vCPU x86-64 VM a ParallelFor
// region of 2-4 chunks cost 3-10 us of wall time beyond its work (submit,
// condvar wake-up, join), and the AVX2 conv ran 7-12 multiply-adds per ns.
// A pass therefore enters the pool only from 2^20 multiply-adds (~90-150
// us), in chunks of at least 2^18 (~22-35 us each, several handoffs'
// worth). A benchmark-dims sentence (17 tokens x 32 filters x 66 inputs,
// ~36k) always runs inline; so does a Table III sentence up to 25 tokens
// (230 filters x 180 inputs, ~41k per row).
constexpr int64_t kConvParallelMacs = int64_t{1} << 20;

inline int64_t ConvGrain(int64_t per_row_macs) {
  return std::max<int64_t>(
      1, (kConvParallelMacs / 4) / std::max<int64_t>(1, per_row_macs));
}

// Conv1dSame backward's compacted nonzero output-gradient entries:
// filter[row_begin[t] .. row_begin[t+1]) are row t's, ascending. Kept per
// thread and reused, so a steady-state backward does not allocate.
struct ConvGradRows {
  std::vector<int> row_begin;
  std::vector<int> filter;
};

ConvGradRows& ThreadConvGradRows() {
  thread_local ConvGradRows rows;
  return rows;
}

// Packs row-major src [rows x cols] into dst as its transpose [cols x rows].
// Blocked for cache friendliness; pure copies, so trivially deterministic.
void PackTranspose(const float* src, int rows, int cols, float* dst,
                   util::ThreadPool* pool) {
  constexpr int kBlock = 32;
  auto pack_panel = [&](int64_t j_lo, int64_t j_hi) {
    for (int64_t jb = j_lo; jb < j_hi; jb += kBlock) {
      const int64_t j_end = std::min<int64_t>(j_hi, jb + kBlock);
      for (int ib = 0; ib < rows; ib += kBlock) {
        const int i_end = std::min(rows, ib + kBlock);
        for (int64_t j = jb; j < j_end; ++j) {
          float* drow = dst + j * rows;
          for (int i = ib; i < i_end; ++i) {
            drow[i] = src[static_cast<size_t>(i) * cols + j];
          }
        }
      }
    }
  };
  const int64_t work = static_cast<int64_t>(rows) * cols;
  if (pool != nullptr && work >= kMatMulParallelFlops && cols > kBlock) {
    pool->ParallelFor(0, cols, kBlock, pack_panel);
  } else {
    pack_panel(0, cols);
  }
}

// ---- shared MatMul kernel entry points ------------------------------------
//
// MatMul and the fused AffineTanh drive these identical kernels (same path
// selection thresholds, same per-element accumulation order), which is what
// makes the fused op bit-identical to its unfused composition at threads=1
// and at any thread count.

// out must be zero-initialised ([rows x cols]); computes out = a @ b.
void MatMulForwardInto(const float* av, const float* bv, float* out, int rows,
                       int inner, int cols) {
  // Resolve the kernel table on the calling thread (GradModeEnabled() is
  // thread-local) and hand the same table to every ParallelFor worker.
  const simd::Kernels& kernels = simd::Active();
  const int64_t flops = static_cast<int64_t>(rows) * inner * cols;
  if (rows >= kMatMulMinRowsForPack && flops >= kMatMulParallelFlops) {
    // Blocked kernel: pack B^T once, then compute row panels of dots. The
    // packed panel streams contiguously for every output row.
    util::ThreadPool& pool = util::GlobalPool();
    PooledFloats bt(AcquireBuffer(static_cast<size_t>(cols) * inner));
    PackTranspose(bv, inner, cols, bt.data(), &pool);
    const float* btv = bt.data();
    pool.ParallelFor(0, rows, RowGrain(static_cast<int64_t>(inner) * cols),
                     [&](int64_t lo, int64_t hi) {
                       kernels.matmul_panel_dot(av, btv, out, lo, hi, inner,
                                                cols);
                     });
  } else {
    // ikj ordering: streams through b row-wise.
    kernels.matmul_ikj(av, bv, out, rows, inner, cols);
  }
}

// gav += gout @ b^T : [rows x cols] x [cols x inner]. Each dA[i,k] is a
// fresh dot over j added once into the existing grad — b is streamed
// row-contiguously, and the form is kept exactly as the scalar kernel so
// in-place accumulation stays bit-identical.
void MatMulAccumGradA(const float* gout, const float* bv, float* gav,
                      int rows, int inner, int cols) {
  const int64_t flops = static_cast<int64_t>(rows) * inner * cols;
  auto da_rows = [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) {
      const float* __restrict grow = gout + static_cast<size_t>(i) * cols;
      float* __restrict garow = gav + static_cast<size_t>(i) * inner;
      for (int k = 0; k < inner; ++k) {
        const float* __restrict brow = bv + static_cast<size_t>(k) * cols;
        float acc = 0.0f;
        for (int j = 0; j < cols; ++j) acc += grow[j] * brow[j];
        garow[k] += acc;
      }
    }
  };
  if (flops >= kMatMulParallelFlops && rows >= 2) {
    util::GlobalPool().ParallelFor(
        0, rows, RowGrain(static_cast<int64_t>(inner) * cols), da_rows);
  } else {
    da_rows(0, rows);
  }
}

// gbv += a^T @ gout : [inner x rows] x [rows x cols]. Restructured k-outer
// over a packed A^T so each dB row is produced by exactly one chunk and gb
// is streamed once instead of once per i. Per (k,j) the accumulation stays
// i-ascending with the same zero-skip, so bits match the i-outer scalar
// kernel exactly.
void MatMulAccumGradB(const float* gout, const float* av, float* gbv,
                      int rows, int inner, int cols) {
  const int64_t flops = static_cast<int64_t>(rows) * inner * cols;
  if (flops >= kMatMulParallelFlops && rows >= kMatMulMinRowsForPack) {
    util::ThreadPool& pool = util::GlobalPool();
    PooledFloats at(AcquireBuffer(static_cast<size_t>(inner) * rows));
    PackTranspose(av, rows, inner, at.data(), &pool);
    const float* atv = at.data();
    pool.ParallelFor(
        0, inner, RowGrain(static_cast<int64_t>(rows) * cols),
        [&](int64_t lo, int64_t hi) {
          for (int64_t k = lo; k < hi; ++k) {
            const float* __restrict atrow = atv + static_cast<size_t>(k) * rows;
            float* __restrict gbrow = gbv + static_cast<size_t>(k) * cols;
            for (int i = 0; i < rows; ++i) {
              const float aval = atrow[i];
              if (aval == 0.0f) continue;
              const float* __restrict grow =
                  gout + static_cast<size_t>(i) * cols;
              for (int j = 0; j < cols; ++j) gbrow[j] += aval * grow[j];
            }
          }
        });
  } else {
    for (int i = 0; i < rows; ++i) {
      const float* __restrict arow = av + static_cast<size_t>(i) * inner;
      const float* __restrict grow = gout + static_cast<size_t>(i) * cols;
      for (int k = 0; k < inner; ++k) {
        const float aval = arow[k];
        if (aval == 0.0f) continue;
        float* __restrict gbrow = gbv + static_cast<size_t>(k) * cols;
        for (int j = 0; j < cols; ++j) gbrow[j] += aval * grow[j];
      }
    }
  }
}

}  // namespace

Tensor Add(const Tensor& a, const Tensor& b) {
  CheckSameShape(a, b);
  std::vector<float> out = AcquireBuffer(a.size());
  simd::Active().add(a.data().data(), b.data().data(), out.data(),
                     out.size());
  return MakeResult(a.shape(), std::move(out), {a, b},
                    [a, b](TensorImpl& self) {
                      if (WantsGrad(a)) {
                        auto* ga = GradOf(a);
                        for (size_t i = 0; i < self.grad.size(); ++i)
                          (*ga)[i] += self.grad[i];
                      }
                      if (WantsGrad(b)) {
                        auto* gb = GradOf(b);
                        for (size_t i = 0; i < self.grad.size(); ++i)
                          (*gb)[i] += self.grad[i];
                      }
                    });
}

Tensor Sub(const Tensor& a, const Tensor& b) {
  CheckSameShape(a, b);
  std::vector<float> out = AcquireBuffer(a.size());
  simd::Active().sub(a.data().data(), b.data().data(), out.data(),
                     out.size());
  return MakeResult(a.shape(), std::move(out), {a, b},
                    [a, b](TensorImpl& self) {
                      if (WantsGrad(a)) {
                        auto* ga = GradOf(a);
                        for (size_t i = 0; i < self.grad.size(); ++i)
                          (*ga)[i] += self.grad[i];
                      }
                      if (WantsGrad(b)) {
                        auto* gb = GradOf(b);
                        for (size_t i = 0; i < self.grad.size(); ++i)
                          (*gb)[i] -= self.grad[i];
                      }
                    });
}

Tensor Mul(const Tensor& a, const Tensor& b) {
  CheckSameShape(a, b);
  std::vector<float> out = AcquireBuffer(a.size());
  simd::Active().mul(a.data().data(), b.data().data(), out.data(),
                     out.size());
  return MakeResult(a.shape(), std::move(out), {a, b},
                    [a, b](TensorImpl& self) {
                      const auto& av = a.data();
                      const auto& bv = b.data();
                      if (WantsGrad(a)) {
                        auto* ga = GradOf(a);
                        for (size_t i = 0; i < self.grad.size(); ++i)
                          (*ga)[i] += self.grad[i] * bv[i];
                      }
                      if (WantsGrad(b)) {
                        auto* gb = GradOf(b);
                        for (size_t i = 0; i < self.grad.size(); ++i)
                          (*gb)[i] += self.grad[i] * av[i];
                      }
                    });
}

Tensor Scale(const Tensor& a, float s) {
  std::vector<float> out = AcquireBuffer(a.size());
  simd::Active().scale(a.data().data(), s, out.data(), out.size());
  return MakeResult(a.shape(), std::move(out), {a},
                    [a, s](TensorImpl& self) {
                      if (!WantsGrad(a)) return;
                      auto* ga = GradOf(a);
                      for (size_t i = 0; i < self.grad.size(); ++i)
                        (*ga)[i] += self.grad[i] * s;
                    });
}

Tensor ScaleByScalarTensor(const Tensor& a, const Tensor& s) {
  IMR_CHECK_EQ(s.size(), 1u);
  const float sv = s.data()[0];
  std::vector<float> out = AcquireBuffer(a.size());
  const auto& av = a.data();
  for (size_t i = 0; i < out.size(); ++i) out[i] = av[i] * sv;
  return MakeResult(a.shape(), std::move(out), {a, s},
                    [a, s](TensorImpl& self) {
                      const float sv = s.data()[0];
                      if (WantsGrad(a)) {
                        auto* ga = GradOf(a);
                        for (size_t i = 0; i < self.grad.size(); ++i)
                          (*ga)[i] += self.grad[i] * sv;
                      }
                      if (WantsGrad(s)) {
                        auto* gs = GradOf(s);
                        const auto& av = a.data();
                        float acc = 0.0f;
                        for (size_t i = 0; i < self.grad.size(); ++i)
                          acc += self.grad[i] * av[i];
                        (*gs)[0] += acc;
                      }
                    });
}

Tensor AddScalar(const Tensor& a, float s) {
  std::vector<float> out = AcquireBuffer(a.size());
  const auto& av = a.data();
  for (size_t i = 0; i < out.size(); ++i) out[i] = av[i] + s;
  return MakeResult(a.shape(), std::move(out), {a},
                    [a](TensorImpl& self) {
                      if (!WantsGrad(a)) return;
                      auto* ga = GradOf(a);
                      for (size_t i = 0; i < self.grad.size(); ++i)
                        (*ga)[i] += self.grad[i];
                    });
}

Tensor Tanh(const Tensor& a) {
  std::vector<float> out = AcquireBuffer(a.size());
  // Row by row: a vector backend then splits each row into lanes and a
  // tail exactly as it splits that row alone.
  const simd::Kernels& kernels = simd::Active();
  const size_t cols = static_cast<size_t>(a.cols());
  for (size_t off = 0; off < out.size(); off += cols) {
    kernels.tanh(a.data().data() + off, out.data() + off, cols);
  }
  return MakeResult(a.shape(), std::move(out), {a},
                    [a](TensorImpl& self) {
                      if (!WantsGrad(a)) return;
                      auto* ga = GradOf(a);
                      for (size_t i = 0; i < self.grad.size(); ++i) {
                        const float y = self.value[i];
                        (*ga)[i] += self.grad[i] * (1.0f - y * y);
                      }
                    });
}

Tensor Sigmoid(const Tensor& a) {
  std::vector<float> out = AcquireBuffer(a.size());
  const auto& av = a.data();
  for (size_t i = 0; i < out.size(); ++i)
    out[i] = 1.0f / (1.0f + std::exp(-av[i]));
  return MakeResult(a.shape(), std::move(out), {a},
                    [a](TensorImpl& self) {
                      if (!WantsGrad(a)) return;
                      auto* ga = GradOf(a);
                      for (size_t i = 0; i < self.grad.size(); ++i) {
                        const float y = self.value[i];
                        (*ga)[i] += self.grad[i] * y * (1.0f - y);
                      }
                    });
}

Tensor Relu(const Tensor& a) {
  std::vector<float> out = AcquireBuffer(a.size());
  const auto& av = a.data();
  for (size_t i = 0; i < out.size(); ++i) out[i] = av[i] > 0 ? av[i] : 0.0f;
  return MakeResult(a.shape(), std::move(out), {a},
                    [a](TensorImpl& self) {
                      if (!WantsGrad(a)) return;
                      auto* ga = GradOf(a);
                      for (size_t i = 0; i < self.grad.size(); ++i) {
                        if (self.value[i] > 0) (*ga)[i] += self.grad[i];
                      }
                    });
}

Tensor Dropout(const Tensor& a, float p, util::Rng* rng, bool training) {
  if (!training || p <= 0.0f) return a;
  std::vector<float> mask = AcquireBuffer(a.size());
  DrawDropoutMask(p, rng, mask.data(), mask.size());
  return Dropout(a, std::move(mask));
}

void DrawDropoutMask(float p, util::Rng* rng, float* mask, size_t n) {
  IMR_CHECK(rng != nullptr);
  IMR_CHECK_GT(p, 0.0f);
  IMR_CHECK_LT(p, 1.0f);
  const float keep_scale = 1.0f / (1.0f - p);
  for (size_t i = 0; i < n; ++i) {
    mask[i] = rng->Bernoulli(p) ? 0.0f : keep_scale;
  }
}

Tensor Dropout(const Tensor& a, std::vector<float>&& mask_buffer) {
  IMR_CHECK_EQ(mask_buffer.size(), a.size());
  // The mask rides along in the backward closure; PooledFloats returns its
  // storage to the pool when the graph node dies.
  PooledFloats mask(std::move(mask_buffer));
  std::vector<float> out = AcquireBuffer(a.size());
  const auto& av = a.data();
  for (size_t i = 0; i < out.size(); ++i) out[i] = av[i] * mask[i];
  return MakeResult(a.shape(), std::move(out), {a},
                    [a, mask = std::move(mask)](TensorImpl& self) {
                      if (!WantsGrad(a)) return;
                      auto* ga = GradOf(a);
                      for (size_t i = 0; i < self.grad.size(); ++i)
                        (*ga)[i] += self.grad[i] * mask[i];
                    });
}

Tensor MatMul(const Tensor& a, const Tensor& b) {
  const bool lhs_vector = (a.rank() == 1);
  const int rows = lhs_vector ? 1 : a.shape()[0];
  const int inner = lhs_vector ? a.shape()[0] : a.shape()[1];
  IMR_CHECK_EQ(b.rank(), 2);
  IMR_CHECK_EQ(b.shape()[0], inner);
  const int cols = b.shape()[1];

  std::vector<float> out =
      AcquireBufferFill(static_cast<size_t>(rows) * cols, 0.0f);
  MatMulForwardInto(a.data().data(), b.data().data(), out.data(), rows, inner,
                    cols);
  std::vector<int> out_shape =
      lhs_vector ? std::vector<int>{cols} : std::vector<int>{rows, cols};
  return MakeResult(
      std::move(out_shape), std::move(out), {a, b},
      [a, b, rows, inner, cols](TensorImpl& self) {
        const float* gout = self.grad.data();
        if (WantsGrad(a)) {
          MatMulAccumGradA(gout, b.data().data(), GradOf(a)->data(), rows,
                           inner, cols);
        }
        if (WantsGrad(b)) {
          MatMulAccumGradB(gout, a.data().data(), GradOf(b)->data(), rows,
                           inner, cols);
        }
      });
}

Tensor AffineTanh(const Tensor& x, const Tensor& weight, const Tensor& bias) {
  const bool lhs_vector = (x.rank() == 1);
  const int rows = lhs_vector ? 1 : x.shape()[0];
  const int inner = lhs_vector ? x.shape()[0] : x.shape()[1];
  IMR_CHECK_EQ(weight.rank(), 2);
  IMR_CHECK_EQ(weight.shape()[0], inner);
  const int cols = weight.shape()[1];
  IMR_CHECK_EQ(static_cast<int>(bias.size()), cols);

  // Same MatMul kernel (and path selection) as the unfused composition; the
  // bias add and tanh fuse into one pass over the hot output instead of two
  // extra node allocations and three extra sweeps.
  std::vector<float> out =
      AcquireBufferFill(static_cast<size_t>(rows) * cols, 0.0f);
  MatMulForwardInto(x.data().data(), weight.data().data(), out.data(), rows,
                    inner, cols);
  simd::Active().affine_tanh_finish(out.data(), bias.data().data(), rows,
                                    cols);
  std::vector<int> out_shape =
      lhs_vector ? std::vector<int>{cols} : std::vector<int>{rows, cols};
  return MakeResult(
      std::move(out_shape), std::move(out), {x, weight, bias},
      [x, weight, bias, rows, inner, cols](TensorImpl& self) {
        // d(pre-tanh) = gy * (1 - y^2). The leading `0.0f +` reproduces the
        // unfused composition exactly: there Tanh's backward accumulates
        // into the Add node's zero-initialised grad, which washes any -0.0f
        // to +0.0f before it reaches the bias/matmul backward kernels.
        const size_t n = self.grad.size();
        PooledFloats g2(AcquireBuffer(n));
        const float* __restrict gy = self.grad.data();
        const float* __restrict y = self.value.data();
        float* __restrict g2v = g2.data();
        for (size_t i = 0; i < n; ++i) {
          g2v[i] = 0.0f + gy[i] * (1.0f - y[i] * y[i]);
        }
        if (WantsGrad(bias)) {
          // Row-sum in r-ascending order, exactly as AddRowVector's (or,
          // for rank-1 x, Add's) backward accumulates into the bias.
          float* __restrict gbv = GradOf(bias)->data();
          for (int r = 0; r < rows; ++r) {
            const float* __restrict grow = g2v + static_cast<size_t>(r) * cols;
            for (int c = 0; c < cols; ++c) gbv[c] += grow[c];
          }
        }
        if (WantsGrad(x)) {
          MatMulAccumGradA(g2v, weight.data().data(), GradOf(x)->data(), rows,
                           inner, cols);
        }
        if (WantsGrad(weight)) {
          MatMulAccumGradB(g2v, x.data().data(), GradOf(weight)->data(), rows,
                           inner, cols);
        }
      });
}

Tensor RowwiseAffine(const Tensor& x, const Tensor& weight,
                     const Tensor& bias) {
  IMR_CHECK(!GradModeEnabled());
  const bool lhs_vector = (x.rank() == 1);
  const int rows = lhs_vector ? 1 : x.shape()[0];
  const int inner = lhs_vector ? x.shape()[0] : x.shape()[1];
  IMR_CHECK_EQ(weight.rank(), 2);
  IMR_CHECK_EQ(weight.shape()[0], inner);
  const int cols = weight.shape()[1];
  IMR_CHECK_EQ(static_cast<int>(bias.size()), cols);

  // Always the ikj kernel: its per-element k-ascending sum does not depend
  // on the row count, which is what MatMul's 1-row calls run too.
  std::vector<float> out =
      AcquireBufferFill(static_cast<size_t>(rows) * cols, 0.0f);
  simd::Active().matmul_ikj(x.data().data(), weight.data().data(),
                            out.data(), rows, inner, cols);
  const float* bv = bias.data().data();
  for (int r = 0; r < rows; ++r) {
    float* orow = out.data() + static_cast<size_t>(r) * cols;
    for (int c = 0; c < cols; ++c) orow[c] += bv[c];
  }
  std::vector<int> out_shape =
      lhs_vector ? std::vector<int>{cols} : std::vector<int>{rows, cols};
  return MakeResult(std::move(out_shape), std::move(out), {}, nullptr);
}

Tensor AddRowVector(const Tensor& m, const Tensor& v) {
  const int rows = m.rows();
  const int cols = m.cols();
  IMR_CHECK_EQ(static_cast<int>(v.size()), cols);
  std::vector<float> out = AcquireBuffer(m.size());
  const auto& mv = m.data();
  const auto& vv = v.data();
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) {
      out[static_cast<size_t>(r) * cols + c] =
          mv[static_cast<size_t>(r) * cols + c] + vv[c];
    }
  }
  return MakeResult(m.shape(), std::move(out), {m, v},
                    [m, v, rows, cols](TensorImpl& self) {
                      if (WantsGrad(m)) {
                        auto* gm = GradOf(m);
                        for (size_t i = 0; i < self.grad.size(); ++i)
                          (*gm)[i] += self.grad[i];
                      }
                      if (WantsGrad(v)) {
                        auto* gv = GradOf(v);
                        for (int r = 0; r < rows; ++r)
                          for (int c = 0; c < cols; ++c)
                            (*gv)[c] +=
                                self.grad[static_cast<size_t>(r) * cols + c];
                      }
                    });
}

Tensor RowwiseDot(const Tensor& x, const Tensor& q) {
  IMR_CHECK_EQ(x.rank(), 2);
  const int rows = x.shape()[0];
  const int cols = x.shape()[1];
  IMR_CHECK_EQ(static_cast<int>(q.size()), cols);
  std::vector<float> out = AcquireBuffer(rows);  // every out[r] is assigned
  const auto& xv = x.data();
  const auto& qv = q.data();
  for (int r = 0; r < rows; ++r) {
    float acc = 0.0f;
    for (int c = 0; c < cols; ++c)
      acc += xv[static_cast<size_t>(r) * cols + c] * qv[c];
    out[r] = acc;
  }
  return MakeResult({rows}, std::move(out), {x, q},
                    [x, q, rows, cols](TensorImpl& self) {
                      const auto& xv = x.data();
                      const auto& qv = q.data();
                      if (WantsGrad(x)) {
                        auto* gx = GradOf(x);
                        for (int r = 0; r < rows; ++r)
                          for (int c = 0; c < cols; ++c)
                            (*gx)[static_cast<size_t>(r) * cols + c] +=
                                self.grad[r] * qv[c];
                      }
                      if (WantsGrad(q)) {
                        auto* gq = GradOf(q);
                        for (int r = 0; r < rows; ++r)
                          for (int c = 0; c < cols; ++c)
                            (*gq)[c] +=
                                self.grad[r] *
                                xv[static_cast<size_t>(r) * cols + c];
                      }
                    });
}

Tensor WeightedSumRows(const Tensor& x, const Tensor& w) {
  IMR_CHECK_EQ(x.rank(), 2);
  const int rows = x.shape()[0];
  const int cols = x.shape()[1];
  IMR_CHECK_EQ(static_cast<int>(w.size()), rows);
  std::vector<float> out = AcquireBufferFill(cols, 0.0f);
  const auto& xv = x.data();
  const auto& wv = w.data();
  for (int r = 0; r < rows; ++r)
    for (int c = 0; c < cols; ++c)
      out[c] += wv[r] * xv[static_cast<size_t>(r) * cols + c];
  return MakeResult({cols}, std::move(out), {x, w},
                    [x, w, rows, cols](TensorImpl& self) {
                      const auto& xv = x.data();
                      const auto& wv = w.data();
                      if (WantsGrad(x)) {
                        auto* gx = GradOf(x);
                        for (int r = 0; r < rows; ++r)
                          for (int c = 0; c < cols; ++c)
                            (*gx)[static_cast<size_t>(r) * cols + c] +=
                                wv[r] * self.grad[c];
                      }
                      if (WantsGrad(w)) {
                        auto* gw = GradOf(w);
                        for (int r = 0; r < rows; ++r) {
                          float acc = 0.0f;
                          for (int c = 0; c < cols; ++c)
                            acc += xv[static_cast<size_t>(r) * cols + c] *
                                   self.grad[c];
                          (*gw)[r] += acc;
                        }
                      }
                    });
}

Tensor Reshape(const Tensor& a, std::vector<int> shape) {
  size_t n = 1;
  for (int d : shape) n *= static_cast<size_t>(d);
  IMR_CHECK_EQ(n, a.size());
  std::vector<float> out = AcquireBuffer(a.size());
  std::copy(a.data().begin(), a.data().end(), out.begin());
  return MakeResult(std::move(shape), std::move(out), {a},
                    [a](TensorImpl& self) {
                      if (!WantsGrad(a)) return;
                      auto* ga = GradOf(a);
                      for (size_t i = 0; i < self.grad.size(); ++i)
                        (*ga)[i] += self.grad[i];
                    });
}

Tensor ConcatRows(const std::vector<Tensor>& parts) {
  IMR_CHECK(!parts.empty());
  const int cols = parts[0].cols();
  int total_rows = 0;
  for (const Tensor& p : parts) {
    IMR_CHECK_EQ(p.cols(), cols);
    total_rows += p.rows();
  }
  std::vector<float> out =
      AcquireBuffer(static_cast<size_t>(total_rows) * cols);
  size_t offset = 0;
  for (const Tensor& p : parts) {
    std::copy(p.data().begin(), p.data().end(), out.begin() + offset);
    offset += p.size();
  }
  return MakeResult({total_rows, cols}, std::move(out),
                    std::vector<Tensor>(parts), [parts](TensorImpl& self) {
                      size_t offset = 0;
                      for (const Tensor& p : parts) {
                        if (WantsGrad(p)) {
                          auto* gp = GradOf(p);
                          for (size_t i = 0; i < p.size(); ++i)
                            (*gp)[i] += self.grad[offset + i];
                        }
                        offset += p.size();
                      }
                    });
}

Tensor ConcatVec(const std::vector<Tensor>& parts) {
  IMR_CHECK(!parts.empty());
  int total = 0;
  for (const Tensor& p : parts) {
    IMR_CHECK_EQ(p.rank(), 1);
    total += p.shape()[0];
  }
  std::vector<float> out = AcquireBuffer(static_cast<size_t>(total));
  size_t offset = 0;
  for (const Tensor& p : parts) {
    std::copy(p.data().begin(), p.data().end(), out.begin() + offset);
    offset += p.size();
  }
  return MakeResult({total}, std::move(out), std::vector<Tensor>(parts),
                    [parts](TensorImpl& self) {
                      size_t offset = 0;
                      for (const Tensor& p : parts) {
                        if (WantsGrad(p)) {
                          auto* gp = GradOf(p);
                          for (size_t i = 0; i < p.size(); ++i)
                            (*gp)[i] += self.grad[offset + i];
                        }
                        offset += p.size();
                      }
                    });
}

Tensor ConcatCols(const std::vector<Tensor>& parts) {
  IMR_CHECK(!parts.empty());
  const int rows = parts[0].rows();
  int total_cols = 0;
  for (const Tensor& p : parts) {
    IMR_CHECK_EQ(p.rank(), 2);
    IMR_CHECK_EQ(p.rows(), rows);
    total_cols += p.cols();
  }
  std::vector<float> out =
      AcquireBuffer(static_cast<size_t>(rows) * total_cols);
  int col_offset = 0;
  for (const Tensor& p : parts) {
    const int cols = p.cols();
    const auto& pv = p.data();
    for (int r = 0; r < rows; ++r) {
      std::copy(pv.begin() + static_cast<size_t>(r) * cols,
                pv.begin() + static_cast<size_t>(r + 1) * cols,
                out.begin() + static_cast<size_t>(r) * total_cols +
                    col_offset);
    }
    col_offset += cols;
  }
  return MakeResult({rows, total_cols}, std::move(out),
                    std::vector<Tensor>(parts),
                    [parts, rows, total_cols](TensorImpl& self) {
                      int col_offset = 0;
                      for (const Tensor& p : parts) {
                        const int cols = p.cols();
                        if (WantsGrad(p)) {
                          auto* gp = GradOf(p);
                          for (int r = 0; r < rows; ++r)
                            for (int c = 0; c < cols; ++c)
                              (*gp)[static_cast<size_t>(r) * cols + c] +=
                                  self.grad[static_cast<size_t>(r) *
                                                total_cols +
                                            col_offset + c];
                        }
                        col_offset += cols;
                      }
                    });
}

Tensor Row(const Tensor& x, int r) {
  IMR_CHECK_EQ(x.rank(), 2);
  IMR_CHECK_GE(r, 0);
  IMR_CHECK_LT(r, x.shape()[0]);
  const int cols = x.shape()[1];
  std::vector<float> out = AcquireBuffer(static_cast<size_t>(cols));
  std::copy(x.data().begin() + static_cast<size_t>(r) * cols,
            x.data().begin() + static_cast<size_t>(r + 1) * cols,
            out.begin());
  return MakeResult({cols}, std::move(out), {x},
                    [x, r, cols](TensorImpl& self) {
                      if (!WantsGrad(x)) return;
                      auto* gx = GradOf(x);
                      for (int c = 0; c < cols; ++c)
                        (*gx)[static_cast<size_t>(r) * cols + c] +=
                            self.grad[c];
                    });
}

Tensor SliceRows(const Tensor& x, int start, int count) {
  IMR_CHECK_EQ(x.rank(), 2);
  IMR_CHECK_GE(start, 0);
  IMR_CHECK_GE(count, 0);
  IMR_CHECK_LE(start + count, x.shape()[0]);
  const int cols = x.shape()[1];
  const size_t offset = static_cast<size_t>(start) * cols;
  std::vector<float> out =
      AcquireBuffer(static_cast<size_t>(count) * cols);
  std::copy_n(x.data().begin() + static_cast<long>(offset), out.size(),
              out.begin());
  return MakeResult({count, cols}, std::move(out), {x},
                    [x, offset](TensorImpl& self) {
                      if (!WantsGrad(x)) return;
                      float* gx = GradOf(x)->data() + offset;
                      for (size_t i = 0; i < self.grad.size(); ++i)
                        gx[i] += self.grad[i];
                    });
}

Tensor Slice(const Tensor& v, int start, int len) {
  IMR_CHECK_EQ(v.rank(), 1);
  IMR_CHECK_GE(start, 0);
  IMR_CHECK_GE(len, 0);
  IMR_CHECK_LE(start + len, v.shape()[0]);
  std::vector<float> out = AcquireBuffer(static_cast<size_t>(len));
  std::copy(v.data().begin() + start, v.data().begin() + start + len,
            out.begin());
  return MakeResult({len}, std::move(out), {v},
                    [v, start, len](TensorImpl& self) {
                      if (!WantsGrad(v)) return;
                      auto* gv = GradOf(v);
                      for (int i = 0; i < len; ++i)
                        (*gv)[start + i] += self.grad[i];
                    });
}

namespace {

// GatherRows over `offsets` segments (empty: one segment).
Tensor GatherSegments(const Tensor& table, const std::vector<int>& indices,
                      const std::vector<int>& offsets) {
  IMR_CHECK_EQ(table.rank(), 2);
  const int vocab = table.shape()[0];
  const int dim = table.shape()[1];
  const int count = static_cast<int>(indices.size());
  // Let a lazily-updating optimizer replay deferred updates for these rows
  // before their values are read (keeps sparse == dense bit-identical).
  if (table.impl()->row_materializer) table.impl()->row_materializer(indices);
  std::vector<float> out =
      AcquireBuffer(indices.size() * static_cast<size_t>(dim));
  const auto& tv = table.data();
  for (size_t n = 0; n < indices.size(); ++n) {
    const int idx = indices[n];
    IMR_CHECK_GE(idx, 0);
    IMR_CHECK_LT(idx, vocab);
    std::copy(tv.begin() + static_cast<size_t>(idx) * dim,
              tv.begin() + static_cast<size_t>(idx + 1) * dim,
              out.begin() + n * dim);
  }
  if (!Records({&table})) {
    return MakeResult({count, dim}, std::move(out), {table}, nullptr);
  }
  return MakeResult(
      {count, dim}, std::move(out), {table},
      [table, indices, offsets, count, dim](TensorImpl& self) {
        // Row-tracked accumulation: a row-sparse table (see
        // Tensor::set_row_sparse_grad) records exactly these rows so
        // ZeroGrad / merge / optimizers never walk the untouched remainder
        // of the vocab.
        auto* gt = internal::GradTargetRows(table.impl(), indices);
        const SegmentView segments{offsets, count};
        for (int s = segments.count() - 1; s >= 0; --s) {
          for (int n = segments.begin(s); n < segments.end(s); ++n) {
            const size_t dst =
                static_cast<size_t>(indices[static_cast<size_t>(n)]) * dim;
            const size_t src = static_cast<size_t>(n) * dim;
            for (int c = 0; c < dim; ++c)
              (*gt)[dst + c] += self.grad[src + c];
          }
        }
      });
}

}  // namespace

Tensor GatherRows(const Tensor& table, const std::vector<int>& indices) {
  return GatherSegments(table, indices, {});
}

Tensor GatherRows(const Tensor& table, const std::vector<int>& indices,
                  const std::vector<int>& offsets) {
  CheckOffsets(offsets, static_cast<int>(indices.size()));
  return GatherSegments(table, indices, offsets);
}

Tensor Sum(const Tensor& a) {
  float acc = 0.0f;
  for (float v : a.data()) acc += v;
  std::vector<float> out = AcquireBuffer(1);
  out[0] = acc;
  return MakeResult({1}, std::move(out), {a}, [a](TensorImpl& self) {
    if (!WantsGrad(a)) return;
    auto* ga = GradOf(a);
    for (size_t i = 0; i < ga->size(); ++i) (*ga)[i] += self.grad[0];
  });
}

Tensor Mean(const Tensor& a) {
  IMR_CHECK_GT(a.size(), 0u);
  float acc = 0.0f;
  for (float v : a.data()) acc += v;
  const float inv = 1.0f / static_cast<float>(a.size());
  std::vector<float> out = AcquireBuffer(1);
  out[0] = acc * inv;
  return MakeResult({1}, std::move(out), {a}, [a, inv](TensorImpl& self) {
    if (!WantsGrad(a)) return;
    auto* ga = GradOf(a);
    for (size_t i = 0; i < ga->size(); ++i) (*ga)[i] += self.grad[0] * inv;
  });
}

Tensor SumRows(const Tensor& x) {
  IMR_CHECK_EQ(x.rank(), 2);
  const int rows = x.shape()[0];
  const int cols = x.shape()[1];
  std::vector<float> out = AcquireBufferFill(cols, 0.0f);
  const auto& xv = x.data();
  for (int r = 0; r < rows; ++r)
    for (int c = 0; c < cols; ++c)
      out[c] += xv[static_cast<size_t>(r) * cols + c];
  return MakeResult({cols}, std::move(out), {x},
                    [x, rows, cols](TensorImpl& self) {
                      if (!WantsGrad(x)) return;
                      auto* gx = GradOf(x);
                      for (int r = 0; r < rows; ++r)
                        for (int c = 0; c < cols; ++c)
                          (*gx)[static_cast<size_t>(r) * cols + c] +=
                              self.grad[c];
                    });
}

Tensor MeanRows(const Tensor& x) {
  IMR_CHECK_EQ(x.rank(), 2);
  IMR_CHECK_GT(x.shape()[0], 0);
  return Scale(SumRows(x), 1.0f / static_cast<float>(x.shape()[0]));
}

Tensor MaxOverRows(const Tensor& x) {
  IMR_CHECK_EQ(x.rank(), 2);
  const int rows = x.shape()[0];
  const int cols = x.shape()[1];
  IMR_CHECK_GT(rows, 0);
  std::vector<float> out =
      AcquireBufferFill(cols, -std::numeric_limits<float>::infinity());
  std::vector<int> argmax(cols, 0);
  const auto& xv = x.data();
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) {
      const float v = xv[static_cast<size_t>(r) * cols + c];
      if (v > out[c]) {
        out[c] = v;
        argmax[c] = r;
      }
    }
  }
  return MakeResult({cols}, std::move(out), {x},
                    [x, argmax = std::move(argmax), cols](TensorImpl& self) {
                      if (!WantsGrad(x)) return;
                      auto* gx = GradOf(x);
                      for (int c = 0; c < cols; ++c)
                        (*gx)[static_cast<size_t>(argmax[c]) * cols + c] +=
                            self.grad[c];
                    });
}

namespace {

// PiecewiseMaxOverRows over `offsets` segments (empty: one segment), with
// two piece bounds per segment in `splits`; the output has 3 * cols floats
// per segment and the shape `out_shape`.
Tensor PiecewiseMaxSegments(const Tensor& x, const std::vector<int>& offsets,
                            const int* splits, std::vector<int> out_shape) {
  IMR_CHECK_EQ(x.rank(), 2);
  const int rows = x.shape()[0];
  const int cols = x.shape()[1];
  const SegmentView segments{offsets, rows};
  const int count = segments.count();
  const size_t out_cols = 3 * static_cast<size_t>(cols);
  std::vector<float> out =
      AcquireBufferFill(static_cast<size_t>(count) * out_cols, 0.0f);
  const bool record = Records({&x});
  // argmax = -1 marks an empty piece (output stays 0, no gradient). Only a
  // recording forward needs it.
  std::vector<int> argmax;
  if (record) argmax.assign(static_cast<size_t>(count) * out_cols, -1);
  const auto& xv = x.data();
  for (int s = 0; s < count; ++s) {
    const int first = segments.begin(s);
    const int time = segments.end(s) - first;
    const int b1 = splits[2 * s];
    const int b2 = splits[2 * s + 1];
    IMR_CHECK_GE(b1, 0);
    IMR_CHECK_LE(b1, b2);
    IMR_CHECK_LE(b2, time);
    const int bounds[4] = {first, first + b1, first + b2, first + time};
    for (int piece = 0; piece < 3; ++piece) {
      const int lo = bounds[piece];
      const int hi = bounds[piece + 1];
      if (lo >= hi) continue;
      const size_t base =
          static_cast<size_t>(s) * out_cols + static_cast<size_t>(piece) * cols;
      for (int c = 0; c < cols; ++c) {
        float best = -std::numeric_limits<float>::infinity();
        int best_r = lo;
        for (int r = lo; r < hi; ++r) {
          const float v = xv[static_cast<size_t>(r) * cols + c];
          if (v > best) {
            best = v;
            best_r = r;
          }
        }
        out[base + c] = best;
        if (record) argmax[base + c] = best_r;
      }
    }
  }
  if (!record) {
    return MakeResult(std::move(out_shape), std::move(out), {x}, nullptr);
  }
  return MakeResult(
      std::move(out_shape), std::move(out), {x},
      [x, argmax = std::move(argmax), cols, count,
       out_cols](TensorImpl& self) {
        if (!WantsGrad(x)) return;
        auto* gx = GradOf(x);
        for (int s = count - 1; s >= 0; --s) {
          const size_t base = static_cast<size_t>(s) * out_cols;
          for (size_t i = 0; i < out_cols; ++i) {
            const int r = argmax[base + i];
            if (r < 0) continue;
            const size_t c = i % cols;
            (*gx)[static_cast<size_t>(r) * cols + c] += self.grad[base + i];
          }
        }
      });
}

}  // namespace

Tensor PiecewiseMaxOverRows(const Tensor& x, int b1, int b2) {
  IMR_CHECK_EQ(x.rank(), 2);
  const int splits[2] = {b1, b2};
  return PiecewiseMaxSegments(x, {}, splits, {3 * x.shape()[1]});
}

Tensor PiecewiseMaxOverRows(const Tensor& x, const std::vector<int>& offsets,
                            const std::vector<int>& splits) {
  IMR_CHECK_EQ(x.rank(), 2);
  CheckOffsets(offsets, x.shape()[0]);
  const int count = static_cast<int>(offsets.size()) - 1;
  IMR_CHECK_EQ(splits.size(), 2 * static_cast<size_t>(count));
  return PiecewiseMaxSegments(x, offsets, splits.data(),
                              {count, 3 * x.shape()[1]});
}

Tensor Softmax(const Tensor& x) {
  const int rows = x.rows();
  const int cols = x.cols();
  std::vector<float> out = AcquireBuffer(x.size());
  simd::Active().softmax_rows(x.data().data(), out.data(), rows, cols);
  return MakeResult(
      x.shape(), std::move(out), {x}, [x, rows, cols](TensorImpl& self) {
        if (!WantsGrad(x)) return;
        auto* gx = GradOf(x);
        for (int r = 0; r < rows; ++r) {
          const float* y = self.value.data() + static_cast<size_t>(r) * cols;
          const float* gy = self.grad.data() + static_cast<size_t>(r) * cols;
          float dot = 0.0f;
          for (int c = 0; c < cols; ++c) dot += y[c] * gy[c];
          float* grow = gx->data() + static_cast<size_t>(r) * cols;
          for (int c = 0; c < cols; ++c) grow[c] += y[c] * (gy[c] - dot);
        }
      });
}

Tensor LogSoftmax(const Tensor& x) {
  const int rows = x.rows();
  const int cols = x.cols();
  std::vector<float> out = AcquireBuffer(x.size());
  simd::Active().log_softmax_rows(x.data().data(), out.data(), rows, cols);
  return MakeResult(
      x.shape(), std::move(out), {x}, [x, rows, cols](TensorImpl& self) {
        if (!WantsGrad(x)) return;
        auto* gx = GradOf(x);
        for (int r = 0; r < rows; ++r) {
          const float* y = self.value.data() + static_cast<size_t>(r) * cols;
          const float* gy = self.grad.data() + static_cast<size_t>(r) * cols;
          float sum_g = 0.0f;
          for (int c = 0; c < cols; ++c) sum_g += gy[c];
          float* grow = gx->data() + static_cast<size_t>(r) * cols;
          for (int c = 0; c < cols; ++c)
            grow[c] += gy[c] - std::exp(y[c]) * sum_g;
        }
      });
}

Tensor CrossEntropyLoss(const Tensor& logits,
                        const std::vector<int>& labels) {
  const int rows = logits.rows();
  const int cols = logits.cols();
  IMR_CHECK_EQ(static_cast<size_t>(rows), labels.size());
  // Fused log-softmax + NLL: one softmax pass produces the probabilities the
  // backward needs, and the loss reads only the label entries — no LogSoftmax
  // node, no Gather node, no second pass over the logits. The probabilities
  // ride along in the closure as pooled scratch.
  PooledFloats probs(AcquireBuffer(logits.size()));
  simd::Active().softmax_rows(logits.data().data(), probs.data(), rows, cols);
  float loss = 0.0f;
  for (int r = 0; r < rows; ++r) {
    const int label = labels[r];
    IMR_CHECK_GE(label, 0);
    IMR_CHECK_LT(label, cols);
    const float p = probs[static_cast<size_t>(r) * cols + label];
    loss -= std::log(std::max(p, 1e-12f));
  }
  loss /= static_cast<float>(rows);
  std::vector<float> out = AcquireBuffer(1);
  out[0] = loss;
  return MakeResult(
      {1}, std::move(out), {logits},
      [logits, labels, probs = std::move(probs), rows,
       cols](TensorImpl& self) {
        if (!WantsGrad(logits)) return;
        auto* gx = GradOf(logits);
        const float scale = self.grad[0] / static_cast<float>(rows);
        for (int r = 0; r < rows; ++r) {
          const float* __restrict prow =
              probs.data() + static_cast<size_t>(r) * cols;
          float* __restrict grow = gx->data() + static_cast<size_t>(r) * cols;
          for (int c = 0; c < cols; ++c) grow[c] += scale * prow[c];
          grow[labels[r]] -= scale;
        }
      });
}

namespace {

// Conv1dSame over `offsets` segments (empty: one segment).
Tensor ConvSegments(const Tensor& x, const Tensor& weight, const Tensor& bias,
                    int window, const std::vector<int>& offsets) {
  IMR_CHECK_EQ(x.rank(), 2);
  IMR_CHECK_EQ(weight.rank(), 2);
  IMR_CHECK_EQ(window % 2, 1);
  const int time = x.shape()[0];
  const int dim = x.shape()[1];
  const int filters = weight.shape()[0];
  const int inner = window * dim;
  IMR_CHECK_EQ(weight.shape()[1], inner);
  IMR_CHECK_EQ(static_cast<int>(bias.size()), filters);
  const int half = window / 2;

  // The conv entries are [exact], so training and eval compute the same
  // floats on every backend; only the speed follows the table.
  const simd::Kernels& kernels = simd::Active();
  std::vector<float> out =
      AcquireBuffer(static_cast<size_t>(time) * filters);
  const float* xv = x.data().data();
  const float* wv = weight.data().data();
  const float* bv = bias.data().data();
  // Packed once for every segment.
  PooledFloats packed(AcquireBuffer(static_cast<size_t>(filters) * inner));
  kernels.conv1d_pack(wv, filters, inner, packed.data());
  const float* pv = packed.data();
  const SegmentView segments{offsets, time};
  // Each output row t is produced wholly by the chunk that owns t, with the
  // per-row arithmetic of the scalar kernel run on t's segment alone, so
  // the result is bit-identical at any thread count.
  auto forward_rows = [&](int64_t t_lo, int64_t t_hi) {
    for (int s = segments.Find(t_lo); t_lo < t_hi; ++s) {
      const int first = segments.begin(s);
      const int last = segments.end(s);
      const int64_t stop = std::min<int64_t>(t_hi, last);
      kernels.conv1d_rows(xv + static_cast<size_t>(first) * dim, wv, pv, bv,
                          out.data() + static_cast<size_t>(first) * filters,
                          last - first, dim, filters, window, t_lo - first,
                          stop - first);
      t_lo = stop;
    }
  };
  const int64_t row_macs = static_cast<int64_t>(filters) * inner;
  if (time >= 2 && row_macs * time >= kConvParallelMacs) {
    util::GlobalPool().ParallelFor(0, time, ConvGrain(row_macs),
                                   forward_rows);
  } else {
    forward_rows(0, time);
  }
  if (!Records({&x, &weight, &bias})) {
    return MakeResult({time, filters}, std::move(out), {x, weight, bias},
                      nullptr);
  }
  return MakeResult(
      {time, filters}, std::move(out), {x, weight, bias},
      [x, weight, bias, window, time, dim, filters, inner, half,
       offsets](TensorImpl& self) {
        const simd::Kernels& kernels = simd::Active();
        const float* gout = self.grad.data();
        const float* xv = x.data().data();
        const float* wv = weight.data().data();
        const SegmentView segments{offsets, time};
        const int count_segments = segments.count();
        // After the piecewise max pool at most three rows per filter carry
        // gradient, so nearly every (t, f) entry of gout is zero. Compact
        // the nonzero ones once, row by row with f ascending; the test is
        // the scalar kernel's (`g == 0.0f` skips -0.0f and keeps NaN).
        // The list grows to the entries found (at most three rows per
        // filter and segment), not to time x filters, so a thread that
        // once ran a long batch keeps no batch-sized scratch.
        ConvGradRows& nz = ThreadConvGradRows();
        nz.row_begin.resize(static_cast<size_t>(time) + 1);
        nz.filter.clear();
        for (int t = 0; t < time; ++t) {
          nz.row_begin[static_cast<size_t>(t)] =
              static_cast<int>(nz.filter.size());
          const float* grow = gout + static_cast<size_t>(t) * filters;
          for (int f = 0; f < filters; ++f) {
            if (grow[f] != 0.0f) nz.filter.push_back(f);
          }
        }
        const int count = static_cast<int>(nz.filter.size());
        nz.row_begin[static_cast<size_t>(time)] = count;
        const int* row_begin = nz.row_begin.data();
        const int* nz_filter = nz.filter.data();
        // Backward runs as owner-computes passes (weight sharded over
        // filters, input over source rows). Each walks the segments last to
        // first and reproduces the scalar kernel's per-element sequence
        // within a segment — t ascends, then f, for every (f), (f,w,d) and
        // (src,d) destination — so gradients are bit-identical at any
        // thread count, on every backend (axpy is [exact]) and to one conv
        // per segment.
        const int64_t backward_macs = static_cast<int64_t>(count) * inner;
        const bool parallel = backward_macs >= kConvParallelMacs;
        if (WantsGrad(bias)) {
          // Skipping the zeros is exact: a gradient buffer starts at +0.0f
          // and a sum that starts at +0.0f is never -0.0f, so adding a
          // zero would leave it unchanged.
          float* gbv = GradOf(bias)->data();
          for (int s = count_segments - 1; s >= 0; --s) {
            for (int t = segments.begin(s); t < segments.end(s); ++t) {
              const float* grow = gout + static_cast<size_t>(t) * filters;
              for (int k = row_begin[t]; k < row_begin[t + 1]; ++k) {
                gbv[nz_filter[k]] += grow[nz_filter[k]];
              }
            }
          }
        }
        if (WantsGrad(weight)) {
          float* gwv = GradOf(weight)->data();
          // For one (t, f) the in-range window positions [w_lo, w_hi) read
          // consecutive source rows of t's segment and write consecutive
          // (w, d) entries of gw's row f, so the whole window is one axpy.
          auto gw_filters = [&](int64_t f_lo, int64_t f_hi) {
            for (int s = count_segments - 1; s >= 0; --s) {
              const int first = segments.begin(s);
              const int seg_time = segments.end(s) - first;
              for (int t = 0; t < seg_time; ++t) {
                const int w_lo = std::max(0, half - t);
                const int w_hi = std::min(window, seg_time - t + half);
                const int row = first + t;
                const float* grow = gout + static_cast<size_t>(row) * filters;
                const float* xsrc =
                    xv + static_cast<size_t>(row + w_lo - half) * dim;
                for (int k = row_begin[row]; k < row_begin[row + 1]; ++k) {
                  const int f = nz_filter[k];
                  if (f < f_lo || f >= f_hi) continue;
                  kernels.axpy(grow[f], xsrc,
                               gwv + static_cast<size_t>(f) * inner +
                                   static_cast<size_t>(w_lo) * dim,
                               static_cast<size_t>(w_hi - w_lo) * dim);
                }
              }
            }
          };
          if (parallel && filters >= 2) {
            util::GlobalPool().ParallelFor(
                0, filters, ConvGrain(backward_macs / filters), gw_filters);
          } else {
            gw_filters(0, filters);
          }
        }
        if (WantsGrad(x)) {
          float* gxv = GradOf(x)->data();
          // Source rows [src_lo, src_hi) of a segment take terms from its t
          // in [src_lo - half, src_hi + half) through window positions
          // w = src - t + half; walking t up (then f) reproduces the scalar
          // kernel's t-ascending order into every gx[src, d], and the
          // in-range positions again form one contiguous axpy. Segments
          // never write each other's rows.
          auto gx_rows = [&](int64_t src_lo, int64_t src_hi) {
            for (int s = segments.Find(src_hi - 1);
                 s >= 0 && segments.end(s) > src_lo; --s) {
              const int first = segments.begin(s);
              const int seg_time = segments.end(s) - first;
              const int lo =
                  static_cast<int>(std::max<int64_t>(src_lo, first)) - first;
              const int hi = static_cast<int>(std::min<int64_t>(
                                 src_hi, first + seg_time)) -
                             first;
              for (int t = std::max(0, lo - half);
                   t < std::min(seg_time, hi + half); ++t) {
                const int w_lo = std::max(0, lo - t + half);
                const int w_hi = std::min(window, hi - t + half);
                const int row = first + t;
                const float* grow = gout + static_cast<size_t>(row) * filters;
                float* gxdst =
                    gxv + static_cast<size_t>(row + w_lo - half) * dim;
                for (int k = row_begin[row]; k < row_begin[row + 1]; ++k) {
                  const int f = nz_filter[k];
                  kernels.axpy(grow[f],
                               wv + static_cast<size_t>(f) * inner +
                                   static_cast<size_t>(w_lo) * dim,
                               gxdst, static_cast<size_t>(w_hi - w_lo) * dim);
                }
              }
            }
          };
          if (parallel && time >= 2) {
            util::GlobalPool().ParallelFor(
                0, time, ConvGrain(backward_macs / time), gx_rows);
          } else {
            gx_rows(0, time);
          }
        }
      });
}

}  // namespace

Tensor Conv1dSame(const Tensor& x, const Tensor& weight, const Tensor& bias,
                  int window) {
  return ConvSegments(x, weight, bias, window, {});
}

Tensor Conv1dSame(const Tensor& x, const Tensor& weight, const Tensor& bias,
                  int window, const std::vector<int>& offsets) {
  IMR_CHECK_EQ(x.rank(), 2);
  CheckOffsets(offsets, x.shape()[0]);
  return ConvSegments(x, weight, bias, window, offsets);
}

}  // namespace imr::tensor
