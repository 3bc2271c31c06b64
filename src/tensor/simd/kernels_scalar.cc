// Scalar reference kernels: the exact loops ops.cc ran before the SIMD
// backend existed. These are the bit-identity baseline — training gates
// compare against them, so DO NOT "optimize" this file. Any change here
// changes training results. Built with -ffp-contract=off (see
// src/CMakeLists.txt), so no multiply and add is ever fused into an FMA.
#include <algorithm>
#include <cmath>
#include <limits>

#include "tensor/simd/dispatch.h"
#include "tensor/simd/kernels_internal.h"

namespace imr::tensor::simd {
namespace {

// Column tile for the packed dot kernel: one tile of B^T rows stays hot in
// L1/L2 while it is reused across a panel of output rows. (Tiling changes
// traversal order only, never a per-element accumulation sequence.)
constexpr int kPanelColTile = 64;

void AddScalarKernel(const float* a, const float* b, float* out, size_t n) {
  for (size_t i = 0; i < n; ++i) out[i] = a[i] + b[i];
}

void SubScalarKernel(const float* a, const float* b, float* out, size_t n) {
  for (size_t i = 0; i < n; ++i) out[i] = a[i] - b[i];
}

void MulScalarKernel(const float* a, const float* b, float* out, size_t n) {
  for (size_t i = 0; i < n; ++i) out[i] = a[i] * b[i];
}

void ScaleScalarKernel(const float* a, float s, float* out, size_t n) {
  for (size_t i = 0; i < n; ++i) out[i] = a[i] * s;
}

void AxpyScalar(float a, const float* x, float* y, size_t n) {
  for (size_t i = 0; i < n; ++i) y[i] += a * x[i];
}

// The scalar conv reads `weight` in its own layout; nothing to pack.
void Conv1dPackScalar(const float*, int, int, float*) {}

// The loop tensor::Conv1dSame ran before the conv joined the table.
void Conv1dRowsScalar(const float* x, const float* weight, const float*,
                      const float* bias, float* out, int time, int dim,
                      int filters, int window, int64_t t_lo, int64_t t_hi) {
  const int half = window / 2;
  for (int64_t t = t_lo; t < t_hi; ++t) {
    float* orow = out + static_cast<size_t>(t) * filters;
    for (int f = 0; f < filters; ++f) orow[f] = bias[f];
    for (int w = 0; w < window; ++w) {
      const int src = static_cast<int>(t) + w - half;
      if (src < 0 || src >= time) continue;  // zero padding
      const float* xrow = x + static_cast<size_t>(src) * dim;
      // weight layout: [f][w*dim + d]
      for (int f = 0; f < filters; ++f) {
        const float* wrow = weight + static_cast<size_t>(f) * window * dim +
                            static_cast<size_t>(w) * dim;
        float acc = 0.0f;
        for (int d = 0; d < dim; ++d) acc += xrow[d] * wrow[d];
        orow[f] += acc;
      }
    }
  }
}

void TanhScalarKernel(const float* x, float* out, size_t n) {
  for (size_t i = 0; i < n; ++i) out[i] = std::tanh(x[i]);
}

void AffineTanhFinishScalar(float* inout, const float* bias, int rows,
                            int cols) {
  for (int r = 0; r < rows; ++r) {
    float* __restrict orow = inout + static_cast<size_t>(r) * cols;
    for (int c = 0; c < cols; ++c) orow[c] = std::tanh(orow[c] + bias[c]);
  }
}

// out[i, j] = sum_k a[i, k] * bt[j, k] for i in [row_lo, row_hi), all j.
// k ascends and zero a-operands are skipped, matching the original ikj
// kernel's per-element accumulation sequence exactly.
void MatMulPanelDotScalar(const float* av, const float* bt, float* out,
                          int64_t row_lo, int64_t row_hi, int inner,
                          int cols) {
  for (int j0 = 0; j0 < cols; j0 += kPanelColTile) {
    const int j_end = std::min(cols, j0 + kPanelColTile);
    for (int64_t i = row_lo; i < row_hi; ++i) {
      const float* arow = av + static_cast<size_t>(i) * inner;
      float* orow = out + static_cast<size_t>(i) * cols;
      for (int j = j0; j < j_end; ++j) {
        const float* btrow = bt + static_cast<size_t>(j) * inner;
        float acc = 0.0f;
        for (int k = 0; k < inner; ++k) {
          const float aval = arow[k];
          if (aval == 0.0f) continue;
          acc += aval * btrow[k];
        }
        orow[j] = acc;
      }
    }
  }
}

// ikj ordering: streams through b row-wise. out is pre-zeroed.
void MatMulIkjScalar(const float* av, const float* bv, float* out, int rows,
                     int inner, int cols) {
  for (int i = 0; i < rows; ++i) {
    const float* __restrict arow = av + static_cast<size_t>(i) * inner;
    float* __restrict orow = out + static_cast<size_t>(i) * cols;
    for (int k = 0; k < inner; ++k) {
      const float aval = arow[k];
      if (aval == 0.0f) continue;
      const float* __restrict brow = bv + static_cast<size_t>(k) * cols;
      for (int j = 0; j < cols; ++j) orow[j] += aval * brow[j];
    }
  }
}

void SoftmaxRowsScalar(const float* in, float* out, int rows, int cols) {
  for (int r = 0; r < rows; ++r) {
    const float* irow = in + static_cast<size_t>(r) * cols;
    float* orow = out + static_cast<size_t>(r) * cols;
    float max_v = -std::numeric_limits<float>::infinity();
    for (int c = 0; c < cols; ++c) max_v = std::max(max_v, irow[c]);
    float denom = 0.0f;
    for (int c = 0; c < cols; ++c) {
      orow[c] = std::exp(irow[c] - max_v);
      denom += orow[c];
    }
    const float inv = 1.0f / denom;
    for (int c = 0; c < cols; ++c) orow[c] *= inv;
  }
}

void LogSoftmaxRowsScalar(const float* in, float* out, int rows, int cols) {
  for (int r = 0; r < rows; ++r) {
    const float* irow = in + static_cast<size_t>(r) * cols;
    float* orow = out + static_cast<size_t>(r) * cols;
    float max_v = -std::numeric_limits<float>::infinity();
    for (int c = 0; c < cols; ++c) max_v = std::max(max_v, irow[c]);
    float denom = 0.0f;
    for (int c = 0; c < cols; ++c) denom += std::exp(irow[c] - max_v);
    const float log_denom = max_v + std::log(denom);
    for (int c = 0; c < cols; ++c) orow[c] = irow[c] - log_denom;
  }
}

void GemmS8S32Scalar(const int8_t* a, const int8_t* wt, int32_t* out,
                     int rows, int inner, int cols) {
  for (int i = 0; i < rows; ++i) {
    const int8_t* __restrict arow = a + static_cast<size_t>(i) * inner;
    int32_t* __restrict orow = out + static_cast<size_t>(i) * cols;
    for (int j = 0; j < cols; ++j) {
      const int8_t* __restrict wrow = wt + static_cast<size_t>(j) * inner;
      int32_t acc = 0;
      for (int k = 0; k < inner; ++k) {
        acc += static_cast<int32_t>(arow[k]) * static_cast<int32_t>(wrow[k]);
      }
      orow[j] = acc;
    }
  }
}

// ANN sweep kernels. Ascending-k sequential float accumulation is the
// exactness contract FlatIndex tests compare against — keep it.
void AnnDotManyScalar(const float* query, const float* base, size_t rows,
                      size_t dim, float* out) {
  for (size_t r = 0; r < rows; ++r) {
    const float* __restrict row = base + r * dim;
    float acc = 0.0f;
    for (size_t k = 0; k < dim; ++k) acc += query[k] * row[k];
    out[r] = acc;
  }
}

void AnnL2SqrManyScalar(const float* query, const float* base, size_t rows,
                        size_t dim, float* out) {
  for (size_t r = 0; r < rows; ++r) {
    const float* __restrict row = base + r * dim;
    float acc = 0.0f;
    for (size_t k = 0; k < dim; ++k) {
      const float d = query[k] - row[k];
      acc += d * d;
    }
    out[r] = acc;
  }
}

void AnnCosineManyScalar(const float* query, const float* base,
                         const float* inv_norms, float query_inv_norm,
                         size_t rows, size_t dim, float* out) {
  for (size_t r = 0; r < rows; ++r) {
    const float* __restrict row = base + r * dim;
    float acc = 0.0f;
    for (size_t k = 0; k < dim; ++k) acc += query[k] * row[k];
    out[r] = acc * inv_norms[r] * query_inv_norm;
  }
}

void AnnDotBatchScalar(const float* queries, size_t num_queries,
                       const float* base, size_t rows, size_t dim,
                       float* out) {
  for (size_t q = 0; q < num_queries; ++q) {
    AnnDotManyScalar(queries + q * dim, base, rows, dim, out + q * rows);
  }
}

const Kernels kScalarTable = {
    .backend = Backend::kScalar,
    .add = AddScalarKernel,
    .sub = SubScalarKernel,
    .mul = MulScalarKernel,
    .scale = ScaleScalarKernel,
    .axpy = AxpyScalar,
    .conv1d_pack = Conv1dPackScalar,
    .conv1d_rows = Conv1dRowsScalar,
    .gemm_s8s32 = GemmS8S32Scalar,
    .tanh = TanhScalarKernel,
    .affine_tanh_finish = AffineTanhFinishScalar,
    .matmul_panel_dot = MatMulPanelDotScalar,
    .matmul_ikj = MatMulIkjScalar,
    .softmax_rows = SoftmaxRowsScalar,
    .log_softmax_rows = LogSoftmaxRowsScalar,
    .ann_dot_many = AnnDotManyScalar,
    .ann_l2sqr_many = AnnL2SqrManyScalar,
    .ann_cosine_many = AnnCosineManyScalar,
    .ann_dot_batch = AnnDotBatchScalar,
};

}  // namespace

const Kernels* ScalarKernels() { return &kScalarTable; }

}  // namespace imr::tensor::simd
