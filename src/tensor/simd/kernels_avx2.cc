// AVX2+FMA kernels. This translation unit is compiled with -mavx2 -mfma
// (see src/CMakeLists.txt); nothing outside src/tensor/simd/ may touch
// intrinsics (imr_lint raw-intrinsics rule), and this table is only
// reachable after __builtin_cpu_supports("avx2") at dispatch init. The
// [exact] elementwise, axpy and conv kernels are in kernels_avx2_exact.cc,
// which is built without -mfma; this table leaves those entries null.
//
// Numerics: tanh/exp evaluate the shared polynomials from vec_math.h with
// FMA; loop tails use the scalar polynomial evaluators so every element of
// a result obeys the same documented error bound. Dot-product reductions
// use 8-lane accumulators (reassociated relative to the scalar reference;
// deterministic for a fixed shape). The int8 GEMM is pure integer
// arithmetic and bit-identical to the scalar reference.
#include "tensor/simd/dispatch.h"
#include "tensor/simd/kernels_internal.h"
#include "tensor/simd/vec_math.h"

#if defined(__AVX2__) && defined(__FMA__)

#include <immintrin.h>

#include <algorithm>
#include <cmath>
#include <limits>

namespace imr::tensor::simd {
namespace {

inline __m256 Tanh8(__m256 x) {
  const __m256 clamp = _mm256_set1_ps(kTanhClamp);
  x = _mm256_max_ps(_mm256_min_ps(x, clamp),
                    _mm256_sub_ps(_mm256_setzero_ps(), clamp));
  const __m256 x2 = _mm256_mul_ps(x, x);
  __m256 p = _mm256_set1_ps(kTanhAlpha[6]);
  p = _mm256_fmadd_ps(p, x2, _mm256_set1_ps(kTanhAlpha[5]));
  p = _mm256_fmadd_ps(p, x2, _mm256_set1_ps(kTanhAlpha[4]));
  p = _mm256_fmadd_ps(p, x2, _mm256_set1_ps(kTanhAlpha[3]));
  p = _mm256_fmadd_ps(p, x2, _mm256_set1_ps(kTanhAlpha[2]));
  p = _mm256_fmadd_ps(p, x2, _mm256_set1_ps(kTanhAlpha[1]));
  p = _mm256_fmadd_ps(p, x2, _mm256_set1_ps(kTanhAlpha[0]));
  p = _mm256_mul_ps(p, x);
  __m256 q = _mm256_set1_ps(kTanhBeta[3]);
  q = _mm256_fmadd_ps(q, x2, _mm256_set1_ps(kTanhBeta[2]));
  q = _mm256_fmadd_ps(q, x2, _mm256_set1_ps(kTanhBeta[1]));
  q = _mm256_fmadd_ps(q, x2, _mm256_set1_ps(kTanhBeta[0]));
  return _mm256_div_ps(p, q);
}

inline __m256 Exp8(__m256 x) {
  x = _mm256_min_ps(x, _mm256_set1_ps(kExpHi));
  x = _mm256_max_ps(x, _mm256_set1_ps(kExpLo));
  __m256 fx = _mm256_fmadd_ps(x, _mm256_set1_ps(kLog2E),
                              _mm256_set1_ps(0.5f));
  fx = _mm256_floor_ps(fx);
  x = _mm256_fnmadd_ps(fx, _mm256_set1_ps(kExpC1), x);
  x = _mm256_fnmadd_ps(fx, _mm256_set1_ps(kExpC2), x);
  const __m256 z = _mm256_mul_ps(x, x);
  __m256 y = _mm256_set1_ps(kExpP[0]);
  y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(kExpP[1]));
  y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(kExpP[2]));
  y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(kExpP[3]));
  y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(kExpP[4]));
  y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(kExpP[5]));
  y = _mm256_fmadd_ps(y, z, _mm256_add_ps(x, _mm256_set1_ps(1.0f)));
  const __m256i n = _mm256_cvttps_epi32(fx);
  const __m256i pow2n = _mm256_slli_epi32(
      _mm256_add_epi32(n, _mm256_set1_epi32(127)), 23);
  return _mm256_mul_ps(y, _mm256_castsi256_ps(pow2n));
}

inline float Hsum8(__m256 v) {
  const __m128 lo = _mm256_castps256_ps128(v);
  const __m128 hi = _mm256_extractf128_ps(v, 1);
  __m128 s = _mm_add_ps(lo, hi);
  s = _mm_add_ps(s, _mm_movehl_ps(s, s));
  s = _mm_add_ss(s, _mm_shuffle_ps(s, s, 0x55));
  return _mm_cvtss_f32(s);
}

inline int32_t HsumEpi32i(__m256i v) {
  const __m128i lo = _mm256_castsi256_si128(v);
  const __m128i hi = _mm256_extracti128_si256(v, 1);
  __m128i s = _mm_add_epi32(lo, hi);
  s = _mm_add_epi32(s, _mm_unpackhi_epi64(s, s));
  s = _mm_add_epi32(s, _mm_shuffle_epi32(s, 0x55));
  return _mm_cvtsi128_si32(s);
}

void TanhAvx2(const float* x, float* out, size_t n) {
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(out + i, Tanh8(_mm256_loadu_ps(x + i)));
  }
  for (; i < n; ++i) out[i] = TanhApprox(x[i]);
}

void AffineTanhFinishAvx2(float* inout, const float* bias, int rows,
                          int cols) {
  for (int r = 0; r < rows; ++r) {
    float* orow = inout + static_cast<size_t>(r) * cols;
    int c = 0;
    for (; c + 8 <= cols; c += 8) {
      const __m256 v = _mm256_add_ps(_mm256_loadu_ps(orow + c),
                                     _mm256_loadu_ps(bias + c));
      _mm256_storeu_ps(orow + c, Tanh8(v));
    }
    for (; c < cols; ++c) orow[c] = TanhApprox(orow[c] + bias[c]);
  }
}

// Packed-panel dot microkernel: 4 B^T rows share each A-row load, 8-lane
// FMA accumulators per dot.
void MatMulPanelDotAvx2(const float* av, const float* bt, float* out,
                        int64_t row_lo, int64_t row_hi, int inner, int cols) {
  for (int64_t i = row_lo; i < row_hi; ++i) {
    const float* arow = av + static_cast<size_t>(i) * inner;
    float* orow = out + static_cast<size_t>(i) * cols;
    int j = 0;
    for (; j + 4 <= cols; j += 4) {
      const float* b0 = bt + static_cast<size_t>(j + 0) * inner;
      const float* b1 = bt + static_cast<size_t>(j + 1) * inner;
      const float* b2 = bt + static_cast<size_t>(j + 2) * inner;
      const float* b3 = bt + static_cast<size_t>(j + 3) * inner;
      __m256 acc0 = _mm256_setzero_ps();
      __m256 acc1 = _mm256_setzero_ps();
      __m256 acc2 = _mm256_setzero_ps();
      __m256 acc3 = _mm256_setzero_ps();
      int k = 0;
      for (; k + 8 <= inner; k += 8) {
        const __m256 a8 = _mm256_loadu_ps(arow + k);
        acc0 = _mm256_fmadd_ps(a8, _mm256_loadu_ps(b0 + k), acc0);
        acc1 = _mm256_fmadd_ps(a8, _mm256_loadu_ps(b1 + k), acc1);
        acc2 = _mm256_fmadd_ps(a8, _mm256_loadu_ps(b2 + k), acc2);
        acc3 = _mm256_fmadd_ps(a8, _mm256_loadu_ps(b3 + k), acc3);
      }
      float s0 = Hsum8(acc0);
      float s1 = Hsum8(acc1);
      float s2 = Hsum8(acc2);
      float s3 = Hsum8(acc3);
      for (; k < inner; ++k) {
        const float aval = arow[k];
        s0 += aval * b0[k];
        s1 += aval * b1[k];
        s2 += aval * b2[k];
        s3 += aval * b3[k];
      }
      orow[j + 0] = s0;
      orow[j + 1] = s1;
      orow[j + 2] = s2;
      orow[j + 3] = s3;
    }
    for (; j < cols; ++j) {
      const float* brow = bt + static_cast<size_t>(j) * inner;
      __m256 acc = _mm256_setzero_ps();
      int k = 0;
      for (; k + 8 <= inner; k += 8) {
        acc = _mm256_fmadd_ps(_mm256_loadu_ps(arow + k),
                              _mm256_loadu_ps(brow + k), acc);
      }
      float s = Hsum8(acc);
      for (; k < inner; ++k) s += arow[k] * brow[k];
      orow[j] = s;
    }
  }
}

void MatMulIkjAvx2(const float* av, const float* bv, float* out, int rows,
                   int inner, int cols) {
  for (int i = 0; i < rows; ++i) {
    const float* arow = av + static_cast<size_t>(i) * inner;
    float* orow = out + static_cast<size_t>(i) * cols;
    for (int k = 0; k < inner; ++k) {
      const float aval = arow[k];
      if (aval == 0.0f) continue;
      const float* brow = bv + static_cast<size_t>(k) * cols;
      const __m256 a8 = _mm256_set1_ps(aval);
      int j = 0;
      for (; j + 8 <= cols; j += 8) {
        _mm256_storeu_ps(orow + j,
                         _mm256_fmadd_ps(a8, _mm256_loadu_ps(brow + j),
                                         _mm256_loadu_ps(orow + j)));
      }
      for (; j < cols; ++j) orow[j] += aval * brow[j];
    }
  }
}

inline float RowMax(const float* row, int cols) {
  int c = 0;
  __m256 m8 = _mm256_set1_ps(-std::numeric_limits<float>::infinity());
  for (; c + 8 <= cols; c += 8) {
    m8 = _mm256_max_ps(m8, _mm256_loadu_ps(row + c));
  }
  const __m128 lo = _mm256_castps256_ps128(m8);
  const __m128 hi = _mm256_extractf128_ps(m8, 1);
  __m128 m = _mm_max_ps(lo, hi);
  m = _mm_max_ps(m, _mm_movehl_ps(m, m));
  m = _mm_max_ss(m, _mm_shuffle_ps(m, m, 0x55));
  float max_v = _mm_cvtss_f32(m);
  for (; c < cols; ++c) max_v = std::max(max_v, row[c]);
  return max_v;
}

void SoftmaxRowsAvx2(const float* in, float* out, int rows, int cols) {
  for (int r = 0; r < rows; ++r) {
    const float* irow = in + static_cast<size_t>(r) * cols;
    float* orow = out + static_cast<size_t>(r) * cols;
    const float max_v = RowMax(irow, cols);
    const __m256 max8 = _mm256_set1_ps(max_v);
    __m256 sum8 = _mm256_setzero_ps();
    int c = 0;
    for (; c + 8 <= cols; c += 8) {
      const __m256 e = Exp8(_mm256_sub_ps(_mm256_loadu_ps(irow + c), max8));
      _mm256_storeu_ps(orow + c, e);
      sum8 = _mm256_add_ps(sum8, e);
    }
    float denom = Hsum8(sum8);
    for (; c < cols; ++c) {
      orow[c] = ExpApprox(irow[c] - max_v);
      denom += orow[c];
    }
    const float inv = 1.0f / denom;
    const __m256 inv8 = _mm256_set1_ps(inv);
    c = 0;
    for (; c + 8 <= cols; c += 8) {
      _mm256_storeu_ps(orow + c,
                       _mm256_mul_ps(_mm256_loadu_ps(orow + c), inv8));
    }
    for (; c < cols; ++c) orow[c] *= inv;
  }
}

void LogSoftmaxRowsAvx2(const float* in, float* out, int rows, int cols) {
  for (int r = 0; r < rows; ++r) {
    const float* irow = in + static_cast<size_t>(r) * cols;
    float* orow = out + static_cast<size_t>(r) * cols;
    const float max_v = RowMax(irow, cols);
    const __m256 max8 = _mm256_set1_ps(max_v);
    __m256 sum8 = _mm256_setzero_ps();
    int c = 0;
    for (; c + 8 <= cols; c += 8) {
      sum8 = _mm256_add_ps(
          sum8, Exp8(_mm256_sub_ps(_mm256_loadu_ps(irow + c), max8)));
    }
    float denom = Hsum8(sum8);
    for (; c < cols; ++c) denom += ExpApprox(irow[c] - max_v);
    const float log_denom = max_v + std::log(denom);
    const __m256 ld8 = _mm256_set1_ps(log_denom);
    c = 0;
    for (; c + 8 <= cols; c += 8) {
      _mm256_storeu_ps(orow + c,
                       _mm256_sub_ps(_mm256_loadu_ps(irow + c), ld8));
    }
    for (; c < cols; ++c) orow[c] = irow[c] - log_denom;
  }
}

// 16 int8 lanes sign-extended to 16-bit, _mm256_madd_epi16 pairs into 8
// int32 accumulators. Exact integer arithmetic, so bit-identical to the
// scalar reference for any summation order.
void GemmS8S32Avx2(const int8_t* a, const int8_t* wt, int32_t* out, int rows,
                   int inner, int cols) {
  for (int i = 0; i < rows; ++i) {
    const int8_t* arow = a + static_cast<size_t>(i) * inner;
    int32_t* orow = out + static_cast<size_t>(i) * cols;
    for (int j = 0; j < cols; ++j) {
      const int8_t* wrow = wt + static_cast<size_t>(j) * inner;
      __m256i acc = _mm256_setzero_si256();
      int k = 0;
      for (; k + 16 <= inner; k += 16) {
        const __m256i a16 = _mm256_cvtepi8_epi16(
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(arow + k)));
        const __m256i w16 = _mm256_cvtepi8_epi16(
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(wrow + k)));
        acc = _mm256_add_epi32(acc, _mm256_madd_epi16(a16, w16));
      }
      int32_t s = HsumEpi32i(acc);
      for (; k < inner; ++k) {
        s += static_cast<int32_t>(arow[k]) * static_cast<int32_t>(wrow[k]);
      }
      orow[j] = s;
    }
  }
}

// ANN dot sweep: 4 base rows share each 8-lane query load (the panel-dot
// microkernel shape with the roles of A and B^T swapped).
void AnnDotManyAvx2(const float* query, const float* base, size_t rows,
                    size_t dim, float* out) {
  size_t r = 0;
  for (; r + 4 <= rows; r += 4) {
    const float* b0 = base + (r + 0) * dim;
    const float* b1 = base + (r + 1) * dim;
    const float* b2 = base + (r + 2) * dim;
    const float* b3 = base + (r + 3) * dim;
    __m256 acc0 = _mm256_setzero_ps();
    __m256 acc1 = _mm256_setzero_ps();
    __m256 acc2 = _mm256_setzero_ps();
    __m256 acc3 = _mm256_setzero_ps();
    size_t k = 0;
    for (; k + 8 <= dim; k += 8) {
      const __m256 q8 = _mm256_loadu_ps(query + k);
      acc0 = _mm256_fmadd_ps(q8, _mm256_loadu_ps(b0 + k), acc0);
      acc1 = _mm256_fmadd_ps(q8, _mm256_loadu_ps(b1 + k), acc1);
      acc2 = _mm256_fmadd_ps(q8, _mm256_loadu_ps(b2 + k), acc2);
      acc3 = _mm256_fmadd_ps(q8, _mm256_loadu_ps(b3 + k), acc3);
    }
    float s0 = Hsum8(acc0);
    float s1 = Hsum8(acc1);
    float s2 = Hsum8(acc2);
    float s3 = Hsum8(acc3);
    for (; k < dim; ++k) {
      const float qv = query[k];
      s0 += qv * b0[k];
      s1 += qv * b1[k];
      s2 += qv * b2[k];
      s3 += qv * b3[k];
    }
    out[r + 0] = s0;
    out[r + 1] = s1;
    out[r + 2] = s2;
    out[r + 3] = s3;
  }
  for (; r < rows; ++r) {
    const float* row = base + r * dim;
    __m256 acc = _mm256_setzero_ps();
    size_t k = 0;
    for (; k + 8 <= dim; k += 8) {
      acc = _mm256_fmadd_ps(_mm256_loadu_ps(query + k),
                            _mm256_loadu_ps(row + k), acc);
    }
    float s = Hsum8(acc);
    for (; k < dim; ++k) s += query[k] * row[k];
    out[r] = s;
  }
}

void AnnL2SqrManyAvx2(const float* query, const float* base, size_t rows,
                      size_t dim, float* out) {
  for (size_t r = 0; r < rows; ++r) {
    const float* row = base + r * dim;
    __m256 acc = _mm256_setzero_ps();
    size_t k = 0;
    for (; k + 8 <= dim; k += 8) {
      const __m256 d = _mm256_sub_ps(_mm256_loadu_ps(query + k),
                                     _mm256_loadu_ps(row + k));
      acc = _mm256_fmadd_ps(d, d, acc);
    }
    float s = Hsum8(acc);
    for (; k < dim; ++k) {
      const float d = query[k] - row[k];
      s += d * d;
    }
    out[r] = s;
  }
}

void AnnCosineManyAvx2(const float* query, const float* base,
                       const float* inv_norms, float query_inv_norm,
                       size_t rows, size_t dim, float* out) {
  AnnDotManyAvx2(query, base, rows, dim, out);
  const __m256 qn8 = _mm256_set1_ps(query_inv_norm);
  size_t r = 0;
  for (; r + 8 <= rows; r += 8) {
    const __m256 v = _mm256_mul_ps(
        _mm256_mul_ps(_mm256_loadu_ps(out + r), _mm256_loadu_ps(inv_norms + r)),
        qn8);
    _mm256_storeu_ps(out + r, v);
  }
  // (dot * inv_norm) * query_inv_norm, as in the vector body: a duplicate
  // row scores the same whether it lands in a lane or in the tail.
  for (; r < rows; ++r) out[r] = out[r] * inv_norms[r] * query_inv_norm;
}

void AnnDotBatchAvx2(const float* queries, size_t num_queries,
                     const float* base, size_t rows, size_t dim, float* out) {
  for (size_t q = 0; q < num_queries; ++q) {
    AnnDotManyAvx2(queries + q * dim, base, rows, dim, out + q * rows);
  }
}

const Kernels kAvx2Table = {
    .backend = Backend::kAvx2,
    .gemm_s8s32 = GemmS8S32Avx2,
    .tanh = TanhAvx2,
    .affine_tanh_finish = AffineTanhFinishAvx2,
    .matmul_panel_dot = MatMulPanelDotAvx2,
    .matmul_ikj = MatMulIkjAvx2,
    .softmax_rows = SoftmaxRowsAvx2,
    .log_softmax_rows = LogSoftmaxRowsAvx2,
    .ann_dot_many = AnnDotManyAvx2,
    .ann_l2sqr_many = AnnL2SqrManyAvx2,
    .ann_cosine_many = AnnCosineManyAvx2,
    .ann_dot_batch = AnnDotBatchAvx2,
};

}  // namespace

const Kernels* Avx2Kernels() { return &kAvx2Table; }

}  // namespace imr::tensor::simd

#else  // !(__AVX2__ && __FMA__)

namespace imr::tensor::simd {
const Kernels* Avx2Kernels() { return nullptr; }
}  // namespace imr::tensor::simd

#endif
