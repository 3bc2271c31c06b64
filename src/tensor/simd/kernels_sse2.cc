// SSE2 kernels (4-lane, no FMA — baseline ISA on x86-64, so this TU needs
// no ISA flags there). Evaluates the same vec_math.h polynomials as AVX2
// with mul+add instead of fused multiply-add; the documented error bounds
// in vec_math.h cover both evaluation schemes. The [exact] kernels
// (elementwise, axpy, conv) repeat the scalar per-element sequence lane by
// lane; the TU is built with -ffp-contract=off so that stays true under
// any global ISA flags. Intrinsics are confined to src/tensor/simd/
// (imr_lint raw-intrinsics).
#include "tensor/simd/dispatch.h"
#include "tensor/simd/kernels_internal.h"
#include "tensor/simd/vec_math.h"

#if defined(__SSE2__) || (defined(_M_X64) && !defined(__ARM_NEON))

#include <emmintrin.h>

#include <algorithm>
#include <cmath>
#include <limits>

namespace imr::tensor::simd {
namespace {

inline __m128 Tanh4(__m128 x) {
  const __m128 clamp = _mm_set1_ps(kTanhClamp);
  x = _mm_max_ps(_mm_min_ps(x, clamp), _mm_sub_ps(_mm_setzero_ps(), clamp));
  const __m128 x2 = _mm_mul_ps(x, x);
  __m128 p = _mm_set1_ps(kTanhAlpha[6]);
  p = _mm_add_ps(_mm_mul_ps(p, x2), _mm_set1_ps(kTanhAlpha[5]));
  p = _mm_add_ps(_mm_mul_ps(p, x2), _mm_set1_ps(kTanhAlpha[4]));
  p = _mm_add_ps(_mm_mul_ps(p, x2), _mm_set1_ps(kTanhAlpha[3]));
  p = _mm_add_ps(_mm_mul_ps(p, x2), _mm_set1_ps(kTanhAlpha[2]));
  p = _mm_add_ps(_mm_mul_ps(p, x2), _mm_set1_ps(kTanhAlpha[1]));
  p = _mm_add_ps(_mm_mul_ps(p, x2), _mm_set1_ps(kTanhAlpha[0]));
  p = _mm_mul_ps(p, x);
  __m128 q = _mm_set1_ps(kTanhBeta[3]);
  q = _mm_add_ps(_mm_mul_ps(q, x2), _mm_set1_ps(kTanhBeta[2]));
  q = _mm_add_ps(_mm_mul_ps(q, x2), _mm_set1_ps(kTanhBeta[1]));
  q = _mm_add_ps(_mm_mul_ps(q, x2), _mm_set1_ps(kTanhBeta[0]));
  return _mm_div_ps(p, q);
}

// floor() for the exp range reduction without SSE4.1 _mm_floor_ps: truncate
// toward zero, then subtract 1 where truncation rounded up (negative
// non-integers).
inline __m128 Floor4(__m128 x) {
  const __m128 t = _mm_cvtepi32_ps(_mm_cvttps_epi32(x));
  const __m128 too_big = _mm_cmpgt_ps(t, x);
  return _mm_sub_ps(t, _mm_and_ps(too_big, _mm_set1_ps(1.0f)));
}

inline __m128 Exp4(__m128 x) {
  x = _mm_min_ps(x, _mm_set1_ps(kExpHi));
  x = _mm_max_ps(x, _mm_set1_ps(kExpLo));
  __m128 fx = _mm_add_ps(_mm_mul_ps(x, _mm_set1_ps(kLog2E)),
                         _mm_set1_ps(0.5f));
  fx = Floor4(fx);
  x = _mm_sub_ps(x, _mm_mul_ps(fx, _mm_set1_ps(kExpC1)));
  x = _mm_sub_ps(x, _mm_mul_ps(fx, _mm_set1_ps(kExpC2)));
  const __m128 z = _mm_mul_ps(x, x);
  __m128 y = _mm_set1_ps(kExpP[0]);
  y = _mm_add_ps(_mm_mul_ps(y, x), _mm_set1_ps(kExpP[1]));
  y = _mm_add_ps(_mm_mul_ps(y, x), _mm_set1_ps(kExpP[2]));
  y = _mm_add_ps(_mm_mul_ps(y, x), _mm_set1_ps(kExpP[3]));
  y = _mm_add_ps(_mm_mul_ps(y, x), _mm_set1_ps(kExpP[4]));
  y = _mm_add_ps(_mm_mul_ps(y, x), _mm_set1_ps(kExpP[5]));
  y = _mm_add_ps(_mm_add_ps(_mm_mul_ps(y, z), x), _mm_set1_ps(1.0f));
  const __m128i n = _mm_cvttps_epi32(fx);
  const __m128i pow2n =
      _mm_slli_epi32(_mm_add_epi32(n, _mm_set1_epi32(127)), 23);
  return _mm_mul_ps(y, _mm_castsi128_ps(pow2n));
}

inline float Hsum4(__m128 v) {
  v = _mm_add_ps(v, _mm_movehl_ps(v, v));
  v = _mm_add_ss(v, _mm_shuffle_ps(v, v, 0x55));
  return _mm_cvtss_f32(v);
}

inline int32_t Hsum4i(__m128i v) {
  v = _mm_add_epi32(v, _mm_unpackhi_epi64(v, v));
  v = _mm_add_epi32(v, _mm_shuffle_epi32(v, 0x55));
  return _mm_cvtsi128_si32(v);
}

void AddSse2(const float* a, const float* b, float* out, size_t n) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm_storeu_ps(out + i,
                  _mm_add_ps(_mm_loadu_ps(a + i), _mm_loadu_ps(b + i)));
  }
  for (; i < n; ++i) out[i] = a[i] + b[i];
}

void SubSse2(const float* a, const float* b, float* out, size_t n) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm_storeu_ps(out + i,
                  _mm_sub_ps(_mm_loadu_ps(a + i), _mm_loadu_ps(b + i)));
  }
  for (; i < n; ++i) out[i] = a[i] - b[i];
}

void MulSse2(const float* a, const float* b, float* out, size_t n) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm_storeu_ps(out + i,
                  _mm_mul_ps(_mm_loadu_ps(a + i), _mm_loadu_ps(b + i)));
  }
  for (; i < n; ++i) out[i] = a[i] * b[i];
}

void ScaleSse2(const float* a, float s, float* out, size_t n) {
  const __m128 sv = _mm_set1_ps(s);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm_storeu_ps(out + i, _mm_mul_ps(_mm_loadu_ps(a + i), sv));
  }
  for (; i < n; ++i) out[i] = a[i] * s;
}

void AxpySse2(float a, const float* x, float* y, size_t n) {
  const __m128 av = _mm_set1_ps(a);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm_storeu_ps(y + i, _mm_add_ps(_mm_loadu_ps(y + i),
                                    _mm_mul_ps(av, _mm_loadu_ps(x + i))));
  }
  for (; i < n; ++i) y[i] += a * x[i];
}

// conv1d_pack: weight [filters x inner] to [inner x filters]. Eight
// weight rows stream side by side, so each packed row is written in runs
// of eight consecutive filters. Pure copies.
void Conv1dPackSse2(const float* weight, int filters, int inner,
                    float* packed) {
  constexpr int kBlock = 8;
  for (int f0 = 0; f0 < filters; f0 += kBlock) {
    const int f_end = std::min(filters, f0 + kBlock);
    for (int k = 0; k < inner; ++k) {
      float* prow = packed + static_cast<size_t>(k) * filters;
      for (int f = f0; f < f_end; ++f) {
        prow[f] = weight[static_cast<size_t>(f) * inner + k];
      }
    }
  }
}

// Filters [f, f + 4) of output row t. Each lane runs the scalar per-filter
// sequence: start from the bias, then per in-range window position add an
// accumulator summed over d ascending from 0 with a separate multiply and
// add.
inline void ConvFilterBlockSse2(const float* x, const float* packed,
                                const float* bias, float* orow, int64_t t,
                                int time, int dim, int filters, int window,
                                int f) {
  const int half = window / 2;
  __m128 o = _mm_loadu_ps(bias + f);
  for (int w = 0; w < window; ++w) {
    const int64_t src = t + w - half;
    if (src < 0 || src >= time) continue;  // zero padding
    const float* xrow = x + static_cast<size_t>(src) * dim;
    const float* wp = packed + static_cast<size_t>(w) * dim * filters + f;
    __m128 acc = _mm_setzero_ps();
    for (int d = 0; d < dim; ++d) {
      const __m128 wv = _mm_loadu_ps(wp + static_cast<size_t>(d) * filters);
      acc = _mm_add_ps(acc, _mm_mul_ps(_mm_set1_ps(xrow[d]), wv));
    }
    o = _mm_add_ps(o, acc);
  }
  _mm_storeu_ps(orow + f, o);
}

void Conv1dRowsSse2(const float* x, const float* weight, const float* packed,
                    const float* bias, float* out, int time, int dim,
                    int filters, int window, int64_t t_lo, int64_t t_hi) {
  const int half = window / 2;
  for (int64_t t = t_lo; t < t_hi; ++t) {
    float* orow = out + static_cast<size_t>(t) * filters;
    int f = 0;
    for (; f + 4 <= filters; f += 4) {
      ConvFilterBlockSse2(x, packed, bias, orow, t, time, dim, filters,
                          window, f);
    }
    for (; f < filters; ++f) {  // the scalar sequence, filter by filter
      float o = bias[f];
      for (int w = 0; w < window; ++w) {
        const int64_t src = t + w - half;
        if (src < 0 || src >= time) continue;
        const float* xrow = x + static_cast<size_t>(src) * dim;
        const float* wrow = weight + static_cast<size_t>(f) * window * dim +
                            static_cast<size_t>(w) * dim;
        float acc = 0.0f;
        for (int d = 0; d < dim; ++d) acc += xrow[d] * wrow[d];
        o += acc;
      }
      orow[f] = o;
    }
  }
}

void TanhSse2(const float* x, float* out, size_t n) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm_storeu_ps(out + i, Tanh4(_mm_loadu_ps(x + i)));
  }
  for (; i < n; ++i) out[i] = TanhApprox(x[i]);
}

void AffineTanhFinishSse2(float* inout, const float* bias, int rows,
                          int cols) {
  for (int r = 0; r < rows; ++r) {
    float* orow = inout + static_cast<size_t>(r) * cols;
    int c = 0;
    for (; c + 4 <= cols; c += 4) {
      const __m128 v =
          _mm_add_ps(_mm_loadu_ps(orow + c), _mm_loadu_ps(bias + c));
      _mm_storeu_ps(orow + c, Tanh4(v));
    }
    for (; c < cols; ++c) orow[c] = TanhApprox(orow[c] + bias[c]);
  }
}

void MatMulPanelDotSse2(const float* av, const float* bt, float* out,
                        int64_t row_lo, int64_t row_hi, int inner, int cols) {
  for (int64_t i = row_lo; i < row_hi; ++i) {
    const float* arow = av + static_cast<size_t>(i) * inner;
    float* orow = out + static_cast<size_t>(i) * cols;
    int j = 0;
    for (; j + 2 <= cols; j += 2) {
      const float* b0 = bt + static_cast<size_t>(j + 0) * inner;
      const float* b1 = bt + static_cast<size_t>(j + 1) * inner;
      __m128 acc0 = _mm_setzero_ps();
      __m128 acc1 = _mm_setzero_ps();
      int k = 0;
      for (; k + 4 <= inner; k += 4) {
        const __m128 a4 = _mm_loadu_ps(arow + k);
        acc0 = _mm_add_ps(acc0, _mm_mul_ps(a4, _mm_loadu_ps(b0 + k)));
        acc1 = _mm_add_ps(acc1, _mm_mul_ps(a4, _mm_loadu_ps(b1 + k)));
      }
      float s0 = Hsum4(acc0);
      float s1 = Hsum4(acc1);
      for (; k < inner; ++k) {
        const float aval = arow[k];
        s0 += aval * b0[k];
        s1 += aval * b1[k];
      }
      orow[j + 0] = s0;
      orow[j + 1] = s1;
    }
    for (; j < cols; ++j) {
      const float* brow = bt + static_cast<size_t>(j) * inner;
      __m128 acc = _mm_setzero_ps();
      int k = 0;
      for (; k + 4 <= inner; k += 4) {
        acc = _mm_add_ps(acc,
                         _mm_mul_ps(_mm_loadu_ps(arow + k),
                                    _mm_loadu_ps(brow + k)));
      }
      float s = Hsum4(acc);
      for (; k < inner; ++k) s += arow[k] * brow[k];
      orow[j] = s;
    }
  }
}

void MatMulIkjSse2(const float* av, const float* bv, float* out, int rows,
                   int inner, int cols) {
  for (int i = 0; i < rows; ++i) {
    const float* arow = av + static_cast<size_t>(i) * inner;
    float* orow = out + static_cast<size_t>(i) * cols;
    for (int k = 0; k < inner; ++k) {
      const float aval = arow[k];
      if (aval == 0.0f) continue;
      const float* brow = bv + static_cast<size_t>(k) * cols;
      const __m128 a4 = _mm_set1_ps(aval);
      int j = 0;
      for (; j + 4 <= cols; j += 4) {
        _mm_storeu_ps(orow + j,
                      _mm_add_ps(_mm_loadu_ps(orow + j),
                                 _mm_mul_ps(a4, _mm_loadu_ps(brow + j))));
      }
      for (; j < cols; ++j) orow[j] += aval * brow[j];
    }
  }
}

inline float RowMaxSse2(const float* row, int cols) {
  int c = 0;
  __m128 m4 = _mm_set1_ps(-std::numeric_limits<float>::infinity());
  for (; c + 4 <= cols; c += 4) {
    m4 = _mm_max_ps(m4, _mm_loadu_ps(row + c));
  }
  m4 = _mm_max_ps(m4, _mm_movehl_ps(m4, m4));
  m4 = _mm_max_ss(m4, _mm_shuffle_ps(m4, m4, 0x55));
  float max_v = _mm_cvtss_f32(m4);
  for (; c < cols; ++c) max_v = std::max(max_v, row[c]);
  return max_v;
}

void SoftmaxRowsSse2(const float* in, float* out, int rows, int cols) {
  for (int r = 0; r < rows; ++r) {
    const float* irow = in + static_cast<size_t>(r) * cols;
    float* orow = out + static_cast<size_t>(r) * cols;
    const float max_v = RowMaxSse2(irow, cols);
    const __m128 max4 = _mm_set1_ps(max_v);
    __m128 sum4 = _mm_setzero_ps();
    int c = 0;
    for (; c + 4 <= cols; c += 4) {
      const __m128 e = Exp4(_mm_sub_ps(_mm_loadu_ps(irow + c), max4));
      _mm_storeu_ps(orow + c, e);
      sum4 = _mm_add_ps(sum4, e);
    }
    float denom = Hsum4(sum4);
    for (; c < cols; ++c) {
      orow[c] = ExpApprox(irow[c] - max_v);
      denom += orow[c];
    }
    const float inv = 1.0f / denom;
    const __m128 inv4 = _mm_set1_ps(inv);
    c = 0;
    for (; c + 4 <= cols; c += 4) {
      _mm_storeu_ps(orow + c, _mm_mul_ps(_mm_loadu_ps(orow + c), inv4));
    }
    for (; c < cols; ++c) orow[c] *= inv;
  }
}

void LogSoftmaxRowsSse2(const float* in, float* out, int rows, int cols) {
  for (int r = 0; r < rows; ++r) {
    const float* irow = in + static_cast<size_t>(r) * cols;
    float* orow = out + static_cast<size_t>(r) * cols;
    const float max_v = RowMaxSse2(irow, cols);
    const __m128 max4 = _mm_set1_ps(max_v);
    __m128 sum4 = _mm_setzero_ps();
    int c = 0;
    for (; c + 4 <= cols; c += 4) {
      sum4 = _mm_add_ps(sum4,
                        Exp4(_mm_sub_ps(_mm_loadu_ps(irow + c), max4)));
    }
    float denom = Hsum4(sum4);
    for (; c < cols; ++c) denom += ExpApprox(irow[c] - max_v);
    const float log_denom = max_v + std::log(denom);
    const __m128 ld4 = _mm_set1_ps(log_denom);
    c = 0;
    for (; c + 4 <= cols; c += 4) {
      _mm_storeu_ps(orow + c, _mm_sub_ps(_mm_loadu_ps(irow + c), ld4));
    }
    for (; c < cols; ++c) orow[c] = irow[c] - log_denom;
  }
}

// Sign-extend 8-bit lanes to 16-bit with the unpack+shift idiom (SSE2 has
// no _mm_cvtepi8_epi16), then _mm_madd_epi16 pairs into int32. Exact
// integer arithmetic — bit-identical to the scalar reference.
void GemmS8S32Sse2(const int8_t* a, const int8_t* wt, int32_t* out, int rows,
                   int inner, int cols) {
  for (int i = 0; i < rows; ++i) {
    const int8_t* arow = a + static_cast<size_t>(i) * inner;
    int32_t* orow = out + static_cast<size_t>(i) * cols;
    for (int j = 0; j < cols; ++j) {
      const int8_t* wrow = wt + static_cast<size_t>(j) * inner;
      __m128i acc = _mm_setzero_si128();
      int k = 0;
      for (; k + 16 <= inner; k += 16) {
        const __m128i a8 =
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(arow + k));
        const __m128i w8 =
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(wrow + k));
        const __m128i a_lo = _mm_srai_epi16(_mm_unpacklo_epi8(a8, a8), 8);
        const __m128i a_hi = _mm_srai_epi16(_mm_unpackhi_epi8(a8, a8), 8);
        const __m128i w_lo = _mm_srai_epi16(_mm_unpacklo_epi8(w8, w8), 8);
        const __m128i w_hi = _mm_srai_epi16(_mm_unpackhi_epi8(w8, w8), 8);
        acc = _mm_add_epi32(acc, _mm_madd_epi16(a_lo, w_lo));
        acc = _mm_add_epi32(acc, _mm_madd_epi16(a_hi, w_hi));
      }
      int32_t s = Hsum4i(acc);
      for (; k < inner; ++k) {
        s += static_cast<int32_t>(arow[k]) * static_cast<int32_t>(wrow[k]);
      }
      orow[j] = s;
    }
  }
}

// ANN dot sweep: pairs of base rows share each 4-lane query load.
void AnnDotManySse2(const float* query, const float* base, size_t rows,
                    size_t dim, float* out) {
  size_t r = 0;
  for (; r + 2 <= rows; r += 2) {
    const float* b0 = base + (r + 0) * dim;
    const float* b1 = base + (r + 1) * dim;
    __m128 acc0 = _mm_setzero_ps();
    __m128 acc1 = _mm_setzero_ps();
    size_t k = 0;
    for (; k + 4 <= dim; k += 4) {
      const __m128 q4 = _mm_loadu_ps(query + k);
      acc0 = _mm_add_ps(acc0, _mm_mul_ps(q4, _mm_loadu_ps(b0 + k)));
      acc1 = _mm_add_ps(acc1, _mm_mul_ps(q4, _mm_loadu_ps(b1 + k)));
    }
    float s0 = Hsum4(acc0);
    float s1 = Hsum4(acc1);
    for (; k < dim; ++k) {
      const float qv = query[k];
      s0 += qv * b0[k];
      s1 += qv * b1[k];
    }
    out[r + 0] = s0;
    out[r + 1] = s1;
  }
  for (; r < rows; ++r) {
    const float* row = base + r * dim;
    __m128 acc = _mm_setzero_ps();
    size_t k = 0;
    for (; k + 4 <= dim; k += 4) {
      acc = _mm_add_ps(acc, _mm_mul_ps(_mm_loadu_ps(query + k),
                                       _mm_loadu_ps(row + k)));
    }
    float s = Hsum4(acc);
    for (; k < dim; ++k) s += query[k] * row[k];
    out[r] = s;
  }
}

void AnnL2SqrManySse2(const float* query, const float* base, size_t rows,
                      size_t dim, float* out) {
  for (size_t r = 0; r < rows; ++r) {
    const float* row = base + r * dim;
    __m128 acc = _mm_setzero_ps();
    size_t k = 0;
    for (; k + 4 <= dim; k += 4) {
      const __m128 d =
          _mm_sub_ps(_mm_loadu_ps(query + k), _mm_loadu_ps(row + k));
      acc = _mm_add_ps(acc, _mm_mul_ps(d, d));
    }
    float s = Hsum4(acc);
    for (; k < dim; ++k) {
      const float d = query[k] - row[k];
      s += d * d;
    }
    out[r] = s;
  }
}

void AnnCosineManySse2(const float* query, const float* base,
                       const float* inv_norms, float query_inv_norm,
                       size_t rows, size_t dim, float* out) {
  AnnDotManySse2(query, base, rows, dim, out);
  const __m128 qn4 = _mm_set1_ps(query_inv_norm);
  size_t r = 0;
  for (; r + 4 <= rows; r += 4) {
    const __m128 v = _mm_mul_ps(
        _mm_mul_ps(_mm_loadu_ps(out + r), _mm_loadu_ps(inv_norms + r)), qn4);
    _mm_storeu_ps(out + r, v);
  }
  // (dot * inv_norm) * query_inv_norm, as in the vector body: a duplicate
  // row scores the same whether it lands in a lane or in the tail.
  for (; r < rows; ++r) out[r] = out[r] * inv_norms[r] * query_inv_norm;
}

void AnnDotBatchSse2(const float* queries, size_t num_queries,
                     const float* base, size_t rows, size_t dim, float* out) {
  for (size_t q = 0; q < num_queries; ++q) {
    AnnDotManySse2(queries + q * dim, base, rows, dim, out + q * rows);
  }
}

const Kernels kSse2Table = {
    .backend = Backend::kSse2,
    .add = AddSse2,
    .sub = SubSse2,
    .mul = MulSse2,
    .scale = ScaleSse2,
    .axpy = AxpySse2,
    .conv1d_pack = Conv1dPackSse2,
    .conv1d_rows = Conv1dRowsSse2,
    .gemm_s8s32 = GemmS8S32Sse2,
    .tanh = TanhSse2,
    .affine_tanh_finish = AffineTanhFinishSse2,
    .matmul_panel_dot = MatMulPanelDotSse2,
    .matmul_ikj = MatMulIkjSse2,
    .softmax_rows = SoftmaxRowsSse2,
    .log_softmax_rows = LogSoftmaxRowsSse2,
    .ann_dot_many = AnnDotManySse2,
    .ann_l2sqr_many = AnnL2SqrManySse2,
    .ann_cosine_many = AnnCosineManySse2,
    .ann_dot_batch = AnnDotBatchSse2,
};

}  // namespace

const Kernels* Sse2Kernels() { return &kSse2Table; }

}  // namespace imr::tensor::simd

#else  // !__SSE2__

namespace imr::tensor::simd {
const Kernels* Sse2Kernels() { return nullptr; }
}  // namespace imr::tensor::simd

#endif
