// The AVX2 [exact] kernels: elementwise, axpy and the sentence conv, each
// bitwise equal to the scalar reference. This TU is compiled with -mavx2
// -ffp-contract=off and WITHOUT -mfma (see src/CMakeLists.txt): every
// _mm256_add_ps(acc, _mm256_mul_ps(..)) below must stay a rounded multiply
// followed by a rounded add, and a build that let the compiler fuse them
// into FMA would change the bits (tests/simd_test.cc's exactness sweep
// fails if it does). The approximate AVX2 kernels, which use FMA on
// purpose, live in kernels_avx2.cc. Dispatch only hands this table out
// after __builtin_cpu_supports("avx2").
#include "tensor/simd/dispatch.h"
#include "tensor/simd/kernels_internal.h"

#if defined(__AVX2__)

#include <immintrin.h>

namespace imr::tensor::simd {
namespace {

void AddAvx2(const float* a, const float* b, float* out, size_t n) {
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(out + i, _mm256_add_ps(_mm256_loadu_ps(a + i),
                                            _mm256_loadu_ps(b + i)));
  }
  for (; i < n; ++i) out[i] = a[i] + b[i];
}

void SubAvx2(const float* a, const float* b, float* out, size_t n) {
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(out + i, _mm256_sub_ps(_mm256_loadu_ps(a + i),
                                            _mm256_loadu_ps(b + i)));
  }
  for (; i < n; ++i) out[i] = a[i] - b[i];
}

void MulAvx2(const float* a, const float* b, float* out, size_t n) {
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(out + i, _mm256_mul_ps(_mm256_loadu_ps(a + i),
                                            _mm256_loadu_ps(b + i)));
  }
  for (; i < n; ++i) out[i] = a[i] * b[i];
}

void ScaleAvx2(const float* a, float s, float* out, size_t n) {
  const __m256 sv = _mm256_set1_ps(s);
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(out + i, _mm256_mul_ps(_mm256_loadu_ps(a + i), sv));
  }
  for (; i < n; ++i) out[i] = a[i] * s;
}

void AxpyAvx2(float a, const float* x, float* y, size_t n) {
  const __m256 av = _mm256_set1_ps(a);
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(y + i,
                     _mm256_add_ps(_mm256_loadu_ps(y + i),
                                   _mm256_mul_ps(av, _mm256_loadu_ps(x + i))));
  }
  for (; i < n; ++i) y[i] += a * x[i];
}

// conv1d_pack: weight [filters x inner] to [inner x filters], 8 x 8
// blocks at a time through registers; the ragged edges go element by
// element. Pure data movement.
void Conv1dPackAvx2(const float* weight, int filters, int inner,
                    float* packed) {
  const int f_blocks = filters - filters % 8;
  const int k_blocks = inner - inner % 8;
  for (int f0 = 0; f0 < f_blocks; f0 += 8) {
    for (int k0 = 0; k0 < k_blocks; k0 += 8) {
      __m256 r[8];
      for (int i = 0; i < 8; ++i) {
        r[i] = _mm256_loadu_ps(weight + static_cast<size_t>(f0 + i) * inner +
                               k0);
      }
      const __m256 t0 = _mm256_unpacklo_ps(r[0], r[1]);
      const __m256 t1 = _mm256_unpackhi_ps(r[0], r[1]);
      const __m256 t2 = _mm256_unpacklo_ps(r[2], r[3]);
      const __m256 t3 = _mm256_unpackhi_ps(r[2], r[3]);
      const __m256 t4 = _mm256_unpacklo_ps(r[4], r[5]);
      const __m256 t5 = _mm256_unpackhi_ps(r[4], r[5]);
      const __m256 t6 = _mm256_unpacklo_ps(r[6], r[7]);
      const __m256 t7 = _mm256_unpackhi_ps(r[6], r[7]);
      const __m256 u0 = _mm256_shuffle_ps(t0, t2, _MM_SHUFFLE(1, 0, 1, 0));
      const __m256 u1 = _mm256_shuffle_ps(t0, t2, _MM_SHUFFLE(3, 2, 3, 2));
      const __m256 u2 = _mm256_shuffle_ps(t1, t3, _MM_SHUFFLE(1, 0, 1, 0));
      const __m256 u3 = _mm256_shuffle_ps(t1, t3, _MM_SHUFFLE(3, 2, 3, 2));
      const __m256 u4 = _mm256_shuffle_ps(t4, t6, _MM_SHUFFLE(1, 0, 1, 0));
      const __m256 u5 = _mm256_shuffle_ps(t4, t6, _MM_SHUFFLE(3, 2, 3, 2));
      const __m256 u6 = _mm256_shuffle_ps(t5, t7, _MM_SHUFFLE(1, 0, 1, 0));
      const __m256 u7 = _mm256_shuffle_ps(t5, t7, _MM_SHUFFLE(3, 2, 3, 2));
      const __m256 c[8] = {_mm256_permute2f128_ps(u0, u4, 0x20),
                           _mm256_permute2f128_ps(u1, u5, 0x20),
                           _mm256_permute2f128_ps(u2, u6, 0x20),
                           _mm256_permute2f128_ps(u3, u7, 0x20),
                           _mm256_permute2f128_ps(u0, u4, 0x31),
                           _mm256_permute2f128_ps(u1, u5, 0x31),
                           _mm256_permute2f128_ps(u2, u6, 0x31),
                           _mm256_permute2f128_ps(u3, u7, 0x31)};
      for (int j = 0; j < 8; ++j) {
        _mm256_storeu_ps(packed + static_cast<size_t>(k0 + j) * filters + f0,
                         c[j]);
      }
    }
    for (int k = k_blocks; k < inner; ++k) {
      for (int f = f0; f < f0 + 8; ++f) {
        packed[static_cast<size_t>(k) * filters + f] =
            weight[static_cast<size_t>(f) * inner + k];
      }
    }
  }
  for (int f = f_blocks; f < filters; ++f) {
    for (int k = 0; k < inner; ++k) {
      packed[static_cast<size_t>(k) * filters + f] =
          weight[static_cast<size_t>(f) * inner + k];
    }
  }
}

// Loads and stores for 8 consecutive filters; the masked variant covers a
// last block of fewer than 8 (masked-off lanes read as zero and are never
// stored).
struct FullLanes {
  __m256 Load(const float* p) const { return _mm256_loadu_ps(p); }
  void Store(float* p, __m256 v) const { _mm256_storeu_ps(p, v); }
};

struct MaskedLanes {
  __m256i mask;
  __m256 Load(const float* p) const { return _mm256_maskload_ps(p, mask); }
  void Store(float* p, __m256 v) const { _mm256_maskstore_ps(p, mask, v); }
};

// Filters [f, f + 8) of output row t. Each lane runs the scalar per-filter
// sequence: start from the bias, then per in-range window position add an
// accumulator summed over d ascending from 0 with a separate multiply and
// add.
template <typename Lanes>
inline void ConvFilterBlockAvx2(const Lanes& lanes, const float* x,
                                const float* packed, const float* bias,
                                float* orow, int64_t t, int time, int dim,
                                int filters, int window, int f) {
  const int half = window / 2;
  __m256 o = lanes.Load(bias + f);
  for (int w = 0; w < window; ++w) {
    const int64_t src = t + w - half;
    if (src < 0 || src >= time) continue;  // zero padding
    const float* xrow = x + static_cast<size_t>(src) * dim;
    const float* wp = packed + static_cast<size_t>(w) * dim * filters + f;
    __m256 acc = _mm256_setzero_ps();
    for (int d = 0; d < dim; ++d) {
      const __m256 wv = lanes.Load(wp + static_cast<size_t>(d) * filters);
      acc = _mm256_add_ps(acc, _mm256_mul_ps(_mm256_set1_ps(xrow[d]), wv));
    }
    o = _mm256_add_ps(o, acc);
  }
  lanes.Store(orow + f, o);
}

void Conv1dRowsAvx2(const float* x, const float*, const float* packed,
                    const float* bias, float* out, int time, int dim,
                    int filters, int window, int64_t t_lo, int64_t t_hi) {
  const int tail = filters % 8;
  const MaskedLanes tail_lanes{_mm256_cmpgt_epi32(
      _mm256_set1_epi32(tail), _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7))};
  for (int64_t t = t_lo; t < t_hi; ++t) {
    float* orow = out + static_cast<size_t>(t) * filters;
    int f = 0;
    for (; f + 8 <= filters; f += 8) {
      ConvFilterBlockAvx2(FullLanes{}, x, packed, bias, orow, t, time, dim,
                          filters, window, f);
    }
    if (tail != 0) {
      ConvFilterBlockAvx2(tail_lanes, x, packed, bias, orow, t, time, dim,
                          filters, window, f);
    }
  }
}

const Kernels kAvx2ExactTable = {
    .backend = Backend::kAvx2,
    .add = AddAvx2,
    .sub = SubAvx2,
    .mul = MulAvx2,
    .scale = ScaleAvx2,
    .axpy = AxpyAvx2,
    .conv1d_pack = Conv1dPackAvx2,
    .conv1d_rows = Conv1dRowsAvx2,
};

}  // namespace

const Kernels* Avx2ExactKernels() { return &kAvx2ExactTable; }

}  // namespace imr::tensor::simd

#else  // !__AVX2__

namespace imr::tensor::simd {
const Kernels* Avx2ExactKernels() { return nullptr; }
}  // namespace imr::tensor::simd

#endif
