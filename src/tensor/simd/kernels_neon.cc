// NEON stub backend for AArch64. Only the elementwise kernels are
// vectorized so far; every other entry is left null and inherits the
// scalar reference through the dispatch merge. The table registers itself
// exactly like the x86 tiers, so filling in tanh / matmul later is purely
// additive. On non-ARM builds this TU compiles to a null registration.
#include "tensor/simd/dispatch.h"
#include "tensor/simd/kernels_internal.h"

#if defined(__ARM_NEON) && defined(__aarch64__)

#include <arm_neon.h>

namespace imr::tensor::simd {
namespace {

void AddNeon(const float* a, const float* b, float* out, size_t n) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    vst1q_f32(out + i, vaddq_f32(vld1q_f32(a + i), vld1q_f32(b + i)));
  }
  for (; i < n; ++i) out[i] = a[i] + b[i];
}

void SubNeon(const float* a, const float* b, float* out, size_t n) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    vst1q_f32(out + i, vsubq_f32(vld1q_f32(a + i), vld1q_f32(b + i)));
  }
  for (; i < n; ++i) out[i] = a[i] - b[i];
}

void MulNeon(const float* a, const float* b, float* out, size_t n) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    vst1q_f32(out + i, vmulq_f32(vld1q_f32(a + i), vld1q_f32(b + i)));
  }
  for (; i < n; ++i) out[i] = a[i] * b[i];
}

void ScaleNeon(const float* a, float s, float* out, size_t n) {
  const float32x4_t sv = vdupq_n_f32(s);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    vst1q_f32(out + i, vmulq_f32(vld1q_f32(a + i), sv));
  }
  for (; i < n; ++i) out[i] = a[i] * s;
}

// Entries left out inherit the scalar reference.
const Kernels kNeonTable = {
    .backend = Backend::kNeon,
    .add = AddNeon,
    .sub = SubNeon,
    .mul = MulNeon,
    .scale = ScaleNeon,
};

}  // namespace

const Kernels* NeonKernels() { return &kNeonTable; }

}  // namespace imr::tensor::simd

#else  // !__ARM_NEON

namespace imr::tensor::simd {
const Kernels* NeonKernels() { return nullptr; }
}  // namespace imr::tensor::simd

#endif
