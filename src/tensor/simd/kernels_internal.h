// Declarations shared by the kernel translation units and dispatch.cc
// only; nothing outside src/tensor/simd/ includes this header.
#ifndef IMR_TENSOR_SIMD_KERNELS_INTERNAL_H_
#define IMR_TENSOR_SIMD_KERNELS_INTERNAL_H_

#include "tensor/simd/dispatch.h"

namespace imr::tensor::simd {

// Per-ISA tables. Each returns nullptr when its ISA is not compiled into
// this build; null entries inside a returned table inherit the scalar
// reference when dispatch.cc merges the tables.
const Kernels* ScalarKernels();
const Kernels* Sse2Kernels();
// AVX2 is split by exactness: the [exact] entries live in
// kernels_avx2_exact.cc, built without -mfma, the rest in kernels_avx2.cc.
const Kernels* Avx2ExactKernels();
const Kernels* Avx2Kernels();
const Kernels* NeonKernels();

}  // namespace imr::tensor::simd

#endif  // IMR_TENSOR_SIMD_KERNELS_INTERNAL_H_
