// Backend-equivalence suite for the runtime-dispatched SIMD kernels:
// every backend the host supports is driven through the same inputs and
// compared against the scalar reference — bit-identical for every [exact]
// entry (elementwise, axpy, the sentence conv, int8 GEMM), swept over
// log-uniform shapes from a fixed seed, and within documented ULP/relative
// bounds where vector math reassociates (tanh, matmul, softmax). Also
// covers the dispatch rule itself (train = the backend's exact entries
// over scalar / eval = best), the scoped pin, and the int8 quantization
// round trips.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <string>
#include <vector>

#include "graph/embedding_store.h"
#include "nn/layers.h"
#include "tensor/ops.h"
#include "tensor/simd/dispatch.h"
#include "tensor/simd/vec_math.h"
#include "tensor/tensor.h"
#include "util/rng.h"

namespace imr {
namespace {

namespace simd = tensor::simd;

// Distance in representable floats (0 = bitwise equal). Infinite for
// mismatched signs or non-finite values, which the kernels never produce
// on finite input.
int64_t UlpDistance(float a, float b) {
  if (a == b) return 0;
  int32_t ia, ib;
  std::memcpy(&ia, &a, sizeof ia);
  std::memcpy(&ib, &b, sizeof ib);
  if ((ia < 0) != (ib < 0)) return INT64_MAX;
  return std::llabs(static_cast<int64_t>(ia) - static_cast<int64_t>(ib));
}

std::vector<float> RandomFloats(size_t n, float lo, float hi,
                                uint64_t seed) {
  util::Rng rng(seed);
  std::vector<float> out(n);
  for (float& v : out) v = static_cast<float>(rng.Uniform(lo, hi));
  return out;
}

// Number of positions where a and b differ in any bit (so -0.0f vs +0.0f
// and differing NaN payloads count); a size mismatch counts every element.
size_t BitMismatches(const std::vector<float>& a, const std::vector<float>& b) {
  if (a.size() != b.size()) return std::max(a.size(), b.size());
  size_t mismatches = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::memcmp(&a[i], &b[i], sizeof(float)) != 0) ++mismatches;
  }
  return mismatches;
}

TEST(SimdDispatchTest, ScalarAlwaysSupportedAndBestIsSupported) {
  EXPECT_TRUE(simd::BackendSupported(simd::Backend::kScalar));
  EXPECT_TRUE(simd::BackendSupported(simd::DetectBestBackend()));
  const auto supported = simd::SupportedBackends();
  ASSERT_FALSE(supported.empty());
  EXPECT_EQ(supported.front(), simd::Backend::kScalar);
}

TEST(SimdDispatchTest, KernelTablesAreFullyPopulated) {
  for (simd::Backend backend : simd::SupportedBackends()) {
    const simd::Kernels& kernels = simd::KernelsFor(backend);
    EXPECT_EQ(kernels.backend, backend);
    EXPECT_NE(kernels.add, nullptr);
    EXPECT_NE(kernels.sub, nullptr);
    EXPECT_NE(kernels.mul, nullptr);
    EXPECT_NE(kernels.scale, nullptr);
    EXPECT_NE(kernels.axpy, nullptr);
    EXPECT_NE(kernels.conv1d_pack, nullptr);
    EXPECT_NE(kernels.conv1d_rows, nullptr);
    EXPECT_NE(kernels.tanh, nullptr);
    EXPECT_NE(kernels.affine_tanh_finish, nullptr);
    EXPECT_NE(kernels.matmul_panel_dot, nullptr);
    EXPECT_NE(kernels.matmul_ikj, nullptr);
    EXPECT_NE(kernels.softmax_rows, nullptr);
    EXPECT_NE(kernels.log_softmax_rows, nullptr);
    EXPECT_NE(kernels.gemm_s8s32, nullptr);
    EXPECT_NE(kernels.ann_dot_many, nullptr);
    EXPECT_NE(kernels.ann_l2sqr_many, nullptr);
    EXPECT_NE(kernels.ann_cosine_many, nullptr);
    EXPECT_NE(kernels.ann_dot_batch, nullptr);
  }
}

// Training runs the eval backend's [exact] entries, which give the scalar
// bits, and the scalar [approximate] ones.
void ExpectExactOverScalar(const simd::Kernels& train,
                           const simd::Kernels& eval) {
  const simd::Kernels& scalar = simd::KernelsFor(simd::Backend::kScalar);
  EXPECT_EQ(train.backend, eval.backend);
  EXPECT_EQ(train.add, eval.add);
  EXPECT_EQ(train.sub, eval.sub);
  EXPECT_EQ(train.mul, eval.mul);
  EXPECT_EQ(train.scale, eval.scale);
  EXPECT_EQ(train.axpy, eval.axpy);
  EXPECT_EQ(train.conv1d_pack, eval.conv1d_pack);
  EXPECT_EQ(train.conv1d_rows, eval.conv1d_rows);
  EXPECT_EQ(train.gemm_s8s32, eval.gemm_s8s32);
  EXPECT_EQ(train.tanh, scalar.tanh);
  EXPECT_EQ(train.affine_tanh_finish, scalar.affine_tanh_finish);
  EXPECT_EQ(train.matmul_panel_dot, scalar.matmul_panel_dot);
  EXPECT_EQ(train.matmul_ikj, scalar.matmul_ikj);
  EXPECT_EQ(train.softmax_rows, scalar.softmax_rows);
  EXPECT_EQ(train.log_softmax_rows, scalar.log_softmax_rows);
  EXPECT_EQ(train.ann_dot_many, scalar.ann_dot_many);
  EXPECT_EQ(train.ann_l2sqr_many, scalar.ann_l2sqr_many);
  EXPECT_EQ(train.ann_cosine_many, scalar.ann_cosine_many);
  EXPECT_EQ(train.ann_dot_batch, scalar.ann_dot_batch);
}

TEST(SimdDispatchTest, TrainKernelsTakeOnlyExactEntriesByDefault) {
  ExpectExactOverScalar(simd::TrainKernels(), simd::EvalKernels());
  // GradModeEnabled() is the process default, so Active() == TrainKernels.
  EXPECT_EQ(&simd::Active(), &simd::TrainKernels());
  // The train table follows a pinned eval backend.
  for (simd::Backend backend : simd::SupportedBackends()) {
    simd::ScopedEvalBackend pin(backend);
    ExpectExactOverScalar(simd::TrainKernels(), simd::KernelsFor(backend));
  }
}

TEST(SimdDispatchTest, EvalKernelsFollowDetectionUnlessPinned) {
  if (!simd::EvalBackendPinned()) {
    EXPECT_EQ(simd::EvalKernels().backend, simd::DetectBestBackend());
  }
  tensor::NoGradGuard no_grad;
  EXPECT_EQ(simd::Active().backend, simd::EvalKernels().backend);
}

TEST(SimdDispatchTest, ScopedPinOverridesAndRestores) {
  const bool was_pinned = simd::EvalBackendPinned();
  const simd::Backend before = simd::ActiveEvalBackend();
  {
    simd::ScopedEvalBackend pin(simd::Backend::kScalar);
    EXPECT_TRUE(simd::EvalBackendPinned());
    EXPECT_EQ(simd::ActiveEvalBackend(), simd::Backend::kScalar);
    EXPECT_EQ(simd::EvalKernels().backend, simd::Backend::kScalar);
  }
  EXPECT_EQ(simd::EvalBackendPinned(), was_pinned);
  EXPECT_EQ(simd::ActiveEvalBackend(), before);
}

TEST(SimdDispatchTest, SetBackendByNameValidatesInput) {
  const bool was_pinned = simd::EvalBackendPinned();
  const simd::Backend before = simd::ActiveEvalBackend();

  EXPECT_EQ(simd::SetBackendByName("warp9").code(),
            util::StatusCode::kInvalidArgument);
  ASSERT_TRUE(simd::SetBackendByName("scalar").ok());
  EXPECT_EQ(simd::ActiveEvalBackend(), simd::Backend::kScalar);
#if !defined(__aarch64__)
  EXPECT_EQ(simd::SetBackendByName("neon").code(),
            util::StatusCode::kFailedPrecondition);
  // A rejected pin must not clobber the accepted one.
  EXPECT_EQ(simd::ActiveEvalBackend(), simd::Backend::kScalar);
#endif
  ASSERT_TRUE(simd::SetBackendByName("auto").ok());
  EXPECT_FALSE(simd::EvalBackendPinned());

  // Put the process back the way the environment had it.
  if (was_pinned) {
    ASSERT_TRUE(simd::SetBackendByName(simd::BackendName(before)).ok());
  }
}

// ---- backend equivalence --------------------------------------------------

// ---- exactness sweep ------------------------------------------------------
//
// Every [exact] entry on every compiled backend against the scalar table,
// bit for bit, over shapes drawn log-uniformly from a fixed seed (the
// randomDoubleLog helper of OpenCV's TSTestWithParam), plus pinned shapes:
// the benchmark dims (word 16 + 2 x position 3 = 22 inputs, 32 filters, 17
// tokens), the paper's Table III dims (50 + 2 x 5 = 60, 230 filters, 30
// and 120 tokens), and dims and filter counts that leave vector tails. The
// exact kernel TUs are built with -ffp-contract=off (the AVX2 one without
// -mfma): a build that fuses a multiply and an add into an FMA rounds once
// instead of twice and fails this sweep.

class ShapeDraw {
 public:
  explicit ShapeDraw(uint64_t seed) : rng_(seed) {}
  // Log-uniform integer in [lo, hi].
  int LogUniform(int lo, int hi) {
    const double log_lo = std::log(static_cast<double>(lo));
    const double log_hi = std::log(static_cast<double>(hi) + 1.0);
    const int v = static_cast<int>(std::exp(rng_.Uniform(log_lo, log_hi)));
    return std::min(hi, std::max(lo, v));
  }
  int Pick(std::initializer_list<int> values) {
    const uint64_t i = rng_.UniformInt(values.size());
    return *(values.begin() + static_cast<long>(i));
  }

 private:
  util::Rng rng_;
};

struct ConvShape {
  int time, dim, filters, window;
};

std::string ShapeName(const ConvShape& s) {
  return "time=" + std::to_string(s.time) + " dim=" + std::to_string(s.dim) +
         " filters=" + std::to_string(s.filters) +
         " window=" + std::to_string(s.window);
}

std::vector<ConvShape> ConvSweepShapes() {
  std::vector<ConvShape> shapes = {
      {17, 22, 32, 3},    // benchmark dims
      {30, 60, 230, 3},   // Table III, 30 tokens
      {120, 60, 230, 3},  // Table III, 120 tokens
      {1, 22, 13, 3},     {2, 55, 7, 5},   {9, 55, 41, 3},
      {5, 1, 1, 1},       {3, 8, 8, 3},    {40, 19, 230, 5},
  };
  ShapeDraw draw(20240611);
  for (int i = 0; i < 48; ++i) {
    shapes.push_back({draw.LogUniform(1, 120), draw.LogUniform(1, 64),
                      draw.LogUniform(1, 256), draw.Pick({1, 3, 5})});
  }
  return shapes;
}

// Forward outputs of one conv through `kernels`, rows computed in chunks
// of `grain` (chunking must not change a bit either).
std::vector<float> ConvRows(const simd::Kernels& kernels,
                            const ConvShape& s, const std::vector<float>& x,
                            const std::vector<float>& weight,
                            const std::vector<float>& bias, int grain) {
  const int inner = s.window * s.dim;
  std::vector<float> packed(static_cast<size_t>(s.filters) * inner);
  kernels.conv1d_pack(weight.data(), s.filters, inner, packed.data());
  std::vector<float> out(static_cast<size_t>(s.time) * s.filters);
  for (int t = 0; t < s.time; t += grain) {
    kernels.conv1d_rows(x.data(), weight.data(), packed.data(), bias.data(),
                        out.data(), s.time, s.dim, s.filters, s.window, t,
                        std::min(s.time, t + grain));
  }
  return out;
}

TEST(SimdExactnessTest, ConvRowsBitIdenticalOnEveryBackend) {
  const simd::Kernels& scalar = simd::KernelsFor(simd::Backend::kScalar);
  uint64_t seed = 1;
  size_t outputs = 0;
  for (const ConvShape& s : ConvSweepShapes()) {
    const int inner = s.window * s.dim;
    const std::vector<float> x = RandomFloats(
        static_cast<size_t>(s.time) * s.dim, -1.0f, 1.0f, seed++);
    const std::vector<float> weight = RandomFloats(
        static_cast<size_t>(s.filters) * inner, -0.5f, 0.5f, seed++);
    const std::vector<float> bias =
        RandomFloats(static_cast<size_t>(s.filters), -0.5f, 0.5f, seed++);
    const std::vector<float> reference =
        ConvRows(scalar, s, x, weight, bias, s.time);
    outputs += reference.size();
    for (simd::Backend backend : simd::SupportedBackends()) {
      const simd::Kernels& kernels = simd::KernelsFor(backend);
      for (int grain : {s.time, 3}) {
        EXPECT_EQ(BitMismatches(ConvRows(kernels, s, x, weight, bias, grain),
                                reference),
                  0u)
            << simd::BackendName(backend) << " " << ShapeName(s)
            << " grain=" << grain << " (of " << reference.size()
            << " outputs)";
      }
    }
  }
  EXPECT_GT(outputs, 50000u);  // the sweep is not vacuous
}

TEST(SimdExactnessTest, ElementwiseAndAxpyBitIdenticalOnEveryBackend) {
  const simd::Kernels& scalar = simd::KernelsFor(simd::Backend::kScalar);
  ShapeDraw draw(77);
  std::vector<size_t> sizes = {1, 3, 7, 8, 9, 19, 22, 55, 57, 165};
  for (int i = 0; i < 40; ++i) {
    sizes.push_back(static_cast<size_t>(draw.LogUniform(1, 5000)));
  }
  uint64_t seed = 100;
  for (const size_t n : sizes) {
    const std::vector<float> a = RandomFloats(n, -3.0f, 3.0f, seed++);
    const std::vector<float> b = RandomFloats(n, -3.0f, 3.0f, seed++);
    const float s = static_cast<float>(draw.LogUniform(1, 1000)) / 77.0f;
    auto run = [&](const simd::Kernels& k) {
      std::vector<std::vector<float>> out(5, std::vector<float>(n));
      k.add(a.data(), b.data(), out[0].data(), n);
      k.sub(a.data(), b.data(), out[1].data(), n);
      k.mul(a.data(), b.data(), out[2].data(), n);
      k.scale(a.data(), s, out[3].data(), n);
      out[4] = b;
      k.axpy(s, a.data(), out[4].data(), n);
      k.axpy(-0.3f, b.data(), out[4].data(), n);
      return out;
    };
    const std::vector<std::vector<float>> reference = run(scalar);
    const char* names[] = {"add", "sub", "mul", "scale", "axpy"};
    for (simd::Backend backend : simd::SupportedBackends()) {
      const std::vector<std::vector<float>> out =
          run(simd::KernelsFor(backend));
      for (size_t e = 0; e < out.size(); ++e) {
        EXPECT_EQ(BitMismatches(out[e], reference[e]), 0u)
            << simd::BackendName(backend) << " " << names[e] << " n=" << n;
      }
    }
  }
}

TEST(SimdKernelTest, TanhWithinDocumentedUlpBound) {
  // Cover the clamp region, the polynomial core, and denormal-adjacent
  // inputs; 8 ULP is the bound documented in vec_math.h.
  std::vector<float> x = RandomFloats(1000, -10.0f, 10.0f, 42);
  x.insert(x.end(), {0.0f, -0.0f, 1e-8f, -1e-8f, simd::kTanhClamp,
                     -simd::kTanhClamp, 25.0f, -25.0f});
  const size_t n = x.size();
  std::vector<float> reference(n);
  for (size_t i = 0; i < n; ++i) reference[i] = std::tanh(x[i]);
  for (simd::Backend backend : simd::SupportedBackends()) {
    const simd::Kernels& kernels = simd::KernelsFor(backend);
    std::vector<float> out(n);
    kernels.tanh(x.data(), out.data(), n);
    for (size_t i = 0; i < n; ++i) {
      EXPECT_LE(UlpDistance(out[i], reference[i]), 8)
          << simd::BackendName(backend) << " tanh(" << x[i] << ") = "
          << out[i] << " want " << reference[i];
    }
  }
}

TEST(SimdKernelTest, AffineTanhFinishMatchesScalarWithinUlpBound) {
  const int rows = 5, cols = 37;
  const std::vector<float> base =
      RandomFloats(static_cast<size_t>(rows) * cols, -4.0f, 4.0f, 77);
  const std::vector<float> bias = RandomFloats(cols, -1.0f, 1.0f, 78);
  std::vector<float> reference = base;
  simd::KernelsFor(simd::Backend::kScalar)
      .affine_tanh_finish(reference.data(), bias.data(), rows, cols);
  for (simd::Backend backend : simd::SupportedBackends()) {
    std::vector<float> out = base;
    simd::KernelsFor(backend).affine_tanh_finish(out.data(), bias.data(),
                                                 rows, cols);
    for (size_t i = 0; i < out.size(); ++i) {
      EXPECT_LE(UlpDistance(out[i], reference[i]), 8)
          << simd::BackendName(backend) << " at " << i;
    }
  }
}

TEST(SimdKernelTest, MatMulKernelsMatchScalarWithinTolerance) {
  const int rows = 9, inner = 67, cols = 21;
  const std::vector<float> a =
      RandomFloats(static_cast<size_t>(rows) * inner, -1.0f, 1.0f, 5);
  const std::vector<float> b =
      RandomFloats(static_cast<size_t>(inner) * cols, -1.0f, 1.0f, 6);
  // Packed B^T panel, the layout MatMulForwardInto hands the kernel.
  std::vector<float> bt(static_cast<size_t>(cols) * inner);
  for (int j = 0; j < cols; ++j) {
    for (int k = 0; k < inner; ++k) {
      bt[static_cast<size_t>(j) * inner + k] =
          b[static_cast<size_t>(k) * cols + j];
    }
  }
  const size_t out_size = static_cast<size_t>(rows) * cols;
  std::vector<float> ref_panel(out_size), ref_ikj(out_size, 0.0f);
  const simd::Kernels& scalar = simd::KernelsFor(simd::Backend::kScalar);
  scalar.matmul_panel_dot(a.data(), bt.data(), ref_panel.data(), 0, rows,
                          inner, cols);
  scalar.matmul_ikj(a.data(), b.data(), ref_ikj.data(), rows, inner, cols);
  for (simd::Backend backend : simd::SupportedBackends()) {
    const simd::Kernels& kernels = simd::KernelsFor(backend);
    std::vector<float> panel(out_size), ikj(out_size, 0.0f);
    kernels.matmul_panel_dot(a.data(), bt.data(), panel.data(), 0, rows,
                             inner, cols);
    kernels.matmul_ikj(a.data(), b.data(), ikj.data(), rows, inner, cols);
    for (size_t i = 0; i < out_size; ++i) {
      // Reassociated dot products over `inner` terms: allow a small
      // absolute slack scaled by the term count.
      EXPECT_NEAR(panel[i], ref_panel[i], 1e-5f * inner)
          << simd::BackendName(backend) << " panel at " << i;
      EXPECT_NEAR(ikj[i], ref_ikj[i], 1e-5f * inner)
          << simd::BackendName(backend) << " ikj at " << i;
    }
  }
}

TEST(SimdKernelTest, SoftmaxKernelsMatchScalarAndNormalize) {
  const int rows = 7, cols = 33;
  const std::vector<float> in =
      RandomFloats(static_cast<size_t>(rows) * cols, -8.0f, 8.0f, 13);
  const size_t n = in.size();
  std::vector<float> ref_soft(n), ref_log(n);
  const simd::Kernels& scalar = simd::KernelsFor(simd::Backend::kScalar);
  scalar.softmax_rows(in.data(), ref_soft.data(), rows, cols);
  scalar.log_softmax_rows(in.data(), ref_log.data(), rows, cols);
  for (simd::Backend backend : simd::SupportedBackends()) {
    const simd::Kernels& kernels = simd::KernelsFor(backend);
    std::vector<float> soft(n), logsoft(n);
    kernels.softmax_rows(in.data(), soft.data(), rows, cols);
    kernels.log_softmax_rows(in.data(), logsoft.data(), rows, cols);
    for (int r = 0; r < rows; ++r) {
      double sum = 0.0;
      for (int c = 0; c < cols; ++c) {
        const size_t i = static_cast<size_t>(r) * cols + c;
        sum += soft[i];
        EXPECT_NEAR(soft[i], ref_soft[i], 1e-5f)
            << simd::BackendName(backend) << " softmax at " << i;
        EXPECT_NEAR(logsoft[i], ref_log[i], 1e-4f)
            << simd::BackendName(backend) << " log_softmax at " << i;
      }
      EXPECT_NEAR(sum, 1.0, 1e-4) << simd::BackendName(backend);
    }
  }
}

TEST(SimdExactnessTest, GemmS8S32BitIdenticalOnEveryBackend) {
  util::Rng rng(99);
  ShapeDraw draw(31);
  std::vector<std::array<int, 3>> shapes = {{6, 53, 19}};  // rows, inner, cols
  for (int i = 0; i < 12; ++i) {
    shapes.push_back({draw.LogUniform(1, 64), draw.LogUniform(1, 300),
                      draw.LogUniform(1, 64)});
  }
  for (const auto& [rows, inner, cols] : shapes) {
    std::vector<int8_t> a(static_cast<size_t>(rows) * inner);
    std::vector<int8_t> wt(static_cast<size_t>(cols) * inner);
    for (int8_t& v : a) {
      v = static_cast<int8_t>(static_cast<int>(rng.UniformInt(255)) - 127);
    }
    for (int8_t& v : wt) {
      v = static_cast<int8_t>(static_cast<int>(rng.UniformInt(255)) - 127);
    }
    const size_t out_size = static_cast<size_t>(rows) * cols;
    std::vector<int32_t> reference(out_size);
    simd::KernelsFor(simd::Backend::kScalar)
        .gemm_s8s32(a.data(), wt.data(), reference.data(), rows, inner, cols);
    // Spot-check the scalar reference against a plain 64-bit loop.
    for (int r = 0; r < rows; ++r) {
      for (int c = 0; c < cols; ++c) {
        int64_t want = 0;
        for (int k = 0; k < inner; ++k) {
          want += static_cast<int64_t>(a[static_cast<size_t>(r) * inner + k]) *
                  wt[static_cast<size_t>(c) * inner + k];
        }
        EXPECT_EQ(reference[static_cast<size_t>(r) * cols + c], want);
      }
    }
    for (simd::Backend backend : simd::SupportedBackends()) {
      std::vector<int32_t> out(out_size);
      simd::KernelsFor(backend).gemm_s8s32(a.data(), wt.data(), out.data(),
                                           rows, inner, cols);
      EXPECT_EQ(out, reference) << simd::BackendName(backend) << " " << rows
                                << "x" << inner << "x" << cols;
    }
  }
}

// ---- dispatch through the tensor ops --------------------------------------

TEST(SimdOpsTest, TrainingModeTanhStaysBitIdenticalToStdTanh) {
  // Grad mode is on by default, so this goes through TrainKernels() ==
  // scalar even when the eval backend is pinned to a vector ISA.
  simd::ScopedEvalBackend pin(simd::DetectBestBackend());
  tensor::Tensor x = tensor::Tensor::FromData(
      {64}, RandomFloats(64, -5.0f, 5.0f, 314), /*requires_grad=*/true);
  tensor::Tensor y = tensor::Tanh(x);
  for (size_t i = 0; i < y.size(); ++i) {
    EXPECT_EQ(y.data()[i], std::tanh(x.data()[i]));
  }
}

// Conv1dSame forward and backward through the op, under grad mode (the
// pinned backend's TrainKernels) and under NoGradGuard, bit for bit
// against the scalar pin. The output gradient is a mask of mostly zeros,
// some -0.0f, the way a piecewise max pool leaves it.
TEST(SimdOpsTest, ConvForwardAndBackwardBitIdenticalOnEveryBackend) {
  struct Result {
    std::vector<float> out, eval_out, gx, gw, gb;
  };
  for (const ConvShape& s : {ConvShape{17, 22, 32, 3},
                             ConvShape{30, 60, 230, 3},
                             ConvShape{6, 55, 13, 5}}) {
    const int inner = s.window * s.dim;
    const std::vector<float> xv =
        RandomFloats(static_cast<size_t>(s.time) * s.dim, -1.0f, 1.0f, 3);
    const std::vector<float> wv =
        RandomFloats(static_cast<size_t>(s.filters) * inner, -0.5f, 0.5f, 4);
    const std::vector<float> bv =
        RandomFloats(static_cast<size_t>(s.filters), -0.5f, 0.5f, 5);
    std::vector<float> mask(static_cast<size_t>(s.time) * s.filters, 0.0f);
    util::Rng rng(6);
    for (float& m : mask) {
      const uint64_t pick = rng.UniformInt(10);
      if (pick == 0) m = -0.0f;
      if (pick >= 8) m = static_cast<float>(rng.Uniform(-1.0, 1.0));
    }
    auto run = [&](simd::Backend backend) {
      simd::ScopedEvalBackend pin(backend);
      Result r;
      tensor::Tensor x = tensor::Tensor::FromData({s.time, s.dim}, xv, true);
      tensor::Tensor w =
          tensor::Tensor::FromData({s.filters, inner}, wv, true);
      tensor::Tensor b = tensor::Tensor::FromData({s.filters}, bv, true);
      tensor::Tensor out = tensor::Conv1dSame(x, w, b, s.window);
      tensor::Sum(tensor::Mul(
                      out, tensor::Tensor::FromData({s.time, s.filters}, mask)))
          .Backward();
      r.out = out.data();
      r.gx = x.grad();
      r.gw = w.grad();
      r.gb = b.grad();
      tensor::NoGradGuard no_grad;
      r.eval_out = tensor::Conv1dSame(x, w, b, s.window).data();
      return r;
    };
    const Result reference = run(simd::Backend::kScalar);
    for (simd::Backend backend : simd::SupportedBackends()) {
      const Result r = run(backend);
      const std::string where =
          std::string(simd::BackendName(backend)) + " " + ShapeName(s);
      EXPECT_EQ(BitMismatches(r.out, reference.out), 0u) << where;
      EXPECT_EQ(BitMismatches(r.eval_out, reference.out), 0u) << where;
      EXPECT_EQ(BitMismatches(r.gx, reference.gx), 0u) << where;
      EXPECT_EQ(BitMismatches(r.gw, reference.gw), 0u) << where;
      EXPECT_EQ(BitMismatches(r.gb, reference.gb), 0u) << where;
    }
  }
}

TEST(SimdOpsTest, EvalResultsAgreeAcrossBackendsWithinTolerance) {
  tensor::Tensor a = tensor::Tensor::FromData(
      {8, 48}, RandomFloats(8 * 48, -1.0f, 1.0f, 21));
  tensor::Tensor b = tensor::Tensor::FromData(
      {48, 12}, RandomFloats(48 * 12, -1.0f, 1.0f, 22));
  tensor::NoGradGuard no_grad;
  simd::ScopedEvalBackend scalar_pin(simd::Backend::kScalar);
  tensor::Tensor reference = tensor::Softmax(tensor::MatMul(a, b));
  for (simd::Backend backend : simd::SupportedBackends()) {
    simd::ScopedEvalBackend pin(backend);
    tensor::Tensor out = tensor::Softmax(tensor::MatMul(a, b));
    ASSERT_EQ(out.size(), reference.size());
    for (size_t i = 0; i < out.size(); ++i) {
      EXPECT_NEAR(out.data()[i], reference.data()[i], 1e-5f)
          << simd::BackendName(backend) << " at " << i;
    }
  }
}

// ---- int8 quantization ----------------------------------------------------

TEST(QuantizationTest, EmbeddingRoundTripWithinHalfScale) {
  graph::EmbeddingStore store(10, 24);
  util::Rng rng(7);
  for (int v = 0; v < store.num_vertices(); ++v) {
    float* row = store.Vector(v);
    for (int d = 0; d < store.dim(); ++d) row[d] = rng.Uniform(-2.0f, 2.0f);
  }
  const auto quantized = graph::QuantizedEmbeddingStore::Quantize(store);
  EXPECT_EQ(quantized.num_vertices(), store.num_vertices());
  EXPECT_EQ(quantized.dim(), store.dim());
  for (int v = 0; v < store.num_vertices(); ++v) {
    const float bound = quantized.scale(v) * 0.5f + 1e-7f;
    const std::vector<float> back = quantized.Dequantize(v);
    for (int d = 0; d < store.dim(); ++d) {
      EXPECT_NEAR(back[static_cast<size_t>(d)], store.Vector(v)[d], bound);
    }
  }
  EXPECT_LE(quantized.MaxAbsError(store),
            0.5 * (2.0 / 127.0) + 1e-7);  // maxabs <= 2 => scale <= 2/127
}

TEST(QuantizationTest, ZeroRowsQuantizeToZeroScale) {
  graph::EmbeddingStore store(3, 8);
  float* row = store.Vector(1);
  for (int d = 0; d < store.dim(); ++d) row[d] = 0.5f * (d + 1);
  const auto quantized = graph::QuantizedEmbeddingStore::Quantize(store);
  EXPECT_EQ(quantized.scale(0), 0.0f);
  for (float v : quantized.Dequantize(0)) EXPECT_EQ(v, 0.0f);
  EXPECT_GT(quantized.scale(1), 0.0f);
}

TEST(QuantizationTest, QuantizedMutualRelationTracksFp32) {
  graph::EmbeddingStore store(6, 16);
  util::Rng rng(8);
  for (int v = 0; v < store.num_vertices(); ++v) {
    float* row = store.Vector(v);
    for (int d = 0; d < store.dim(); ++d) row[d] = rng.Uniform(-1.0f, 1.0f);
  }
  const auto quantized = graph::QuantizedEmbeddingStore::Quantize(store);
  const std::vector<float> exact = store.MutualRelation(2, 5);
  const std::vector<float> approx = quantized.MutualRelation(2, 5);
  ASSERT_EQ(exact.size(), approx.size());
  const float bound =
      0.5f * (quantized.scale(2) + quantized.scale(5)) + 1e-7f;
  for (size_t d = 0; d < exact.size(); ++d) {
    EXPECT_NEAR(approx[d], exact[d], bound) << "dim " << d;
  }
}

TEST(QuantizationTest, QuantizedLinearTracksFp32Forward) {
  util::Rng rng(17);
  nn::Linear linear(40, 11, &rng);
  const nn::QuantizedLinear quantized(linear);
  EXPECT_EQ(quantized.in_features(), 40);
  EXPECT_EQ(quantized.out_features(), 11);
  tensor::Tensor x = tensor::Tensor::FromData(
      {4, 40}, RandomFloats(4 * 40, -1.0f, 1.0f, 55));
  tensor::NoGradGuard no_grad;
  tensor::Tensor exact = linear.Forward(x);
  tensor::Tensor approx = quantized.Forward(x);
  ASSERT_EQ(approx.shape(), exact.shape());
  for (size_t i = 0; i < exact.size(); ++i) {
    // Each output sums 40 products of values in ~[-1, 1] quantized to
    // ~1/127 granularity; 0.05 is ~6x the observed worst case.
    EXPECT_NEAR(approx.data()[i], exact.data()[i], 0.05f) << "at " << i;
  }
  // Rank-1 path agrees with the corresponding rank-2 row.
  tensor::Tensor row = tensor::Tensor::FromData(
      {40}, std::vector<float>(x.data().begin(), x.data().begin() + 40));
  tensor::Tensor row_out = quantized.Forward(row);
  ASSERT_EQ(row_out.rank(), 1);
  for (size_t i = 0; i < row_out.size(); ++i) {
    EXPECT_EQ(row_out.data()[i], approx.data()[i]);
  }
}

TEST(QuantizationTest, QuantizedLinearIsBackendInvariant) {
  util::Rng rng(18);
  nn::Linear linear(32, 9, &rng);
  const nn::QuantizedLinear quantized(linear);
  tensor::Tensor x = tensor::Tensor::FromData(
      {3, 32}, RandomFloats(3 * 32, -2.0f, 2.0f, 56));
  tensor::NoGradGuard no_grad;
  std::vector<float> reference;
  {
    simd::ScopedEvalBackend pin(simd::Backend::kScalar);
    reference = quantized.Forward(x).data();
  }
  for (simd::Backend backend : simd::SupportedBackends()) {
    simd::ScopedEvalBackend pin(backend);
    // Integer accumulation plus one fp32 dequantize per output: the whole
    // forward is bit-identical on every backend.
    EXPECT_EQ(quantized.Forward(x).data(), reference)
        << simd::BackendName(backend);
  }
}

}  // namespace
}  // namespace imr
