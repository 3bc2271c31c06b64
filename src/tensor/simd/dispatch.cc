#include "tensor/simd/dispatch.h"

#include <atomic>
#include <cstdlib>

#include "tensor/simd/kernels_internal.h"
#include "tensor/tensor.h"
#include "util/logging.h"

namespace imr::tensor::simd {
namespace {

// Dispatch state. Written at startup (env), by flag parsing, or by scoped
// test/bench pins; read on every op entry — relaxed atomics keep the reads
// free and TSan-clean. -1 means "no pin".
std::atomic<int> g_pinned_backend{-1};

constexpr int kBackendCount = 4;

bool CpuSupports(Backend backend) {
  switch (backend) {
    case Backend::kScalar:
      return true;
    case Backend::kSse2:
#if defined(__x86_64__) || defined(__i386__)
      return __builtin_cpu_supports("sse2");
#else
      return false;
#endif
    case Backend::kAvx2:
#if defined(__x86_64__) || defined(__i386__)
      return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
      return false;
#endif
    case Backend::kNeon:
#if defined(__aarch64__)
      return true;  // NEON is architectural on AArch64.
#else
      return false;
#endif
  }
  return false;
}

// Returns true and sets *backend / *is_auto on a recognized name. Shared by
// SetBackendByName and the env parsing in the Registry constructor (which
// must not re-enter the public API while the registry static initializes).
bool ParseBackendName(const std::string& name, Backend* backend,
                      bool* is_auto) {
  *is_auto = false;
  if (name.empty() || name == "auto") {
    *is_auto = true;
    return true;
  }
  if (name == "scalar") {
    *backend = Backend::kScalar;
  } else if (name == "sse2") {
    *backend = Backend::kSse2;
  } else if (name == "avx2") {
    *backend = Backend::kAvx2;
  } else if (name == "neon") {
    *backend = Backend::kNeon;
  } else {
    return false;
  }
  return true;
}

// Copies the non-null entries of `overlay` over `base`.
void Overlay(const Kernels& overlay, Kernels* base) {
  auto take = [](auto from, auto* to) {
    if (from != nullptr) *to = from;
  };
  take(overlay.add, &base->add);
  take(overlay.sub, &base->sub);
  take(overlay.mul, &base->mul);
  take(overlay.scale, &base->scale);
  take(overlay.axpy, &base->axpy);
  take(overlay.conv1d_pack, &base->conv1d_pack);
  take(overlay.conv1d_rows, &base->conv1d_rows);
  take(overlay.gemm_s8s32, &base->gemm_s8s32);
  take(overlay.tanh, &base->tanh);
  take(overlay.affine_tanh_finish, &base->affine_tanh_finish);
  take(overlay.matmul_panel_dot, &base->matmul_panel_dot);
  take(overlay.matmul_ikj, &base->matmul_ikj);
  take(overlay.softmax_rows, &base->softmax_rows);
  take(overlay.log_softmax_rows, &base->log_softmax_rows);
  take(overlay.ann_dot_many, &base->ann_dot_many);
  take(overlay.ann_l2sqr_many, &base->ann_l2sqr_many);
  take(overlay.ann_cosine_many, &base->ann_cosine_many);
  take(overlay.ann_dot_batch, &base->ann_dot_batch);
}

// The [exact] entries of `table` (see dispatch.h) over the scalar
// reference: what training runs by default.
Kernels ExactOverScalar(const Kernels& table) {
  Kernels exact = *ScalarKernels();
  exact.backend = table.backend;
  exact.add = table.add;
  exact.sub = table.sub;
  exact.mul = table.mul;
  exact.scale = table.scale;
  exact.axpy = table.axpy;
  exact.conv1d_pack = table.conv1d_pack;
  exact.conv1d_rows = table.conv1d_rows;
  exact.gemm_s8s32 = table.gemm_s8s32;
  return exact;
}

// The full table of `backend` over the scalar reference; false when the
// ISA is not compiled into this build.
bool BuildTable(Backend backend, Kernels* table) {
  *table = *ScalarKernels();
  table->backend = backend;
  switch (backend) {
    case Backend::kScalar:
      return true;
    case Backend::kSse2:
      if (Sse2Kernels() == nullptr) return false;
      Overlay(*Sse2Kernels(), table);
      return true;
    case Backend::kAvx2:
      if (Avx2ExactKernels() == nullptr || Avx2Kernels() == nullptr) {
        return false;
      }
      Overlay(*Avx2ExactKernels(), table);
      Overlay(*Avx2Kernels(), table);
      return true;
    case Backend::kNeon:
      if (NeonKernels() == nullptr) return false;
      Overlay(*NeonKernels(), table);
      return true;
  }
  return false;
}

struct Registry {
  Kernels tables[kBackendCount];
  Kernels train_tables[kBackendCount];  // ExactOverScalar(tables[i])
  bool supported[kBackendCount] = {false, false, false, false};
  Backend best = Backend::kScalar;

  Registry() {
    for (int i = 0; i < kBackendCount; ++i) {
      const Backend backend = static_cast<Backend>(i);
      if (!CpuSupports(backend) || !BuildTable(backend, &tables[i])) continue;
      train_tables[i] = ExactOverScalar(tables[i]);
      supported[i] = true;
      // Preference order matches the enum: scalar < sse2 < avx2; NEON only
      // exists where the x86 tiers do not, so "highest supported" is right
      // on both architectures.
      best = backend;
    }
    ApplyEnvironment();
  }

  void ApplyEnvironment() {
    if (const char* env = std::getenv("IMR_KERNEL_BACKEND")) {
      Backend backend = Backend::kScalar;
      bool is_auto = false;
      if (!ParseBackendName(env, &backend, &is_auto)) {
        IMR_LOG(Warning) << "IMR_KERNEL_BACKEND=" << env
                         << " ignored: unknown backend name";
      } else if (!is_auto && !supported[static_cast<int>(backend)]) {
        IMR_LOG(Warning) << "IMR_KERNEL_BACKEND=" << env
                         << " ignored: backend not supported on this host";
      } else if (!is_auto) {
        g_pinned_backend.store(static_cast<int>(backend),
                               std::memory_order_relaxed);
      }
    }
  }
};

Registry& GetRegistry() {
  static Registry registry;
  return registry;
}

}  // namespace

const char* BackendName(Backend backend) {
  switch (backend) {
    case Backend::kScalar:
      return "scalar";
    case Backend::kSse2:
      return "sse2";
    case Backend::kAvx2:
      return "avx2";
    case Backend::kNeon:
      return "neon";
  }
  return "unknown";
}

Backend DetectBestBackend() { return GetRegistry().best; }

bool BackendSupported(Backend backend) {
  const int index = static_cast<int>(backend);
  if (index < 0 || index >= kBackendCount) return false;
  return GetRegistry().supported[index];
}

std::vector<Backend> SupportedBackends() {
  std::vector<Backend> result;
  for (int i = 0; i < kBackendCount; ++i) {
    if (GetRegistry().supported[i]) result.push_back(static_cast<Backend>(i));
  }
  return result;
}

const Kernels& KernelsFor(Backend backend) {
  IMR_CHECK(BackendSupported(backend));
  return GetRegistry().tables[static_cast<int>(backend)];
}

Backend ActiveEvalBackend() {
  // Touch the registry FIRST: its constructor applies the
  // IMR_KERNEL_BACKEND environment pin, so reading g_pinned_backend
  // before it exists would misreport the backend (and resolve the wrong
  // kernel table) when this is the process's first dispatch call.
  const Registry& registry = GetRegistry();
  const int pinned = g_pinned_backend.load(std::memory_order_relaxed);
  if (pinned >= 0) return static_cast<Backend>(pinned);
  return registry.best;
}

bool EvalBackendPinned() {
  GetRegistry();  // applies the environment pin on first use
  return g_pinned_backend.load(std::memory_order_relaxed) >= 0;
}

const Kernels& EvalKernels() { return KernelsFor(ActiveEvalBackend()); }

const Kernels& TrainKernels() {
  const Backend backend = ActiveEvalBackend();
  IMR_CHECK(BackendSupported(backend));
  return GetRegistry().train_tables[static_cast<int>(backend)];
}

const Kernels& Active() {
  return GradModeEnabled() ? TrainKernels() : EvalKernels();
}

util::Status SetBackendByName(const std::string& name) {
  Backend backend = Backend::kScalar;
  bool is_auto = false;
  if (!ParseBackendName(name, &backend, &is_auto)) {
    return util::InvalidArgument("unknown kernel backend '" + name +
                                 "' (want auto|scalar|sse2|avx2|neon)");
  }
  if (is_auto) {
    g_pinned_backend.store(-1, std::memory_order_relaxed);
    return util::OkStatus();
  }
  if (!BackendSupported(backend)) {
    return util::FailedPrecondition(std::string("kernel backend '") +
                                    BackendName(backend) +
                                    "' is not supported on this host/build");
  }
  g_pinned_backend.store(static_cast<int>(backend), std::memory_order_relaxed);
  return util::OkStatus();
}

ScopedEvalBackend::ScopedEvalBackend(Backend backend)
    : previous_pin_(g_pinned_backend.load(std::memory_order_relaxed)) {
  IMR_CHECK(BackendSupported(backend));
  g_pinned_backend.store(static_cast<int>(backend),
                         std::memory_order_relaxed);
}

ScopedEvalBackend::~ScopedEvalBackend() {
  g_pinned_backend.store(previous_pin_, std::memory_order_relaxed);
}

}  // namespace imr::tensor::simd
