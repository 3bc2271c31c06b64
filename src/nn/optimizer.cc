#include "nn/optimizer.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <thread>

#include "tensor/tensor.h"
#include "util/thread_pool.h"

namespace imr::nn {

namespace {

// Adam::Step's updates split into blocks of about this many floats, the
// pool's unit of work; a step enters the pool only from kAdamParallelFloats
// floats, about the work a pool handoff costs (a few microseconds) times
// the thread count at Adam's per-element cost (a square root and three
// divisions).
constexpr size_t kStepBlockFloats = 4096;
constexpr size_t kAdamParallelFloats = size_t{1} << 13;

// In-place AXPY-style parameter updates. Raw __restrict pointer loops the
// compiler can vectorise; the float expressions keep the exact association
// and operation order of the original element loops, so the fused updates
// are bit-identical to the code they replace. The row-sparse paths below
// call the same kernels on row slices, which keeps per-element arithmetic
// (and therefore the result bits) identical to a full dense pass.

void SgdUpdateInPlace(float* __restrict v, const float* __restrict g,
                      size_t n, float lr, float scale, float weight_decay) {
  if (weight_decay > 0.0f) {
    for (size_t i = 0; i < n; ++i) {
      const float grad = g[i] * scale + weight_decay * v[i];
      v[i] -= lr * grad;
    }
  } else {
    for (size_t i = 0; i < n; ++i) {
      v[i] -= lr * (g[i] * scale);
    }
  }
}

void AdagradUpdateInPlace(float* __restrict v, float* __restrict acc,
                          const float* __restrict g, size_t n, float lr,
                          float epsilon) {
  for (size_t i = 0; i < n; ++i) {
    acc[i] += g[i] * g[i];
    v[i] -= lr * g[i] / (std::sqrt(acc[i]) + epsilon);
  }
}

void AdamUpdateInPlace(float* __restrict v, float* __restrict m,
                       float* __restrict s, const float* __restrict g,
                       size_t n, float lr, float beta1, float beta2,
                       float bias1, float bias2, float epsilon) {
  for (size_t i = 0; i < n; ++i) {
    m[i] = beta1 * m[i] + (1.0f - beta1) * g[i];
    s[i] = beta2 * s[i] + (1.0f - beta2) * g[i] * g[i];
    const float m_hat = m[i] / bias1;
    const float v_hat = s[i] / bias2;
    v[i] -= lr * m_hat / (std::sqrt(v_hat) + epsilon);
  }
}

// Sanctioned gradient readers. These are the only places optimizers walk a
// gradient buffer, so the row-sparse/dense split lives here; the imr_lint
// rule `optimizer-dense-grad` flags ad-hoc full-gradient loops added
// elsewhere in this file.

// Sum of squared gradient elements. Walks only touched rows when the
// gradient is row-sparse — untouched rows are all-zero and a square is
// never -0.0, so skipping them adds exactly 0.0 and the double total is
// bit-identical to the dense scan.
double GradSquaredSum(const tensor::Tensor& p) {
  const auto& g = p.grad();
  if (g.empty()) return 0.0;
  double total = 0.0;
  if (p.grad_is_row_sparse()) {
    const size_t cols = static_cast<size_t>(p.cols());
    for (int r : p.grad_touched_rows()) {
      const float* row = g.data() + static_cast<size_t>(r) * cols;
      for (size_t c = 0; c < cols; ++c)
        total += static_cast<double>(row[c]) * row[c];
    }
    return total;
  }
  const float* gp = g.data();
  const size_t n = g.size();
  for (size_t i = 0; i < n; ++i)
    total += static_cast<double>(gp[i]) * gp[i];
  return total;
}

// Books one optimizer consumption of parameter p's gradient into
// tensor::SparseGradStats. Only row-sparse-capable parameters are counted;
// `walked_rows` is the number of rows the update actually visited.
void NoteConsumption(const tensor::Tensor& p, bool capable,
                     size_t walked_rows, bool dense_fallback) {
  if (!capable) return;
  tensor::internal::NoteSparseRowsConsumed(
      static_cast<uint64_t>(walked_rows), static_cast<uint64_t>(p.rows()));
  if (dense_fallback) tensor::internal::NoteDenseFallback();
}

}  // namespace

Optimizer::Optimizer(Module* module, float learning_rate)
    : learning_rate_(learning_rate) {
  for (NamedParameter& p : module->Parameters()) {
    params_.push_back(p.tensor);
    sparse_capable_.push_back(p.tensor.row_sparse_grad());
  }
}

Sgd::Sgd(Module* module, float learning_rate, float weight_decay,
         float clip_norm)
    : Optimizer(module, learning_rate),
      weight_decay_(weight_decay),
      clip_norm_(clip_norm) {}

void Sgd::Step() {
  float scale = 1.0f;
  if (clip_norm_ > 0.0f) {
    double total = 0.0;
    for (auto& p : params_) total += GradSquaredSum(p);
    const double norm = std::sqrt(total);
    if (norm > clip_norm_) scale = static_cast<float>(clip_norm_ / norm);
  }
  for (size_t i = 0; i < params_.size(); ++i) {
    auto& p = params_[i];
    const auto& g = p.grad();
    if (g.empty()) continue;
    auto& values = p.mutable_data();
    // Weight decay reads every parameter element, so it is dense-only.
    if (weight_decay_ == 0.0f && p.grad_is_row_sparse()) {
      const size_t cols = static_cast<size_t>(p.cols());
      const auto& touched = p.grad_touched_rows();
      for (int r : touched) {
        const size_t off = static_cast<size_t>(r) * cols;
        SgdUpdateInPlace(values.data() + off, g.data() + off, cols,
                         learning_rate_, scale, 0.0f);
      }
      NoteConsumption(p, sparse_capable_[i], touched.size(),
                      /*dense_fallback=*/false);
    } else {
      SgdUpdateInPlace(values.data(), g.data(), values.size(),
                       learning_rate_, scale, weight_decay_);
      NoteConsumption(p, sparse_capable_[i],
                      static_cast<size_t>(p.rows()), /*dense_fallback=*/true);
    }
    p.ZeroGrad();
  }
}

Adagrad::Adagrad(Module* module, float learning_rate, float epsilon)
    : Optimizer(module, learning_rate), epsilon_(epsilon) {
  accum_.resize(params_.size());
  for (size_t i = 0; i < params_.size(); ++i)
    accum_[i].assign(params_[i].size(), 0.0f);
}

void Adagrad::Step() {
  for (size_t i = 0; i < params_.size(); ++i) {
    auto& p = params_[i];
    const auto& g = p.grad();
    if (g.empty()) continue;
    auto& values = p.mutable_data();
    // A zero-gradient Adagrad element update is an exact no-op (the
    // accumulator gains +0.0 and the write-back subtracts 0.0), so walking
    // only touched rows is bit-identical to the dense pass.
    if (p.grad_is_row_sparse()) {
      const size_t cols = static_cast<size_t>(p.cols());
      const auto& touched = p.grad_touched_rows();
      for (int r : touched) {
        const size_t off = static_cast<size_t>(r) * cols;
        AdagradUpdateInPlace(values.data() + off, accum_[i].data() + off,
                             g.data() + off, cols, learning_rate_, epsilon_);
      }
      NoteConsumption(p, sparse_capable_[i], touched.size(),
                      /*dense_fallback=*/false);
    } else {
      AdagradUpdateInPlace(values.data(), accum_[i].data(), g.data(),
                           values.size(), learning_rate_, epsilon_);
      NoteConsumption(p, sparse_capable_[i],
                      static_cast<size_t>(p.rows()), /*dense_fallback=*/true);
    }
    p.ZeroGrad();
  }
}

Adam::Adam(Module* module, float learning_rate, float beta1, float beta2,
           float epsilon)
    : Optimizer(module, learning_rate),
      beta1_(beta1),
      beta2_(beta2),
      epsilon_(epsilon) {
  m_.resize(params_.size());
  v_.resize(params_.size());
  hist_.resize(params_.size());
  row_done_.resize(params_.size());
  for (size_t i = 0; i < params_.size(); ++i) {
    m_[i].assign(params_[i].size(), 0.0f);
    v_[i].assign(params_[i].size(), 0.0f);
    if (sparse_capable_[i]) {
      row_done_[i] = std::vector<std::atomic<uint32_t>>(
          static_cast<size_t>(params_[i].rows()));
      if (zero_row_.size() < static_cast<size_t>(params_[i].cols()))
        zero_row_.assign(static_cast<size_t>(params_[i].cols()), 0.0f);
      // Replay deferred updates for a stale row before GatherRows reads
      // its value — required for sparse == dense trajectory bit-identity.
      params_[i].set_row_materializer([this, i](const std::vector<int>& rows) {
        MaterializeRows(i, rows);
      });
    }
  }
}

Adam::~Adam() {
  // The hooks capture `this`; detach them before it dies.
  for (size_t i = 0; i < params_.size(); ++i)
    if (sparse_capable_[i]) params_[i].set_row_materializer(nullptr);
}

void Adam::AddUpdateBlocks(size_t param, UpdateBlock::Kind kind,
                           size_t units, size_t unit_floats) {
  const size_t per_block =
      std::max<size_t>(1, kStepBlockFloats / std::max<size_t>(1, unit_floats));
  for (size_t lo = 0; lo < units; lo += per_block) {
    blocks_.push_back({param, kind, lo, std::min(units, lo + per_block)});
  }
  block_floats_ += units * unit_floats;
}

void Adam::MaterializeRows(size_t i, const std::vector<int>& rows) {
  const uint32_t upto = static_cast<uint32_t>(hist_[i].size());
  if (upto == 0) return;
  std::atomic<uint32_t>* done = row_done_[i].data();
  for (int r : rows) {
    std::atomic<uint32_t>& row_done = done[static_cast<size_t>(r)];
    uint32_t seen = row_done.load(std::memory_order_acquire);
    while (seen != upto) {
      if ((seen & kRowBusy) != 0) {
        // Another chunk is replaying this row; its release store makes the
        // replayed values visible here.
        std::this_thread::yield();
        seen = row_done.load(std::memory_order_acquire);
      } else if (row_done.compare_exchange_weak(
                     seen, seen | kRowBusy, std::memory_order_acquire,
                     std::memory_order_acquire)) {
        ReplayRow(i, r, seen, upto);
        row_done.store(upto, std::memory_order_release);
        break;
      }
    }
  }
}

void Adam::ReplayRow(size_t i, int row, uint32_t from, uint32_t upto) {
  const size_t cols = static_cast<size_t>(params_[i].cols());
  const size_t off = static_cast<size_t>(row) * cols;
  float* values = params_[i].mutable_data().data() + off;
  float* m = m_[i].data() + off;
  float* s = v_[i].data() + off;
  for (uint32_t t = from; t < upto; ++t) {
    const StepRecord& h = hist_[i][t];
    AdamUpdateInPlace(values, m, s, zero_row_.data(), cols, h.lr, beta1_,
                      beta2_, h.bias1, h.bias2, epsilon_);
  }
}

void Adam::CatchUpRow(size_t i, int row, uint32_t upto) {
  std::atomic<uint32_t>& row_done = row_done_[i][static_cast<size_t>(row)];
  ReplayRow(i, row, row_done.load(std::memory_order_relaxed), upto);
  row_done.store(upto, std::memory_order_relaxed);
}

void Adam::Step() {
  util::MutexLock lock(mu_);
  ++step_;
  beta1_pow_ *= static_cast<double>(beta1_);
  beta2_pow_ *= static_cast<double>(beta2_);
  const float bias1 = static_cast<float>(1.0 - beta1_pow_);
  const float bias2 = static_cast<float>(1.0 - beta2_pow_);
  for (size_t i = 0; i < params_.size(); ++i) {
    auto& p = params_[i];
    if (p.grad().empty()) continue;
    if (!sparse_capable_[i]) {
      AddUpdateBlocks(i, UpdateBlock::kElements, p.size(), 1);
      continue;
    }
    // Row-sparse-capable parameter: record this step so rows skipped now
    // can replay the m/v decay later, then update each gradient-bearing
    // row after first catching it up on everything it missed. A dense
    // gradient (fallback) still goes row-by-row so per-row bookkeeping
    // stays exact; the arithmetic per element is unchanged either way.
    hist_[i].push_back({learning_rate_, bias1, bias2});
    const size_t cols = static_cast<size_t>(p.cols());
    if (p.grad_is_row_sparse()) {
      const size_t touched = p.grad_touched_rows().size();
      AddUpdateBlocks(i, UpdateBlock::kTouchedRows, touched, cols);
      NoteConsumption(p, true, touched, /*dense_fallback=*/false);
    } else {
      const size_t rows = static_cast<size_t>(p.rows());
      AddUpdateBlocks(i, UpdateBlock::kRows, rows, cols);
      NoteConsumption(p, true, rows, /*dense_fallback=*/true);
    }
  }
  // Every element belongs to one block and its update reads only its own
  // state (a row's catch-up stays inside the row's block), so running the
  // blocks on the pool gives the bits of one sequential pass.
  const float lr = learning_rate_;
  const auto update = [&](const UpdateBlock& b) {
    tensor::Tensor& p = params_[b.param];
    float* values = p.mutable_data().data();
    float* m = m_[b.param].data();
    float* s = v_[b.param].data();
    const float* g = p.grad().data();
    if (b.kind == UpdateBlock::kElements) {
      AdamUpdateInPlace(values + b.lo, m + b.lo, s + b.lo, g + b.lo,
                        b.hi - b.lo, lr, beta1_, beta2_, bias1, bias2,
                        epsilon_);
      return;
    }
    const uint32_t upto = static_cast<uint32_t>(hist_[b.param].size());
    const size_t cols = static_cast<size_t>(p.cols());
    const std::vector<int>& touched = p.grad_touched_rows();
    for (size_t k = b.lo; k < b.hi; ++k) {
      const int r = b.kind == UpdateBlock::kTouchedRows
                        ? touched[k]
                        : static_cast<int>(k);
      CatchUpRow(b.param, r, upto - 1);
      const size_t off = static_cast<size_t>(r) * cols;
      AdamUpdateInPlace(values + off, m + off, s + off, g + off, cols, lr,
                        beta1_, beta2_, bias1, bias2, epsilon_);
      row_done_[b.param][static_cast<size_t>(r)].store(
          upto, std::memory_order_relaxed);
    }
  };
  const auto run = [&](int64_t lo, int64_t hi) {
    for (int64_t b = lo; b < hi; ++b) update(blocks_[static_cast<size_t>(b)]);
  };
  const int64_t blocks = static_cast<int64_t>(blocks_.size());
  if (block_floats_ >= kAdamParallelFloats && blocks >= 2) {
    util::GlobalPool().ParallelFor(0, blocks, 1, run);
  } else {
    run(0, blocks);
  }
  blocks_.clear();
  block_floats_ = 0;
  for (auto& p : params_) {
    if (!p.grad().empty()) p.ZeroGrad();
  }
}

void Adam::Finalize() {
  util::MutexLock lock(mu_);
  for (size_t i = 0; i < params_.size(); ++i) {
    if (!sparse_capable_[i] || hist_[i].empty()) continue;
    const uint32_t upto = static_cast<uint32_t>(hist_[i].size());
    const int rows = params_[i].rows();
    for (int r = 0; r < rows; ++r) CatchUpRow(i, r, upto);
  }
}

}  // namespace imr::nn
