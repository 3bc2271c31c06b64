#include "tensor/tensor.h"

#include <algorithm>
#include <atomic>
#include <sstream>
#include <unordered_set>

#include "tensor/buffer_pool.h"
#include "util/logging.h"

namespace imr::tensor {

namespace {
thread_local bool g_grad_mode = true;

std::atomic<uint64_t> g_sparse_rows_touched{0};
std::atomic<uint64_t> g_sparse_rows_total{0};
std::atomic<uint64_t> g_sparse_dense_fallbacks{0};

// Inserts `rows` (unsorted, duplicates allowed) into the sorted-unique
// `set`. When `buffer` is non-null, a newly inserted row r has its
// [r*cols, (r+1)*cols) span zeroed — used by sink entries whose storage is
// handed over dirty. O(k log t) searches plus O(t) per actual insert; both
// t and k are batch-touch-rate sized, never vocab sized.
void RecordRows(std::vector<int>* set, const std::vector<int>& rows,
                float* buffer, int cols) {
  for (int row : rows) {
    auto it = std::lower_bound(set->begin(), set->end(), row);
    if (it != set->end() && *it == row) continue;
    if (buffer != nullptr) {
      std::fill_n(buffer + static_cast<size_t>(row) * cols, cols, 0.0f);
    }
    set->insert(it, row);
  }
}

// Flips a row-sparse-capable leaf's gradient to dense for the current step
// (a non-row-tracked op wrote into it). Counted once per transition.
void MarkGradDense(internal::TensorImpl* impl) {
  if (impl->row_sparse && !impl->grad_dense) {
    impl->grad_dense = true;
    internal::NoteDenseFallback();
  }
}

size_t ShapeSize(const std::vector<int>& shape) {
  size_t n = 1;
  for (int d : shape) {
    IMR_CHECK_GE(d, 0);
    n *= static_cast<size_t>(d);
  }
  return n;
}

// Nodes come from the byte pool (block + control block in one recycled
// allocation) so steady-state graph construction never hits the heap.
std::shared_ptr<internal::TensorImpl> NewImpl() {
  return std::allocate_shared<internal::TensorImpl>(
      internal::PoolAllocator<internal::TensorImpl>());
}
}  // namespace

bool GradModeEnabled() { return g_grad_mode; }

SparseGradStatsSnapshot SparseGradStats() {
  SparseGradStatsSnapshot out;
  out.rows_touched = g_sparse_rows_touched.load(std::memory_order_relaxed);
  out.rows_total = g_sparse_rows_total.load(std::memory_order_relaxed);
  out.dense_fallbacks =
      g_sparse_dense_fallbacks.load(std::memory_order_relaxed);
  return out;
}

void ResetSparseGradStats() {
  g_sparse_rows_touched.store(0, std::memory_order_relaxed);
  g_sparse_rows_total.store(0, std::memory_order_relaxed);
  g_sparse_dense_fallbacks.store(0, std::memory_order_relaxed);
}

NoGradGuard::NoGradGuard() : previous_(g_grad_mode) { g_grad_mode = false; }
NoGradGuard::~NoGradGuard() { g_grad_mode = previous_; }

Tensor Tensor::Zeros(std::vector<int> shape, bool requires_grad) {
  return Full(std::move(shape), 0.0f, requires_grad);
}

Tensor Tensor::Full(std::vector<int> shape, float fill, bool requires_grad) {
  auto impl = NewImpl();
  impl->value = internal::AcquireBufferFill(ShapeSize(shape), fill);
  impl->shape = std::move(shape);
  impl->requires_grad = requires_grad;
  return Tensor(std::move(impl));
}

Tensor Tensor::FromData(std::vector<int> shape, std::vector<float> data,
                        bool requires_grad) {
  IMR_CHECK_EQ(ShapeSize(shape), data.size());
  auto impl = NewImpl();
  impl->shape = std::move(shape);
  impl->value = std::move(data);
  impl->requires_grad = requires_grad;
  return Tensor(std::move(impl));
}

Tensor Tensor::Scalar(float value, bool requires_grad) {
  return FromData({1}, {value}, requires_grad);
}

const std::vector<int>& Tensor::shape() const {
  IMR_CHECK(impl_ != nullptr);
  return impl_->shape;
}

int Tensor::rank() const { return static_cast<int>(shape().size()); }

size_t Tensor::size() const {
  IMR_CHECK(impl_ != nullptr);
  return impl_->value.size();
}

int Tensor::rows() const {
  const auto& s = shape();
  if (s.size() == 1) return 1;
  IMR_CHECK_EQ(s.size(), 2u);
  return s[0];
}

int Tensor::cols() const {
  const auto& s = shape();
  if (s.size() == 1) return s[0];
  IMR_CHECK_EQ(s.size(), 2u);
  return s[1];
}

bool Tensor::requires_grad() const {
  IMR_CHECK(impl_ != nullptr);
  return impl_->requires_grad;
}

void Tensor::set_requires_grad(bool requires_grad) {
  IMR_CHECK(impl_ != nullptr);
  impl_->requires_grad = requires_grad;
}

const std::vector<float>& Tensor::data() const {
  IMR_CHECK(impl_ != nullptr);
  return impl_->value;
}

std::vector<float>& Tensor::mutable_data() {
  IMR_CHECK(impl_ != nullptr);
  return impl_->value;
}

const std::vector<float>& Tensor::grad() const {
  IMR_CHECK(impl_ != nullptr);
  return impl_->grad;
}

std::vector<float>& Tensor::mutable_grad() {
  IMR_CHECK(impl_ != nullptr);
  impl_->EnsureGrad();
  MarkGradDense(impl_.get());
  return impl_->grad;
}

void Tensor::set_row_sparse_grad(bool row_sparse) {
  IMR_CHECK(impl_ != nullptr);
  if (row_sparse) IMR_CHECK_EQ(rank(), 2);
  impl_->row_sparse = row_sparse;
}

bool Tensor::row_sparse_grad() const {
  IMR_CHECK(impl_ != nullptr);
  return impl_->row_sparse;
}

bool Tensor::grad_is_row_sparse() const {
  IMR_CHECK(impl_ != nullptr);
  return impl_->row_sparse && !impl_->grad_dense;
}

const std::vector<int>& Tensor::grad_touched_rows() const {
  IMR_CHECK(impl_ != nullptr);
  return impl_->touched_rows;
}

void Tensor::set_row_materializer(
    std::function<void(const std::vector<int>&)> fn) {
  IMR_CHECK(impl_ != nullptr);
  impl_->row_materializer = std::move(fn);
}

float Tensor::item() const {
  IMR_CHECK_EQ(size(), 1u);
  return data()[0];
}

float Tensor::at(int i) const {
  IMR_CHECK_EQ(rank(), 1);
  IMR_CHECK_GE(i, 0);
  IMR_CHECK_LT(i, shape()[0]);
  return data()[static_cast<size_t>(i)];
}

float Tensor::at(int r, int c) const {
  IMR_CHECK_EQ(rank(), 2);
  IMR_CHECK_GE(r, 0);
  IMR_CHECK_LT(r, shape()[0]);
  IMR_CHECK_GE(c, 0);
  IMR_CHECK_LT(c, shape()[1]);
  return data()[static_cast<size_t>(r) * shape()[1] + c];
}

void Tensor::ZeroGrad() {
  IMR_CHECK(impl_ != nullptr);
  if (!impl_->grad.empty()) {
    if (impl_->row_sparse && !impl_->grad_dense) {
      // Rows outside touched_rows are already zero (the buffer was fully
      // zeroed when allocated and sparse clears maintain that), so only
      // the touched rows need wiping: O(touched x dim), not O(vocab x dim).
      const int cols = impl_->shape[1];
      float* g = impl_->grad.data();
      for (int row : impl_->touched_rows) {
        std::fill_n(g + static_cast<size_t>(row) * cols, cols, 0.0f);
      }
    } else {
      std::fill(impl_->grad.begin(), impl_->grad.end(), 0.0f);
    }
  }
  impl_->grad_dense = false;
  impl_->touched_rows.clear();
}

void Tensor::Backward() {
  IMR_CHECK(impl_ != nullptr);
  IMR_CHECK_EQ(size(), 1u);
  // Seed.
  impl_->EnsureGrad();
  impl_->grad[0] = 1.0f;

  // Iterative post-order DFS to get a topological order.
  std::vector<internal::TensorImpl*> order;
  std::unordered_set<internal::TensorImpl*> visited;
  struct Frame {
    internal::TensorImpl* node;
    size_t next_parent;
  };
  std::vector<Frame> stack;
  stack.push_back({impl_.get(), 0});
  visited.insert(impl_.get());
  while (!stack.empty()) {
    Frame& frame = stack.back();
    if (frame.next_parent < frame.node->parents.size()) {
      internal::TensorImpl* parent =
          frame.node->parents[frame.next_parent++].get();
      if (visited.insert(parent).second) stack.push_back({parent, 0});
    } else {
      order.push_back(frame.node);
      stack.pop_back();
    }
  }
  // `order` is post-order: parents before children; walk in reverse so each
  // node's grad is complete before its backward_fn fires.
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    internal::TensorImpl* node = *it;
    if (node->backward_fn) {
      node->EnsureGrad();
      node->backward_fn(*node);
    }
  }
}

std::string Tensor::DebugString() const {
  if (!defined()) return "Tensor(null)";
  std::ostringstream os;
  os << "Tensor([";
  for (size_t i = 0; i < shape().size(); ++i) {
    if (i > 0) os << ", ";
    os << shape()[i];
  }
  os << "], [";
  const size_t preview = std::min<size_t>(size(), 8);
  for (size_t i = 0; i < preview; ++i) {
    if (i > 0) os << ", ";
    os << data()[i];
  }
  if (size() > preview) os << ", ...";
  os << "])";
  return os.str();
}

namespace internal {

TensorImpl::~TensorImpl() {
  ReleaseBuffer(std::move(value));
  ReleaseBuffer(std::move(grad));
}

void TensorImpl::EnsureGrad() {
  const size_t n = value.size();
  if (grad.size() == n) return;
  if (grad.capacity() >= n) {
    grad.resize(n);
    std::fill(grad.begin(), grad.end(), 0.0f);
  } else {
    ReleaseBuffer(std::move(grad));
    grad = AcquireBufferFill(n, 0.0f);
  }
}

namespace {
thread_local ScopedGradSink* g_active_sink = nullptr;
}  // namespace

ScopedGradSink::ScopedGradSink() : previous_(g_active_sink) {
  g_active_sink = this;
}

ScopedGradSink::~ScopedGradSink() { Deactivate(); }

void ScopedGradSink::Deactivate() {
  if (active_) {
    if (g_active_sink == this) g_active_sink = previous_;
    active_ = false;
  }
}

void ScopedGradSink::Activate() {
  IMR_CHECK(!active_);
  previous_ = g_active_sink;
  g_active_sink = this;
  active_ = true;
}

void ScopedGradSink::Reset() {
  IMR_CHECK(!active_);
  for (Entry& entry : entries_) entry.live = false;
}

ScopedGradSink::Entry& ScopedGradSink::EntryFor(
    const std::shared_ptr<TensorImpl>& impl, bool row_sparse) {
  auto it = index_.find(impl.get());
  if (it == index_.end()) {
    it = index_.emplace(impl.get(), entries_.size()).first;
    Entry fresh;
    fresh.impl = impl;
    entries_.push_back(std::move(fresh));
  }
  Entry& entry = entries_[it->second];
  if (entry.live) return entry;
  // First touch since creation or Reset(): set up as a fresh entry, reusing
  // the buffer a previous step left. The buffer is the sink's own heap
  // storage, not the buffer pool's: it lives as long as the sink (a whole
  // training run for the trainer's), so it is no part of any thread's
  // per-step working set, and it never lands in the pool of whichever
  // thread merges or destroys the sink.
  entry.live = true;
  entry.touched_rows.clear();
  if (entry.grad.size() != impl->value.size()) {
    // Once per leaf per sink. imr-lint: allow(hot-path-alloc)
    entry.grad = std::vector<float>(impl->value.size());
  }
  if (row_sparse) {
    // The buffer stays dirty; each row is zeroed on first touch
    // (RecordRows), keeping entry setup O(touched rows).
    entry.row_sparse = true;
  } else {
    std::fill(entry.grad.begin(), entry.grad.end(), 0.0f);
    entry.row_sparse = false;
    if (impl->row_sparse) NoteDenseFallback();
  }
  return entry;
}

std::vector<float>* ScopedGradSink::BufferFor(
    const std::shared_ptr<TensorImpl>& impl) {
  Entry& entry = EntryFor(impl, /*row_sparse=*/false);
  if (entry.row_sparse) {
    // A dense op joined a row-sparse entry: zero the rows no closure has
    // touched yet (they are still pool garbage), then treat it as dense.
    const int cols = impl->shape[1];
    const int rows = impl->shape[0];
    float* g = entry.grad.data();
    auto touched = entry.touched_rows.begin();
    for (int row = 0; row < rows; ++row) {
      if (touched != entry.touched_rows.end() && *touched == row) {
        ++touched;
        continue;
      }
      std::fill_n(g + static_cast<size_t>(row) * cols, cols, 0.0f);
    }
    entry.row_sparse = false;
    NoteDenseFallback();
  }
  return &entry.grad;
}

std::vector<float>* ScopedGradSink::BufferForRows(
    const std::shared_ptr<TensorImpl>& impl, const std::vector<int>& rows) {
  Entry& entry = EntryFor(impl, /*row_sparse=*/true);
  if (entry.row_sparse) {
    RecordRows(&entry.touched_rows, rows, entry.grad.data(), impl->shape[1]);
  }
  return &entry.grad;
}

void ScopedGradSink::MergeIntoShared() {
  for (Entry& entry : entries_) {
    if (!entry.live) continue;
    entry.impl->EnsureGrad();
    float* dst = entry.impl->grad.data();
    const float* src = entry.grad.data();
    if (entry.row_sparse) {
      // Touched rows merge in ascending order. Each element still receives
      // its per-sink contributions in the same ascending-chunk order as a
      // dense merge — the skipped rows would only have added +0.0f — so
      // the merged floats are bit-identical at any thread count.
      const int cols = entry.impl->shape[1];
      for (int row : entry.touched_rows) {
        const size_t off = static_cast<size_t>(row) * cols;
        for (int c = 0; c < cols; ++c) dst[off + c] += src[off + c];
      }
      if (!entry.impl->grad_dense) {
        RecordRows(&entry.impl->touched_rows, entry.touched_rows,
                   /*buffer=*/nullptr, /*cols=*/0);
      }
    } else {
      const size_t n = entry.grad.size();
      for (size_t i = 0; i < n; ++i) dst[i] += src[i];
      MarkGradDense(entry.impl.get());
    }
  }
}

std::vector<float>* GradTarget(const std::shared_ptr<TensorImpl>& impl) {
  // Leaves (parameters) are shared across data-parallel replicas and must be
  // redirected; intermediate nodes (backward_fn set) are replica-private.
  if (g_active_sink != nullptr && !impl->backward_fn) {
    return g_active_sink->BufferFor(impl);
  }
  impl->EnsureGrad();
  MarkGradDense(impl.get());
  return &impl->grad;
}

std::vector<float>* GradTargetRows(const std::shared_ptr<TensorImpl>& impl,
                                   const std::vector<int>& rows) {
  if (!impl->row_sparse) return GradTarget(impl);
  if (g_active_sink != nullptr && !impl->backward_fn) {
    return g_active_sink->BufferForRows(impl, rows);
  }
  impl->EnsureGrad();
  if (!impl->grad_dense) {
    // The shared grad buffer is maintained all-zero outside touched rows,
    // so recording needs no zeroing here.
    RecordRows(&impl->touched_rows, rows, /*buffer=*/nullptr, /*cols=*/0);
  }
  return &impl->grad;
}

void NoteSparseRowsConsumed(uint64_t rows_touched, uint64_t rows_total) {
  g_sparse_rows_touched.fetch_add(rows_touched, std::memory_order_relaxed);
  g_sparse_rows_total.fetch_add(rows_total, std::memory_order_relaxed);
}

void NoteDenseFallback() {
  g_sparse_dense_fallbacks.fetch_add(1, std::memory_order_relaxed);
}

Tensor MakeResult(std::vector<int> shape, std::vector<float> value,
                  std::vector<Tensor> parents,
                  std::function<void(TensorImpl&)> backward) {
  auto impl = NewImpl();
  impl->shape = std::move(shape);
  impl->value = std::move(value);
  bool any_grad = false;
  for (const Tensor& p : parents) {
    if (p.defined() && p.requires_grad()) {
      any_grad = true;
      break;
    }
  }
  if (any_grad && GradModeEnabled()) {
    impl->requires_grad = true;
    impl->backward_fn = std::move(backward);
    impl->parents.reserve(parents.size());
    for (const Tensor& p : parents) impl->parents.push_back(p.impl());
  }
  return Tensor(std::move(impl));
}

}  // namespace internal

}  // namespace imr::tensor
