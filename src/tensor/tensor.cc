#include "tensor/tensor.h"

#include <algorithm>
#include <atomic>
#include <span>
#include <sstream>
#include <unordered_set>
#include <utility>

#include "tensor/buffer_pool.h"
#include "util/logging.h"
#include "util/thread_pool.h"

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
void RecordRows(std::vector<int>* set, std::span<const int> rows,
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

namespace {

using Entry = ScopedGradSink::Entry;

// MergeIntoShared's float adds: a block of at most this many destination
// floats per part (one sink's contribution) is one unit of pool work, and a
// merge with fewer adds than kMergeParallelAdds runs on the calling thread
// (about the cost of a pool handoff).
constexpr size_t kMergeBlockAdds = size_t{1} << 14;
constexpr size_t kMergeParallelAdds = size_t{1} << 15;

// One leaf of a merge: the entries that touched it, one per sink, sit at
// parts[first, first + count) in ascending sink order. Without a dense
// entry, union_rows[rows_begin, rows_end) is the sorted union of the
// entries' touched rows.
struct MergeLeaf {
  TensorImpl* impl;
  size_t first;
  size_t count;
  bool any_dense;
  size_t rows_begin;
  size_t rows_end;
};

// One unit of the float adds for leaves[leaf]: destination elements
// [lo, hi) (whole rows of a row-sparse-capable leaf) when the leaf has a
// dense entry, union_rows positions [lo, hi) otherwise.
struct MergeBlock {
  size_t leaf;
  size_t lo;
  size_t hi;
};

// A sorted row list being merged by UnionRows.
struct RowCursor {
  int row;
  size_t part;
  size_t pos;
};

// The merge's tables, kept per thread and reused so a steady-state merge
// allocates nothing.
struct MergeScratch {
  std::vector<MergeLeaf> leaves;
  // The live entries in sink then entry order, each with its leaf.
  std::vector<std::pair<const Entry*, size_t>> live;
  std::vector<const Entry*> parts;
  std::vector<int> union_rows;
  std::vector<RowCursor> heap;
  std::vector<MergeBlock> blocks;
};

MergeScratch& ThreadMergeScratch() {
  thread_local MergeScratch scratch;
  return scratch;
}

// Appends the sorted union of parts[0, count)'s touched-row lists (each
// sorted-unique) to m->union_rows: a k-way merge on a min-heap. On the
// train-nyt config's merges (16 sinks, about 2,200 listed rows in five
// tables) it took about 20% less time than appending the lists and running
// std::sort and std::unique (4-vCPU x86-64 VM).
void UnionRows(const Entry* const* parts, size_t count, MergeScratch* m) {
  const auto later = [](const RowCursor& a, const RowCursor& b) {
    return a.row > b.row;
  };
  m->heap.clear();
  for (size_t p = 0; p < count; ++p) {
    const std::vector<int>& rows = parts[p]->touched_rows;
    if (!rows.empty()) m->heap.push_back({rows[0], p, 0});
  }
  std::make_heap(m->heap.begin(), m->heap.end(), later);
  const size_t start = m->union_rows.size();
  while (!m->heap.empty()) {
    std::pop_heap(m->heap.begin(), m->heap.end(), later);
    RowCursor& next = m->heap.back();
    if (m->union_rows.size() == start || m->union_rows.back() != next.row) {
      m->union_rows.push_back(next.row);
    }
    const std::vector<int>& rows = parts[next.part]->touched_rows;
    if (++next.pos < rows.size()) {
      next.row = rows[next.pos];
      std::push_heap(m->heap.begin(), m->heap.end(), later);
    } else {
      m->heap.pop_back();
    }
  }
}

// Splits `units` units of `unit_floats` destination floats, each taking
// `parts` contributions, into blocks of about kMergeBlockAdds adds.
// Returns the adds (an upper bound for sparse parts).
size_t AddBlocks(size_t leaf, size_t units, size_t unit_floats, size_t parts,
                 size_t scale, std::vector<MergeBlock>* blocks) {
  const size_t per_unit = std::max<size_t>(1, unit_floats * parts);
  const size_t units_per_block =
      std::max<size_t>(1, kMergeBlockAdds / per_unit);
  for (size_t lo = 0; lo < units; lo += units_per_block) {
    blocks->push_back(
        {leaf, lo * scale, std::min(units, lo + units_per_block) * scale});
  }
  return units * per_unit;
}

// Adds row `row` of `src` into `dst`.
inline void AddRow(const float* src, float* dst, int row, size_t cols) {
  const size_t off = static_cast<size_t>(row) * cols;
  for (size_t c = 0; c < cols; ++c) dst[off + c] += src[off + c];
}

void RunMergeBlock(const MergeScratch& m, const MergeBlock& block) {
  const MergeLeaf& leaf = m.leaves[block.leaf];
  float* dst = leaf.impl->grad.data();
  const Entry* const* parts = m.parts.data() + leaf.first;
  const size_t cols =
      leaf.impl->row_sparse ? static_cast<size_t>(leaf.impl->shape[1]) : 1;
  if (leaf.any_dense) {
    const int row_lo = static_cast<int>(block.lo / cols);
    const int row_hi = static_cast<int>(block.hi / cols);
    for (size_t p = 0; p < leaf.count; ++p) {
      const Entry& entry = *parts[p];
      const float* src = entry.grad.data();
      if (!entry.row_sparse) {
        for (size_t i = block.lo; i < block.hi; ++i) dst[i] += src[i];
        continue;
      }
      const std::vector<int>& rows = entry.touched_rows;
      for (auto it = std::lower_bound(rows.begin(), rows.end(), row_lo);
           it != rows.end() && *it < row_hi; ++it) {
        AddRow(src, dst, *it, cols);
      }
    }
    return;
  }
  // Union positions [lo, hi) cover rows [first_row, last_row]; each entry
  // adds its touched rows in that range.
  const int first_row = m.union_rows[leaf.rows_begin + block.lo];
  const int last_row = m.union_rows[leaf.rows_begin + block.hi - 1];
  for (size_t p = 0; p < leaf.count; ++p) {
    const Entry& entry = *parts[p];
    const std::vector<int>& rows = entry.touched_rows;
    for (auto it = std::lower_bound(rows.begin(), rows.end(), first_row);
         it != rows.end() && *it <= last_row; ++it) {
      AddRow(entry.grad.data(), dst, *it, cols);
    }
  }
}

}  // namespace

void ScopedGradSink::MergeIntoShared(
    std::span<const std::unique_ptr<ScopedGradSink>> sinks) {
  MergeScratch& m = ThreadMergeScratch();
  m.leaves.clear();
  m.live.clear();
  m.union_rows.clear();
  m.blocks.clear();
  // Find each live entry's leaf, creating each shared grad in the order the
  // one-by-one merges did. Every chunk runs the same graph, so a sink's
  // entries nearly always come in the previous sink's order: the search
  // starts one past the last match.
  size_t next = 0;
  for (const std::unique_ptr<ScopedGradSink>& sink : sinks) {
    IMR_CHECK(!sink->active_);
    for (const Entry& entry : sink->entries_) {
      if (!entry.live) continue;
      TensorImpl* impl = entry.impl.get();
      impl->EnsureGrad();
      size_t l = next;
      if (l >= m.leaves.size() || m.leaves[l].impl != impl) {
        l = 0;
        while (l < m.leaves.size() && m.leaves[l].impl != impl) ++l;
        if (l == m.leaves.size()) {
          m.leaves.push_back({impl, 0, 0, false, 0, 0});
        }
      }
      ++m.leaves[l].count;
      m.leaves[l].any_dense |= !entry.row_sparse;
      m.live.emplace_back(&entry, l);
      next = l + 1;
    }
  }
  // Group them by leaf, in sink order.
  size_t total_parts = 0;
  for (MergeLeaf& leaf : m.leaves) {
    leaf.first = total_parts;
    total_parts += leaf.count;
    leaf.count = 0;
  }
  m.parts.resize(total_parts);
  for (const auto& [entry, l] : m.live) {
    MergeLeaf& leaf = m.leaves[l];
    m.parts[leaf.first + leaf.count++] = entry;
  }
  // Per leaf: the touched-row set and dense marking the one-by-one merges
  // would leave, and the blocks of its float adds.
  size_t adds = 0;
  for (size_t l = 0; l < m.leaves.size(); ++l) {
    MergeLeaf& leaf = m.leaves[l];
    TensorImpl* impl = leaf.impl;
    const Entry* const* parts = m.parts.data() + leaf.first;
    if (leaf.any_dense) {
      // A dense entry (a fallback) among them: row-sparse entries before it
      // still record their rows, and it marks the gradient dense. Rare, so
      // it keeps the one-by-one bookkeeping.
      for (size_t p = 0; p < leaf.count; ++p) {
        if (!parts[p]->row_sparse) {
          MarkGradDense(impl);
        } else if (!impl->grad_dense) {
          RecordRows(&impl->touched_rows, parts[p]->touched_rows,
                     /*buffer=*/nullptr, /*cols=*/0);
        }
      }
      const size_t cols =
          impl->row_sparse ? static_cast<size_t>(impl->shape[1]) : 1;
      adds += AddBlocks(l, impl->grad.size() / cols, cols, leaf.count, cols,
                        &m.blocks);
      continue;
    }
    leaf.rows_begin = m.union_rows.size();
    UnionRows(parts, leaf.count, &m);
    leaf.rows_end = m.union_rows.size();
    const std::span<const int> rows(m.union_rows.data() + leaf.rows_begin,
                                    leaf.rows_end - leaf.rows_begin);
    if (!impl->grad_dense) {
      // Usually empty here (ZeroGrad ran); FGSM's second pass merges on top
      // of the first pass's rows.
      if (impl->touched_rows.empty()) {
        impl->touched_rows.assign(rows.begin(), rows.end());
      } else {
        RecordRows(&impl->touched_rows, rows, /*buffer=*/nullptr, /*cols=*/0);
      }
    }
    adds += AddBlocks(l, leaf.rows_end - leaf.rows_begin,
                      static_cast<size_t>(impl->shape[1]), leaf.count, 1,
                      &m.blocks);
  }
  const auto run = [&m](int64_t lo, int64_t hi) {
    for (int64_t b = lo; b < hi; ++b) {
      RunMergeBlock(m, m.blocks[static_cast<size_t>(b)]);
    }
  };
  const int64_t blocks = static_cast<int64_t>(m.blocks.size());
  if (adds >= kMergeParallelAdds && blocks >= 2) {
    util::GlobalPool().ParallelFor(0, blocks, 1, run);
  } else {
    run(0, blocks);
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
