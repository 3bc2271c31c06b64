// A small dense float tensor with reverse-mode automatic differentiation.
//
// Design: Tensor is a cheap value-semantic handle onto a shared node
// (TensorImpl). Each op produces a fresh node that records its parents and a
// backward closure; Tensor::Backward() runs the closures in reverse
// topological order. Only rank-1 and rank-2 tensors are used by IMR models,
// which keeps every op simple, cache-friendly and easy to verify with
// numerical gradient checks (see nn/gradcheck.h).
#ifndef IMR_TENSOR_TENSOR_H_
#define IMR_TENSOR_TENSOR_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

namespace imr::tensor {

class Tensor;

namespace internal {

struct TensorImpl {
  std::vector<int> shape;
  std::vector<float> value;
  std::vector<float> grad;  // allocated lazily, same length as value
  bool requires_grad = false;
  std::vector<std::shared_ptr<TensorImpl>> parents;
  // Reads this->grad, accumulates into parents' grads. Null for leaves.
  std::function<void(TensorImpl&)> backward_fn;

  // Row-sparse gradient tracking for rank-2 leaves that receive gradients
  // only through GatherRows (embedding tables; see Tensor::
  // set_row_sparse_grad). `grad` stays a dense buffer whose rows outside
  // `touched_rows` are all-zero, so every dense reader (gradcheck, FGSM,
  // serialization) keeps working unchanged — but ZeroGrad, the gradient
  // merge, and the optimizers only walk the touched rows. `touched_rows`
  // is kept sorted and duplicate-free. `grad_dense` flips when any op
  // other than GatherRows accumulates into the grad; consumers then fall
  // back to full dense scans until the next ZeroGrad.
  bool row_sparse = false;
  bool grad_dense = false;
  std::vector<int> touched_rows;
  // Called by GatherRows' forward with the rows about to be read, before
  // any value is loaded. Lazily-updating optimizers (Adam) install this to
  // replay deferred per-row updates exactly when a stale row becomes
  // visible again, which keeps sparse training trajectories bit-identical
  // to dense ones. Must be idempotent and safe to call concurrently from
  // data-parallel forward passes (the installer synchronizes the rows).
  std::function<void(const std::vector<int>&)> row_materializer;

  TensorImpl() = default;
  // Returns value/grad storage to the destroying thread's buffer pool.
  ~TensorImpl();

  size_t size() const { return value.size(); }
  // Makes grad a zeroed buffer the length of value, reusing existing
  // capacity when possible (no-op when the length already matches).
  void EnsureGrad();
};

}  // namespace internal

/// Returns true when ops should record the autograd graph. Defaults to true.
bool GradModeEnabled();

/// Process-wide row-sparse gradient counters (relaxed atomics, PoolStats
/// style: safe to snapshot from any thread; each counter is individually
/// exact). One optimizer consumption of a row-sparse-capable parameter adds
/// its table's row count to rows_total and the rows it actually walked to
/// rows_touched, so rows_touched/rows_total is the fraction of embedding
/// rows a step really paid for. dense_fallbacks counts gradients of
/// row-sparse-capable parameters that degraded to a dense full-table scan
/// (a non-GatherRows op wrote into the grad, or a dense-only optimizer
/// feature like SGD weight decay was active).
struct SparseGradStatsSnapshot {
  uint64_t rows_touched = 0;
  uint64_t rows_total = 0;
  uint64_t dense_fallbacks = 0;
};

/// Snapshot of the row-sparse gradient counters.
SparseGradStatsSnapshot SparseGradStats();

/// Zeroes the row-sparse gradient counters. Call from a quiescent point.
void ResetSparseGradStats();

/// RAII guard that disables graph recording (used during evaluation).
class NoGradGuard {
 public:
  NoGradGuard();
  ~NoGradGuard();
  NoGradGuard(const NoGradGuard&) = delete;
  NoGradGuard& operator=(const NoGradGuard&) = delete;

 private:
  bool previous_;
};

/// Dense float tensor handle. Copying shares the underlying node.
class Tensor {
 public:
  /// Empty (null) tensor; most APIs require a non-null tensor.
  Tensor() = default;

  /// Fresh leaf tensors.
  static Tensor Zeros(std::vector<int> shape, bool requires_grad = false);
  static Tensor Full(std::vector<int> shape, float fill,
                     bool requires_grad = false);
  static Tensor FromData(std::vector<int> shape, std::vector<float> data,
                         bool requires_grad = false);
  static Tensor Scalar(float value, bool requires_grad = false);

  bool defined() const { return impl_ != nullptr; }

  const std::vector<int>& shape() const;
  int rank() const;
  /// Total number of elements.
  size_t size() const;
  /// Rows/cols of a rank-2 tensor; a rank-1 tensor is treated as one row.
  int rows() const;
  int cols() const;

  bool requires_grad() const;
  void set_requires_grad(bool requires_grad);

  const std::vector<float>& data() const;
  std::vector<float>& mutable_data();
  /// Gradient buffer; empty until backward touched this node.
  const std::vector<float>& grad() const;
  /// Mutable gradient buffer. Direct writes cannot be row-tracked, so this
  /// marks a row-sparse-capable tensor's gradient dense for the step.
  std::vector<float>& mutable_grad();

  /// Opts a rank-2 leaf into row-sparse gradient tracking: GatherRows'
  /// backward records which rows it touched, and ZeroGrad / the gradient
  /// merge / the optimizers walk only those rows instead of the whole
  /// vocab x dim table. Any other op accumulating into the grad falls back
  /// to dense for that step (see grad_is_row_sparse). The grad buffer
  /// itself stays dense with untouched rows all-zero, so reads need no
  /// special casing. Enabled by nn::Embedding for its table.
  void set_row_sparse_grad(bool row_sparse);
  bool row_sparse_grad() const;
  /// True when the accumulated gradient of this step is fully described by
  /// grad_touched_rows(): the tensor is row-sparse-capable and no dense op
  /// wrote into the grad since the last ZeroGrad.
  bool grad_is_row_sparse() const;
  /// Rows with possibly-nonzero gradient, ascending and duplicate-free.
  /// Meaningful only while grad_is_row_sparse() is true.
  const std::vector<int>& grad_touched_rows() const;

  /// Installs (or clears, with nullptr) the hook GatherRows' forward calls
  /// with the rows it is about to read. Used by Adam to replay deferred
  /// row updates before a stale row's value becomes visible; the installer
  /// must clear the hook before being destroyed and handle concurrent
  /// calls. Last installer wins.
  void set_row_materializer(std::function<void(const std::vector<int>&)> fn);

  float item() const;           // requires size()==1
  float at(int i) const;        // rank-1 access
  float at(int r, int c) const; // rank-2 access

  void ZeroGrad();

  /// Runs reverse-mode autodiff from this scalar node.
  void Backward();

  std::string DebugString() const;

  // --- internal plumbing for ops ---
  explicit Tensor(std::shared_ptr<internal::TensorImpl> impl)
      : impl_(std::move(impl)) {}
  const std::shared_ptr<internal::TensorImpl>& impl() const { return impl_; }

 private:
  std::shared_ptr<internal::TensorImpl> impl_;
};

namespace internal {

/// Counter hooks for SparseGradStats (relaxed atomics; see the snapshot
/// struct for semantics). Called by the optimizers when they consume a
/// row-sparse-capable gradient and by the fallback transition points.
void NoteSparseRowsConsumed(uint64_t rows_touched, uint64_t rows_total);
void NoteDenseFallback();

/// Creates a result node wired to its parents; `backward` may be null when
/// grad mode is off or no parent requires grad.
Tensor MakeResult(std::vector<int> shape, std::vector<float> value,
                  std::vector<Tensor> parents,
                  std::function<void(TensorImpl&)> backward);

/// Thread-local redirection of leaf-gradient accumulation, enabling
/// data-parallel backward passes over shared parameters.
///
/// While a sink is active on a thread, backward closures running on that
/// thread accumulate gradients of LEAF nodes (parameters: requires_grad set,
/// no backward_fn) into a private per-sink buffer instead of the shared
/// TensorImpl::grad. Intermediate nodes are created per-thread during a
/// data-parallel forward pass, so their member grad is already private and
/// stays in use. After the parallel region the caller merges all sinks
/// into the shared grads with one MergeIntoShared call: every element takes
/// its per-sink contributions in ascending sink order, keeping float
/// accumulation deterministic for a fixed chunk count. A sink can serve
/// step after step: Reset() after the merge and Activate() on whichever
/// thread runs the next chunk, and its per-leaf buffers are reused rather
/// than allocated again.
class ScopedGradSink {
 public:
  /// Installs the sink on the constructing thread.
  ScopedGradSink();
  ~ScopedGradSink();
  ScopedGradSink(const ScopedGradSink&) = delete;
  ScopedGradSink& operator=(const ScopedGradSink&) = delete;

  /// Uninstalls the sink (idempotent; the destructor calls it too). Must run
  /// on the thread that installed the sink. Lets a worker detach the sink
  /// while keeping its buffers alive for a later merge on another thread.
  void Deactivate();

  /// Installs a deactivated sink on the calling thread.
  void Activate();

  /// Readies a merged (or unused) sink for the next step: every entry
  /// starts over as on its first touch, keeping its buffer. Entries keep
  /// their leaves alive until the sink is destroyed. Call while the sink is
  /// inactive.
  void Reset();

  struct Entry {
    std::shared_ptr<TensorImpl> impl;
    // Same length as impl->value; heap storage owned by the sink (not the
    // buffer pool), kept across Reset().
    std::vector<float> grad;
    // True once a backward closure touched the leaf since the entry was
    // created or the sink Reset(); merges skip entries that are not live.
    bool live = false;
    // Row-sparse entries hand their buffer over dirty and zero each row on
    // first touch, so a data-parallel chunk's bookkeeping stays O(touched
    // rows); touched_rows is sorted-unique. Dense entries are zero-filled
    // as before.
    bool row_sparse = false;
    std::vector<int> touched_rows;
  };

  /// Leaves this sink captured, in first-touch order (entries not touched
  /// since the last Reset() have live == false).
  const std::vector<Entry>& entries() const { return entries_; }

  /// Adds the gradients buffered in `sinks` into the shared impl->grad
  /// fields: each element receives its contributions in ascending sink
  /// order, the sequence of merging the sinks one after another, so
  /// data-parallel training stays bit-identical at any thread count.
  /// Row-sparse entries add only their touched rows, and the shared tensor's
  /// touched-row set becomes the sorted union it would have after those
  /// one-by-one merges (a dense entry marks the gradient dense from there
  /// on). The bookkeeping — EnsureGrad in sink then first-touch order,
  /// dense marking, the touched-row union — runs on the calling thread; the
  /// float adds then run as element or row blocks on the global pool, each
  /// block owning its destination elements. Call with every sink inactive,
  /// outside any backward pass, from one thread at a time.
  static void MergeIntoShared(
      std::span<const std::unique_ptr<ScopedGradSink>> sinks);

 private:
  friend std::vector<float>* GradTarget(const std::shared_ptr<TensorImpl>&);
  friend std::vector<float>* GradTargetRows(
      const std::shared_ptr<TensorImpl>&, const std::vector<int>&);
  std::vector<float>* BufferFor(const std::shared_ptr<TensorImpl>& impl);
  std::vector<float>* BufferForRows(const std::shared_ptr<TensorImpl>& impl,
                                    const std::vector<int>& rows);
  Entry& EntryFor(const std::shared_ptr<TensorImpl>& impl, bool row_sparse);

  std::vector<Entry> entries_;
  std::unordered_map<TensorImpl*, size_t> index_;
  ScopedGradSink* previous_;
  bool active_ = true;
};

/// The buffer a backward closure should accumulate `impl`'s gradient into:
/// the active sink's private buffer for leaves when a sink is installed on
/// this thread, the node's own grad otherwise. Writing through this target
/// is a dense write: a row-sparse-capable leaf falls back to dense
/// gradient handling for the step (counted in SparseGradStats).
std::vector<float>* GradTarget(const std::shared_ptr<TensorImpl>& impl);

/// Row-sparse variant used by GatherRows' backward: same target selection
/// as GradTarget, but records `rows` (unsorted, duplicates allowed) in the
/// destination's touched-row set instead of going dense. For targets that
/// are not row-sparse-capable this is exactly GradTarget.
std::vector<float>* GradTargetRows(const std::shared_ptr<TensorImpl>& impl,
                                   const std::vector<int>& rows);

}  // namespace internal

}  // namespace imr::tensor

#endif  // IMR_TENSOR_TENSOR_H_
