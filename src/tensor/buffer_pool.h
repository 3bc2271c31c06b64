// Size-bucketed, thread-aware buffer pool for the tensor hot path.
//
// Every op in ops.cc used to heap-allocate a fresh std::vector<float> for its
// output (plus a TensorImpl node), so steady-state training and serving were
// dominated by allocator traffic. The pool recycles both kinds of storage:
//
//   * float buffers (tensor values, gradients, kernel scratch) live in
//     power-of-two size-class buckets. Acquire(n) pops from bucket
//     ceil_log2(n); a released buffer returns to bucket floor_log2(capacity).
//     Fresh allocations reserve the full 2^ceil_log2(n) so a buffer always
//     comes back to the bucket it can serve.
//   * TensorImpl nodes (and their shared_ptr control blocks) are recycled as
//     raw byte blocks keyed by exact size, via PoolAllocator +
//     std::allocate_shared.
//
// Thread model: each thread owns a private pool (thread_local), so Acquire /
// Release never contend. A pool is bounded by its own thread's working set:
// it caches at most as many buffers of a size class (node blocks of a size)
// as that thread has had out at once, so a thread that repeats a step is
// served entirely from its cache, and a pool past 256 MiB frees instead.
// Buffers may migrate between threads — a buffer acquired on thread A and
// released on thread B joins B's pool only while B holds fewer of that
// class than B's own high-water mark, and is freed otherwise; a thread that
// only ever releases a class (B merging buffers A allocated, or a model
// replaced by a snapshot reload releasing storage the pool never handed
// out) frees all of it. All storage is plain operator new/delete, so
// provenance never matters. Counters are relaxed atomics so PoolStats() may
// aggregate them from any thread (including concurrently with pool
// traffic); a pool retiring at thread exit folds its counters into a global
// accumulator first.
//
// Determinism contract: the pool changes WHERE bytes come from, never what is
// computed. Acquired buffers have unspecified contents (kernels either fully
// overwrite them or use AcquireBufferFill); every kernel writes the same
// float values in the same order whether its storage is pooled, fresh, or
// pool-disabled, so pooled and unpooled runs are bit-identical.
#ifndef IMR_TENSOR_BUFFER_POOL_H_
#define IMR_TENSOR_BUFFER_POOL_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace imr::tensor {

/// Aggregated pool counters across all threads (live pools plus pools
/// already retired at thread exit).
struct PoolStatsSnapshot {
  uint64_t buffer_hits = 0;    // float-buffer acquires served from a bucket
  uint64_t buffer_misses = 0;  // float-buffer acquires that hit the heap
  uint64_t node_hits = 0;      // TensorImpl node blocks served from the pool
  uint64_t node_misses = 0;    // node blocks that hit the heap
  uint64_t pooled_buffers = 0; // buffers currently cached, all live pools
  uint64_t pooled_bytes = 0;   // bytes currently cached (buffers + nodes)

  uint64_t total_hits() const { return buffer_hits + node_hits; }
  uint64_t total_misses() const { return buffer_misses + node_misses; }
};

/// Snapshot of the pool counters. Safe to call from any thread at any time;
/// counters are relaxed atomics, so a snapshot taken while other threads are
/// mid-step is approximate (each individual counter is still exact).
PoolStatsSnapshot PoolStats();

/// Zeroes the hit/miss counters of every live pool and the retired-pool
/// accumulator. The pooled_buffers/pooled_bytes gauges are left alone (they
/// describe live cached storage, not traffic). Call from a quiescent point —
/// typically between steps in a test or benchmark.
void ResetPoolStats();

/// True when acquisitions on this thread go through the pool. Defaults on.
bool PoolEnabled();

/// RAII guard that bypasses the pool on the current thread: acquisitions
/// fall back to plain heap allocation and nothing is counted or cached.
/// Used to measure the unpooled baseline and to prove bit-identity.
class PoolDisabledGuard {
 public:
  PoolDisabledGuard();
  ~PoolDisabledGuard();
  PoolDisabledGuard(const PoolDisabledGuard&) = delete;
  PoolDisabledGuard& operator=(const PoolDisabledGuard&) = delete;

 private:
  bool previous_;
};

namespace internal {

/// Returns a buffer with size() == n and unspecified contents. The caller
/// must fully overwrite it (or use AcquireBufferFill). Falls back to a plain
/// zero-initialised vector when the pool is disabled or unavailable.
std::vector<float> AcquireBuffer(size_t n);

/// Returns a buffer with size() == n, every element == fill.
std::vector<float> AcquireBufferFill(size_t n, float fill);

/// Returns a buffer's storage to the current thread's pool, or frees it when
/// the pool is disabled or already destroyed, already holds as many of its
/// size class as this thread has had out at once, or is past 256 MiB.
/// Accepting by value keeps call sites simple: ReleaseBuffer(std::move(v)).
void ReleaseBuffer(std::vector<float>&& buffer);

/// Raw byte-block recycling for TensorImpl nodes (exact-size freelists).
void* AcquireBytes(size_t bytes);
void ReleaseBytes(void* ptr, size_t bytes);

/// Frees every cached buffer and node block owned by the current thread's
/// pool. Gauges drop accordingly; hit/miss counters and the thread's
/// working-set marks are preserved.
void TrimThreadPool();

/// Stateless STL allocator over the byte pool; std::allocate_shared with
/// this allocator recycles TensorImpl nodes together with their control
/// blocks.
template <typename T>
class PoolAllocator {
 public:
  using value_type = T;

  PoolAllocator() = default;
  template <typename U>
  PoolAllocator(const PoolAllocator<U>&) {}  // NOLINT(runtime/explicit)

  T* allocate(size_t n) {
    return static_cast<T*>(AcquireBytes(n * sizeof(T)));
  }
  void deallocate(T* ptr, size_t n) { ReleaseBytes(ptr, n * sizeof(T)); }

  friend bool operator==(const PoolAllocator&, const PoolAllocator&) {
    return true;
  }
  friend bool operator!=(const PoolAllocator&, const PoolAllocator&) {
    return false;
  }
};

/// Copyable owner of a pooled scratch buffer. Backward closures capture
/// their saved activations (dropout masks, softmax probabilities, packed
/// panels) in one of these so the storage returns to the pool when the
/// graph node is destroyed. Copyable because std::function requires
/// copy-constructible targets; the copy duplicates the buffer (it only runs
/// if a backward closure itself is copied, which the graph never does).
class PooledFloats {
 public:
  PooledFloats() = default;
  explicit PooledFloats(std::vector<float> buffer)
      : buffer_(std::move(buffer)) {}

  PooledFloats(const PooledFloats& other)
      : buffer_(other.buffer_) {}
  PooledFloats(PooledFloats&& other) noexcept
      : buffer_(std::move(other.buffer_)) {}
  PooledFloats& operator=(const PooledFloats& other) {
    if (this != &other) buffer_ = other.buffer_;
    return *this;
  }
  PooledFloats& operator=(PooledFloats&& other) noexcept {
    buffer_ = std::move(other.buffer_);
    return *this;
  }
  ~PooledFloats() { ReleaseBuffer(std::move(buffer_)); }

  const std::vector<float>& vec() const { return buffer_; }
  std::vector<float>& vec() { return buffer_; }
  const float* data() const { return buffer_.data(); }
  float* data() { return buffer_.data(); }
  size_t size() const { return buffer_.size(); }
  float operator[](size_t i) const { return buffer_[i]; }
  float& operator[](size_t i) { return buffer_[i]; }

 private:
  std::vector<float> buffer_;
};

}  // namespace internal

}  // namespace imr::tensor

#endif  // IMR_TENSOR_BUFFER_POOL_H_
