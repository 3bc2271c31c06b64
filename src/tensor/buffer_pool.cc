#include "tensor/buffer_pool.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <unordered_map>

#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace imr::tensor {

namespace {

// A thread's pool keeps at most as many buffers of a size class (node
// blocks of a size) as that thread has had out at once: its own working
// set, learned from its acquires and releases. A thread that only releases
// a class (buffers acquired elsewhere, or storage the pool never handed
// out, such as a replaced model's parameters) keeps none of them. Past
// kMaxPooledBytes a pool frees releases instead of caching them, a
// backstop for a working set that is itself huge.
constexpr size_t kMaxPooledBytes = size_t{256} << 20;  // 256 MiB per thread
constexpr int kNumBuckets = 48;                        // 2^47 floats is plenty

// One size class of one thread's pool: its cached storage, how much of the
// class the thread has out now (acquires minus releases, floored at zero,
// since a thread may release what another acquired), and the most it has
// had out at once.
template <typename Item>
struct FreeList {
  std::vector<Item> items;
  size_t out = 0;
  size_t high_water = 0;

  void NoteAcquire() { high_water = std::max(high_water, ++out); }
  // Records a release; true when the pool should cache it.
  bool NoteRelease() {
    if (out > 0) --out;
    return items.size() < high_water;
  }
};

int CeilLog2(size_t n) {
  // n >= 1. bit_width(n - 1) == ceil(log2(n)) for n >= 2, and 0 for n == 1.
  return static_cast<int>(std::bit_width(n - 1));
}

int FloorLog2(size_t n) {
  // n >= 1.
  return static_cast<int>(std::bit_width(n)) - 1;
}

thread_local bool g_pool_enabled = true;

class BufferPool;

// The thread's pool, plus a flag distinguishing "not created yet" from
// "already destroyed": after thread-exit teardown every helper must fall
// back to the plain heap rather than resurrect a pool.
thread_local BufferPool* g_pool = nullptr;
thread_local bool g_pool_destroyed = false;

// Every live pool, plus the counters inherited from pools whose threads have
// exited.
struct PoolRegistry {
  util::Mutex mutex;
  std::vector<BufferPool*> pools IMR_GUARDED_BY(mutex);
  PoolStatsSnapshot retired IMR_GUARDED_BY(mutex);
};

// Created once and never destroyed: the global ThreadPool joins its workers
// during static destruction, and each exiting worker's pool still
// unregisters itself here, after function-local statics may be gone.
PoolRegistry& Registry() {
  static PoolRegistry* const registry =
      new PoolRegistry();  // imr-lint: allow(no-naked-new)
  return *registry;
}

/// One thread's private pool. Acquire/Release run lock-free on the owning
/// thread; the relaxed-atomic counters let PoolStats() aggregate across
/// threads without synchronising the freelists themselves.
class BufferPool {
 public:
  BufferPool() {
    PoolRegistry& registry = Registry();
    util::MutexLock lock(registry.mutex);
    registry.pools.push_back(this);
  }

  ~BufferPool() {
    FreeAll();
    PoolRegistry& registry = Registry();
    util::MutexLock lock(registry.mutex);
    PoolStatsSnapshot& retired = registry.retired;
    retired.buffer_hits += buffer_hits_.load(std::memory_order_relaxed);
    retired.buffer_misses += buffer_misses_.load(std::memory_order_relaxed);
    retired.node_hits += node_hits_.load(std::memory_order_relaxed);
    retired.node_misses += node_misses_.load(std::memory_order_relaxed);
    std::vector<BufferPool*>& pools = registry.pools;
    pools.erase(std::remove(pools.begin(), pools.end(), this), pools.end());
    g_pool = nullptr;
    g_pool_destroyed = true;
  }

  /// The calling thread's pool; nullptr once thread teardown destroyed it.
  static BufferPool* Get() {
    if (g_pool == nullptr && !g_pool_destroyed) {
      thread_local BufferPool instance;
      g_pool = &instance;
    }
    return g_pool;
  }

  std::vector<float> AcquireBuffer(size_t n) {
    if (n == 0) return {};
    const int bucket_index = CeilLog2(n);
    if (bucket_index >= kNumBuckets) {  // absurd size: bypass, count a miss
      buffer_misses_.fetch_add(1, std::memory_order_relaxed);
      return std::vector<float>(n);
    }
    FreeList<std::vector<float>>& bucket = float_buckets_[bucket_index];
    bucket.NoteAcquire();
    if (!bucket.items.empty()) {
      std::vector<float> buffer = std::move(bucket.items.back());
      bucket.items.pop_back();
      RecordRemoval(buffer.capacity() * sizeof(float));
      buffer_hits_.fetch_add(1, std::memory_order_relaxed);
      // Capacity >= 2^ceil_log2(n) >= n, so this never reallocates; new tail
      // elements (if the buffer grew) are value-initialised, the rest keep
      // stale contents — callers fully overwrite either way.
      buffer.resize(n);
      return buffer;
    }
    buffer_misses_.fetch_add(1, std::memory_order_relaxed);
    std::vector<float> buffer;
    // Reserve the full size class so the buffer returns to this bucket.
    buffer.reserve(size_t{1} << CeilLog2(n));
    buffer.resize(n);
    return buffer;
  }

  std::vector<float> AcquireBufferFill(size_t n, float fill) {
    std::vector<float> buffer = AcquireBuffer(n);
    std::fill(buffer.begin(), buffer.end(), fill);
    return buffer;
  }

  void ReleaseBuffer(std::vector<float>&& buffer) {
    const size_t cap = buffer.capacity();
    if (cap == 0) return;
    const size_t bytes = cap * sizeof(float);
    const int bucket_index = FloorLog2(cap);
    if (bucket_index >= kNumBuckets) return;
    FreeList<std::vector<float>>& bucket = float_buckets_[bucket_index];
    if (!bucket.NoteRelease() ||
        pooled_bytes_.load(std::memory_order_relaxed) + bytes >
            kMaxPooledBytes) {
      return;  // let the vector destructor free it
    }
    pooled_buffers_.fetch_add(1, std::memory_order_relaxed);
    pooled_bytes_.fetch_add(bytes, std::memory_order_relaxed);
    bucket.items.push_back(std::move(buffer));
  }

  void* AcquireBytes(size_t bytes) {
    FreeList<void*>& freelist = byte_freelists_[bytes];
    freelist.NoteAcquire();
    if (!freelist.items.empty()) {
      void* block = freelist.items.back();
      freelist.items.pop_back();
      pooled_bytes_.fetch_sub(bytes, std::memory_order_relaxed);
      node_hits_.fetch_add(1, std::memory_order_relaxed);
      return block;
    }
    node_misses_.fetch_add(1, std::memory_order_relaxed);
    // The pool is the ownership boundary for recycled node blocks; raw
    // operator new/delete is the point of this file.
    return ::operator new(bytes);  // imr-lint: allow(no-naked-new)
  }

  void ReleaseBytes(void* ptr, size_t bytes) {
    FreeList<void*>& freelist = byte_freelists_[bytes];
    if (!freelist.NoteRelease() ||
        pooled_bytes_.load(std::memory_order_relaxed) + bytes >
            kMaxPooledBytes) {
      ::operator delete(ptr);  // imr-lint: allow(no-naked-new)
      return;
    }
    pooled_bytes_.fetch_add(bytes, std::memory_order_relaxed);
    freelist.items.push_back(ptr);
  }

  // Frees the cached storage; the working-set marks stay.
  void FreeAll() {
    for (FreeList<std::vector<float>>& bucket : float_buckets_) {
      for (std::vector<float>& buffer : bucket.items) {
        RecordRemoval(buffer.capacity() * sizeof(float));
      }
      bucket.items.clear();
    }
    for (auto& [bytes, freelist] : byte_freelists_) {
      for (void* block : freelist.items) {
        pooled_bytes_.fetch_sub(bytes, std::memory_order_relaxed);
        ::operator delete(block);  // imr-lint: allow(no-naked-new)
      }
      freelist.items.clear();
    }
  }

  void AddTo(PoolStatsSnapshot* out) const {
    out->buffer_hits += buffer_hits_.load(std::memory_order_relaxed);
    out->buffer_misses += buffer_misses_.load(std::memory_order_relaxed);
    out->node_hits += node_hits_.load(std::memory_order_relaxed);
    out->node_misses += node_misses_.load(std::memory_order_relaxed);
    out->pooled_buffers += pooled_buffers_.load(std::memory_order_relaxed);
    out->pooled_bytes += pooled_bytes_.load(std::memory_order_relaxed);
  }

  void ResetCounters() {
    buffer_hits_.store(0, std::memory_order_relaxed);
    buffer_misses_.store(0, std::memory_order_relaxed);
    node_hits_.store(0, std::memory_order_relaxed);
    node_misses_.store(0, std::memory_order_relaxed);
  }

 private:
  void RecordRemoval(size_t bytes) {
    pooled_buffers_.fetch_sub(1, std::memory_order_relaxed);
    pooled_bytes_.fetch_sub(bytes, std::memory_order_relaxed);
  }

  // Freelists are owner-thread-only; counters are cross-thread-readable.
  // float_buckets_[k] caches buffers with capacity in [2^k, 2^(k+1)).
  std::vector<FreeList<std::vector<float>>> float_buckets_{kNumBuckets};
  std::unordered_map<size_t, FreeList<void*>> byte_freelists_;
  std::atomic<uint64_t> buffer_hits_{0};
  std::atomic<uint64_t> buffer_misses_{0};
  std::atomic<uint64_t> node_hits_{0};
  std::atomic<uint64_t> node_misses_{0};
  std::atomic<uint64_t> pooled_buffers_{0};
  std::atomic<uint64_t> pooled_bytes_{0};
};

}  // namespace

PoolStatsSnapshot PoolStats() {
  PoolRegistry& registry = Registry();
  util::MutexLock lock(registry.mutex);
  PoolStatsSnapshot out = registry.retired;
  for (const BufferPool* pool : registry.pools) pool->AddTo(&out);
  return out;
}

void ResetPoolStats() {
  PoolRegistry& registry = Registry();
  util::MutexLock lock(registry.mutex);
  PoolStatsSnapshot& retired = registry.retired;
  retired.buffer_hits = 0;
  retired.buffer_misses = 0;
  retired.node_hits = 0;
  retired.node_misses = 0;
  for (BufferPool* pool : registry.pools) pool->ResetCounters();
}

bool PoolEnabled() { return g_pool_enabled; }

PoolDisabledGuard::PoolDisabledGuard() : previous_(g_pool_enabled) {
  g_pool_enabled = false;
}

PoolDisabledGuard::~PoolDisabledGuard() { g_pool_enabled = previous_; }

namespace internal {

std::vector<float> AcquireBuffer(size_t n) {
  if (g_pool_enabled) {
    if (BufferPool* pool = BufferPool::Get()) return pool->AcquireBuffer(n);
  }
  return std::vector<float>(n);
}

std::vector<float> AcquireBufferFill(size_t n, float fill) {
  if (g_pool_enabled) {
    if (BufferPool* pool = BufferPool::Get()) {
      return pool->AcquireBufferFill(n, fill);
    }
  }
  return std::vector<float>(n, fill);
}

void ReleaseBuffer(std::vector<float>&& buffer) {
  if (g_pool_enabled) {
    if (BufferPool* pool = BufferPool::Get()) {
      pool->ReleaseBuffer(std::move(buffer));
      return;
    }
  }
  std::vector<float> discard = std::move(buffer);  // frees on scope exit
}

void* AcquireBytes(size_t bytes) {
  if (g_pool_enabled) {
    if (BufferPool* pool = BufferPool::Get()) return pool->AcquireBytes(bytes);
  }
  return ::operator new(bytes);  // imr-lint: allow(no-naked-new)
}

void ReleaseBytes(void* ptr, size_t bytes) {
  if (g_pool_enabled) {
    if (BufferPool* pool = BufferPool::Get()) {
      pool->ReleaseBytes(ptr, bytes);
      return;
    }
  }
  ::operator delete(ptr);  // imr-lint: allow(no-naked-new)
}

void TrimThreadPool() {
  if (BufferPool* pool = BufferPool::Get()) pool->FreeAll();
}

}  // namespace internal

}  // namespace imr::tensor
