// Shared parallelism substrate: a fixed-size thread pool with a blocking
// ParallelFor, a deterministic tree reduction, and relaxed-atomic float
// helpers for Hogwild-style embedding training.
//
// Design rules that every caller relies on:
//
//  * Chunking is a function of (begin, end, grain) ONLY — never of the
//    worker count. A kernel that assigns each output element to exactly one
//    chunk therefore produces bit-identical results at any thread count.
//  * Nested ParallelFor calls (a parallel kernel invoked from inside a
//    chunk body) run inline on the calling worker. This keeps per-thread
//    state (rngs, gradient sinks, grad-mode flags) coherent and makes
//    composition deadlock-free.
//  * Exceptions thrown by a chunk body are captured and the first one is
//    rethrown on the calling thread after the region drains.
//
// A process-wide pool is sized by util::SetGlobalThreads (wired to the
// --imr_threads flag in benches and the CLI). Thread count 1 bypasses the
// pool entirely and reproduces the pre-threading scalar code paths
// bit-exactly.
//
// Lock discipline is machine-checked: every mutex-protected member carries
// an IMR_GUARDED_BY annotation and the pool locks through util::Mutex, so a
// clang build with IMR_THREAD_SAFETY=ON proves the invariants at compile
// time.
#ifndef IMR_UTIL_THREAD_POOL_H_
#define IMR_UTIL_THREAD_POOL_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace imr::util {

class ThreadPool {
 public:
  /// Spawns `threads - 1` workers (the caller participates in every
  /// region). `threads` < 1 is clamped to 1; a 1-thread pool runs
  /// everything inline with zero synchronisation.
  explicit ThreadPool(int threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int threads() const { return threads_; }

  /// Splits [begin, end) into chunks of at most `grain` items (boundaries
  /// depend only on begin/end/grain, not on the worker count), runs
  /// fn(chunk_begin, chunk_end) across the pool, and blocks until every
  /// chunk finished. Throws std::invalid_argument when grain <= 0.
  /// Rethrows the first exception a chunk body threw. Safe to call from
  /// inside a chunk body: nested calls run inline on the current thread.
  /// Also safe to call from several non-worker threads at once: the pool
  /// runs one region at a time and later submitters block until the
  /// current region drains.
  void ParallelFor(int64_t begin, int64_t end, int64_t grain,
                   const std::function<void(int64_t, int64_t)>& fn)
      IMR_EXCLUDES(submit_mutex_, mutex_);

  /// As above but fn also receives the zero-based chunk index, for kernels
  /// that keep per-chunk scratch (partial gradient buffers, shard rngs).
  /// Chunk indices are assigned in ascending range order.
  void ParallelForChunks(
      int64_t begin, int64_t end, int64_t grain,
      const std::function<void(int64_t, int64_t, int64_t)>& fn)
      IMR_EXCLUDES(submit_mutex_, mutex_);

  /// Runs fn once on every thread of the pool, the caller included, each
  /// call on a different thread: a thread holds its call until all of them
  /// have started one. For warming per-thread state, such as each thread's
  /// buffer pool, before a measurement. Must not be called from inside a
  /// chunk body (a nested region runs inline on one thread).
  void RunOnEachThread(const std::function<void(int)>& fn)
      IMR_EXCLUDES(submit_mutex_, mutex_);

  /// Number of chunks ParallelFor would create — callers pre-size
  /// per-chunk scratch with this.
  static int64_t NumChunks(int64_t begin, int64_t end, int64_t grain);

  /// True while the current thread is executing a chunk body (used to run
  /// nested regions inline).
  static bool InParallelRegion();

 private:
  struct Region;
  void WorkerLoop() IMR_EXCLUDES(mutex_);
  void RunRegion(Region* region);

  int threads_;
  std::vector<std::thread> workers_;
  // Held for the full lifetime of a top-level region so concurrent
  // submitters serialize instead of violating the one-region invariant.
  Mutex submit_mutex_;
  Mutex mutex_;
  CondVar wake_;
  CondVar done_;
  Region* active_region_ IMR_GUARDED_BY(mutex_) = nullptr;
  uint64_t region_epoch_ IMR_GUARDED_BY(mutex_) = 0;
  bool shutdown_ IMR_GUARDED_BY(mutex_) = false;
};

/// Deterministic tree reduction: pairwise-merges `parts` (in index order,
/// stride doubling) until everything lands in parts[0]. The reduction tree
/// depends only on parts.size(), so the result is bit-identical at any
/// thread count. Each part must have `n` floats; `merge` defaults to
/// elementwise addition into the left operand.
void TreeReduce(ThreadPool* pool, std::vector<std::vector<float>>* parts);

// ---- process-wide pool ----

/// Sets the size of the global pool; <= 0 restores the default (hardware
/// concurrency). Resizing destroys the previous pool, so any reference an
/// earlier GlobalPool() call returned is invalidated. Call this only from
/// the single orchestrating thread — in practice right after flag parsing,
/// before any other thread has obtained or used GlobalPool().
void SetGlobalThreads(int threads);

/// Current global thread count (>= 1).
int GlobalThreads();

/// The lazily-created global pool, sized by SetGlobalThreads.
ThreadPool& GlobalPool();

// ---- Hogwild helpers ----
//
// Unsynchronised SGD (Recht et al. 2011) intentionally races on the shared
// embedding matrices; lost updates are statistically benign. These wrappers
// make every such access a relaxed atomic so the races are well-defined
// C++ (and invisible to -fsanitize=thread) while compiling to plain
// loads/stores on x86-64 and AArch64.

inline float RelaxedLoad(const float* p) {
  float v;
  __atomic_load(p, &v, __ATOMIC_RELAXED);
  return v;
}

inline void RelaxedStore(float* p, float v) {
  __atomic_store(p, &v, __ATOMIC_RELAXED);
}

/// Hogwild accumulate: racy read-add-write (not a CAS loop; a concurrent
/// writer's delta may be lost, which Hogwild tolerates by design).
inline void RelaxedAdd(float* p, float delta) {
  RelaxedStore(p, RelaxedLoad(p) + delta);
}

}  // namespace imr::util

#endif  // IMR_UTIL_THREAD_POOL_H_
