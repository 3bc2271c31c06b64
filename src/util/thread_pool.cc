#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <memory>
#include <stdexcept>

#include "util/logging.h"
#include "util/mutex.h"

namespace imr::util {

namespace {
thread_local int g_region_depth = 0;
}  // namespace

// One ParallelFor invocation. Workers and the caller pull chunk indices
// from `next_chunk`. Lifetime: the Region lives on the caller's stack, so
// workers check in (under the pool mutex, when they take the region
// pointer) and check out (after their final, failed chunk claim); the
// caller may not return — and so destroy the Region — until
// checked_out == checked_in. Waiting on chunk completion alone would be a
// use-after-free: the worker that runs the last chunk still loops back
// for one more next_chunk.fetch_add before it notices the region drained.
struct ThreadPool::Region {
  int64_t begin = 0;
  int64_t grain = 1;
  int64_t num_chunks = 0;
  int64_t end = 0;
  const std::function<void(int64_t, int64_t, int64_t)>* fn = nullptr;
  std::atomic<int64_t> next_chunk{0};
  // checked_in/checked_out are guarded by the owning pool's mutex_; that
  // guard is not expressible as an annotation from this struct, so the
  // invariant is enforced by review (and by TSan) rather than by clang.
  int64_t checked_in = 0;
  int64_t checked_out = 0;
  Mutex exception_mutex;
  std::exception_ptr first_exception IMR_GUARDED_BY(exception_mutex);
};

ThreadPool::ThreadPool(int threads) : threads_(std::max(1, threads)) {
  workers_.reserve(static_cast<size_t>(threads_ - 1));
  for (int i = 0; i < threads_ - 1; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mutex_);
    shutdown_ = true;
  }
  wake_.NotifyAll();
  for (std::thread& worker : workers_) worker.join();
}

int64_t ThreadPool::NumChunks(int64_t begin, int64_t end, int64_t grain) {
  if (grain <= 0) {
    // The one deliberate exception to the Status-only error model: grain is
    // a compile-time-ish programming error, and ParallelFor's return value
    // is reserved for chunk-body exceptions.
    throw std::invalid_argument(  // imr-lint: allow(no-throw)
        "ParallelFor grain must be positive");
  }
  if (end <= begin) return 0;
  return (end - begin + grain - 1) / grain;
}

bool ThreadPool::InParallelRegion() { return g_region_depth > 0; }

void ThreadPool::RunRegion(Region* region) {
  while (true) {
    const int64_t chunk = region->next_chunk.fetch_add(1);
    if (chunk >= region->num_chunks) break;
    const int64_t lo = region->begin + chunk * region->grain;
    const int64_t hi = std::min(region->end, lo + region->grain);
    ++g_region_depth;
    try {
      (*region->fn)(lo, hi, chunk);
    } catch (...) {
      MutexLock lock(region->exception_mutex);
      if (!region->first_exception) {
        region->first_exception = std::current_exception();
      }
    }
    --g_region_depth;
  }
}

void ThreadPool::WorkerLoop() {
  uint64_t seen_epoch = 0;
  while (true) {
    Region* region = nullptr;
    {
      MutexLock lock(mutex_);
      while (!shutdown_ &&
             (active_region_ == nullptr || region_epoch_ == seen_epoch)) {
        wake_.Wait(mutex_);
      }
      if (shutdown_) return;
      seen_epoch = region_epoch_;
      region = active_region_;
      ++region->checked_in;
    }
    RunRegion(region);
    {
      MutexLock lock(mutex_);
      ++region->checked_out;
    }
    // After the check-out above this thread never touches `region` again,
    // so the caller is free to destroy it once it observes the count.
    done_.NotifyAll();
  }
}

void ThreadPool::ParallelForChunks(
    int64_t begin, int64_t end, int64_t grain,
    const std::function<void(int64_t, int64_t, int64_t)>& fn) {
  const int64_t num_chunks = NumChunks(begin, end, grain);  // validates grain
  if (num_chunks == 0) return;

  // Sequential fast paths: one-thread pool, a single chunk, or a nested
  // call from inside a chunk body (inline keeps thread-local state — rngs,
  // gradient sinks — attached to the logical task).
  if (threads_ == 1 || num_chunks == 1 || InParallelRegion()) {
    std::exception_ptr first;
    for (int64_t chunk = 0; chunk < num_chunks; ++chunk) {
      const int64_t lo = begin + chunk * grain;
      const int64_t hi = std::min(end, lo + grain);
      ++g_region_depth;
      try {
        fn(lo, hi, chunk);
      } catch (...) {
        if (!first) first = std::current_exception();
      }
      --g_region_depth;
    }
    if (first) std::rethrow_exception(first);
    return;
  }

  Region region;
  region.begin = begin;
  region.end = end;
  region.grain = grain;
  region.num_chunks = num_chunks;
  region.fn = &fn;
  // Regions are serialized: a second top-level submitter blocks here until
  // the first region fully drains instead of tripping the single-region
  // invariant below. (Chunk bodies never reach this point — nested calls
  // took the inline fast path above — so this cannot self-deadlock.)
  MutexLock submit_lock(submit_mutex_);
  {
    MutexLock lock(mutex_);
    IMR_CHECK(active_region_ == nullptr);
    active_region_ = &region;
    ++region_epoch_;
  }
  wake_.NotifyAll();
  RunRegion(&region);  // the caller is a full participant
  {
    // All chunks were claimed either by this thread (done: RunRegion
    // returned) or by a checked-in worker, so checked_out == checked_in
    // implies both "every chunk finished" and "no worker still holds the
    // region pointer". Workers can only check in while active_region_ is
    // set, and we clear it in the same critical section that observes the
    // final count, so no worker checks in afterwards.
    MutexLock lock(mutex_);
    while (region.checked_out != region.checked_in) {
      done_.Wait(mutex_);
    }
    active_region_ = nullptr;
  }
  std::exception_ptr first;
  {
    MutexLock lock(region.exception_mutex);
    first = region.first_exception;
  }
  if (first) std::rethrow_exception(first);
}

void ThreadPool::RunOnEachThread(const std::function<void(int)>& fn) {
  IMR_CHECK(!InParallelRegion());
  // Each chunk spins until every chunk has started, so no thread can take
  // a second one; the pool's threads_ threads each take exactly one.
  std::atomic<int> started{0};
  ParallelForChunks(0, threads_, 1, [&](int64_t, int64_t, int64_t chunk) {
    started.fetch_add(1);
    while (started.load() < threads_) std::this_thread::yield();
    fn(static_cast<int>(chunk));
  });
}

void ThreadPool::ParallelFor(int64_t begin, int64_t end, int64_t grain,
                             const std::function<void(int64_t, int64_t)>& fn) {
  ParallelForChunks(begin, end, grain,
                    [&fn](int64_t lo, int64_t hi, int64_t) { fn(lo, hi); });
}

void TreeReduce(ThreadPool* pool, std::vector<std::vector<float>>* parts) {
  IMR_CHECK(parts != nullptr);
  const size_t count = parts->size();
  if (count < 2) return;
  const size_t n = (*parts)[0].size();
  for (const auto& part : *parts) IMR_CHECK_EQ(part.size(), n);
  // Stride-doubling pairwise merge: parts[i] += parts[i + stride]. The tree
  // shape depends only on `count`, so float summation order is fixed
  // regardless of how many threads execute the merges.
  for (size_t stride = 1; stride < count; stride *= 2) {
    const size_t pairs = (count - stride + 2 * stride - 1) / (2 * stride);
    auto merge_pair = [&](int64_t lo, int64_t hi, int64_t) {
      for (int64_t p = lo; p < hi; ++p) {
        const size_t left = static_cast<size_t>(p) * 2 * stride;
        const size_t right = left + stride;
        if (right >= count) continue;
        float* dst = (*parts)[left].data();
        const float* src = (*parts)[right].data();
        for (size_t i = 0; i < n; ++i) dst[i] += src[i];
      }
    };
    if (pool != nullptr && pairs > 1) {
      pool->ParallelForChunks(0, static_cast<int64_t>(pairs), 1, merge_pair);
    } else {
      merge_pair(0, static_cast<int64_t>(pairs), 0);
    }
  }
}

namespace {

Mutex g_pool_mutex;
int g_requested_threads IMR_GUARDED_BY(g_pool_mutex) = 0;  // 0 = hw conc.
std::unique_ptr<ThreadPool> g_pool IMR_GUARDED_BY(g_pool_mutex);

int ResolveThreads(int requested) {
  if (requested > 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

}  // namespace

void SetGlobalThreads(int threads) {
  MutexLock lock(g_pool_mutex);
  g_requested_threads = threads > 0 ? threads : 0;
  const int resolved = ResolveThreads(g_requested_threads);
  if (g_pool != nullptr && g_pool->threads() != resolved) g_pool.reset();
}

int GlobalThreads() {
  MutexLock lock(g_pool_mutex);
  return ResolveThreads(g_requested_threads);
}

ThreadPool& GlobalPool() {
  MutexLock lock(g_pool_mutex);
  if (g_pool == nullptr) {
    g_pool = std::make_unique<ThreadPool>(ResolveThreads(g_requested_threads));
  }
  return *g_pool;
}

}  // namespace imr::util
