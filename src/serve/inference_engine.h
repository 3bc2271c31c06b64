// Batched inference serving over a loaded model snapshot — the paper's
// pipeline with all training machinery stripped away. The engine serves an
// immutable ModelState (eval-mode model, dropout off, no Rng anywhere on
// the hot path), featurizes queries exactly as BagDataset did at training
// time, and offers three calling conventions:
//
//   Predict(query)        synchronous, single request
//   PredictBatch(queries) one parallel pass over util::ThreadPool
//   SubmitAsync(query)    enqueue; a dispatcher thread coalesces queued
//                         requests into micro-batches (flushed at
//                         max_batch or after batch_delay_us) and executes
//                         them as one PredictBatch
//
// Hot swap: the serving state is a std::shared_ptr<const ModelState> held
// in a mutex-guarded slot. Every request copies the pointer once and uses
// only that state, so SwapState()/Reload() replace the model with one
// pointer exchange, in-flight requests drain on the generation they
// started with, and no request ever observes a half-swapped model. See model_state.h for the
// protocol; ServeRouter (router.h) drives swaps across N replicas.
//
// Mutual-relation vectors are served through an entity-pair-SHARDED LRU
// cache (sharded_cache.h): hash(generation, e1, e2) picks a shard, each
// shard has its own mutex, so concurrent serving threads no longer
// serialize on one global cache lock. Cache keys embed the generation, so
// a swap can never mix one generation's MR vector into another's forward
// pass. Cached and uncached paths are bit-identical (the MR vector is a
// pure function of the embedding rows), and prediction itself is
// deterministic at any thread count — each query is scored independently.
#ifndef IMR_SERVE_INFERENCE_ENGINE_H_
#define IMR_SERVE_INFERENCE_ENGINE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "serve/model_state.h"
#include "serve/sharded_cache.h"
#include "serve/snapshot.h"
#include "text/sentence.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"
#include "util/thread_pool.h"

namespace imr::serve {

struct EngineOptions {
  /// Micro-batch flush size for SubmitAsync; PredictBatch is unaffected.
  int max_batch = 32;
  /// How long the dispatcher waits for more requests before flushing a
  /// partial micro-batch. 0 flushes immediately (no coalescing).
  int batch_delay_us = 200;
  /// Worker threads for batch execution. 0 uses the process-global pool
  /// (util::GlobalThreads); > 0 gives the engine a private pool.
  int threads = 0;
  /// Entity-pair mutual-relation cache capacity (total across shards);
  /// 0 disables caching.
  size_t mr_cache_capacity = 4096;
  /// Shards the MR cache is split into (rounded up to a power of two).
  /// 1 reproduces the old single-mutex cache; more shards scale concurrent
  /// Get/Put without changing hit behavior.
  size_t cache_shards = 8;
  /// Ring-buffer size for latency percentile estimates.
  size_t latency_samples = 4096;
  /// Relations returned in Prediction::top.
  int top_k = 3;
  /// Serve with the int8 path: mutual-relation vectors come from the
  /// snapshot's QEMB section (quantized at load when the file has none)
  /// and the model's fusion heads run through the int8 GEMM
  /// (PaModel::EnableQuantizedInference). fp32 and quantized engines over
  /// the same snapshot are compared by bench_serve's accuracy gate.
  bool quantized = false;
  /// kNN-interpolate long-tail predictions when the snapshot carries an
  /// ANNI section (re::KnnPredictor). The predictor's own confidence gate
  /// decides per request whether the vote fires; snapshots without the
  /// section serve unchanged regardless of this flag.
  bool knn = true;
};

/// One inference request: an entity pair plus the sentences mentioning it
/// (the bag). Types may be left empty when the snapshot carries an entity
/// table — they are then filled from it.
struct Query {
  int64_t head = -1;
  int64_t tail = -1;
  std::vector<int> head_types;
  std::vector<int> tail_types;
  std::vector<text::Sentence> sentences;
};

struct ScoredRelation {
  int relation = 0;
  std::string name;
  float probability = 0.0f;
};

struct Prediction {
  std::vector<float> probabilities;  // all relations, index == relation id
  std::vector<ScoredRelation> top;   // top_k by probability, descending
  double latency_us = 0.0;           // model forward time for this request
  bool mr_cache_hit = false;
  /// True when the kNN vote fired for this request (snapshot carried an
  /// ANNI section, the model was below its confidence gate, and neighbors
  /// contributed weight). `probabilities` and `top` then hold the blend.
  bool knn_fired = false;
  /// The snapshot generation that produced this response (1 = the boot
  /// snapshot). Every field of the response is consistent with exactly
  /// this generation, even when a hot swap raced the request.
  uint64_t generation = 0;
};

struct EngineStats {
  uint64_t requests = 0;
  uint64_t batches = 0;  // micro-batches executed by the dispatcher
  /// Requests whose response blended in the kNN vote (Prediction::knn_fired).
  uint64_t knn_fired = 0;
  uint64_t mr_cache_hits = 0;
  uint64_t mr_cache_misses = 0;
  /// Per-shard cache traffic (hits/misses/resident entries), index ==
  /// shard id. Sums to mr_cache_hits/mr_cache_misses.
  std::vector<CacheShardStats> cache_shards;
  double mean_latency_us = 0.0;
  double p50_latency_us = 0.0;
  double p99_latency_us = 0.0;
  double p999_latency_us = 0.0;
  double max_latency_us = 0.0;
  /// Completed requests divided by the wall time between the first request
  /// and the most recent completion.
  double qps = 0.0;
  /// Serving generation (increments on every hot swap; 1 = boot snapshot).
  uint64_t generation = 0;
  /// Admission-control counters. A bare engine leaves these zero; a
  /// ServeRouter fills them per replica (and in the aggregate) from its
  /// admission controller: current/peak queue depth, requests admitted,
  /// rejected with kUnavailable at the door, and shed after their deadline
  /// budget expired in queue.
  uint64_t queue_depth = 0;
  uint64_t queue_peak = 0;
  uint64_t admitted = 0;
  uint64_t rejected_queue_full = 0;
  uint64_t shed_deadline = 0;
  /// Tensor buffer-pool traffic, process-wide (tensor::PoolStats()). A
  /// warmed-up engine serves cache-hit predictions with zero new pool
  /// misses, so a rising miss count flags an allocation regression.
  uint64_t pool_hits = 0;
  uint64_t pool_misses = 0;
  /// Row-sparse gradient traffic, process-wide (tensor::SparseGradStats()).
  /// Inference itself takes no gradients, so for a pure serving process
  /// these stay 0; a co-located trainer (train-demo, online fine-tuning)
  /// surfaces its embedding-row touch rate and any dense fallbacks here.
  uint64_t sparse_rows_touched = 0;
  uint64_t sparse_rows_total = 0;
  uint64_t sparse_dense_fallbacks = 0;
};

class InferenceEngine {
 public:
  InferenceEngine(Snapshot snapshot, const EngineOptions& options);
  /// Serves an already prepared state (quantization and eval mode applied
  /// by ModelState::Create). ServeRouter uses this to share one immutable
  /// model across N replicas — replicas exist for lock and queue isolation,
  /// not for copies of the weights.
  InferenceEngine(std::shared_ptr<const ModelState> state,
                  const EngineOptions& options);
  ~InferenceEngine();

  InferenceEngine(const InferenceEngine&) = delete;
  InferenceEngine& operator=(const InferenceEngine&) = delete;

  /// Loads a snapshot from disk and wraps it in an engine.
  [[nodiscard]] static util::StatusOr<std::unique_ptr<InferenceEngine>> Open(
      const std::string& snapshot_path, const EngineOptions& options = {});

  /// Scores one query synchronously.
  [[nodiscard]] util::StatusOr<Prediction> Predict(const Query& query);

  /// Scores a batch of queries, parallelized over the thread pool. Results
  /// align with the input order and are bit-identical at any thread count.
  std::vector<util::StatusOr<Prediction>> PredictBatch(
      const std::vector<Query>& queries);

  /// Enqueues a query for micro-batched execution; the future resolves
  /// once the dispatcher has run its batch.
  std::future<util::StatusOr<Prediction>> SubmitAsync(Query query);

  /// Resolves entity names against the snapshot's entity table and builds
  /// a query. Sentences with head_index/tail_index < 0 get their mention
  /// indices located by token match against the entity names.
  [[nodiscard]] util::StatusOr<Query> MakeQuery(
      const std::string& head_name, const std::string& tail_name,
      std::vector<text::Sentence> sentences) const;

  /// Zero-downtime hot swap: loads `snapshot_path` (on the calling thread,
  /// never a request thread), validates it against the serving generation
  /// (ModelState::ValidateSwap), and publishes it atomically. In-flight
  /// requests finish on the old generation; new requests see the new one.
  [[nodiscard]] util::Status Reload(const std::string& snapshot_path);

  /// Publishes an already prepared state (ServeRouter shares one state
  /// across its replicas). The caller is responsible for validation.
  void SwapState(std::shared_ptr<const ModelState> state)
      IMR_EXCLUDES(state_mutex_);

  /// The state serving new requests right now. Holding the returned
  /// pointer keeps that generation alive across swaps.
  [[nodiscard]] std::shared_ptr<const ModelState> CurrentState() const
      IMR_EXCLUDES(state_mutex_) {
    util::MutexLock lock(state_mutex_);
    return state_;
  }

  uint64_t generation() const { return CurrentState()->generation; }

  EngineStats Stats() const IMR_EXCLUDES(stats_mutex_);

  /// Raw latency ring contents (unordered); ServeRouter merges these
  /// across replicas for aggregate percentiles.
  std::vector<double> LatencySamples() const IMR_EXCLUDES(stats_mutex_);

  /// The serving snapshot. The reference stays valid until the next
  /// swap — callers that might race a Reload must hold CurrentState()
  /// instead.
  const Snapshot& snapshot() const { return CurrentState()->snapshot; }
  int num_relations() const {
    return CurrentState()
        ->snapshot.manifest.model_config.num_relations;
  }

 private:
  struct PendingRequest {
    Query query;
    std::promise<util::StatusOr<Prediction>> promise;
  };

  /// Cache keys embed the generation so a hot swap can never serve one
  /// generation's MR vector with another's model weights.
  struct MrCacheKey {
    uint64_t generation = 0;
    uint64_t pair = 0;
    bool operator==(const MrCacheKey&) const = default;
  };
  struct MrCacheKeyHash {
    size_t operator()(const MrCacheKey& key) const {
      uint64_t h = key.pair + 0x9e3779b97f4a7c15ULL * (key.generation + 1);
      h ^= h >> 30;
      h *= 0xbf58476d1ce4e5b9ULL;
      h ^= h >> 27;
      return static_cast<size_t>(h);
    }
  };

  util::StatusOr<re::Bag> BuildBag(const ModelState& state,
                                   const Query& query, bool* cache_hit);
  util::StatusOr<Prediction> PredictOne(const Query& query)
      IMR_EXCLUDES(stats_mutex_);
  util::ThreadPool& pool();
  void EnsureDispatcherLocked() IMR_REQUIRES(queue_mutex_);
  void DispatchLoop() IMR_EXCLUDES(queue_mutex_, stats_mutex_);

  EngineOptions options_;
  std::unique_ptr<util::ThreadPool> own_pool_;  // only when options_.threads > 0
  /// The RCU slot, locked only to copy or exchange the pointer. Not
  /// std::atomic<shared_ptr>: libstdc++ 12's load() releases its internal
  /// lock with a relaxed store, so a load and the next swap race on the
  /// raw pointer (ThreadSanitizer reports it under hot-swap load).
  mutable util::Mutex state_mutex_;
  std::shared_ptr<const ModelState> state_ IMR_GUARDED_BY(state_mutex_);

  ShardedLruCache<MrCacheKey, std::vector<float>, MrCacheKeyHash> mr_cache_;

  std::atomic<uint64_t> requests_{0};
  std::atomic<uint64_t> batches_{0};
  std::atomic<uint64_t> knn_fired_{0};
  mutable util::Mutex stats_mutex_;  // latency ring + qps window only
  double latency_sum_us_ IMR_GUARDED_BY(stats_mutex_) = 0.0;
  double latency_max_us_ IMR_GUARDED_BY(stats_mutex_) = 0.0;
  std::vector<double> latency_ring_ IMR_GUARDED_BY(stats_mutex_);
  size_t latency_next_ IMR_GUARDED_BY(stats_mutex_) = 0;
  bool first_request_seen_ IMR_GUARDED_BY(stats_mutex_) = false;
  std::chrono::steady_clock::time_point first_request_time_
      IMR_GUARDED_BY(stats_mutex_);
  std::chrono::steady_clock::time_point last_completion_time_
      IMR_GUARDED_BY(stats_mutex_);

  util::Mutex queue_mutex_;
  util::CondVar queue_cv_;
  std::vector<PendingRequest> queue_ IMR_GUARDED_BY(queue_mutex_);
  bool stop_ IMR_GUARDED_BY(queue_mutex_) = false;
  bool dispatcher_started_ IMR_GUARDED_BY(queue_mutex_) = false;
  // Written once under queue_mutex_ (EnsureDispatcherLocked) and joined in
  // the destructor after the dispatcher was told to stop; not annotated
  // because std::thread::join must run unlocked.
  std::thread dispatcher_;
};

}  // namespace imr::serve

#endif  // IMR_SERVE_INFERENCE_ENGINE_H_
