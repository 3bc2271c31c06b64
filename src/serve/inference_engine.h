// The per-replica scorer behind ServeRouter — the paper's pipeline with all
// training machinery stripped away. An engine serves an immutable
// ModelState (eval-mode model, dropout off, no Rng anywhere on the hot
// path), featurizes queries exactly as BagDataset did at training time, and
// scores one query per Predict call:
//
//   BuildBag -> MR cache -> PaModel::Predict -> kNN blend -> top-k
//
// The engine owns no threads and no queue. ServeRouter (router.h) is the
// request path: admission, per-replica queues and workers, and hot swap
// across replicas; its workers call Predict. Tests and benches that want a
// single-threaded reference call Predict on a bare engine directly.
//
// Hot swap: the serving state is a std::shared_ptr<const ModelState> held
// in a mutex-guarded slot. Every request copies the pointer once and uses
// only that state, so SwapState() replaces the model with one pointer
// exchange, in-flight requests drain on the generation they started with,
// and no request ever observes a half-swapped model. See model_state.h for
// the protocol.
//
// Mutual-relation vectors are served through an entity-pair-SHARDED LRU
// cache (sharded_cache.h): hash(generation, e1, e2) picks a shard, each
// shard has its own mutex, so concurrent router workers do not serialize
// on one global cache lock. Cache keys embed the generation, so a swap can
// never mix one generation's MR vector into another's forward pass. Cached
// and uncached paths are bit-identical (the MR vector is a pure function of
// the embedding rows), and each query is scored independently, so results
// do not depend on how many workers call Predict concurrently.
#ifndef IMR_SERVE_INFERENCE_ENGINE_H_
#define IMR_SERVE_INFERENCE_ENGINE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "serve/model_state.h"
#include "serve/sharded_cache.h"
#include "serve/snapshot.h"
#include "text/sentence.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace imr::serve {

struct EngineOptions {
  /// Entity-pair mutual-relation cache capacity (total across shards);
  /// 0 disables caching.
  size_t mr_cache_capacity = 4096;
  /// Shards the MR cache is split into (rounded up to a power of two).
  /// 1 reproduces the old single-mutex cache; more shards scale concurrent
  /// Get/Put without changing hit behavior.
  size_t cache_shards = 8;
  /// Relations returned in Prediction::top.
  int top_k = 3;
  /// Serve with the int8 path: mutual-relation vectors come from the
  /// snapshot's QEMB section (quantized at load when the file has none)
  /// and the model's fusion heads run through the int8 GEMM
  /// (PaModel::EnableQuantizedInference). fp32 and quantized engines over
  /// the same snapshot are compared by
  /// QuantizedEngineTest.QuantizedServingAgreesWithFp32.
  bool quantized = false;
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
};

class InferenceEngine {
 public:
  /// Serves an already prepared state (quantization and eval mode applied
  /// by ModelState::Create). ServeRouter shares one immutable state across
  /// N replicas — replicas exist for lock and queue isolation, not for
  /// copies of the weights.
  InferenceEngine(std::shared_ptr<const ModelState> state,
                  const EngineOptions& options);

  InferenceEngine(const InferenceEngine&) = delete;
  InferenceEngine& operator=(const InferenceEngine&) = delete;

  /// Loads a snapshot from disk and serves it as generation 1.
  [[nodiscard]] static util::StatusOr<std::unique_ptr<InferenceEngine>> Open(
      const std::string& snapshot_path, const EngineOptions& options = {});

  /// Scores one query on the calling thread.
  [[nodiscard]] util::StatusOr<Prediction> Predict(const Query& query)
      IMR_EXCLUDES(stats_mutex_);

  /// Resolves entity names against the snapshot's entity table and builds
  /// a query. Sentences with head_index/tail_index < 0 get their mention
  /// indices located by token match against the entity names.
  [[nodiscard]] util::StatusOr<Query> MakeQuery(
      const std::string& head_name, const std::string& tail_name,
      std::vector<text::Sentence> sentences) const;

  /// Publishes an already prepared state (ServeRouter shares one state
  /// across its replicas). The caller is responsible for validation
  /// (ModelState::ValidateSwap).
  void SwapState(std::shared_ptr<const ModelState> state)
      IMR_EXCLUDES(state_mutex_);

  /// The state serving new requests right now. Holding the returned
  /// pointer keeps that generation alive across swaps.
  [[nodiscard]] std::shared_ptr<const ModelState> CurrentState() const
      IMR_EXCLUDES(state_mutex_) {
    util::MutexLock lock(state_mutex_);
    return state_;
  }

  EngineStats Stats() const IMR_EXCLUDES(stats_mutex_);

  /// Raw latency ring contents (unordered); ServeRouter merges these
  /// across replicas for aggregate percentiles.
  std::vector<double> LatencySamples() const IMR_EXCLUDES(stats_mutex_);

  /// The serving snapshot. The reference stays valid until the next
  /// swap — callers that might race a swap must hold CurrentState()
  /// instead.
  const Snapshot& snapshot() const { return CurrentState()->snapshot; }

 private:
  /// Size of the latency ring behind the percentile estimates.
  static constexpr size_t kLatencySamples = 4096;

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

  EngineOptions options_;
  /// The RCU slot, locked only to copy or exchange the pointer. Not
  /// std::atomic<shared_ptr>: libstdc++ 12's load() releases its internal
  /// lock with a relaxed store, so a load and the next swap race on the
  /// raw pointer (ThreadSanitizer reports it under hot-swap load).
  mutable util::Mutex state_mutex_;
  std::shared_ptr<const ModelState> state_ IMR_GUARDED_BY(state_mutex_);

  ShardedLruCache<MrCacheKey, std::vector<float>, MrCacheKeyHash> mr_cache_;

  std::atomic<uint64_t> requests_{0};
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
};

}  // namespace imr::serve

#endif  // IMR_SERVE_INFERENCE_ENGINE_H_
