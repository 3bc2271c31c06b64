#include "serve/inference_engine.h"

#include <algorithm>
#include <numeric>
#include <utility>

#include "re/bag_dataset.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace imr::serve {

namespace {

uint64_t PairKey(int64_t head, int64_t tail) {
  return (static_cast<uint64_t>(head) << 32) ^
         static_cast<uint64_t>(tail & 0xffffffff);
}

double MicrosBetween(std::chrono::steady_clock::time_point begin,
                     std::chrono::steady_clock::time_point end) {
  return std::chrono::duration<double, std::micro>(end - begin).count();
}

/// Percentile of a sorted sample set (nearest-rank).
double Percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const auto rank = static_cast<size_t>(q * static_cast<double>(sorted.size() - 1) + 0.5);
  return sorted[std::min(rank, sorted.size() - 1)];
}

}  // namespace

InferenceEngine::InferenceEngine(std::shared_ptr<const ModelState> state,
                                 const EngineOptions& options)
    : options_(options),
      state_(std::move(state)),
      mr_cache_(options.mr_cache_capacity,
                options.cache_shards == 0 ? 1 : options.cache_shards) {
  IMR_CHECK(state_ != nullptr);
  latency_ring_.reserve(kLatencySamples);
}

util::StatusOr<std::unique_ptr<InferenceEngine>> InferenceEngine::Open(
    const std::string& snapshot_path, const EngineOptions& options) {
  auto snapshot = LoadSnapshot(snapshot_path);
  IMR_RETURN_IF_ERROR(snapshot.status());
  auto state = ModelState::Create(std::move(*snapshot), options.quantized,
                                  /*generation=*/1);
  IMR_RETURN_IF_ERROR(state.status());
  return std::make_unique<InferenceEngine>(std::move(*state), options);
}

void InferenceEngine::SwapState(std::shared_ptr<const ModelState> state) {
  IMR_CHECK(state != nullptr);
  {
    util::MutexLock lock(state_mutex_);
    state_.swap(state);
  }
  // `state` now holds the previous generation, released outside the lock.
  // Old-generation cache entries are unreachable (keys embed the
  // generation); clear them eagerly so they stop squatting on capacity.
  // In-flight old-generation requests may still Put a few entries after
  // this — they are equally unreachable and age out through the LRU.
  mr_cache_.Clear();
}

util::StatusOr<re::Bag> InferenceEngine::BuildBag(const ModelState& state,
                                                  const Query& query,
                                                  bool* cache_hit) {
  *cache_hit = false;
  if (query.head < 0 || query.tail < 0) {
    return util::InvalidArgument("query entity ids must be >= 0");
  }
  if (query.sentences.empty()) {
    return util::InvalidArgument("query has no sentences");
  }
  for (const text::Sentence& sentence : query.sentences) {
    const int tokens = static_cast<int>(sentence.tokens.size());
    if (tokens == 0) return util::InvalidArgument("query sentence is empty");
    if (sentence.head_index < 0 || sentence.head_index >= tokens ||
        sentence.tail_index < 0 || sentence.tail_index >= tokens) {
      return util::InvalidArgument(util::StrFormat(
          "query mention index out of range (head %d, tail %d, %d tokens)",
          sentence.head_index, sentence.tail_index, tokens));
    }
  }
  const Snapshot& snapshot = state.snapshot;
  const re::PaModelConfig& config = snapshot.manifest.model_config;

  re::Bag bag;
  bag.head = query.head;
  bag.tail = query.tail;
  bag.sentences.reserve(query.sentences.size());
  for (const text::Sentence& sentence : query.sentences) {
    bag.sentences.push_back(re::MakeEncoderInput(
        sentence, snapshot.vocab(), snapshot.manifest.bag_options));
  }

  if (config.use_entity_type) {
    bag.head_types = query.head_types;
    bag.tail_types = query.tail_types;
    const auto table_types =
        [&snapshot](int64_t id) -> const std::vector<int>* {
      if (id < 0 || id >= static_cast<int64_t>(snapshot.entities().size()))
        return nullptr;
      return &snapshot.entities()[static_cast<size_t>(id)].type_ids;
    };
    if (bag.head_types.empty()) {
      if (const auto* types = table_types(query.head)) bag.head_types = *types;
    }
    if (bag.tail_types.empty()) {
      if (const auto* types = table_types(query.tail)) bag.tail_types = *types;
    }
    if (bag.head_types.empty() || bag.tail_types.empty()) {
      return util::InvalidArgument(
          "model uses entity types but the query has none and the snapshot "
          "entity table cannot supply them");
    }
  }

  if (config.use_mutual_relation) {
    if (query.head >= snapshot.embeddings.num_vertices() ||
        query.tail >= snapshot.embeddings.num_vertices()) {
      return util::InvalidArgument(util::StrFormat(
          "query entity pair (%lld, %lld) outside the embedding store (%d "
          "vertices)",
          static_cast<long long>(query.head),
          static_cast<long long>(query.tail),
          snapshot.embeddings.num_vertices()));
    }
    const MrCacheKey key{state.generation,
                         PairKey(query.head, query.tail)};
    bool hit = false;
    if (auto cached = mr_cache_.Get(key)) {
      bag.mutual_relation = std::move(*cached);
      hit = true;
    } else {
      // Computed outside any lock: the vector is a pure function of the
      // (immutable) embedding rows, so concurrent misses on the same pair
      // compute identical values.
      const int head = static_cast<int>(query.head);
      const int tail = static_cast<int>(query.tail);
      bag.mutual_relation =
          options_.quantized && !snapshot.quantized_embeddings.empty()
              ? snapshot.quantized_embeddings.MutualRelation(head, tail)
              : snapshot.embeddings.MutualRelation(head, tail);
      mr_cache_.Put(key, bag.mutual_relation);
    }
    *cache_hit = hit;
  }
  return bag;
}

util::StatusOr<Prediction> InferenceEngine::Predict(const Query& query) {
  // One pointer load pins the generation for the whole request: the bag,
  // the MR vector, and the forward pass all come from `state`, so the
  // response is consistent with exactly this generation even when a swap
  // lands mid-request (the old state stays alive until we return).
  const std::shared_ptr<const ModelState> state = CurrentState();
  const auto start = std::chrono::steady_clock::now();
  bool cache_hit = false;
  auto bag = BuildBag(*state, query, &cache_hit);
  IMR_RETURN_IF_ERROR(bag.status());

  Prediction prediction;
  prediction.probabilities = state->snapshot.model->Predict(*bag);
  // Long-tail rescue: when the snapshot carries a kNN predictor and the
  // model is unsure, blend in the vote over the same MR vector the forward
  // pass used (so the blend is consistent with this generation's
  // embeddings, cached or not).
  const re::KnnPredictor* knn = state->snapshot.knn.get();
  if (knn != nullptr &&
      static_cast<int>(bag->mutual_relation.size()) == knn->dim() &&
      static_cast<int>(prediction.probabilities.size()) ==
          knn->num_relations()) {
    prediction.knn_fired = knn->Interpolate(bag->mutual_relation.data(),
                                            &prediction.probabilities);
    if (prediction.knn_fired) {
      knn_fired_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  const auto end = std::chrono::steady_clock::now();
  prediction.latency_us = MicrosBetween(start, end);
  prediction.mr_cache_hit = cache_hit;
  prediction.generation = state->generation;

  const int num_relations = static_cast<int>(prediction.probabilities.size());
  const int k = std::min(std::max(options_.top_k, 1), num_relations);
  std::vector<int> order(static_cast<size_t>(num_relations));
  std::iota(order.begin(), order.end(), 0);
  std::partial_sort(order.begin(), order.begin() + k, order.end(),
                    [&](int a, int b) {
                      const float pa = prediction.probabilities[a];
                      const float pb = prediction.probabilities[b];
                      if (pa != pb) return pa > pb;
                      return a < b;  // deterministic tie-break
                    });
  prediction.top.reserve(static_cast<size_t>(k));
  for (int i = 0; i < k; ++i) {
    const int relation = order[static_cast<size_t>(i)];
    ScoredRelation scored;
    scored.relation = relation;
    if (static_cast<size_t>(relation) <
        state->snapshot.relation_names().size()) {
      scored.name =
          state->snapshot.relation_names()[static_cast<size_t>(relation)];
    }
    scored.probability =
        prediction.probabilities[static_cast<size_t>(relation)];
    prediction.top.push_back(std::move(scored));
  }

  requests_.fetch_add(1, std::memory_order_relaxed);
  {
    util::MutexLock lock(stats_mutex_);
    latency_sum_us_ += prediction.latency_us;
    latency_max_us_ = std::max(latency_max_us_, prediction.latency_us);
    if (latency_ring_.size() < kLatencySamples) {
      latency_ring_.push_back(prediction.latency_us);
    } else {
      latency_ring_[latency_next_] = prediction.latency_us;
      latency_next_ = (latency_next_ + 1) % kLatencySamples;
    }
    if (!first_request_seen_) {
      first_request_seen_ = true;
      first_request_time_ = start;
    }
    last_completion_time_ = end;
  }
  return prediction;
}

util::StatusOr<Query> InferenceEngine::MakeQuery(
    const std::string& head_name, const std::string& tail_name,
    std::vector<text::Sentence> sentences) const {
  const std::shared_ptr<const ModelState> state = CurrentState();
  const ModelState::EntityIndex& index = *state->entity_by_name;
  const auto head = index.find(head_name);
  if (head == index.end()) {
    return util::NotFound("unknown entity '" + head_name + "'");
  }
  const auto tail = index.find(tail_name);
  if (tail == index.end()) {
    return util::NotFound("unknown entity '" + tail_name + "'");
  }
  Query query;
  query.head = head->second;
  query.tail = tail->second;
  for (text::Sentence& sentence : sentences) {
    const auto locate = [&sentence](const std::string& name) -> int {
      for (size_t t = 0; t < sentence.tokens.size(); ++t) {
        if (sentence.tokens[t] == name) return static_cast<int>(t);
      }
      return -1;
    };
    if (sentence.head_index < 0) sentence.head_index = locate(head_name);
    if (sentence.tail_index < 0) sentence.tail_index = locate(tail_name);
    if (sentence.head_index < 0 || sentence.tail_index < 0) {
      return util::InvalidArgument(
          "sentence does not mention both query entities");
    }
    sentence.head_entity = query.head;
    sentence.tail_entity = query.tail;
  }
  query.sentences = std::move(sentences);
  return query;
}

std::vector<double> InferenceEngine::LatencySamples() const {
  util::MutexLock lock(stats_mutex_);
  return latency_ring_;
}

EngineStats InferenceEngine::Stats() const {
  EngineStats stats;
  stats.requests = requests_.load(std::memory_order_relaxed);
  stats.knn_fired = knn_fired_.load(std::memory_order_relaxed);
  stats.cache_shards = mr_cache_.ShardStats();
  for (const CacheShardStats& shard : stats.cache_shards) {
    stats.mr_cache_hits += shard.hits;
    stats.mr_cache_misses += shard.misses;
  }
  stats.generation = CurrentState()->generation;
  {
    util::MutexLock lock(stats_mutex_);
    if (stats.requests > 0) {
      stats.mean_latency_us =
          latency_sum_us_ / static_cast<double>(stats.requests);
      stats.max_latency_us = latency_max_us_;
      std::vector<double> sorted = latency_ring_;
      std::sort(sorted.begin(), sorted.end());
      stats.p50_latency_us = Percentile(sorted, 0.50);
      stats.p99_latency_us = Percentile(sorted, 0.99);
      stats.p999_latency_us = Percentile(sorted, 0.999);
      const double window_s =
          std::chrono::duration<double>(last_completion_time_ -
                                        first_request_time_)
              .count();
      stats.qps = window_s > 0.0
                      ? static_cast<double>(stats.requests) / window_s
                      : 0.0;
    }
  }
  return stats;
}

}  // namespace imr::serve
