#include "serve/router.h"

#include <algorithm>
#include <utility>

#include "serve/delta.h"
#include "util/logging.h"

namespace imr::serve {

namespace {

/// Percentile of a sorted sample set (nearest-rank); matches the engine's
/// per-replica estimator so aggregate and replica numbers are comparable.
double Percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const auto rank =
      static_cast<size_t>(q * static_cast<double>(sorted.size() - 1) + 0.5);
  return sorted[std::min(rank, sorted.size() - 1)];
}

}  // namespace

ServeRouter::ServeRouter(std::shared_ptr<const ModelState> state,
                         const RouterOptions& options)
    : options_(options),
      admission_(std::max(1, options.replicas), options.admission) {
  IMR_CHECK(state != nullptr);
  options_.replicas = std::max(1, options_.replicas);
  options_.workers_per_replica = std::max(1, options_.workers_per_replica);
  const size_t replicas = static_cast<size_t>(options_.replicas);
  engines_.reserve(replicas);
  queues_.reserve(replicas);
  for (size_t r = 0; r < replicas; ++r) {
    engines_.push_back(
        std::make_unique<InferenceEngine>(state, options_.engine));
    queues_.push_back(std::make_unique<ReplicaQueue>());
  }
  workers_.reserve(replicas *
                   static_cast<size_t>(options_.workers_per_replica));
  for (int r = 0; r < options_.replicas; ++r) {
    for (int w = 0; w < options_.workers_per_replica; ++w) {
      workers_.emplace_back([this, r] { WorkerLoop(r); });
    }
  }
}

ServeRouter::~ServeRouter() {
  for (auto& queue : queues_) {
    {
      util::MutexLock lock(queue->mutex);
      queue->stop = true;
    }
    queue->cv.NotifyAll();
  }
  for (std::thread& worker : workers_) worker.join();
}

util::StatusOr<std::unique_ptr<ServeRouter>> ServeRouter::Open(
    const std::string& snapshot_path, const RouterOptions& options) {
  auto snapshot = LoadSnapshot(snapshot_path);
  IMR_RETURN_IF_ERROR(snapshot.status());
  auto state = ModelState::Create(std::move(*snapshot),
                                  options.engine.quantized, /*generation=*/1);
  IMR_RETURN_IF_ERROR(state.status());
  return std::make_unique<ServeRouter>(std::move(*state), options);
}

std::future<util::StatusOr<Prediction>> ServeRouter::Enqueue(Query query) {
  auto admitted = admission_.Admit();
  if (!admitted.ok()) {
    // Rejected at the door: resolve immediately, never touch a queue.
    std::promise<util::StatusOr<Prediction>> rejected;
    std::future<util::StatusOr<Prediction>> future = rejected.get_future();
    rejected.set_value(admitted.status());
    return future;
  }
  ReplicaQueue& queue = *queues_[static_cast<size_t>(*admitted)];
  std::future<util::StatusOr<Prediction>> future;
  {
    util::MutexLock lock(queue.mutex);
    IMR_CHECK(!queue.stop);
    queue.pending.push_back(PendingRequest{
        std::move(query), {}, std::chrono::steady_clock::now()});
    future = queue.pending.back().promise.get_future();
  }
  queue.cv.NotifyOne();
  return future;
}

util::StatusOr<Prediction> ServeRouter::Predict(const Query& query) {
  return Enqueue(query).get();
}

std::vector<util::StatusOr<Prediction>> ServeRouter::PredictBatch(
    const std::vector<Query>& queries) {
  std::vector<std::future<util::StatusOr<Prediction>>> futures;
  futures.reserve(queries.size());
  for (const Query& query : queries) futures.push_back(Enqueue(query));
  std::vector<util::StatusOr<Prediction>> results;
  results.reserve(queries.size());
  for (auto& future : futures) results.push_back(future.get());
  return results;
}

std::future<util::StatusOr<Prediction>> ServeRouter::SubmitAsync(Query query) {
  return Enqueue(std::move(query));
}

util::StatusOr<Query> ServeRouter::MakeQuery(
    const std::string& head_name, const std::string& tail_name,
    std::vector<text::Sentence> sentences) const {
  return engines_.front()->MakeQuery(head_name, tail_name,
                                     std::move(sentences));
}

void ServeRouter::WorkerLoop(int replica_index) {
  ReplicaQueue& queue = *queues_[static_cast<size_t>(replica_index)];
  InferenceEngine& engine = *engines_[static_cast<size_t>(replica_index)];
  while (true) {
    PendingRequest request;
    {
      util::MutexLock lock(queue.mutex);
      while (!queue.stop && queue.pending.empty()) queue.cv.Wait(queue.mutex);
      if (queue.pending.empty()) return;  // stop requested and fully drained
      request = std::move(queue.pending.front());
      queue.pending.pop_front();
    }
    admission_.OnDequeue(replica_index);
    if (admission_.ExpiredInQueue(request.enqueue_time)) {
      const double waited_us =
          std::chrono::duration<double, std::micro>(
              std::chrono::steady_clock::now() - request.enqueue_time)
              .count();
      request.promise.set_value(admission_.Shed(replica_index, waited_us));
      continue;
    }
    // The slot bounds concurrent forwards across ALL replicas: queue wait
    // happens here (outside the forward) instead of inside it as
    // scheduler time-slicing.
    admission_.AcquireSlot();
    util::StatusOr<Prediction> result = engine.Predict(request.query);
    admission_.ReleaseSlot();
    if (result.ok()) admission_.OnComplete(result->latency_us);
    request.promise.set_value(std::move(result));
  }
}

util::Status ServeRouter::Reload(const std::string& snapshot_path) {
  util::MutexLock lock(reload_mutex_);
  // Load + prepare once on this thread; request traffic keeps flowing on
  // the current generation the whole time.
  auto snapshot = LoadSnapshot(snapshot_path);
  if (!snapshot.ok()) {
    last_reload_error_ = snapshot.status().message();
    return snapshot.status();
  }
  return PublishLocked(
      ModelState::Create(std::move(*snapshot), options_.engine.quantized,
                         ServingState()->generation + 1),
      /*is_delta=*/false);
}

util::Status ServeRouter::ReloadDelta(const std::string& delta_path) {
  util::MutexLock lock(reload_mutex_);
  // Pin the base generation for the whole apply: even if a concurrent full
  // Reload were possible (it is not — reload_mutex_), the delta patches
  // exactly the state it hash-matched against.
  const std::shared_ptr<const ModelState> base = ServingState();
  auto snapshot = ApplyDelta(base->snapshot, delta_path);
  if (!snapshot.ok()) {
    last_reload_error_ = snapshot.status().message();
    return snapshot.status();
  }
  return PublishLocked(
      ModelState::Create(std::move(*snapshot), options_.engine.quantized,
                         base->generation + 1, base.get()),
      /*is_delta=*/true);
}

util::Status ServeRouter::PublishLocked(
    util::StatusOr<std::shared_ptr<const ModelState>> next, bool is_delta) {
  if (!next.ok()) {
    last_reload_error_ = next.status().message();
    return next.status();
  }
  const std::shared_ptr<const ModelState> current = ServingState();
  if (util::Status valid = ModelState::ValidateSwap(*current, **next);
      !valid.ok()) {
    last_reload_error_ = valid.message();
    return valid;
  }
  // Publish: one pointer exchange per replica. In-flight requests drain on the
  // generation they pinned; the old state frees when the last one returns —
  // which is also what keeps a delta's base mapping pinned until its last
  // borrower exits. Replica 0 goes first: it is the serving generation
  // that generation(), content_hash() and Stats() report.
  for (auto& engine : engines_) engine->SwapState(*next);
  ++reloads_;
  if (is_delta) ++delta_reloads_;
  last_reload_error_.clear();
  return util::OkStatus();
}

RouterStats ServeRouter::Stats() const {
  RouterStats stats;
  {
    // Under the reload lock, so the generation, its hash, the reload
    // counters and the last error all describe the same publish.
    util::MutexLock lock(reload_mutex_);
    const std::shared_ptr<const ModelState> serving = ServingState();
    stats.generation = serving->generation;
    stats.content_hash = serving->snapshot.content_hash;
    stats.reloads = reloads_;
    stats.delta_reloads = delta_reloads_;
    stats.last_reload_error = last_reload_error_;
  }
  EngineStats& total = stats.aggregate;
  std::vector<double> merged_samples;
  double latency_weighted_sum = 0.0;
  for (const std::unique_ptr<InferenceEngine>& engine : engines_) {
    const EngineStats replica = engine->Stats();
    total.requests += replica.requests;
    total.knn_fired += replica.knn_fired;
    total.mr_cache_hits += replica.mr_cache_hits;
    total.mr_cache_misses += replica.mr_cache_misses;
    if (total.cache_shards.size() < replica.cache_shards.size()) {
      total.cache_shards.resize(replica.cache_shards.size());
    }
    for (size_t s = 0; s < replica.cache_shards.size(); ++s) {
      total.cache_shards[s].hits += replica.cache_shards[s].hits;
      total.cache_shards[s].misses += replica.cache_shards[s].misses;
      total.cache_shards[s].size += replica.cache_shards[s].size;
    }
    latency_weighted_sum +=
        replica.mean_latency_us * static_cast<double>(replica.requests);
    total.max_latency_us =
        std::max(total.max_latency_us, replica.max_latency_us);
    // Replica windows overlap under concurrent load, so summing per-replica
    // qps approximates the router's throughput.
    total.qps += replica.qps;

    const std::vector<double> samples = engine->LatencySamples();
    merged_samples.insert(merged_samples.end(), samples.begin(),
                          samples.end());
  }
  if (total.requests > 0) {
    total.mean_latency_us =
        latency_weighted_sum / static_cast<double>(total.requests);
  }
  std::sort(merged_samples.begin(), merged_samples.end());
  total.p50_latency_us = Percentile(merged_samples, 0.50);
  total.p99_latency_us = Percentile(merged_samples, 0.99);
  total.p999_latency_us = Percentile(merged_samples, 0.999);
  total.generation = stats.generation;
  const AdmissionCounters admission = admission_.TotalCounters();
  total.queue_depth = admission.queue_depth;
  total.queue_peak = admission.queue_peak;
  total.admitted = admission.admitted;
  total.rejected_queue_full = admission.rejected_queue_full;
  total.shed_deadline = admission.shed_deadline;
  return stats;
}

}  // namespace imr::serve
