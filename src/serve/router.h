// The serve tier's front door and its only request path: a ServeRouter
// fronts N InferenceEngine replicas that share one immutable ModelState
// (replicas exist for lock isolation — separate MR caches and latency
// rings — not for copies of the weights).
//
// Topology (DESIGN.md §12):
//
//   client ──> AdmissionController ──> per-replica bounded queue ──┐
//                (least-depth pick,         (Mutex + CondVar)      │
//                 kUnavailable +                                   ▼
//                 retry-after when full)                    worker threads
//                                                                  │
//                                              execution slots ◄───┤
//                                              (global semaphore,  ▼
//                                               max_concurrent)  engine
//                                                             .Predict()
//
// Every admitted request flows through exactly one replica's queue; its
// worker sheds it if the queue wait exceeded deadline_us, otherwise takes
// an execution slot and runs the forward. Slots bound concurrent forwards
// to roughly the core count, so under overload requests wait in queues
// (cheap, visible, sheddable) instead of time-slicing each other's
// forwards apart.
//
// Hot swap: Reload() loads and validates the new snapshot ONCE on the
// calling thread, then publishes the resulting ModelState to every replica
// with one pointer exchange each (InferenceEngine::SwapState). In-flight
// requests drain on the generation they pinned at dispatch; zero requests
// fail or block during a swap. SnapshotWatcher (snapshot_watcher.h) can
// drive Reload() from file-change polling for hands-off rollouts.
#ifndef IMR_SERVE_ROUTER_H_
#define IMR_SERVE_ROUTER_H_

#include <chrono>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "serve/admission.h"
#include "serve/inference_engine.h"
#include "serve/model_state.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace imr::serve {

struct RouterOptions {
  /// Engine replicas. Each gets its own MR cache, request queue, and
  /// stats; all share one ModelState.
  int replicas = 1;
  /// Worker threads draining each replica's queue.
  int workers_per_replica = 1;
  /// Queue bounds, deadline shedding, and the execution-slot cap.
  AdmissionOptions admission;
  /// Per-replica engine configuration (cache size/shards, top_k,
  /// quantized serving).
  EngineOptions engine;
};

struct RouterStats {
  /// Cross-replica aggregate: request counts and cache traffic summed,
  /// percentiles recomputed over the merged latency rings, qps summed
  /// across concurrently active replicas, admission totals from the
  /// controller.
  EngineStats aggregate;
  /// Serving generation; `content_hash` below is always this generation's.
  uint64_t generation = 0;
  uint64_t reloads = 0;
  /// How many of `reloads` were IMRD delta applies (ReloadDelta) rather
  /// than full snapshot loads.
  uint64_t delta_reloads = 0;
  /// Content hash of the serving generation (snapshot footer or delta
  /// result). The identity the next delta must chain on.
  uint64_t content_hash = 0;
  /// Empty when the last Reload()/ReloadDelta() succeeded (or none was
  /// attempted).
  std::string last_reload_error;
};

class ServeRouter {
 public:
  ServeRouter(std::shared_ptr<const ModelState> state,
              const RouterOptions& options);
  ~ServeRouter();

  ServeRouter(const ServeRouter&) = delete;
  ServeRouter& operator=(const ServeRouter&) = delete;

  /// Loads a snapshot from disk and builds the replica set over it.
  [[nodiscard]] static util::StatusOr<std::unique_ptr<ServeRouter>> Open(
      const std::string& snapshot_path, const RouterOptions& options = {});

  /// Synchronous predict: admission (possibly kUnavailable), then the
  /// request rides its replica's queue like any other and the call blocks
  /// on the result. Subject to deadline shedding.
  [[nodiscard]] util::StatusOr<Prediction> Predict(const Query& query);

  /// Admits and enqueues every query, then waits for all results. Results
  /// align with input order; individual entries may be kUnavailable
  /// (rejected at the door or shed in queue).
  std::vector<util::StatusOr<Prediction>> PredictBatch(
      const std::vector<Query>& queries);

  /// Fire-and-wait-later: the future resolves with the prediction, a
  /// kUnavailable rejection, or a deadline shed.
  std::future<util::StatusOr<Prediction>> SubmitAsync(Query query);

  /// Entity-name resolution against the serving snapshot (see
  /// InferenceEngine::MakeQuery).
  [[nodiscard]] util::StatusOr<Query> MakeQuery(
      const std::string& head_name, const std::string& tail_name,
      std::vector<text::Sentence> sentences) const;

  /// Zero-downtime hot swap across all replicas: load + validate once,
  /// then one pointer exchange per replica. Serialized against concurrent
  /// Reload() calls; request traffic never blocks on it.
  [[nodiscard]] util::Status Reload(const std::string& snapshot_path)
      IMR_EXCLUDES(reload_mutex_);

  /// O(touched-rows) hot swap: applies the IMRD delta at `delta_path` to
  /// the serving generation (copy-on-write block aliasing of its mapping,
  /// see delta.h) and publishes the result exactly like Reload(). Fails
  /// with a clean Status — and leaves the serving generation untouched —
  /// when the delta's base hash does not match the serving content hash.
  [[nodiscard]] util::Status ReloadDelta(const std::string& delta_path)
      IMR_EXCLUDES(reload_mutex_);

  /// Content hash of the serving generation.
  uint64_t content_hash() const {
    return ServingState()->snapshot.content_hash;
  }

  [[nodiscard]] RouterStats Stats() const IMR_EXCLUDES(reload_mutex_);

  /// The serving generation: the one the next request is stamped with.
  uint64_t generation() const { return ServingState()->generation; }

 private:
  struct PendingRequest {
    Query query;
    std::promise<util::StatusOr<Prediction>> promise;
    std::chrono::steady_clock::time_point enqueue_time;
  };

  struct ReplicaQueue {
    util::Mutex mutex;
    util::CondVar cv;
    std::deque<PendingRequest> pending IMR_GUARDED_BY(mutex);
    bool stop IMR_GUARDED_BY(mutex) = false;
  };

  /// Admits `query` and enqueues it on the chosen replica; on rejection
  /// the returned future is already resolved with kUnavailable.
  std::future<util::StatusOr<Prediction>> Enqueue(Query query);
  void WorkerLoop(int replica_index);
  /// The one copy of the serving generation: replica 0's pinned state.
  /// PublishLocked swaps replica 0 first, so generation(), content_hash()
  /// and Stats() never trail a response already stamped with the new
  /// generation.
  std::shared_ptr<const ModelState> ServingState() const {
    return engines_.front()->CurrentState();
  }

  RouterOptions options_;
  AdmissionController admission_;
  std::vector<std::unique_ptr<InferenceEngine>> engines_;
  std::vector<std::unique_ptr<ReplicaQueue>> queues_;
  std::vector<std::thread> workers_;
  /// Shared swap tail of Reload/ReloadDelta: validate against the serving
  /// generation, publish to every replica, bump the counters.
  [[nodiscard]] util::Status PublishLocked(
      util::StatusOr<std::shared_ptr<const ModelState>> next, bool is_delta)
      IMR_REQUIRES(reload_mutex_);

  /// Serializes Reload() callers (never contended by request traffic).
  mutable util::Mutex reload_mutex_;
  uint64_t reloads_ IMR_GUARDED_BY(reload_mutex_) = 0;
  uint64_t delta_reloads_ IMR_GUARDED_BY(reload_mutex_) = 0;
  std::string last_reload_error_ IMR_GUARDED_BY(reload_mutex_);
};

}  // namespace imr::serve

#endif  // IMR_SERVE_ROUTER_H_
