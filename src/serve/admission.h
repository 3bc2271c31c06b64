// Admission control for the serve tier: bounded per-replica queues with
// backpressure, a queue-wait deadline that sheds work past its SLO budget,
// and a global execution-slot semaphore that bounds how many model
// forwards run concurrently (more forwards than cores time-slice each
// other, which multiplies every request's wall latency by the
// multiprogramming level).
//
// Request lifecycle (the admission state machine, see DESIGN.md §12):
//
//   ARRIVED --Admit()-----------------> QUEUED       (depth++, admitted++)
//     |
//     +---------- queue full ---------> REJECTED     (kUnavailable +
//                                                     retry-after hint)
//   QUEUED --OnDequeue()-------------> DISPATCHED    (depth--)
//   DISPATCHED -- deadline passed ---> SHED          (kUnavailable, never
//     |                                               executes)
//   DISPATCHED --AcquireSlot()-------> EXECUTING     (bounded concurrency)
//   EXECUTING --ReleaseSlot()/OnComplete()--> DONE   (service EWMA update)
//
// All counters are relaxed atomics (PoolStats-style): reading stats never
// contends with the request path.
#ifndef IMR_SERVE_ADMISSION_H_
#define IMR_SERVE_ADMISSION_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <vector>

#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace imr::serve {

struct AdmissionOptions {
  /// Per-replica pending-request cap. Admit() returns kUnavailable (with a
  /// retry-after hint) once every replica is at capacity. 0 = unbounded.
  size_t max_queue = 1024;
  /// Queue-wait SLO budget in microseconds: a request that waited longer
  /// than this before dispatch is shed (kUnavailable) instead of executed —
  /// under sustained overload it is already too late to be useful, and
  /// executing it would steal budget from requests that can still meet
  /// their SLO. 0 disables shedding.
  int64_t deadline_us = 0;
  /// Maximum model forwards executing concurrently across the router.
  /// 0 = auto: the hardware concurrency (min 1), so queues absorb bursts
  /// instead of the OS scheduler time-slicing the tail apart.
  int max_concurrent = 0;
};

/// Per-replica admission counters, snapshotted without locks.
struct AdmissionCounters {
  uint64_t admitted = 0;
  uint64_t rejected_queue_full = 0;
  uint64_t shed_deadline = 0;
  uint64_t queue_depth = 0;
  uint64_t queue_peak = 0;
};

class AdmissionController {
 public:
  AdmissionController(int replicas, const AdmissionOptions& options);

  /// The door: picks the least-loaded replica and admits the request into
  /// its queue. Returns the replica index, or kUnavailable when every
  /// replica is at max_queue — the message carries an estimated
  /// retry-after derived from queue depth and the service-time EWMA.
  [[nodiscard]] util::StatusOr<int> Admit();

  /// The request left replica `replica`'s queue (a worker picked it up).
  void OnDequeue(int replica);

  /// True when a request enqueued at `enqueue_time` has exhausted its
  /// queue-wait budget and must be shed instead of executed.
  [[nodiscard]] bool ExpiredInQueue(
      std::chrono::steady_clock::time_point enqueue_time) const;

  /// Records a deadline shed on `replica` and returns the kUnavailable
  /// status the caller should answer with.
  [[nodiscard]] util::Status Shed(int replica, double waited_us);

  /// Blocks until an execution slot frees up. Slots bound concurrent model
  /// forwards to max_concurrent; queue wait is spent here, not inside the
  /// forward, so service latency stays clean under overload.
  void AcquireSlot() IMR_EXCLUDES(slot_mutex_);
  void ReleaseSlot() IMR_EXCLUDES(slot_mutex_);

  /// Feeds the service-time EWMA used for retry-after hints.
  void OnComplete(double service_us);

  int replicas() const { return static_cast<int>(depth_.size()); }
  int max_concurrent() const { return max_concurrent_; }
  const AdmissionOptions& options() const { return options_; }

  [[nodiscard]] AdmissionCounters Counters(int replica) const;
  [[nodiscard]] AdmissionCounters TotalCounters() const;

 private:
  struct alignas(64) ReplicaCounters {
    std::atomic<uint64_t> admitted{0};
    std::atomic<uint64_t> rejected{0};
    std::atomic<uint64_t> shed{0};
    std::atomic<int64_t> depth{0};
    std::atomic<uint64_t> peak{0};
  };

  AdmissionOptions options_;
  int max_concurrent_;
  std::vector<std::unique_ptr<ReplicaCounters>> depth_;
  std::atomic<int64_t> service_ewma_us_{0};  // microseconds, ~1/8 gain
  std::atomic<uint64_t> round_robin_{0};

  util::Mutex slot_mutex_;
  util::CondVar slot_cv_;
  int slots_free_ IMR_GUARDED_BY(slot_mutex_);
};

}  // namespace imr::serve

#endif  // IMR_SERVE_ADMISSION_H_
