// The load generator: request picks drawn from the workload seed, an
// open-loop Poisson sender with a FIFO collector, and a closed loop that
// keeps a fixed number of requests in flight. Both drive the serve tier
// only through ServeRouter::SubmitAsync and record one Outcome per request.
#ifndef IMR_BENCH_E2E_TRAFFIC_H_
#define IMR_BENCH_E2E_TRAFFIC_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <vector>

#include "harness.h"
#include "serve/router.h"
#include "text/sentence.h"
#include "util/rng.h"

namespace imr::e2e {

/// One held-out entity pair with its raw sentences, in test-bag order (so
/// index i is test_bags()[i]).
struct PairText {
  int64_t head = -1;
  int64_t tail = -1;
  std::vector<int> head_types;
  std::vector<int> tail_types;
  std::vector<text::Sentence> sentences;
};

/// A request: which pair, and how many of its sentences form the bag.
struct Pick {
  uint32_t pair = 0;
  uint32_t bag_size = 0;
};

/// The query for `pick`: the pair's first bag_size sentences.
serve::Query MakeQuery(const PairText& pair, uint32_t bag_size);

/// Seeded request picks: Zipf (s = 1) or uniform over the pairs, bag size
/// uniform in [1, min(8, sentences of the pair)].
class RequestPicker {
 public:
  RequestPicker(const std::vector<PairText>* pairs, bool zipf, uint64_t seed);
  Pick Next();

 private:
  const std::vector<PairText>* pairs_;
  bool zipf_;
  util::Rng rng_;
};

enum class Reply : uint8_t { kOk = 0, kUnavailable = 1, kFailed = 2 };

struct Outcome {
  int64_t intended_ns = 0;      // scheduled send time (closed loop: submit)
  int64_t submit_begin_ns = 0;
  int64_t submit_end_ns = 0;
  int64_t done_ns = 0;          // future collected
  double service_us = 0.0;      // Prediction::latency_us
  Pick pick;
  Reply reply = Reply::kFailed;
  bool cache_hit = false;
  bool knn_fired = false;
  uint64_t generation = 0;
  /// Serving generation published before this request was submitted; the
  /// response must not be older.
  uint64_t min_generation = 0;
};

/// The probabilities of one OK response kept for the bit-exact check.
struct Sample {
  Pick pick;
  uint64_t generation = 0;
  std::vector<float> probabilities;
};

struct PhaseResult {
  std::vector<Outcome> outcomes;  // every request, warm-up included
  std::vector<Sample> samples;
  int64_t measure_begin_ns = 0;
  int64_t measure_end_ns = 0;
  uint64_t attempted = 0, ok = 0, unavailable = 0, failed = 0;
  /// Traced open loop: time the collector spent recording each request's
  /// spans.
  std::vector<double> span_record_us;

  /// Outcomes whose scheduled send time lies in the measured window.
  std::vector<const Outcome*> Measured() const;
};

struct TrafficOptions {
  double warmup_s = 0.0;
  double measure_s = 0.0;
  /// Keep the probabilities of every Nth OK response (0 = none).
  int sample_every = 64;
  /// Generation of the last publish that returned; null when nothing
  /// publishes during the phase.
  const std::atomic<uint64_t>* published_generation = nullptr;
  /// Open loop only: request spans (`request` with `harness.send_lag` and
  /// `serve.router.submit` children), recorded by the collector thread.
  SpanBuffer* spans = nullptr;
};

/// Open loop: one sender thread submits Poisson arrivals at `rate_qps`
/// (timer slack 1 ns), one collector thread gets the futures in FIFO order.
/// Latency runs from the scheduled send time to collection.
PhaseResult RunOpenLoop(serve::ServeRouter& router,
                        const std::vector<PairText>& pairs,
                        RequestPicker& picker, double rate_qps,
                        uint64_t arrival_seed, const TrafficOptions& options);

/// Closed loop on the calling thread: `in_flight` requests outstanding,
/// the oldest collected first, until `next` runs out or the phase ends.
PhaseResult RunClosedLoop(serve::ServeRouter& router,
                          const std::vector<PairText>& pairs, int in_flight,
                          const std::function<bool(Pick*)>& next,
                          const TrafficOptions& options);

}  // namespace imr::e2e

#endif  // IMR_BENCH_E2E_TRAFFIC_H_
