#include "traffic.h"

#include <sys/prctl.h>

#include <algorithm>
#include <cmath>
#include <future>
#include <thread>

namespace imr::e2e {

namespace {

constexpr uint32_t kMaxBagSentences = 8;
// The sender's "all sent" flag lives in the top bit of the sent counter, so
// setting it changes the value an atomic wait is blocked on.
constexpr uint64_t kDoneBit = uint64_t{1} << 63;

Clock::time_point AtNs(int64_t ns) {
  return Clock::time_point(std::chrono::nanoseconds(ns));
}

// Fills the outcome (and maybe a sample) from a collected response.
void Collect(util::StatusOr<serve::Prediction> result, Outcome* outcome,
             PhaseResult* phase, int sample_every) {
  outcome->done_ns = NowNs();
  if (result.ok()) {
    outcome->reply = Reply::kOk;
    outcome->service_us = result->latency_us;
    outcome->cache_hit = result->mr_cache_hit;
    outcome->knn_fired = result->knn_fired;
    outcome->generation = result->generation;
    ++phase->ok;
    if (sample_every > 0 && phase->ok % static_cast<uint64_t>(sample_every) == 0) {
      phase->samples.push_back(Sample{outcome->pick, result->generation,
                                      std::move(result->probabilities)});
    }
  } else if (result.status().code() == util::StatusCode::kUnavailable) {
    outcome->reply = Reply::kUnavailable;
    ++phase->unavailable;
  } else {
    outcome->reply = Reply::kFailed;
    ++phase->failed;
  }
}

void RecordRequestSpans(SpanBuffer* spans, const Outcome& outcome,
                        uint64_t request) {
  Span root;
  root.id = SpanBuffer::NextId();
  root.request = request;
  root.name = "request";
  root.start_ns = outcome.intended_ns;
  root.end_ns = outcome.done_ns;
  root.service_us = outcome.service_us;
  spans->Add(root);
  Span lag;
  lag.id = SpanBuffer::NextId();
  lag.parent = root.id;
  lag.request = request;
  lag.name = "harness.send_lag";
  lag.start_ns = outcome.intended_ns;
  lag.end_ns = outcome.submit_begin_ns;
  spans->Add(lag);
  Span submit;
  submit.id = SpanBuffer::NextId();
  submit.parent = root.id;
  submit.request = request;
  submit.name = "serve.router.submit";
  submit.start_ns = outcome.submit_begin_ns;
  submit.end_ns = outcome.submit_end_ns;
  spans->Add(submit);
}

}  // namespace

serve::Query MakeQuery(const PairText& pair, uint32_t bag_size) {
  serve::Query query;
  query.head = pair.head;
  query.tail = pair.tail;
  query.head_types = pair.head_types;
  query.tail_types = pair.tail_types;
  const size_t count = std::min<size_t>(bag_size, pair.sentences.size());
  query.sentences.assign(pair.sentences.begin(),
                         pair.sentences.begin() + static_cast<long>(count));
  return query;
}

RequestPicker::RequestPicker(const std::vector<PairText>* pairs, bool zipf,
                             uint64_t seed)
    : pairs_(pairs), zipf_(zipf), rng_(seed) {}

Pick RequestPicker::Next() {
  const uint64_t n = pairs_->size();
  Pick pick;
  pick.pair = static_cast<uint32_t>(zipf_ ? rng_.Zipf(n, 1.0) - 1
                                          : rng_.UniformInt(n));
  const uint64_t available = std::min<uint64_t>(
      kMaxBagSentences, (*pairs_)[pick.pair].sentences.size());
  pick.bag_size = static_cast<uint32_t>(1 + rng_.UniformInt(available));
  return pick;
}

std::vector<const Outcome*> PhaseResult::Measured() const {
  std::vector<const Outcome*> out;
  for (const Outcome& outcome : outcomes) {
    if (outcome.intended_ns >= measure_begin_ns &&
        outcome.intended_ns < measure_end_ns) {
      out.push_back(&outcome);
    }
  }
  return out;
}

PhaseResult RunOpenLoop(serve::ServeRouter& router,
                        const std::vector<PairText>& pairs,
                        RequestPicker& picker, double rate_qps,
                        uint64_t arrival_seed, const TrafficOptions& options) {
  struct Slot {
    std::future<util::StatusOr<serve::Prediction>> future;
    Outcome outcome;
  };
  const double total_s = options.warmup_s + options.measure_s;
  // Poisson counts stay far below 1.5x their mean at these sizes; the cap
  // only bounds the preallocation.
  const size_t capacity =
      static_cast<size_t>(rate_qps * total_s * 1.5) + 1024;
  std::vector<Slot> slots(capacity);
  std::atomic<uint64_t> sent{0};

  PhaseResult phase;
  // A short lead so both threads are running before the first send.
  const int64_t start_ns = NowNs() + 20'000'000;
  phase.measure_begin_ns =
      start_ns + static_cast<int64_t>(options.warmup_s * 1e9);
  phase.measure_end_ns = start_ns + static_cast<int64_t>(total_s * 1e9);
  const int64_t end_ns = phase.measure_end_ns;

  std::thread sender([&] {
    // Timer slack 1 ns: sleep_until overshoot drops from the default 50 µs
    // slack to the scheduler's wakeup latency.
    prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
    util::Rng arrivals(arrival_seed);
    const double mean_gap_ns = 1e9 / rate_qps;
    double next_ns = static_cast<double>(start_ns);
    uint64_t count = 0;
    while (count < capacity) {
      next_ns += -std::log(1.0 - arrivals.Uniform()) * mean_gap_ns;
      const auto intended = static_cast<int64_t>(next_ns);
      if (intended >= end_ns) break;
      Slot& slot = slots[count];
      slot.outcome.pick = picker.Next();
      serve::Query query = MakeQuery(pairs[slot.outcome.pick.pair],
                                     slot.outcome.pick.bag_size);
      std::this_thread::sleep_until(AtNs(intended));
      slot.outcome.intended_ns = intended;
      slot.outcome.min_generation =
          options.published_generation != nullptr
              ? options.published_generation->load(std::memory_order_acquire)
              : 1;
      slot.outcome.submit_begin_ns = NowNs();
      slot.future = router.SubmitAsync(std::move(query));
      slot.outcome.submit_end_ns = NowNs();
      ++count;
      sent.store(count, std::memory_order_release);
      sent.notify_one();
    }
    sent.store(count | kDoneBit, std::memory_order_release);
    sent.notify_one();
  });

  std::thread collector([&] {
    uint64_t next = 0;
    while (true) {
      const uint64_t state = sent.load(std::memory_order_acquire);
      if ((state & ~kDoneBit) <= next) {
        if ((state & kDoneBit) != 0) break;
        sent.wait(state, std::memory_order_acquire);
        continue;
      }
      Slot& slot = slots[next];
      Collect(slot.future.get(), &slot.outcome, &phase, options.sample_every);
      if (options.spans != nullptr && options.spans->enabled()) {
        // Recording delays collection of the next response; its cost is
        // the tracing overhead on the request path.
        const int64_t record_start = NowNs();
        RecordRequestSpans(options.spans, slot.outcome, next + 1);
        phase.span_record_us.push_back(
            static_cast<double>(NowNs() - record_start) / 1e3);
      }
      ++next;
    }
  });
  sender.join();
  collector.join();

  const uint64_t count = sent.load() & ~kDoneBit;
  phase.attempted = count;
  phase.outcomes.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    phase.outcomes.push_back(slots[i].outcome);
  }
  return phase;
}

PhaseResult RunClosedLoop(serve::ServeRouter& router,
                          const std::vector<PairText>& pairs, int in_flight,
                          const std::function<bool(Pick*)>& next,
                          const TrafficOptions& options) {
  struct Pending {
    std::future<util::StatusOr<serve::Prediction>> future;
    Outcome outcome;
  };
  PhaseResult phase;
  const bool timed = options.warmup_s + options.measure_s > 0.0;
  const int64_t start_ns = NowNs();
  phase.measure_begin_ns =
      start_ns + static_cast<int64_t>(options.warmup_s * 1e9);
  phase.measure_end_ns =
      timed ? start_ns + static_cast<int64_t>(
                             (options.warmup_s + options.measure_s) * 1e9)
            : INT64_MAX;

  std::vector<Pending> ring(static_cast<size_t>(in_flight));
  std::vector<bool> busy(ring.size(), false);
  const auto submit = [&](Pending* pending) -> bool {
    if (NowNs() >= phase.measure_end_ns) return false;
    Pick pick;
    if (!next(&pick)) return false;
    pending->outcome = Outcome{};
    pending->outcome.pick = pick;
    pending->outcome.min_generation =
        options.published_generation != nullptr
            ? options.published_generation->load(std::memory_order_acquire)
            : 1;
    serve::Query query = MakeQuery(pairs[pick.pair], pick.bag_size);
    pending->outcome.submit_begin_ns = NowNs();
    pending->outcome.intended_ns = pending->outcome.submit_begin_ns;
    pending->future = router.SubmitAsync(std::move(query));
    pending->outcome.submit_end_ns = NowNs();
    ++phase.attempted;
    return true;
  };
  size_t outstanding = 0;
  for (size_t i = 0; i < ring.size(); ++i) {
    busy[i] = submit(&ring[i]);
    if (busy[i]) ++outstanding;
  }
  // Ring order is submission order, so collecting round-robin is FIFO.
  for (size_t i = 0; outstanding > 0; i = (i + 1) % ring.size()) {
    if (!busy[i]) continue;
    Pending& pending = ring[i];
    Collect(pending.future.get(), &pending.outcome, &phase,
            options.sample_every);
    phase.outcomes.push_back(pending.outcome);
    busy[i] = submit(&pending);
    if (!busy[i]) --outstanding;
  }
  return phase;
}

}  // namespace imr::e2e
