// Traced single-thread replays that split request and training-step time
// into the layers the library exposes. Spans wrap the public calls into
// each layer from the outside; nothing inside the library is instrumented.
#include <sched.h>

#include <cmath>
#include <cstdio>

#include "tensor/buffer_pool.h"
#include "workloads.h"

namespace imr::e2e {

namespace {

constexpr size_t kRouterWarmup = 200;
// The replayed stages must explain the engine's service time for the same
// request (median ratio) to within this band.
constexpr double kCoverageLow = 0.90;
constexpr double kCoverageHigh = 1.05;
// Short epochs, many rounds: the host's speed changes within a second, so
// the Trainer and the replay alternate often enough to both catch a fast
// stretch.
constexpr size_t kTrainReplayBatches = 20;
constexpr uint64_t kTrainReplayRounds = 8;
constexpr double kTrainCoverageTolerance = 0.10;

/// Keeps the calling thread, and every thread it starts meanwhile, on the
/// CPU it is running on, until destroyed. On a shared host one vCPU can run
/// 20% slower than another for a whole run, so both sides of a replay
/// comparison are timed on the same one.
class PinToCurrentCpu {
 public:
  PinToCurrentCpu() {
    const int cpu = sched_getcpu();
    if (cpu < 0 || sched_getaffinity(0, sizeof(saved_), &saved_) != 0) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    pinned_ = sched_setaffinity(0, sizeof(one), &one) == 0;
  }
  ~PinToCurrentCpu() {
    if (pinned_) sched_setaffinity(0, sizeof(saved_), &saved_);
  }
  PinToCurrentCpu(const PinToCurrentCpu&) = delete;
  PinToCurrentCpu& operator=(const PinToCurrentCpu&) = delete;

 private:
  cpu_set_t saved_;
  bool pinned_ = false;
};

re::Bag Featurize(const serve::Snapshot& snapshot, const serve::Query& query) {
  re::Bag bag;
  bag.head = query.head;
  bag.tail = query.tail;
  bag.head_types = query.head_types;
  bag.tail_types = query.tail_types;
  bag.sentences.reserve(query.sentences.size());
  for (const text::Sentence& sentence : query.sentences) {
    bag.sentences.push_back(re::MakeEncoderInput(
        sentence, snapshot.vocab(), snapshot.manifest.bag_options));
  }
  return bag;
}

double P50Us(const SpanBuffer& spans, const char* name) {
  return Quantile(SpanDurationsUs(spans.spans(), name), 0.5);
}

}  // namespace

std::vector<float> ReferencePredict(const serve::Snapshot& snapshot,
                                    const graph::EmbeddingStore& embeddings,
                                    const serve::Query& query,
                                    SpanBuffer* spans, uint64_t request,
                                    double* stage_us) {
  ScopedSpan root(spans, "replay.request", 0, request);
  double total_us = 0.0;
  re::Bag bag;
  {
    ScopedSpan span(spans, "text.featurize", root.id(), request);
    bag = Featurize(snapshot, query);
    total_us += span.ElapsedUs();
  }
  {
    ScopedSpan span(spans, "graph.mr_lookup", root.id(), request);
    bag.mutual_relation = embeddings.MutualRelation(
        static_cast<int>(query.head), static_cast<int>(query.tail));
    total_us += span.ElapsedUs();
  }
  std::vector<float> probabilities;
  {
    ScopedSpan span(spans, "re.model.predict", root.id(), request);
    probabilities = snapshot.model->Predict(bag);
    total_us += span.ElapsedUs();
  }
  if (snapshot.knn != nullptr) {
    ScopedSpan span(spans, "re.knn.interpolate", root.id(), request);
    snapshot.knn->Interpolate(bag.mutual_relation.data(), &probabilities);
    total_us += span.ElapsedUs();
  }
  if (stage_us != nullptr) *stage_us = total_us;
  return probabilities;
}

void RunServeReplay(const serve::Snapshot& snapshot,
                    const std::string& snapshot_path,
                    const std::vector<PairText>& pairs,
                    const std::vector<Pick>& picks,
                    const re::KnnPredictor& knn_probe, Report* report,
                    SpanBuffer* spans) {
  std::vector<serve::Query> queries;
  queries.reserve(picks.size());
  for (const Pick& pick : picks) {
    queries.push_back(MakeQuery(pairs[pick.pair], pick.bag_size));
  }
  serve::RouterOptions options;
  options.replicas = 1;
  options.workers_per_replica = 1;
  options.engine.top_k = 1;
  uint64_t router_requests = 0, router_failures = 0;
  // One request through `router`, alone in flight: returns the engine's
  // service time (0 on failure) and sets the submit and handoff times.
  const auto serve_once = [&](serve::ServeRouter& router,
                              const serve::Query& query, double* submit_us,
                              double* handoff_us) -> double {
    ++router_requests;
    const int64_t begin = NowNs();
    auto future = router.SubmitAsync(query);
    const int64_t submitted = NowNs();
    const util::StatusOr<serve::Prediction> result = future.get();
    const int64_t done = NowNs();
    if (!result.ok()) {
      ++router_failures;
      return 0.0;
    }
    *submit_us = static_cast<double>(submitted - begin) / 1e3;
    *handoff_us =
        static_cast<double>(done - submitted) / 1e3 - result->latency_us;
    return result->latency_us;
  };
  // A 1-worker router, warmed up.
  const auto open_router = [&]() -> std::unique_ptr<serve::ServeRouter> {
    auto router = serve::ServeRouter::Open(snapshot_path, options);
    if (!router.ok()) {
      report->Check("replay.router_open", false, router.status().ToString());
      return nullptr;
    }
    double submit_us = 0.0, handoff_us = 0.0;
    for (size_t i = 0; i < kRouterWarmup; ++i) {
      serve_once(**router, queries[i % queries.size()], &submit_us,
                 &handoff_us);
    }
    return std::move(*router);
  };

  // Router pass: service, submit and handoff times, with the worker on a
  // CPU of the scheduler's choosing.
  std::vector<double> service, submit, handoff;
  {
    const std::unique_ptr<serve::ServeRouter> router = open_router();
    if (router == nullptr) return;
    for (const serve::Query& query : queries) {
      double submit_us = 0.0, handoff_us = 0.0;
      const double service_us =
          serve_once(*router, query, &submit_us, &handoff_us);
      if (service_us <= 0.0) continue;
      service.push_back(service_us);
      submit.push_back(submit_us);
      handoff.push_back(handoff_us);
    }
  }

  // Warm-up: every query once through the stages, so this thread's buffer
  // pool holds every size class. Then the pool traffic of a second pass,
  // with no router running: the counters are process-wide.
  SpanBuffer discard(false);
  for (const serve::Query& query : queries) {
    ReferencePredict(snapshot, snapshot.embeddings, query, &discard, 0,
                     nullptr);
  }
  const tensor::PoolStatsSnapshot before = tensor::PoolStats();
  for (const serve::Query& query : queries) {
    ReferencePredict(snapshot, snapshot.embeddings, query, &discard, 0,
                     nullptr);
  }
  const tensor::PoolStatsSnapshot after = tensor::PoolStats();
  const uint64_t pool_acquires = after.total_hits() + after.total_misses() -
                                 before.total_hits() - before.total_misses();
  const uint64_t pool_misses = after.total_misses() - before.total_misses();

  // Coverage pass: each request runs through the stages on this thread and
  // through a second 1-worker router, back to back, so the two see the same
  // host speed and the stage sum can be compared with the service time.
  // That router's worker starts while this thread is pinned and so shares
  // its CPU. (It also preempts this thread on every submit, which is why
  // the router pass above, not this one, gives the submit and handoff
  // times.) Whichever side runs second starts on a thread that was just
  // woken; the order alternates so neither side always pays for it.
  SpanBuffer stages(true);
  std::vector<double> coverage_ratios;
  {
    const PinToCurrentCpu pin;
    const std::unique_ptr<serve::ServeRouter> router = open_router();
    if (router == nullptr) return;
    double submit_us = 0.0, handoff_us = 0.0;
    for (size_t i = 0; i < queries.size(); ++i) {
      double service_us =
          i % 2 == 0 ? serve_once(*router, queries[i], &submit_us, &handoff_us)
                     : 0.0;
      double stages_us = 0.0;
      ReferencePredict(snapshot, snapshot.embeddings, queries[i], &stages,
                       i + 1, &stages_us);
      if (i % 2 == 1) {
        service_us = serve_once(*router, queries[i], &submit_us, &handoff_us);
      }
      if (service_us > 0.0) coverage_ratios.push_back(stages_us / service_us);
    }
  }
  report->Ops("replay_router", router_requests,
              router_requests - router_failures, 0, router_failures);

  // Probes: one attention query instead of the R-relation loop, and the
  // kNN blend / ANN search on this workload's MR vectors (through the
  // snapshot's predictor when it has one, else through `knn_probe`).
  const re::KnnPredictor& knn =
      snapshot.knn != nullptr ? *snapshot.knn : knn_probe;
  SpanBuffer probes(true);
  std::vector<graph::ann::SearchResult> neighbors;
  for (size_t i = 0; i < queries.size(); ++i) {
    const uint64_t request = queries.size() + i + 1;
    re::Bag bag = Featurize(snapshot, queries[i]);
    bag.mutual_relation = snapshot.embeddings.MutualRelation(
        static_cast<int>(queries[i].head), static_cast<int>(queries[i].tail));
    std::vector<float> probabilities(
        static_cast<size_t>(snapshot.model->num_relations()),
        1.0f / static_cast<float>(snapshot.model->num_relations()));
    ScopedSpan root(&probes, "replay.probe", 0, request);
    {
      tensor::NoGradGuard no_grad;
      ScopedSpan span(&probes, "re.model.bag_logits", root.id(), request);
      const tensor::Tensor logits = snapshot.model->BagLogits(bag, 0, nullptr);
    }
    if (snapshot.knn == nullptr) {
      ScopedSpan span(&probes, "re.knn.interpolate", root.id(), request);
      knn.Interpolate(bag.mutual_relation.data(), &probabilities);
    }
    {
      ScopedSpan span(&probes, "graph.ann.search", root.id(), request);
      knn.index().Search(bag.mutual_relation.data(), knn.options().k,
                         &neighbors);
    }
  }

  const double n = static_cast<double>(queries.size());
  const double predict_p50 = P50Us(stages, "re.model.predict");
  const double bag_logits_p50 = P50Us(probes, "re.model.bag_logits");
  // Per request: summed stage time over the engine's service time for the
  // same query. The median keeps a host stall on either side from
  // dominating.
  const double coverage = Quantile(coverage_ratios, 0.5);
  const double misses = static_cast<double>(pool_misses) / n;

  report->Add(Kind::kLayer, "text.featurize_p50_us",
              P50Us(stages, "text.featurize"), "us");
  report->Add(Kind::kLayer, "graph.mr_lookup_p50_us",
              P50Us(stages, "graph.mr_lookup"), "us");
  report->Add(Kind::kLayer, "re.model.predict_p50_us", predict_p50, "us");
  report->Add(Kind::kLayer, "re.model.predict_p90_us",
              Quantile(SpanDurationsUs(stages.spans(), "re.model.predict"), 0.9),
              "us");
  report->Add(Kind::kLayer, "re.model.bag_logits_p50_us", bag_logits_p50, "us");
  report->Add(Kind::kLayer, "re.model.relation_loop_share",
              1.0 - bag_logits_p50 / predict_p50, "ratio");
  report->Add(Kind::kLayer, "re.knn.interpolate_p50_us",
              P50Us(snapshot.knn != nullptr ? stages : probes,
                    "re.knn.interpolate"),
              "us");
  report->Add(Kind::kLayer, "graph.ann.search_p50_us",
              P50Us(probes, "graph.ann.search"), "us");
  report->Add(Kind::kLayer, "tensor.pool.acquires_per_request",
              static_cast<double>(pool_acquires) / n, "count");
  report->Add(Kind::kDiag, "tensor.pool.misses_per_request", misses, "count");
  report->Add(Kind::kDiag, "trace.stage_coverage", coverage, "ratio");
  report->Add(Kind::kLayer, "serve.engine.service_p50_us",
              Quantile(service, 0.5), "us");
  report->Add(Kind::kLayer, "serve.router.submit_p50_us",
              Quantile(submit, 0.5), "us");
  report->Add(Kind::kLayer, "serve.router.handoff_p50_us",
              Quantile(handoff, 0.5), "us");
  report->Check("tensor.pool.no_steady_state_misses", pool_misses == 0,
                Fmt("%.4f misses per replayed request", misses));
  report->Validity("trace.stage_coverage",
                   coverage >= kCoverageLow && coverage <= kCoverageHigh,
                   Fmt("%.3f", coverage) + Fmt(" in [%.2f, ", kCoverageLow) +
                       Fmt("%.2f]", kCoverageHigh));

  for (const SpanBuffer* buffer : {&stages, &probes}) {
    for (const Span& span : buffer->spans()) spans->Add(span);
  }
}

void RunTrainReplay(const std::function<std::unique_ptr<re::PaModel>()>& model,
                    const std::vector<re::Bag>& train_bags, Report* report,
                    SpanBuffer* spans) {
  // The replay splits the sequential step into its public calls, so the
  // reference Trainer runs that step too.
  re::TrainerConfig config = TrainerConfigFor(1);
  config.threads = 1;
  const size_t batch_size = static_cast<size_t>(config.batch_size);
  const std::vector<re::Bag> subset(
      train_bags.begin(),
      train_bags.begin() + static_cast<long>(std::min(
                               train_bags.size(), kTrainReplayBatches * batch_size)));
  const size_t batches = (subset.size() + batch_size - 1) / batch_size;

  // One Trainer::Train epoch over the subset, from fresh weights; returns
  // the per-batch time in ms.
  const auto trainer_epoch = [&](double* mean_loss) {
    std::unique_ptr<re::PaModel> trainee = model();
    re::Trainer trainer(trainee.get(), config);
    const re::EpochStats epoch = trainer.Train(subset).front();
    *mean_loss = epoch.mean_loss;
    return epoch.seconds * 1e3 / static_cast<double>(batches);
  };

  // The same epoch replayed call for call as Trainer::Train's threads=1
  // path: same rng seed and shuffle, ZeroGrad -> BatchLoss -> Backward ->
  // Step per batch, then the batch's graph is released. Returns the mean
  // per-batch stage time in ms.
  SpanBuffer steps(true);
  const auto replay_epoch = [&](uint64_t round, double* mean_loss) {
    std::unique_ptr<re::PaModel> replayed = model();
    replayed->SetTraining(true);
    nn::Adam optimizer(replayed.get(), config.learning_rate);
    util::Rng rng(config.seed);
    std::vector<const re::Bag*> order;
    order.reserve(subset.size());
    for (const re::Bag& bag : subset) order.push_back(&bag);
    rng.Shuffle(&order);
    std::vector<const re::Bag*> batch;
    double loss_sum = 0.0;
    double stage_us = 0.0;
    for (size_t b = 0; b < batches; ++b) {
      const size_t begin = b * batch_size;
      const size_t end = std::min(order.size(), begin + batch_size);
      batch.assign(order.begin() + static_cast<long>(begin),
                   order.begin() + static_cast<long>(end));
      const uint64_t request = round * batches + b + 1;
      ScopedSpan root(&steps, "train.batch", 0, request);
      const auto stage = [&](const char* name, const auto& call) {
        ScopedSpan span(&steps, name, root.id(), request);
        call();
        stage_us += span.ElapsedUs();
      };
      tensor::Tensor loss;
      stage("nn.zero_grad", [&] { replayed->ZeroGrad(); });
      stage("re.train.batch_loss",
            [&] { loss = replayed->BatchLoss(batch, &rng); });
      stage("tensor.backward", [&] { loss.Backward(); });
      loss_sum += loss.item();
      stage("nn.optimizer.step", [&] { optimizer.Step(); });
      stage("tensor.graph_release", [&] { loss = tensor::Tensor(); });
    }
    *mean_loss = loss_sum / static_cast<double>(batches);
    return stage_us / 1e3 / static_cast<double>(batches);
  };

  // Trainer epochs and replays alternate on one CPU; host slowdowns only
  // ever add time, so each side's fastest round is compared.
  const PinToCurrentCpu pin;
  double trainer_loss = 0.0, replay_loss = 0.0;
  double reference_ms = 1e300, stage_sum_ms = 1e300;
  bool losses_equal = true;
  for (uint64_t round = 0; round < kTrainReplayRounds; ++round) {
    reference_ms = std::min(reference_ms, trainer_epoch(&trainer_loss));
    stage_sum_ms = std::min(stage_sum_ms, replay_epoch(round, &replay_loss));
    losses_equal &= replay_loss == trainer_loss;
  }
  const double coverage = stage_sum_ms / reference_ms;

  report->Add(Kind::kLayer, "re.train.batch_loss_p50_ms",
              P50Us(steps, "re.train.batch_loss") / 1e3, "ms");
  report->Add(Kind::kLayer, "tensor.backward_p50_ms",
              P50Us(steps, "tensor.backward") / 1e3, "ms");
  report->Add(Kind::kLayer, "nn.optimizer.step_p50_ms",
              P50Us(steps, "nn.optimizer.step") / 1e3, "ms");
  report->Add(Kind::kLayer, "nn.zero_grad_p50_us",
              P50Us(steps, "nn.zero_grad"), "us");
  report->Add(Kind::kLayer, "tensor.graph_release_p50_us",
              P50Us(steps, "tensor.graph_release"), "us");
  report->Add(Kind::kDiag, "trace.train_coverage", coverage, "ratio");
  report->Add(Kind::kDiag, "train.reference_batch_ms", reference_ms, "ms");
  report->Add(Kind::kDiag, "train.replay_batch_ms", stage_sum_ms, "ms");
  report->Check("trace.train_replay_matches_trainer", losses_equal,
                Fmt("replay mean loss %.10f", replay_loss) +
                    Fmt(", Trainer %.10f", trainer_loss));
  report->Validity("trace.train_coverage",
                   std::fabs(coverage - 1.0) <= kTrainCoverageTolerance,
                   Fmt("%.3f of the per-batch epoch time", coverage));
  for (const Span& span : steps.spans()) spans->Add(span);
}

}  // namespace imr::e2e
