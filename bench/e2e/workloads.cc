#include "workloads.h"

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <thread>

namespace imr::e2e {

namespace {

// ---- the workload catalogue -------------------------------------------------

struct Spec {
  const char* name;
  const char* preset;  // datagen preset
  double scale;
  double rate_qps;     // open-loop rate; 0 for the training workload
  bool zipf;           // Zipf pair popularity, else uniform
  bool knn;            // snapshot carries an ANNI section
  bool swap;           // publisher runs under load
  /// heldout_auc must stay at or above this. Set-up is deterministic
  /// (dataset seed 13, single-threaded LINE, the Trainer's data-parallel
  /// step), so the served model and its AUC repeat exactly; the floor is
  /// the measured value less 0.002. train-nyt serves the model of its first
  /// training job, which is the same at every run length.
  double auc_floor;
};

constexpr Spec kSpecs[] = {
    {"serve-gds-knn", "gds", 1.0, 3000.0, false, true, false, 0.6817},
    {"swap-nyt", "nyt", 0.5, 800.0, true, false, true, 0.0717},
    {"train-nyt", "nyt", 2.0, 0.0, false, false, false, 0.1984},
};

// train-nyt: mean training loss of each epoch of a training job. Training
// runs on the scalar backend from a fixed seed through the data-parallel
// step, whose floats do not depend on the worker count, so these repeat
// bit-for-bit on any host; every epoch of every job is checked to 1e-4
// relative.
constexpr double kTrainEpochLoss[] = {4.0226211785, 3.1945473821,
                                      2.6032770763};
constexpr int kTrainJobEpochs = static_cast<int>(std::size(kTrainEpochLoss));

constexpr uint64_t kDataSeed = 13;
constexpr int kSetupReps = 5;
constexpr int kSetupEpochs = 3;
constexpr int kInFlight = 64;
constexpr int kSampleEvery = 64;
// One publish at rest takes 0.09-0.5 ms here, so 1,000 of them spread the
// metric's median over a few hundred milliseconds instead of one moment.
constexpr int kRestPublishes = 1000;
constexpr auto kSwapPeriod = std::chrono::milliseconds(250);
constexpr int kSwapEntities = 114042;  // NYT entity count
constexpr size_t kReplayRequests = 1000;
constexpr double kSendLagP99LimitUs = 200.0;
// Phase shares of --seconds for the serving workloads: open-loop warm-up
// (discarded), open loop, capacity warm-up (discarded), capacity: the
// proportions of 3 + 30 + 2 + 15 s phases, scaled to the run length.
constexpr double kOpenWarmupShare = 0.06;
constexpr double kOpenShare = 0.60;
constexpr double kCapacityWarmupShare = 0.04;
constexpr double kCapacityShare = 0.30;
// Measured phases are cut into windows of this length; a timing metric is
// the median over the windows of its per-window value, so a host stall
// shorter than a few windows cannot move it.
constexpr int64_t kWindowNs = 1'000'000'000;

void CheckOk(const util::Status& status, const char* what) {
  if (!status.ok()) {
    std::fprintf(stderr, "imr_e2e: %s: %s\n", what, status.ToString().c_str());
    std::exit(3);
  }
}

/// Sizes the global pool to the cores while it lives, then back to one
/// thread for the serving phases (see main.cc). Set-up and training run
/// alone in the process. Spread over every vCPU, their time follows the
/// host's average speed: a 4,992-bag epoch measured 0.69-0.74 s from run to
/// run on four workers, against 1.09-1.38 s on one thread, which runs on
/// whichever vCPU it was placed on.
class AllCores {
 public:
  AllCores() { util::SetGlobalThreads(0); }
  ~AllCores() { util::SetGlobalThreads(1); }
  AllCores(const AllCores&) = delete;
  AllCores& operator=(const AllCores&) = delete;
};

// ---- set-up ----------------------------------------------------------------

struct Corpus {
  explicit Corpus(datagen::SyntheticDataset data) : dataset(std::move(data)) {}
  datagen::SyntheticDataset dataset;
  re::BagDatasetOptions bag_options;
  re::BagDataset bags;
  graph::EmbeddingStore embeddings;
  std::vector<PairText> test_pairs;
  std::vector<std::string> relation_names;
  std::vector<serve::EntityRecord> entities;
};

std::vector<PairText> BuildPairTexts(
    const std::vector<re::Bag>& bags,
    const std::vector<text::LabeledSentence>& corpus) {
  std::map<std::pair<int64_t, int64_t>, std::vector<const text::Sentence*>>
      by_pair;
  for (const text::LabeledSentence& labeled : corpus) {
    by_pair[{labeled.sentence.head_entity, labeled.sentence.tail_entity}]
        .push_back(&labeled.sentence);
  }
  std::vector<PairText> pairs;
  pairs.reserve(bags.size());
  for (const re::Bag& bag : bags) {
    PairText pair;
    pair.head = bag.head;
    pair.tail = bag.tail;
    pair.head_types = bag.head_types;
    pair.tail_types = bag.tail_types;
    for (const text::Sentence* sentence : by_pair[{bag.head, bag.tail}]) {
      pair.sentences.push_back(*sentence);
    }
    pairs.push_back(std::move(pair));
  }
  return pairs;
}

std::unique_ptr<Corpus> BuildCorpus(const Spec& spec) {
  datagen::PresetOptions preset;
  preset.scale = spec.scale;
  preset.seed = kDataSeed;
  auto corpus =
      std::make_unique<Corpus>(datagen::MakeDataset(spec.preset, preset));
  const kg::KnowledgeGraph& graph = corpus->dataset.world.graph;
  corpus->bag_options.max_sentence_length = 40;
  corpus->bag_options.max_position = 20;
  corpus->bags = re::BagDataset::Build(graph, corpus->dataset.corpus.train,
                                       corpus->dataset.corpus.test,
                                       corpus->bag_options);

  graph::ProximityGraph proximity(graph.num_entities());
  proximity.AddCorpus(corpus->dataset.unlabeled.sentences);
  proximity.Finalize(2);
  graph::LineConfig line;
  line.dim = 32;
  line.samples_per_edge = 100;
  line.threads = 1;  // the sequential SGD path is bit-reproducible
  corpus->embeddings = graph::TrainLine(proximity, line);
  CheckOk(corpus->bags.AttachMutualRelations(corpus->embeddings),
          "attach mutual relations");

  corpus->test_pairs =
      BuildPairTexts(corpus->bags.test_bags(), corpus->dataset.corpus.test);
  for (const kg::RelationSchema& schema : graph.relations()) {
    corpus->relation_names.push_back(schema.name);
  }
  for (const kg::Entity& entity : graph.entities()) {
    corpus->entities.push_back({entity.name, entity.type_ids});
  }
  return corpus;
}

re::PaModelConfig ModelConfig(const Corpus& corpus) {
  re::PaModelConfig config;
  config.num_relations = corpus.bags.num_relations();
  config.encoder = "pcnn";
  config.aggregation = re::Aggregation::kAttention;
  config.use_mutual_relation = true;
  config.use_entity_type = true;
  config.mutual_relation_dim = corpus.embeddings.dim();
  config.type_dim = 8;
  config.encoder_config.vocab_size = corpus.bags.vocabulary().size();
  config.encoder_config.word_dim = 16;
  config.encoder_config.position_dim = 3;
  config.encoder_config.max_position = corpus.bag_options.max_position;
  config.encoder_config.filters = 32;
  return config;
}

std::unique_ptr<re::PaModel> NewModel(const Corpus& corpus) {
  util::Rng rng(kDataSeed);
  return std::make_unique<re::PaModel>(ModelConfig(corpus), &rng);
}

/// A trained model, snapshotted and served.
struct Served {
  std::unique_ptr<Corpus> corpus;
  std::unique_ptr<re::PaModel> model;
  std::unique_ptr<re::KnnPredictor> knn;
  graph::EmbeddingStore store;  // the served rows (padded for swap-nyt)
  std::vector<serve::EntityRecord> entities;  // one per store row
  std::string snapshot_path;
  std::unique_ptr<serve::ServeRouter> router;

  ModelParts Parts() const {
    ModelParts parts;
    parts.model = model.get();
    parts.vocab = &corpus->bags.vocabulary();
    parts.relation_names = &corpus->relation_names;
    parts.entities = &entities;
    parts.bag_options = corpus->bag_options;
    parts.knn = knn.get();
    return parts;
  }
};

/// Snapshots `served` (store, entities, model, knn already set) and opens
/// the router over it.
void SnapshotAndServe(Served* served, const std::string& path,
                      uint64_t trained_steps) {
  served->snapshot_path = path;
  CheckOk(serve::SaveSnapshot(*served->model, served->corpus->bags.vocabulary(),
                              served->store, served->corpus->relation_names,
                              served->entities, served->corpus->bag_options,
                              trained_steps, "imr_e2e", path, nullptr,
                              served->knn.get()),
          "save snapshot");
  serve::RouterOptions options;
  options.replicas = 1;
  options.workers_per_replica = 2;
  options.engine.top_k = 1;
  auto router = serve::ServeRouter::Open(path, options);
  CheckOk(router.status(), "open router");
  served->router = std::move(*router);
}

void CopyStore(const graph::EmbeddingStore& from, graph::EmbeddingStore* to) {
  *to = graph::EmbeddingStore(from.num_vertices(), from.dim());
  std::memcpy(to->Vector(0), from.raw(), from.value_count() * sizeof(float));
}

std::unique_ptr<Served> BuildServed(const Spec& spec, const std::string& dir) {
  auto served = std::make_unique<Served>();
  served->corpus = BuildCorpus(spec);
  const Corpus& corpus = *served->corpus;
  served->model = NewModel(corpus);
  {
    // No router is open yet, so nothing else holds the pool.
    AllCores all_cores;
    re::Trainer trainer(served->model.get(), TrainerConfigFor(kSetupEpochs));
    trainer.Train(corpus.bags.train_bags());
    if (spec.knn) {
      re::KnnOptions knn;
      // A wide gate makes the vote fire on most requests, so the ANN search
      // sits on the request path.
      knn.confidence_gate = 0.95f;
      knn.min_pairs_for_ivf = 64;
      served->knn = std::make_unique<re::KnnPredictor>(re::KnnPredictor::Build(
          corpus.embeddings, corpus.bags.train_bags(),
          corpus.bags.num_relations(), knn, &util::GlobalPool()));
    }
  }

  served->entities = corpus.entities;
  if (spec.swap) {
    // Pad the store to NYT entity scale so snapshot writes, reload and
    // delta apply pay for a realistic matrix; padded rows are never queried.
    const int dim = corpus.embeddings.dim();
    served->store = graph::EmbeddingStore(kSwapEntities, dim);
    std::memcpy(served->store.Vector(0), corpus.embeddings.raw(),
                corpus.embeddings.value_count() * sizeof(float));
    util::Rng pad(kDataSeed);
    for (int row = corpus.embeddings.num_vertices(); row < kSwapEntities;
         ++row) {
      float* values = served->store.Vector(row);
      for (int d = 0; d < dim; ++d) {
        values[d] = static_cast<float>(pad.Normal(0.0, 0.1));
      }
      served->entities.push_back({"pad_" + std::to_string(row), {}});
    }
  } else {
    CopyStore(corpus.embeddings, &served->store);
  }
  SnapshotAndServe(served.get(), dir + "/model.imrs", kSetupEpochs);
  return served;
}

// ---- checks ----------------------------------------------------------------

struct ReferenceResult {
  size_t checked = 0;
  size_t mismatched = 0;
  std::string first_mismatch;
};

/// Replays every sample's generation from `base` plus the publisher's edit
/// log and compares the served probabilities with ReferencePredict.
ReferenceResult CheckSamples(std::vector<const Sample*> samples,
                             const serve::Snapshot& snapshot,
                             const graph::EmbeddingStore& base,
                             const std::vector<Publisher::Edit>& edits,
                             const std::vector<PairText>& pairs) {
  std::stable_sort(samples.begin(), samples.end(),
                   [](const Sample* a, const Sample* b) {
                     return a->generation < b->generation;
                   });
  ReferenceResult result;
  SpanBuffer untraced(false);
  graph::EmbeddingStore store;
  CopyStore(base, &store);
  uint64_t applied = 1;  // generation `store` currently holds
  for (const Sample* sample : samples) {
    while (applied < sample->generation &&
           applied - 1 < static_cast<uint64_t>(edits.size())) {
      const Publisher::Edit& edit = edits[applied - 1];
      for (size_t i = 0; i < edit.rows.size(); ++i) {
        std::memcpy(store.Vector(edit.rows[i]),
                    edit.values.data() + i * static_cast<size_t>(store.dim()),
                    static_cast<size_t>(store.dim()) * sizeof(float));
      }
      ++applied;
    }
    const PairText& pair = pairs[sample->pick.pair];
    const std::vector<float> expected =
        ReferencePredict(snapshot, store, MakeQuery(pair, sample->pick.bag_size),
                         &untraced, 0, nullptr);
    ++result.checked;
    const bool equal =
        applied == sample->generation &&
        expected.size() == sample->probabilities.size() &&
        std::memcmp(expected.data(), sample->probabilities.data(),
                    expected.size() * sizeof(float)) == 0;
    if (!equal) {
      if (result.mismatched == 0) {
        result.first_mismatch =
            "pair " + std::to_string(sample->pick.pair) + " bag " +
            std::to_string(sample->pick.bag_size) + " generation " +
            std::to_string(sample->generation);
      }
      ++result.mismatched;
    }
  }
  return result;
}

void AddReferenceCheck(Report* report, const ReferenceResult& result) {
  report->Check("serve.bit_exact_vs_reference",
                result.checked > 0 && result.mismatched == 0,
                std::to_string(result.checked) + " sampled responses, " +
                    std::to_string(result.mismatched) + " mismatched" +
                    (result.first_mismatch.empty()
                         ? ""
                         : " (first: " + result.first_mismatch + ")"));
}

void AddOps(Report* report, const std::string& phase,
            const PhaseResult& result) {
  report->Ops(phase, result.attempted, result.ok, result.unavailable,
              result.failed);
}

/// Serves every test pair (all of its sentences) and evaluates the served
/// probabilities. Returns the AUC; the pass's responses join `samples`.
double ServedAuc(serve::ServeRouter& router, const Corpus& corpus,
                 Report* report, std::vector<Sample>* samples) {
  const std::vector<PairText>& pairs = corpus.test_pairs;
  uint32_t next = 0;
  TrafficOptions options;
  options.sample_every = 1;
  PhaseResult pass = RunClosedLoop(
      router, pairs, kInFlight,
      [&](Pick* pick) {
        if (next >= pairs.size()) return false;
        pick->pair = next;
        pick->bag_size = static_cast<uint32_t>(pairs[next].sentences.size());
        ++next;
        return true;
      },
      options);
  AddOps(report, "heldout", pass);
  std::vector<const std::vector<float>*> by_pair(pairs.size(), nullptr);
  for (const Sample& sample : pass.samples) {
    by_pair[sample.pick.pair] = &sample.probabilities;
  }
  const std::vector<re::Bag>& bags = corpus.bags.test_bags();
  bool complete = true;
  for (const auto* probabilities : by_pair) complete &= probabilities != nullptr;
  report->Check("heldout.all_pairs_served", complete,
                std::to_string(pass.ok) + "/" + std::to_string(pairs.size()));
  if (!complete) return 0.0;
  const eval::HeldOutResult heldout = eval::Evaluate(
      [&](const re::Bag& bag) {
        return *by_pair[static_cast<size_t>(&bag - bags.data())];
      },
      bags, corpus.bags.num_relations());
  for (size_t i = 0; i < pass.samples.size(); i += kSampleEvery) {
    samples->push_back(std::move(pass.samples[i]));
  }
  return heldout.auc;
}

void AddAuc(Report* report, const Spec& spec, double auc) {
  report->Add(Kind::kEndToEnd, "heldout_auc", auc, "1");
  report->Check("heldout_auc.floor", auc >= spec.auc_floor,
                Fmt("%.6f", auc) + " >= " + Fmt("%.6f", spec.auc_floor));
}

void AddPublishMetrics(Report* report, const Publisher& publisher) {
  report->Add(Kind::kLayer, "serve.publish_to_serve_p50_ms",
              Quantile(publisher.delta_publish_ms, 0.5), "ms");
  report->Add(Kind::kLayer, "serve.delta.save_p50_ms",
              Quantile(publisher.delta_save_ms, 0.5), "ms");
  report->Add(Kind::kLayer, "serve.router.reload_delta_p50_ms",
              Quantile(publisher.delta_reload_ms, 0.5), "ms");
  report->Add(Kind::kLayer, "serve.snapshot.save_p50_ms",
              Quantile(publisher.full_save_ms, 0.5), "ms");
  report->Add(Kind::kLayer, "serve.router.reload_p50_ms",
              Quantile(publisher.full_reload_ms, 0.5), "ms");
  Json publish_ms = Json::Array();
  for (double ms : publisher.delta_publish_ms) publish_ms.Push(Json::Number(ms));
  report->Attach("delta_publish_ms", std::move(publish_ms));
  report->Ops("publish", publisher.attempted(), publisher.published(), 0,
              publisher.attempted() - publisher.published());
  report->Check("publish.all_applied",
                publisher.published() > 0 &&
                    publisher.published() == publisher.attempted(),
                std::to_string(publisher.published()) + "/" +
                    std::to_string(publisher.attempted()) +
                    (publisher.error().empty() ? "" : " " + publisher.error()));
}

void PublishAtRest(Publisher* publisher) {
  for (int i = 0; i < kRestPublishes; ++i) publisher->PublishNext();
}

/// Median of per-rep set-up times; checks that every rep built the same
/// model.
void AddSetup(Report* report, const std::vector<double>& seconds,
              bool identical) {
  report->Add(Kind::kEndToEnd, "setup_s", Quantile(seconds, 0.5), "s");
  report->Check("setup.deterministic", identical,
                std::to_string(seconds.size()) +
                    " set-ups produced identical models");
}

void AddTraceOutputs(Report* report, const std::vector<Span>& spans,
                     const Options& options) {
  const std::string path =
      options.out_dir + "/trace-" + options.workload + ".jsonl";
  report->Check("trace.written", WriteSpansJsonl(spans, path), path);
  Json table = Json::Array();
  std::printf("layer  %-32s %9s %12s %14s\n", "span", "count", "p50_us",
              "mean_self_us");
  for (const LayerRow& row : LayerTable(spans)) {
    std::printf("layer  %-32s %9zu %12.3f %14.3f\n", row.name.c_str(),
                row.count, row.p50_us, row.mean_self_us);
    Json item = Json::Object();
    item.Set("span", Json::String(row.name));
    item.Set("count", Json::Number(static_cast<double>(row.count)));
    item.Set("p50_us", Json::Number(row.p50_us));
    item.Set("mean_self_us", Json::Number(row.mean_self_us));
    table.Push(std::move(item));
  }
  report->Attach("layer_table", std::move(table));
}

std::vector<Pick> ReplayPicks(const std::vector<PairText>& pairs, bool zipf,
                              uint64_t seed) {
  RequestPicker picker(&pairs, zipf, seed);
  std::vector<Pick> picks;
  for (size_t i = 0; i < kReplayRequests; ++i) picks.push_back(picker.Next());
  return picks;
}

re::KnnPredictor KnnProbe(const Corpus& corpus) {
  re::KnnOptions knn;
  knn.confidence_gate = 0.95f;
  knn.min_pairs_for_ivf = 64;
  return re::KnnPredictor::Build(corpus.embeddings, corpus.bags.train_bags(),
                                 corpus.bags.num_relations(), knn,
                                 &util::GlobalPool());
}

// Seed streams: each consumer of --seed draws from its own derived stream.
uint64_t Stream(uint64_t seed, uint64_t salt) {
  return seed * 0x9E3779B97F4A7C15ULL + salt;
}

double Us(int64_t ns) { return static_cast<double>(ns) / 1e3; }

/// The measured phase cut into whole kWindowNs windows (at least one).
struct Windows {
  explicit Windows(const PhaseResult& phase)
      : begin_ns(phase.measure_begin_ns),
        count(static_cast<size_t>(std::max<int64_t>(
            1, (phase.measure_end_ns - phase.measure_begin_ns) / kWindowNs))) {}

  /// Window of `ns`, or `count` when it falls outside them.
  size_t Of(int64_t ns) const {
    if (ns < begin_ns) return count;
    return std::min(count, static_cast<size_t>((ns - begin_ns) / kWindowNs));
  }

  int64_t begin_ns;
  size_t count;
};

/// Median over the windows of quantile `q` of each window's values.
double WindowedQuantile(const std::vector<std::vector<double>>& windows,
                        double q) {
  std::vector<double> per_window;
  for (const std::vector<double>& values : windows) {
    if (!values.empty()) per_window.push_back(Quantile(values, q));
  }
  return Quantile(per_window, 0.5);
}

/// End-to-end numbers of the measured windows, plus their decomposition
/// into harness lateness, router and engine time. The p50 and p90 latency
/// and the throughput are medians over 1-second windows; p99 and the other
/// diagnostics pool the whole phase. Throughput is reported with the
/// per-layer metrics: from run to run it moves with the speed of the vCPUs
/// the run lands on, by more than any end-to-end bound (see README.md).
void ReportTraffic(Report* report, const PhaseResult& open,
                   const PhaseResult& capacity) {
  AddOps(report, "open_loop", open);
  AddOps(report, "capacity", capacity);
  const Windows open_windows(open);
  std::vector<std::vector<double>> windowed(open_windows.count);
  std::vector<double> latency, send_lag, submit, service, queue_wait;
  uint64_t cache_hits = 0, knn_fired = 0;
  for (const Outcome* outcome : open.Measured()) {
    if (outcome->reply != Reply::kOk) continue;
    cache_hits += outcome->cache_hit ? 1 : 0;
    knn_fired += outcome->knn_fired ? 1 : 0;
    latency.push_back(Us(outcome->done_ns - outcome->intended_ns));
    if (const size_t w = open_windows.Of(outcome->intended_ns);
        w < open_windows.count) {
      windowed[w].push_back(latency.back());
    }
    send_lag.push_back(Us(outcome->submit_begin_ns - outcome->intended_ns));
    submit.push_back(Us(outcome->submit_end_ns - outcome->submit_begin_ns));
    service.push_back(outcome->service_us);
    // What the request spent between its submit returning and collection,
    // other than being served: queueing, handoff, FIFO collection.
    queue_wait.push_back(Us(outcome->done_ns - outcome->submit_end_ns) -
                         outcome->service_us);
  }
  const Windows capacity_windows(capacity);
  std::vector<double> completed(capacity_windows.count, 0.0);
  for (const Outcome& outcome : capacity.outcomes) {
    if (outcome.reply != Reply::kOk) continue;
    if (const size_t w = capacity_windows.Of(outcome.done_ns);
        w < capacity_windows.count) {
      completed[w] += 1.0;
    }
  }
  const double ok = static_cast<double>(latency.size());
  const double lag_p99 = Quantile(send_lag, 0.99);
  report->Add(Kind::kEndToEnd, "latency_p50_us",
              WindowedQuantile(windowed, 0.5), "us");
  report->Add(Kind::kDiag, "latency_p90_us", WindowedQuantile(windowed, 0.9),
              "us");
  report->Add(Kind::kLayer, "throughput_per_s",
              Quantile(completed, 0.5) * 1e9 / static_cast<double>(kWindowNs),
              "1/s");
  report->Add(Kind::kDiag, "latency_p99_us", Quantile(latency, 0.99), "us");
  report->Add(Kind::kDiag, "latency_samples", ok, "count");
  report->Add(Kind::kDiag, "harness.send_lag_p50_us", Quantile(send_lag, 0.5),
              "us");
  report->Add(Kind::kDiag, "harness.send_lag_p99_us", lag_p99, "us");
  report->Add(Kind::kDiag, "serve.router.submit_load_p50_us",
              Quantile(submit, 0.5), "us");
  report->Add(Kind::kDiag, "serve.router.queue_wait_p50_us",
              Quantile(queue_wait, 0.5), "us");
  report->Add(Kind::kDiag, "serve.router.queue_wait_p90_us",
              Quantile(queue_wait, 0.9), "us");
  report->Add(Kind::kDiag, "serve.engine.service_load_p50_us",
              Quantile(service, 0.5), "us");
  report->Add(Kind::kDiag, "serve.engine.service_load_p90_us",
              Quantile(service, 0.9), "us");
  report->Add(Kind::kDiag, "serve.engine.mr_cache_hit_ratio",
              ok > 0 ? static_cast<double>(cache_hits) / ok : 0.0, "ratio");
  report->Add(Kind::kDiag, "serve.engine.knn_fired_ratio",
              ok > 0 ? static_cast<double>(knn_fired) / ok : 0.0, "ratio");
  if (!open.span_record_us.empty()) {
    report->Add(Kind::kDiag, "trace.overhead_p50_us",
                Quantile(open.span_record_us, 0.5), "us");
  }
  report->Validity("harness.send_lag_p99", lag_p99 <= kSendLagP99LimitUs,
                   Fmt("%.1f us", lag_p99) +
                       Fmt(" <= %.0f us", kSendLagP99LimitUs));
  report->Check("serve.no_failed_requests",
                open.failed + open.unavailable + capacity.failed +
                        capacity.unavailable ==
                    0,
                "open loop and capacity phases");
}

/// swap-nyt: every response names a generation that existed, and none is
/// older than a publish that returned before the request was submitted.
void CheckGenerations(Report* report, const Publisher& publisher,
                      std::initializer_list<const PhaseResult*> phases) {
  const uint64_t max_generation = publisher.published() + 1;
  uint64_t out_of_range = 0, stale = 0;
  for (const PhaseResult* phase : phases) {
    for (const Outcome& outcome : phase->outcomes) {
      if (outcome.reply != Reply::kOk) continue;
      out_of_range +=
          outcome.generation < 1 || outcome.generation > max_generation;
      stale += outcome.generation < outcome.min_generation;
    }
  }
  report->Add(Kind::kDiag, "serve.swap.publishes",
              static_cast<double>(publisher.published()), "count");
  report->Add(Kind::kDiag, "serve.swap.stale_responses",
              static_cast<double>(stale), "count");
  report->Check("serve.swap.generation_in_range", out_of_range == 0,
                std::to_string(out_of_range) + " stamps outside [1, " +
                    std::to_string(max_generation) + "]");
  report->Check("serve.swap.stale_responses", stale == 0,
                std::to_string(stale) +
                    " responses older than a publish that returned before "
                    "their submit");
}

/// What every workload does once its measured phase is over: publishes at
/// rest (unless they ran under load), peak RSS, the bit-exact check of
/// every sampled response and, in a traced run, the layer replays on the
/// served model and the trace outputs.
void FinishServed(const Spec& spec, const Options& options,
                  const Served& served, Publisher* publisher,
                  const std::vector<const Sample*>& samples,
                  const SpanBuffer& traffic_spans,
                  const SpanBuffer& publish_spans, Report* report) {
  if (!spec.swap) PublishAtRest(publisher);
  AddPublishMetrics(report, *publisher);
  report->Add(Kind::kEndToEnd, "peak_rss_mb", PeakRssMb(), "MB");

  auto reference = serve::LoadSnapshot(served.snapshot_path);
  CheckOk(reference.status(), "load reference snapshot");
  const std::vector<PairText>& pairs = served.corpus->test_pairs;
  AddReferenceCheck(report, CheckSamples(samples, *reference, served.store,
                                         publisher->edits(), pairs));
  if (!options.trace) return;

  SpanBuffer replay_spans(true);
  RunServeReplay(*reference, served.snapshot_path, pairs,
                 ReplayPicks(pairs, spec.zipf, Stream(options.seed, 1)),
                 KnnProbe(*served.corpus), report, &replay_spans);
  const std::string& path = served.snapshot_path;
  RunTrainReplay(
      [&path] {
        auto snapshot = serve::LoadSnapshot(path);
        CheckOk(snapshot.status(), "load snapshot for training");
        return std::move(snapshot->model);
      },
      served.corpus->bags.train_bags(), report, &replay_spans);
  std::vector<Span> spans = traffic_spans.spans();
  for (const SpanBuffer* buffer :
       std::initializer_list<const SpanBuffer*>{&publish_spans, &replay_spans}) {
    spans.insert(spans.end(), buffer->spans().begin(), buffer->spans().end());
  }
  AddTraceOutputs(report, spans, options);
}

// ---- serving workloads ---------------------------------------------------------

void RunServe(const Spec& spec, const Options& options, Report* report,
              const std::string& dir) {
  // Set-up: everything before the first request, repeated so its median
  // is steady. Only the last build is kept.
  std::vector<double> setup_seconds;
  std::unique_ptr<Served> served;
  uint64_t first_hash = 0;
  bool identical = true;
  for (int rep = 0; rep < (options.trace ? 1 : kSetupReps); ++rep) {
    served.reset();
    const int64_t start = NowNs();
    served = BuildServed(spec, dir);
    setup_seconds.push_back(static_cast<double>(NowNs() - start) / 1e9);
    const uint64_t hash = served->router->content_hash();
    if (rep == 0) first_hash = hash;
    identical &= hash == first_hash;
  }
  AddSetup(report, setup_seconds, identical);
  serve::ServeRouter& router = *served->router;
  const std::vector<PairText>& pairs = served->corpus->test_pairs;

  // Accuracy first, so that in swap-nyt it is measured on the set-up model
  // (generation 1) and repeats exactly like the other workloads'.
  std::vector<Sample> auc_samples;
  AddAuc(report, spec, ServedAuc(router, *served->corpus, report, &auc_samples));
  std::vector<const Sample*> samples;
  for (const Sample& sample : auc_samples) samples.push_back(&sample);

  SpanBuffer traffic_spans(options.trace);
  SpanBuffer publish_spans(options.trace);
  Publisher publisher(&router, served->Parts(), served->store, dir,
                      Stream(options.seed, 3), &publish_spans);
  std::atomic<bool> stop_publisher{false};
  std::thread publisher_thread;
  if (spec.swap) {
    publisher_thread = std::thread([&] {
      auto next = Clock::now() + kSwapPeriod;
      while (!stop_publisher.load(std::memory_order_acquire)) {
        std::this_thread::sleep_until(next);
        next += kSwapPeriod;
        if (stop_publisher.load(std::memory_order_acquire)) break;
        publisher.PublishNext();
      }
    });
  }

  // Open loop, then the capacity phase.
  const double seconds = options.seconds;
  RequestPicker picker(&pairs, spec.zipf, Stream(options.seed, 1));
  TrafficOptions open_options;
  open_options.warmup_s = kOpenWarmupShare * seconds;
  open_options.measure_s = kOpenShare * seconds;
  open_options.sample_every = kSampleEvery;
  open_options.published_generation =
      spec.swap ? &publisher.published_generation() : nullptr;
  open_options.spans = &traffic_spans;
  const PhaseResult open = RunOpenLoop(router, pairs, picker, spec.rate_qps,
                                       Stream(options.seed, 2), open_options);
  TrafficOptions capacity_options = open_options;
  capacity_options.warmup_s = kCapacityWarmupShare * seconds;
  capacity_options.measure_s = kCapacityShare * seconds;
  capacity_options.spans = nullptr;
  const PhaseResult capacity = RunClosedLoop(
      router, pairs, kInFlight,
      [&](Pick* pick) {
        *pick = picker.Next();
        return true;
      },
      capacity_options);
  stop_publisher.store(true, std::memory_order_release);
  if (publisher_thread.joinable()) publisher_thread.join();
  ReportTraffic(report, open, capacity);
  if (spec.swap) CheckGenerations(report, publisher, {&open, &capacity});

  for (const PhaseResult* phase : {&open, &capacity}) {
    for (const Sample& sample : phase->samples) samples.push_back(&sample);
  }
  FinishServed(spec, options, *served, &publisher, samples, traffic_spans,
               publish_spans, report);
}

// ---- training workload ---------------------------------------------------------

void RunTrain(const Spec& spec, const Options& options, Report* report,
              const std::string& dir) {
  std::vector<double> setup_seconds;
  std::unique_ptr<Corpus> corpus;
  std::unique_ptr<re::PaModel> model;
  std::vector<float> first_embeddings;
  bool identical = true;
  for (int rep = 0; rep < (options.trace ? 1 : kSetupReps); ++rep) {
    model.reset();
    corpus.reset();
    const int64_t start = NowNs();
    corpus = BuildCorpus(spec);
    model = NewModel(*corpus);
    setup_seconds.push_back(static_cast<double>(NowNs() - start) / 1e9);
    const float* raw = corpus->embeddings.raw();
    const std::vector<float> values(raw,
                                    raw + corpus->embeddings.value_count());
    if (rep == 0) first_embeddings = values;
    identical &= values == first_embeddings;
  }
  AddSetup(report, setup_seconds, identical);

  // The measured phase: training jobs of kTrainJobEpochs Trainer::Train
  // epochs, each from the same fresh weights, back to back for --seconds.
  // The first job always completes and its model is the one served; later
  // jobs stop at the first epoch boundary past the deadline. Every job
  // trains the same model, so losses and AUC repeat exactly while the
  // epoch count follows the host's speed.
  const re::TrainerConfig trainer_config = TrainerConfigFor(kTrainJobEpochs);
  const std::vector<re::Bag>& train_bags = corpus->bags.train_bags();
  const int64_t deadline_ns =
      NowNs() + static_cast<int64_t>(options.seconds * 1e9);
  std::vector<re::EpochStats> history;
  int jobs = 0;
  {
    AllCores all_cores;
    while (jobs == 0 || NowNs() < deadline_ns) {
      std::unique_ptr<re::PaModel> trainee =
          jobs == 0 ? std::move(model) : NewModel(*corpus);
      re::Trainer trainer(trainee.get(), trainer_config);
      const std::vector<re::EpochStats> job =
          trainer.Train(train_bags, [&](const re::EpochStats&) {
            return jobs == 0 || NowNs() < deadline_ns;
          });
      history.insert(history.end(), job.begin(), job.end());
      if (jobs == 0) model = std::move(trainee);
      ++jobs;
    }
  }

  const double batches = std::ceil(static_cast<double>(train_bags.size()) /
                                   trainer_config.batch_size);
  std::vector<double> batch_us, bags_per_s;
  Json epochs_json = Json::Array();
  bool losses_match = true;
  std::string loss_detail;
  for (size_t i = 0; i < history.size(); ++i) {
    const re::EpochStats& epoch = history[i];
    // The first epoch fills the buffer pool and caches; it is the warm-up.
    if (i > 0) {
      batch_us.push_back(epoch.seconds * 1e6 / batches);
      bags_per_s.push_back(static_cast<double>(train_bags.size()) /
                           epoch.seconds);
    }
    const double expected = kTrainEpochLoss[epoch.epoch];
    const double relative =
        std::fabs(epoch.mean_loss - expected) / std::fabs(expected);
    if (!(relative <= 1e-4)) {
      losses_match = false;
      if (loss_detail.empty()) {
        loss_detail = "epoch " + std::to_string(epoch.epoch) +
                      Fmt(" loss %.10f", epoch.mean_loss) +
                      Fmt(" expected %.10f", expected);
      }
    }
    Json item = Json::Object();
    item.Set("epoch", Json::Number(epoch.epoch));
    item.Set("mean_loss", Json::Number(epoch.mean_loss));
    item.Set("seconds", Json::Number(epoch.seconds));
    epochs_json.Push(std::move(item));
    std::printf("epoch  %3d loss %.10f  %.3f s\n", epoch.epoch,
                epoch.mean_loss, epoch.seconds);
  }
  report->Attach("epochs", std::move(epochs_json));
  report->Ops("train_batches",
              static_cast<uint64_t>(batches) * history.size(),
              static_cast<uint64_t>(batches) * history.size(), 0, 0);
  report->Add(Kind::kEndToEnd, "latency_p50_us", Quantile(batch_us, 0.5), "us");
  report->Add(Kind::kDiag, "latency_p90_us", Quantile(batch_us, 0.9), "us");
  report->Add(Kind::kLayer, "throughput_per_s", Quantile(bags_per_s, 0.5),
              "1/s");
  report->Add(Kind::kDiag, "train.epochs",
              static_cast<double>(history.size()), "count");
  report->Add(Kind::kDiag, "train.jobs", static_cast<double>(jobs), "count");
  report->Check("train.epoch_losses", losses_match,
                losses_match ? std::to_string(history.size()) +
                                   " epochs match the recorded losses"
                             : loss_detail);

  // Publish the first job's model and serve it.
  auto served = std::make_unique<Served>();
  served->model = std::move(model);
  CopyStore(corpus->embeddings, &served->store);
  served->entities = corpus->entities;
  served->corpus = std::move(corpus);
  const int64_t publish_start = NowNs();
  SnapshotAndServe(served.get(), dir + "/model.imrs",
                   static_cast<uint64_t>(kTrainJobEpochs));
  report->Add(Kind::kDiag, "train.snapshot_and_serve_ms",
              static_cast<double>(NowNs() - publish_start) / 1e6, "ms");

  std::vector<Sample> auc_samples;
  AddAuc(report, spec,
         ServedAuc(*served->router, *served->corpus, report, &auc_samples));
  std::vector<const Sample*> samples;
  for (const Sample& sample : auc_samples) samples.push_back(&sample);
  SpanBuffer no_traffic(options.trace);
  SpanBuffer publish_spans(options.trace);
  Publisher publisher(served->router.get(), served->Parts(), served->store, dir,
                      Stream(options.seed, 3), &publish_spans);
  FinishServed(spec, options, *served, &publisher, samples, no_traffic,
               publish_spans, report);
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> out;
    for (const Spec& spec : kSpecs) out.push_back(spec.name);
    return out;
  }();
  return names;
}

re::TrainerConfig TrainerConfigFor(int epochs) {
  re::TrainerConfig config;
  config.epochs = epochs;
  config.batch_size = 32;
  config.optimizer = "adam";
  config.learning_rate = 0.01f;
  // Any value above 1 selects the data-parallel step. Its workers are the
  // global pool's (see AllCores), and its floats do not depend on how many
  // there are.
  config.threads = 2;
  return config;
}

int RunWorkload(const Options& options) {
  const Spec* spec = nullptr;
  for (const Spec& candidate : kSpecs) {
    if (options.workload == candidate.name) spec = &candidate;
  }
  if (spec == nullptr) {
    std::fprintf(stderr, "imr_e2e: unknown workload '%s'\n",
                 options.workload.c_str());
    return 2;
  }
  const std::string dir = options.out_dir + "/tmp-" + options.workload + "-" +
                          std::to_string(::getpid());
  CheckOk(util::MakeDirectories(dir), "create scratch directory");
  std::printf("imr_e2e workload=%s seed=%llu seconds=%.1f trace=%d\n",
              spec->name, static_cast<unsigned long long>(options.seed),
              options.seconds, options.trace ? 1 : 0);

  Report report(options.workload, options.seed, options.seconds,
                options.trace);
  if (spec->rate_qps > 0.0) {
    RunServe(*spec, options, &report, dir);
  } else {
    RunTrain(*spec, options, &report, dir);
  }
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  const std::string result_path =
      options.out_dir + "/" + options.workload + "-s" +
      std::to_string(options.seed) + (options.trace ? "-trace" : "") + ".json";
  return report.Finish(result_path);
}

}  // namespace imr::e2e
