// Serving benchmark: trains a small PA-TMR pipeline, snapshots it, and
// drives the serve tier through a scenario matrix:
//
//   engine-sync t1
//              one client calling a bare InferenceEngine::Predict on its
//              own thread: the single-client latency floor the tail gate
//              measures the router against
//   router-*   ServeRouter cells: {sync, batch, async} x replicas {1, 4}
//              x cache shards {1, 8}, total worker count pinned at 4, plus
//              int8-quantized variants. Admission control bounds
//              concurrent forwards to the core count, so queue wait stays
//              out of the forwards and p99 stays near the floor.
//   shed       a deadline-bounded router under deliberate overload:
//              demonstrates kUnavailable shedding past the SLO budget
//   hot-swap   sustained traffic while the snapshot is reloaded
//              repeatedly; the gate is ZERO failed requests
//   knn-swap   the same fire drill over ANNI-carrying snapshots: every
//              response is generation-stamped, the kNN vote fires on
//              gate-failing requests, and the gate is zero failed requests
//              plus zero out-of-range generation stamps
//   delta-swap the fire drill again, but every flip is an IMRD row-sparse
//              delta applied through ReloadDelta (copy-on-write block
//              aliasing) instead of a full snapshot load; chained base
//              hashes, zero failures, in-range generation stamps
//   reload     open/apply microbench at NYT entity scale (114042 x 50) and
//              at 8x the rows: mmap snapshot open and a delta apply that
//              touches 228 rows at both sizes
//
// Every cell reports p50/p99/p999/mean/max latency, qps, MR-cache hit
// rate, and admission counters into bench_results/BENCH_serve.json.
//
// SLO gates (exit nonzero on violation, in full and --smoke mode):
//   tail    router batch (4 workers, 8 shards) p99 <= 10x the
//           single-thread engine sync p99
//   cache   sharded (8-way) hit rate >= single-shard hit rate - 0.02 on
//           the same Zipf replay
//   swap    zero failed requests across all hot swaps under load
//   int8    quantized top-1 agreement >= 99.5%, max |prob delta| <= 0.05
//   reload  neither mmap open nor delta apply (same 228 rows) grows by
//           more than 3x when the entity table grows 8x
//   dswap   zero failed requests and zero out-of-range generation stamps
//           across all ReloadDelta flips under load
//
// --smoke runs a reduced replay (smaller preset, fewer epochs/requests)
// with only the gate-relevant cells; scripts/check.sh wires it in as the
// serve-smoke stage.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "imr.h"

namespace imr {
namespace {

void CheckOk(const util::Status& status) {
  if (!status.ok()) {
    std::fprintf(stderr, "bench_serve: %s\n", status.ToString().c_str());
    std::abort();
  }
}

struct Cell {
  std::string name;   // e.g. "router-batch r4 s8"
  std::string tier;   // "engine" | "router"
  std::string mode;   // "sync" | "batch" | "async"
  int replicas = 1;
  int shards = 1;
  int workers = 1;    // serving threads (router: total workers)
  bool quantized = false;
  serve::EngineStats stats;
  double hit_rate = 0.0;
  uint64_t ok = 0;
  uint64_t failed = 0;       // non-OK responses that were NOT expected
  uint64_t unavailable = 0;  // expected kUnavailable (shed / rejected)
  uint64_t reloads = 0;      // hot-swap cell only
  uint64_t bad_generation = 0;  // knn-swap cell: stamps outside [1, flips+1]
  uint64_t delta_reloads = 0;   // delta-swap cell: ReloadDelta applies
};

double HitRate(const serve::EngineStats& stats) {
  const uint64_t lookups = stats.mr_cache_hits + stats.mr_cache_misses;
  return lookups > 0
             ? static_cast<double>(stats.mr_cache_hits) /
                   static_cast<double>(lookups)
             : 0.0;
}

serve::Query BagToQuery(const re::Bag& bag,
                        const std::vector<text::LabeledSentence>& corpus) {
  serve::Query query;
  query.head = bag.head;
  query.tail = bag.tail;
  query.head_types = bag.head_types;
  query.tail_types = bag.tail_types;
  for (const text::LabeledSentence& labeled : corpus) {
    if (labeled.sentence.head_entity == bag.head &&
        labeled.sentence.tail_entity == bag.tail) {
      query.sentences.push_back(labeled.sentence);
      if (query.sentences.size() >= 4) break;  // cap bag size for latency
    }
  }
  return query;
}

// The single-client floor: one thread calling a bare engine's Predict,
// with no router, queue or admission in the way.
Cell RunEngineSyncCell(const std::string& snapshot_path,
                       const std::vector<serve::Query>& requests) {
  serve::EngineOptions options;
  options.top_k = 1;
  options.cache_shards = 1;  // the old single-mutex cache shape
  auto engine = serve::InferenceEngine::Open(snapshot_path, options);
  CheckOk(engine.status());

  Cell cell;
  for (const serve::Query& query : requests) {
    CheckOk((*engine)->Predict(query).status());
    ++cell.ok;
  }
  cell.name = "engine-sync t1";
  cell.tier = "engine";
  cell.mode = "sync";
  cell.stats = (*engine)->Stats();
  cell.hit_rate = HitRate(cell.stats);
  return cell;
}

// One router matrix cell. Total worker threads are pinned at
// max(4 / replicas, 1) * replicas so every configuration offers the same
// parallelism and the replica/shard axes isolate lock and queue effects.
Cell RunRouterCell(const std::string& mode, int replicas, int shards,
                   const std::string& snapshot_path,
                   const std::vector<serve::Query>& requests,
                   bool quantized) {
  serve::RouterOptions options;
  options.replicas = replicas;
  options.workers_per_replica = replicas < 4 ? 4 / replicas : 1;
  options.engine.top_k = 1;
  options.engine.cache_shards = static_cast<size_t>(shards);
  options.engine.quantized = quantized;
  auto router = serve::ServeRouter::Open(snapshot_path, options);
  CheckOk(router.status());

  Cell cell;
  const auto count = [&cell](const util::StatusOr<serve::Prediction>& r) {
    if (r.ok()) {
      ++cell.ok;
    } else if (r.status().code() == util::StatusCode::kUnavailable) {
      ++cell.unavailable;
    } else {
      ++cell.failed;
    }
  };
  if (mode == "sync") {
    for (const serve::Query& query : requests) count((*router)->Predict(query));
  } else if (mode == "batch") {
    for (const auto& result : (*router)->PredictBatch(requests)) count(result);
  } else {  // async
    std::vector<std::future<util::StatusOr<serve::Prediction>>> futures;
    futures.reserve(requests.size());
    for (const serve::Query& query : requests)
      futures.push_back((*router)->SubmitAsync(query));
    for (auto& future : futures) count(future.get());
  }
  cell.name = std::string(quantized ? "q-" : "") + "router-" + mode + " r" +
              std::to_string(replicas) + " s" + std::to_string(shards);
  cell.tier = "router";
  cell.mode = mode;
  cell.replicas = replicas;
  cell.shards = shards;
  cell.workers = options.workers_per_replica * replicas;
  cell.quantized = quantized;
  const serve::RouterStats stats = (*router)->Stats();
  cell.stats = stats.aggregate;
  cell.hit_rate = HitRate(cell.stats);
  return cell;
}

// Deadline-bounded router under deliberate overload: a 2ms queue budget
// against a many-requests burst sheds the backlog instead of serving it
// seconds late.
Cell RunShedCell(const std::string& snapshot_path,
                 const std::vector<serve::Query>& requests) {
  serve::RouterOptions options;
  options.replicas = 1;
  options.workers_per_replica = 1;
  options.engine.top_k = 1;
  options.engine.cache_shards = 8;
  options.admission.max_queue = 0;  // shedding, not door rejection
  options.admission.deadline_us = 2000;
  auto router = serve::ServeRouter::Open(snapshot_path, options);
  CheckOk(router.status());

  Cell cell;
  std::vector<std::future<util::StatusOr<serve::Prediction>>> futures;
  futures.reserve(requests.size());
  for (const serve::Query& query : requests)
    futures.push_back((*router)->SubmitAsync(query));
  for (auto& future : futures) {
    auto result = future.get();
    if (result.ok()) {
      ++cell.ok;
    } else if (result.status().code() == util::StatusCode::kUnavailable) {
      ++cell.unavailable;
    } else {
      ++cell.failed;
    }
  }
  cell.name = "router-shed r1 s8 d2000us";
  cell.tier = "router";
  cell.mode = "async";
  cell.replicas = 1;
  cell.shards = 8;
  cell.quantized = false;
  cell.stats = (*router)->Stats().aggregate;
  cell.hit_rate = HitRate(cell.stats);
  return cell;
}

// Hot swap under sustained load: traffic threads hammer the router while
// the main thread flips generations A<->B. The gate: zero failed
// requests (every response is OK and consistent with one generation).
Cell RunHotSwapCell(const std::string& snapshot_a,
                    const std::string& snapshot_b,
                    const std::vector<serve::Query>& requests, int flips) {
  serve::RouterOptions options;
  options.replicas = 2;
  options.workers_per_replica = 2;
  options.engine.top_k = 1;
  options.engine.cache_shards = 8;
  auto router = serve::ServeRouter::Open(snapshot_a, options);
  CheckOk(router.status());

  Cell cell;
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> ok{0}, failed{0};
  std::vector<std::thread> traffic;
  for (int t = 0; t < 2; ++t) {
    traffic.emplace_back([&, t] {
      size_t i = static_cast<size_t>(t);
      while (!stop.load(std::memory_order_relaxed)) {
        auto result = (*router)->Predict(requests[i % requests.size()]);
        if (result.ok()) {
          ok.fetch_add(1, std::memory_order_relaxed);
        } else {
          failed.fetch_add(1, std::memory_order_relaxed);
        }
        i += 2;
      }
    });
  }
  for (int flip = 0; flip < flips; ++flip) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    CheckOk((*router)->Reload(flip % 2 == 0 ? snapshot_b : snapshot_a));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  stop.store(true);
  for (std::thread& t : traffic) t.join();

  cell.name = "router-hotswap r2 s8";
  cell.tier = "router";
  cell.mode = "sync";
  cell.replicas = 2;
  cell.shards = 8;
  cell.workers = 4;
  cell.ok = ok.load();
  cell.failed = failed.load();
  cell.reloads = static_cast<uint64_t>(flips);
  cell.stats = (*router)->Stats().aggregate;
  cell.hit_rate = HitRate(cell.stats);
  return cell;
}

// Hot swap over ANNI-carrying snapshots: traffic hammers the router while
// generations flip, and every response's generation stamp is range-checked
// (a stamp outside [1, flips+1] would mean a half-swapped or mixed-state
// response). The kNN vote fires per the predictor's confidence gate; the
// aggregate knn_fired counter proves the ANN index served under fire.
Cell RunKnnHotSwapCell(const std::string& snapshot_a,
                       const std::string& snapshot_b,
                       const std::vector<serve::Query>& requests, int flips) {
  serve::RouterOptions options;
  options.replicas = 2;
  options.workers_per_replica = 2;
  options.engine.top_k = 1;
  options.engine.cache_shards = 8;
  auto router = serve::ServeRouter::Open(snapshot_a, options);
  CheckOk(router.status());

  Cell cell;
  const uint64_t max_generation = static_cast<uint64_t>(flips) + 1;
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> ok{0}, failed{0}, bad_generation{0};
  std::vector<std::thread> traffic;
  for (int t = 0; t < 2; ++t) {
    traffic.emplace_back([&, t] {
      size_t i = static_cast<size_t>(t);
      while (!stop.load(std::memory_order_relaxed)) {
        auto result = (*router)->Predict(requests[i % requests.size()]);
        if (result.ok()) {
          ok.fetch_add(1, std::memory_order_relaxed);
          if (result->generation < 1 || result->generation > max_generation) {
            bad_generation.fetch_add(1, std::memory_order_relaxed);
          }
        } else {
          failed.fetch_add(1, std::memory_order_relaxed);
        }
        i += 2;
      }
    });
  }
  for (int flip = 0; flip < flips; ++flip) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    CheckOk((*router)->Reload(flip % 2 == 0 ? snapshot_b : snapshot_a));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  stop.store(true);
  for (std::thread& t : traffic) t.join();

  cell.name = "router-knn-hotswap r2 s8";
  cell.tier = "router";
  cell.mode = "sync";
  cell.replicas = 2;
  cell.shards = 8;
  cell.workers = 4;
  cell.ok = ok.load();
  cell.failed = failed.load();
  cell.bad_generation = bad_generation.load();
  cell.reloads = static_cast<uint64_t>(flips);
  cell.stats = (*router)->Stats().aggregate;
  cell.hit_rate = HitRate(cell.stats);
  return cell;
}

// Hot swap where every flip is a row-sparse IMRD delta through
// ReloadDelta instead of a full snapshot load. The deltas are pre-chained
// off the serving generation's content hash (each applies on top of the
// previous result), so the cell also proves hash chaining holds under
// traffic. Gates: zero failed requests, zero out-of-range generation
// stamps, and every flip accounted as a delta reload.
Cell RunDeltaSwapCell(const std::string& snapshot_path,
                      const graph::EmbeddingStore& embeddings,
                      const re::PaModel& model,
                      const std::vector<serve::Query>& requests, int flips) {
  auto base = serve::LoadSnapshot(snapshot_path);
  CheckOk(base.status());
  graph::EmbeddingStore work(embeddings.num_vertices(), embeddings.dim());
  std::memcpy(work.Vector(0), embeddings.raw(),
              embeddings.value_count() * sizeof(float));
  uint64_t chain_hash = base->content_hash;
  std::vector<std::string> delta_paths;
  util::Rng rng(0xD17A);
  for (int flip = 0; flip < flips; ++flip) {
    serve::DeltaSpec spec;
    spec.include_quantized = false;  // base generation carries no QEMB
    for (int i = 0; i < 32; ++i) {
      const int row =
          static_cast<int>(rng.UniformInt(work.num_vertices()));
      spec.touched_rows.push_back(row);
      for (int d = 0; d < work.dim(); ++d) work.Vector(row)[d] += 0.01f;
    }
    const std::string path =
        "bench_results/serve_delta_" + std::to_string(flip) + ".imrd";
    auto result = serve::SaveDelta(chain_hash, work, &model, spec, path);
    CheckOk(result.status());
    chain_hash = *result;
    delta_paths.push_back(path);
  }

  serve::RouterOptions options;
  options.replicas = 2;
  options.workers_per_replica = 2;
  options.engine.top_k = 1;
  options.engine.cache_shards = 8;
  auto router = serve::ServeRouter::Open(snapshot_path, options);
  CheckOk(router.status());

  Cell cell;
  const uint64_t max_generation = static_cast<uint64_t>(flips) + 1;
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> ok{0}, failed{0}, bad_generation{0};
  std::vector<std::thread> traffic;
  for (int t = 0; t < 2; ++t) {
    traffic.emplace_back([&, t] {
      size_t i = static_cast<size_t>(t);
      while (!stop.load(std::memory_order_relaxed)) {
        auto result = (*router)->Predict(requests[i % requests.size()]);
        if (result.ok()) {
          ok.fetch_add(1, std::memory_order_relaxed);
          if (result->generation < 1 || result->generation > max_generation) {
            bad_generation.fetch_add(1, std::memory_order_relaxed);
          }
        } else {
          failed.fetch_add(1, std::memory_order_relaxed);
        }
        i += 2;
      }
    });
  }
  for (const std::string& path : delta_paths) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    CheckOk((*router)->ReloadDelta(path));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  stop.store(true);
  for (std::thread& t : traffic) t.join();

  cell.name = "router-delta-swap r2 s8";
  cell.tier = "router";
  cell.mode = "sync";
  cell.replicas = 2;
  cell.shards = 8;
  cell.workers = 4;
  cell.ok = ok.load();
  cell.failed = failed.load();
  cell.bad_generation = bad_generation.load();
  const serve::RouterStats stats = (*router)->Stats();
  cell.reloads = stats.reloads;
  cell.delta_reloads = stats.delta_reloads;
  cell.stats = stats.aggregate;
  cell.hit_rate = HitRate(cell.stats);
  for (const std::string& path : delta_paths) std::remove(path.c_str());
  return cell;
}

// --- reload microbench: open/apply cost vs entity-table size ---------------

struct ReloadBench {
  int num_vertices = 0;     // N, the NYT entity count
  int scaled_vertices = 0;  // 8N
  int dim = 0;
  int touched_rows = 0;     // the same count at both sizes
  double v2_mmap_open_ms = 0.0;  // at N
  double delta_apply_ms = 0.0;   // at N
  double v2_mmap_open_scaled_ms = 0.0;  // at 8N
  double delta_apply_scaled_ms = 0.0;   // at 8N
  double v2_growth = 0.0;     // 8N / N
  double delta_growth = 0.0;  // 8N / N
  bool v2_pass = false;
  bool delta_pass = false;
};

template <typename Fn>
double BestOfMs(int iterations, const Fn& fn) {
  double best = 1e300;
  for (int i = 0; i < iterations; ++i) {
    const auto start = std::chrono::steady_clock::now();
    fn();
    const auto stop = std::chrono::steady_clock::now();
    best = std::min(
        best, std::chrono::duration<double, std::milli>(stop - start).count());
  }
  return best;
}

struct ReloadTimes {
  double open_ms = 0.0;
  double apply_ms = 0.0;
};

// Saves `model` with a random [num_vertices x dim] entity table (fp32 plus
// int8 QEMB, the bulk of a real snapshot) and a delta touching
// `touched_rows` random rows, then times best-of-N snapshot open and delta
// apply. Best-of-N swallows the cold first iteration.
ReloadTimes TimeReload(const re::PaModel& model, const text::Vocabulary& vocab,
                       int num_vertices, int dim, int touched_rows,
                       int iterations) {
  const std::string snapshot_path = "bench_results/reload.imrs";
  const std::string delta_path = "bench_results/reload.imrd";
  auto base = [&] {
    util::Rng rng(71);
    graph::EmbeddingStore embeddings(num_vertices, dim);
    float* values = embeddings.Vector(0);
    for (size_t i = 0; i < embeddings.value_count(); ++i) {
      values[i] = static_cast<float>(rng.Uniform() - 0.5);
    }
    const auto quantized =
        graph::QuantizedEmbeddingStore::Quantize(embeddings);
    const std::vector<std::string> relation_names = {"NA", "r1", "r2"};
    CheckOk(serve::SaveSnapshot(model, vocab, embeddings, relation_names, {},
                                {}, 1, "reload_bench", snapshot_path,
                                &quantized));
    auto loaded = serve::LoadSnapshot(snapshot_path);
    CheckOk(loaded.status());
    // Only the listed rows are read, so patch them in place.
    serve::DeltaSpec spec;
    util::Rng row_rng(99);
    while (spec.touched_rows.size() < static_cast<size_t>(touched_rows)) {
      const int row = static_cast<int>(row_rng.UniformInt(num_vertices));
      spec.touched_rows.push_back(row);
      for (int d = 0; d < dim; ++d) embeddings.Vector(row)[d] += 0.125f;
    }
    CheckOk(serve::SaveDelta(loaded->content_hash, embeddings, &model, spec,
                             delta_path)
                .status());
    return std::move(*loaded);
  }();

  ReloadTimes times;
  times.open_ms = BestOfMs(iterations, [&] {
    auto snapshot = serve::LoadSnapshot(snapshot_path);
    CheckOk(snapshot.status());
  });
  times.apply_ms = BestOfMs(iterations, [&] {
    auto snapshot = serve::ApplyDelta(base, delta_path);
    CheckOk(snapshot.status());
  });
  std::remove(snapshot_path.c_str());
  std::remove(delta_path.c_str());
  return times;
}

// Open/apply latency at the paper's NYT entity scale (114042 vertices,
// dim 50, ~23MB fp32 + int8 QEMB) and at 8x the rows, with the same 228
// touched rows. The matrix dominates the file exactly as in a real
// deployment, so a path that copies or re-reads it grows ~8x with the
// table; the gate holds both paths to O(header) / O(touched rows) growth.
ReloadBench RunReloadBench(bool smoke) {
  constexpr int kNumVertices = 114042;
  constexpr int kScale = 8;
  constexpr int kDim = 50;
  constexpr double kMaxGrowth = 3.0;
  ReloadBench bench;
  bench.num_vertices = kNumVertices;
  bench.scaled_vertices = kScale * kNumVertices;
  bench.dim = kDim;
  bench.touched_rows = kNumVertices / 500;  // 0.2% of N's rows

  text::Vocabulary vocab;
  for (const char* word :
       {"alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta"}) {
    vocab.Count(word);
  }
  vocab.Freeze();
  re::PaModelConfig config;
  config.num_relations = 3;
  config.encoder = "pcnn";
  config.use_mutual_relation = true;
  config.mutual_relation_dim = kDim;
  config.encoder_config.vocab_size = vocab.size();
  config.encoder_config.word_dim = 8;
  config.encoder_config.position_dim = 2;
  config.encoder_config.max_position = 10;
  config.encoder_config.filters = 8;
  util::Rng rng(71);
  re::PaModel model(config, &rng);
  model.SetTraining(false);

  const int iterations = smoke ? 3 : 5;
  const ReloadTimes at_n = TimeReload(model, vocab, bench.num_vertices, kDim,
                                      bench.touched_rows, iterations);
  const ReloadTimes at_scaled =
      TimeReload(model, vocab, bench.scaled_vertices, kDim,
                 bench.touched_rows, iterations);
  bench.v2_mmap_open_ms = at_n.open_ms;
  bench.delta_apply_ms = at_n.apply_ms;
  bench.v2_mmap_open_scaled_ms = at_scaled.open_ms;
  bench.delta_apply_scaled_ms = at_scaled.apply_ms;
  bench.v2_growth = at_scaled.open_ms / at_n.open_ms;
  bench.delta_growth = at_scaled.apply_ms / at_n.apply_ms;
  bench.v2_pass = bench.v2_growth <= kMaxGrowth;
  bench.delta_pass = bench.delta_growth <= kMaxGrowth;
  return bench;
}

// fp32-vs-quantized accuracy on one replay stream.
struct QuantizedGate {
  double top1_agreement = 0.0;
  double max_abs_prob_delta = 0.0;
  size_t requests = 0;
  bool pass = false;
};

QuantizedGate RunQuantizedGate(const std::string& snapshot_path,
                               const std::vector<serve::Query>& requests) {
  serve::EngineOptions fp32_options;
  auto fp32_engine = serve::InferenceEngine::Open(snapshot_path, fp32_options);
  CheckOk(fp32_engine.status());
  serve::EngineOptions quant_options = fp32_options;
  quant_options.quantized = true;
  auto quant_engine =
      serve::InferenceEngine::Open(snapshot_path, quant_options);
  CheckOk(quant_engine.status());

  QuantizedGate gate;
  gate.requests = requests.size();
  size_t agree = 0;
  for (const serve::Query& query : requests) {
    auto fp32 = (*fp32_engine)->Predict(query);
    auto quant = (*quant_engine)->Predict(query);
    CheckOk(fp32.status());
    CheckOk(quant.status());
    const std::vector<float>& p = fp32->probabilities;
    const std::vector<float>& q = quant->probabilities;
    IMR_CHECK(p.size() == q.size());
    size_t p_top = 0, q_top = 0;
    for (size_t i = 1; i < p.size(); ++i) {
      if (p[i] > p[p_top]) p_top = i;
      if (q[i] > q[q_top]) q_top = i;
    }
    if (p_top == q_top) ++agree;
    for (size_t i = 0; i < p.size(); ++i) {
      const double delta = std::fabs(static_cast<double>(p[i]) - q[i]);
      if (delta > gate.max_abs_prob_delta) gate.max_abs_prob_delta = delta;
    }
  }
  gate.top1_agreement =
      requests.empty() ? 0.0
                       : static_cast<double>(agree) /
                             static_cast<double>(requests.size());
  gate.pass =
      gate.top1_agreement >= 0.995 && gate.max_abs_prob_delta <= 0.05;
  return gate;
}

const Cell* FindCell(const std::vector<Cell>& cells, const std::string& name) {
  for (const Cell& cell : cells) {
    if (cell.name == name) return &cell;
  }
  return nullptr;
}

int Run(bool smoke) {
  // --- train a small pipeline on the NYT preset and snapshot it ----------
  datagen::PresetOptions preset_options;
  preset_options.scale = smoke ? 0.3 : 0.5;
  preset_options.seed = 13;
  datagen::SyntheticDataset dataset = datagen::MakeNytLike(preset_options);

  re::BagDatasetOptions bag_options;
  bag_options.max_sentence_length = 40;
  bag_options.max_position = 20;
  re::BagDataset bags = re::BagDataset::Build(
      dataset.world.graph, dataset.corpus.train, dataset.corpus.test,
      bag_options);

  graph::ProximityGraph proximity(dataset.world.graph.num_entities());
  proximity.AddCorpus(dataset.unlabeled.sentences);
  proximity.Finalize(2);
  graph::LineConfig line_config;
  line_config.dim = 32;
  line_config.samples_per_edge = 100;
  graph::EmbeddingStore embeddings = graph::TrainLine(proximity, line_config);
  CheckOk(bags.AttachMutualRelations(embeddings));

  re::PaModelConfig config;
  config.num_relations = bags.num_relations();
  config.encoder = "pcnn";
  config.aggregation = re::Aggregation::kAttention;
  config.use_mutual_relation = true;
  config.use_entity_type = true;
  config.mutual_relation_dim = embeddings.dim();
  config.type_dim = 8;
  config.encoder_config.vocab_size = bags.vocabulary().size();
  config.encoder_config.word_dim = 16;
  config.encoder_config.position_dim = 3;
  config.encoder_config.max_position = bag_options.max_position;
  config.encoder_config.filters = 32;

  util::Rng rng(preset_options.seed);
  re::PaModel model(config, &rng);
  re::TrainerConfig trainer_config;
  trainer_config.epochs = smoke ? 2 : 6;
  trainer_config.batch_size = 32;
  trainer_config.optimizer = "adam";
  trainer_config.learning_rate = 0.01f;
  re::Trainer trainer(&model, trainer_config);
  trainer.Train(bags.train_bags());

  CheckOk(util::MakeDirectories("bench_results"));
  const std::string snapshot_path = "bench_results/serve_model.imrs";
  CheckOk(serve::SaveSnapshot(model, bags.vocabulary(), embeddings,
                              dataset.world.graph, bag_options,
                              trainer_config.epochs, "bench_serve",
                              snapshot_path));
  // Generation B for the hot-swap cell: same model, embeddings retrained
  // with a different seed, saved with a QEMB section.
  graph::LineConfig line_b = line_config;
  line_b.seed = 181;
  graph::EmbeddingStore embeddings_b = graph::TrainLine(proximity, line_b);
  const auto quantized_b =
      graph::QuantizedEmbeddingStore::Quantize(embeddings_b);
  const std::string snapshot_b_path = "bench_results/serve_model_b.imrs";
  CheckOk(serve::SaveSnapshot(model, bags.vocabulary(), embeddings_b,
                              dataset.world.graph, bag_options,
                              trainer_config.epochs, "bench_serve_b",
                              snapshot_b_path, &quantized_b));

  // kNN-enabled generation pair for the knn-swap drill. A wide confidence
  // gate (0.95) makes the vote fire on most replay requests so the drill
  // actually exercises the ANN search under swap pressure; the fp32/int8
  // accuracy gates keep using the kNN-free snapshots above.
  re::KnnOptions knn_options;
  knn_options.confidence_gate = 0.95f;
  knn_options.min_pairs_for_ivf = 64;
  const re::KnnPredictor knn_a = re::KnnPredictor::Build(
      embeddings, bags.train_bags(), bags.num_relations(), knn_options,
      &util::GlobalPool());
  const re::KnnPredictor knn_b = re::KnnPredictor::Build(
      embeddings_b, bags.train_bags(), bags.num_relations(), knn_options,
      &util::GlobalPool());
  const std::string snapshot_knn_path = "bench_results/serve_model_knn.imrs";
  const std::string snapshot_knn_b_path =
      "bench_results/serve_model_knn_b.imrs";
  CheckOk(serve::SaveSnapshot(model, bags.vocabulary(), embeddings,
                              dataset.world.graph, bag_options,
                              trainer_config.epochs, "bench_serve_knn",
                              snapshot_knn_path, nullptr, &knn_a));
  CheckOk(serve::SaveSnapshot(model, bags.vocabulary(), embeddings_b,
                              dataset.world.graph, bag_options,
                              trainer_config.epochs, "bench_serve_knn_b",
                              snapshot_knn_b_path, &quantized_b, &knn_b));

  // --- request stream: held-out bags, replayed with pair-frequency skew --
  std::vector<serve::Query> unique_queries;
  for (const re::Bag& bag : bags.test_bags()) {
    serve::Query query = BagToQuery(bag, dataset.corpus.test);
    if (!query.sentences.empty()) unique_queries.push_back(std::move(query));
    if (unique_queries.size() >= 128) break;
  }
  IMR_CHECK(!unique_queries.empty());
  // Zipf-ish replay: pair k is queried roughly proportional to 1/(k+1),
  // mirroring the long-tailed pair frequencies the paper measures.
  std::vector<serve::Query> requests;
  util::Rng replay_rng(99);
  const size_t replay_size = smoke ? 256 : 768;
  while (requests.size() < replay_size) {
    const size_t k = static_cast<size_t>(
        static_cast<double>(unique_queries.size()) *
        replay_rng.Uniform() * replay_rng.Uniform());
    requests.push_back(unique_queries[std::min(k, unique_queries.size() - 1)]);
  }

  std::printf(
      "bench_serve%s: %zu unique pairs, %zu requests, %d relations\n",
      smoke ? " (smoke)" : "", unique_queries.size(), requests.size(),
      config.num_relations);

  // --- scenario matrix ----------------------------------------------------
  std::vector<Cell> cells;
  // The single-client floor the tail gate divides by.
  cells.push_back(RunEngineSyncCell(snapshot_path, requests));
  // Gate-relevant router cells.
  cells.push_back(
      RunRouterCell("batch", 1, 1, snapshot_path, requests, false));
  cells.push_back(
      RunRouterCell("batch", 1, 8, snapshot_path, requests, false));
  cells.push_back(
      RunRouterCell("batch", 4, 8, snapshot_path, requests, false));
  if (!smoke) {
    cells.push_back(
        RunRouterCell("sync", 1, 1, snapshot_path, requests, false));
    cells.push_back(
        RunRouterCell("sync", 1, 8, snapshot_path, requests, false));
    cells.push_back(
        RunRouterCell("sync", 4, 8, snapshot_path, requests, false));
    cells.push_back(
        RunRouterCell("batch", 4, 1, snapshot_path, requests, false));
    cells.push_back(
        RunRouterCell("async", 1, 8, snapshot_path, requests, false));
    cells.push_back(
        RunRouterCell("async", 4, 8, snapshot_path, requests, false));
    cells.push_back(
        RunRouterCell("batch", 4, 8, snapshot_path, requests, true));
    cells.push_back(
        RunRouterCell("sync", 1, 8, snapshot_path, requests, true));
    cells.push_back(RunShedCell(snapshot_path, requests));
  }
  cells.push_back(RunHotSwapCell(snapshot_path, snapshot_b_path, requests,
                                 smoke ? 2 : 6));
  cells.push_back(RunKnnHotSwapCell(snapshot_knn_path, snapshot_knn_b_path,
                                    requests, smoke ? 2 : 6));
  cells.push_back(RunDeltaSwapCell(snapshot_path, embeddings, model,
                                   requests, smoke ? 2 : 6));

  const QuantizedGate quant_gate = RunQuantizedGate(snapshot_path, requests);
  const ReloadBench reload = RunReloadBench(smoke);

  // --- gates --------------------------------------------------------------
  const Cell* engine_sync = FindCell(cells, "engine-sync t1");
  const Cell* router_batch = FindCell(cells, "router-batch r4 s8");
  const Cell* cache_one = FindCell(cells, "router-batch r1 s1");
  const Cell* cache_many = FindCell(cells, "router-batch r1 s8");
  const Cell* hot_swap = FindCell(cells, "router-hotswap r2 s8");
  const Cell* knn_swap = FindCell(cells, "router-knn-hotswap r2 s8");
  const Cell* delta_swap = FindCell(cells, "router-delta-swap r2 s8");
  IMR_CHECK(engine_sync != nullptr && router_batch != nullptr &&
            cache_one != nullptr && cache_many != nullptr &&
            hot_swap != nullptr && knn_swap != nullptr &&
            delta_swap != nullptr);

  const double tail_ratio =
      engine_sync->stats.p99_latency_us > 0.0
          ? router_batch->stats.p99_latency_us /
                engine_sync->stats.p99_latency_us
          : 0.0;
  const bool tail_pass = tail_ratio <= 10.0;
  const bool cache_pass = cache_many->hit_rate >= cache_one->hit_rate - 0.02;
  const bool swap_pass = hot_swap->failed == 0 && hot_swap->ok > 0;
  const bool knn_swap_pass = knn_swap->failed == 0 && knn_swap->ok > 0 &&
                             knn_swap->bad_generation == 0 &&
                             knn_swap->stats.knn_fired > 0;
  const uint64_t delta_flips = static_cast<uint64_t>(smoke ? 2 : 6);
  const bool delta_swap_pass = delta_swap->failed == 0 &&
                               delta_swap->ok > 0 &&
                               delta_swap->bad_generation == 0 &&
                               delta_swap->delta_reloads == delta_flips;
  const bool all_pass = tail_pass && cache_pass && swap_pass &&
                        knn_swap_pass && quant_gate.pass &&
                        delta_swap_pass && reload.v2_pass &&
                        reload.delta_pass;

  // --- report -------------------------------------------------------------
  std::printf("%-24s %9s %9s %9s %9s %9s %7s %6s %6s\n", "cell", "qps",
              "p50_us", "p99_us", "p999_us", "mean_us", "hit%", "rej",
              "shed");
  for (const Cell& cell : cells) {
    std::printf(
        "%-24s %9.0f %9.0f %9.0f %9.0f %9.0f %6.1f%% %6llu %6llu\n",
        cell.name.c_str(), cell.stats.qps, cell.stats.p50_latency_us,
        cell.stats.p99_latency_us, cell.stats.p999_latency_us,
        cell.stats.mean_latency_us, 100.0 * cell.hit_rate,
        static_cast<unsigned long long>(cell.stats.rejected_queue_full),
        static_cast<unsigned long long>(cell.stats.shed_deadline));
  }
  // Per-shard traffic for the 8-way single-replica cell: the shard counters
  // are the satellite observability surface, show them once.
  std::printf("per-shard traffic (%s):", cache_many->name.c_str());
  for (size_t s = 0; s < cache_many->stats.cache_shards.size(); ++s) {
    const serve::CacheShardStats& shard = cache_many->stats.cache_shards[s];
    std::printf(" s%zu=%llu/%llu", s,
                static_cast<unsigned long long>(shard.hits),
                static_cast<unsigned long long>(shard.misses));
  }
  std::printf("  (hits/misses)\n");
  std::printf(
      "gates: tail p99 ratio %.2f (<= 10) %s | sharded hit %.4f vs "
      "single-shard %.4f (-0.02 slack) %s | hot-swap ok=%llu failed=%llu "
      "across %llu reloads %s | int8 top-1 %.4f delta %.5f %s\n",
      tail_ratio, tail_pass ? "PASS" : "FAIL", cache_many->hit_rate,
      cache_one->hit_rate, cache_pass ? "PASS" : "FAIL",
      static_cast<unsigned long long>(hot_swap->ok),
      static_cast<unsigned long long>(hot_swap->failed),
      static_cast<unsigned long long>(hot_swap->reloads),
      swap_pass ? "PASS" : "FAIL", quant_gate.top1_agreement,
      quant_gate.max_abs_prob_delta, quant_gate.pass ? "PASS" : "FAIL");
  std::printf(
      "       knn-swap ok=%llu failed=%llu bad_gen=%llu knn_fired=%llu "
      "across %llu reloads %s\n",
      static_cast<unsigned long long>(knn_swap->ok),
      static_cast<unsigned long long>(knn_swap->failed),
      static_cast<unsigned long long>(knn_swap->bad_generation),
      static_cast<unsigned long long>(knn_swap->stats.knn_fired),
      static_cast<unsigned long long>(knn_swap->reloads),
      knn_swap_pass ? "PASS" : "FAIL");
  std::printf(
      "       delta-swap ok=%llu failed=%llu bad_gen=%llu across %llu "
      "delta reloads %s\n",
      static_cast<unsigned long long>(delta_swap->ok),
      static_cast<unsigned long long>(delta_swap->failed),
      static_cast<unsigned long long>(delta_swap->bad_generation),
      static_cast<unsigned long long>(delta_swap->delta_reloads),
      delta_swap_pass ? "PASS" : "FAIL");
  std::printf(
      "       reload [%d -> %d x %d]: mmap open %.3f -> %.3fms (%.2fx, <= "
      "3x) %s | delta apply (%d rows) %.3f -> %.3fms (%.2fx, <= 3x) %s\n",
      reload.num_vertices, reload.scaled_vertices, reload.dim,
      reload.v2_mmap_open_ms, reload.v2_mmap_open_scaled_ms,
      reload.v2_growth, reload.v2_pass ? "PASS" : "FAIL",
      reload.touched_rows, reload.delta_apply_ms,
      reload.delta_apply_scaled_ms, reload.delta_growth,
      reload.delta_pass ? "PASS" : "FAIL");

  // --- JSON ---------------------------------------------------------------
  std::FILE* out = std::fopen("bench_results/BENCH_serve.json", "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_serve.json\n");
    return 1;
  }
  std::fprintf(out,
               "{\n  \"smoke\": %s,\n  \"requests\": %zu,\n"
               "  \"unique_pairs\": %zu,\n",
               smoke ? "true" : "false", requests.size(),
               unique_queries.size());
  std::fprintf(out, "  \"results\": [\n");
  for (size_t i = 0; i < cells.size(); ++i) {
    const Cell& cell = cells[i];
    std::fprintf(
        out,
        "    {\"cell\": \"%s\", \"tier\": \"%s\", \"mode\": \"%s\", "
        "\"replicas\": %d, \"cache_shards\": %d, \"workers\": %d, "
        "\"quantized\": %s, \"qps\": %.2f, \"p50_us\": %.2f, "
        "\"p99_us\": %.2f, \"p999_us\": %.2f, \"mean_us\": %.2f, "
        "\"max_us\": %.2f, \"mr_cache_hit_rate\": %.4f, \"ok\": %llu, "
        "\"failed\": %llu, \"unavailable\": %llu, \"admitted\": %llu, "
        "\"rejected_queue_full\": %llu, \"shed_deadline\": %llu, "
        "\"queue_peak\": %llu, \"reloads\": %llu, \"knn_fired\": %llu}%s\n",
        cell.name.c_str(), cell.tier.c_str(), cell.mode.c_str(),
        cell.replicas, cell.shards, cell.workers,
        cell.quantized ? "true" : "false", cell.stats.qps,
        cell.stats.p50_latency_us, cell.stats.p99_latency_us,
        cell.stats.p999_latency_us, cell.stats.mean_latency_us,
        cell.stats.max_latency_us, cell.hit_rate,
        static_cast<unsigned long long>(cell.ok),
        static_cast<unsigned long long>(cell.failed),
        static_cast<unsigned long long>(cell.unavailable),
        static_cast<unsigned long long>(cell.stats.admitted),
        static_cast<unsigned long long>(cell.stats.rejected_queue_full),
        static_cast<unsigned long long>(cell.stats.shed_deadline),
        static_cast<unsigned long long>(cell.stats.queue_peak),
        static_cast<unsigned long long>(cell.reloads),
        static_cast<unsigned long long>(cell.stats.knn_fired),
        i + 1 < cells.size() ? "," : "");
  }
  std::fprintf(out, "  ],\n");
  std::fprintf(out,
               "  \"gates\": {\n"
               "    \"tail\": {\"p99_ratio\": %.4f, \"max\": 10.0, "
               "\"pass\": %s},\n"
               "    \"cache\": {\"sharded_hit_rate\": %.4f, "
               "\"single_shard_hit_rate\": %.4f, \"slack\": 0.02, "
               "\"pass\": %s},\n"
               "    \"hot_swap\": {\"ok\": %llu, \"failed\": %llu, "
               "\"reloads\": %llu, \"pass\": %s},\n"
               "    \"knn_swap\": {\"ok\": %llu, \"failed\": %llu, "
               "\"bad_generation\": %llu, \"knn_fired\": %llu, "
               "\"reloads\": %llu, \"pass\": %s},\n"
               "    \"quantized\": {\"top1_agreement\": %.4f, "
               "\"max_abs_prob_delta\": %.5f, \"requests\": %zu, "
               "\"top1_agreement_min\": 0.995, "
               "\"max_abs_prob_delta_max\": 0.05, \"pass\": %s},\n"
               "    \"delta_swap\": {\"ok\": %llu, \"failed\": %llu, "
               "\"bad_generation\": %llu, \"delta_reloads\": %llu, "
               "\"pass\": %s},\n"
               "    \"reload\": {\"num_vertices\": %d, "
               "\"scaled_vertices\": %d, \"dim\": %d, "
               "\"touched_rows\": %d, \"v2_mmap_open_ms\": %.3f, "
               "\"delta_apply_ms\": %.3f, \"v2_mmap_open_scaled_ms\": %.3f, "
               "\"delta_apply_scaled_ms\": %.3f, \"v2_growth\": %.2f, "
               "\"delta_growth\": %.2f, \"growth_max\": 3.0, "
               "\"v2_pass\": %s, \"delta_pass\": %s}\n"
               "  }\n}\n",
               tail_ratio, tail_pass ? "true" : "false",
               cache_many->hit_rate, cache_one->hit_rate,
               cache_pass ? "true" : "false",
               static_cast<unsigned long long>(hot_swap->ok),
               static_cast<unsigned long long>(hot_swap->failed),
               static_cast<unsigned long long>(hot_swap->reloads),
               swap_pass ? "true" : "false",
               static_cast<unsigned long long>(knn_swap->ok),
               static_cast<unsigned long long>(knn_swap->failed),
               static_cast<unsigned long long>(knn_swap->bad_generation),
               static_cast<unsigned long long>(knn_swap->stats.knn_fired),
               static_cast<unsigned long long>(knn_swap->reloads),
               knn_swap_pass ? "true" : "false", quant_gate.top1_agreement,
               quant_gate.max_abs_prob_delta, quant_gate.requests,
               quant_gate.pass ? "true" : "false",
               static_cast<unsigned long long>(delta_swap->ok),
               static_cast<unsigned long long>(delta_swap->failed),
               static_cast<unsigned long long>(delta_swap->bad_generation),
               static_cast<unsigned long long>(delta_swap->delta_reloads),
               delta_swap_pass ? "true" : "false", reload.num_vertices,
               reload.scaled_vertices, reload.dim, reload.touched_rows,
               reload.v2_mmap_open_ms, reload.delta_apply_ms,
               reload.v2_mmap_open_scaled_ms, reload.delta_apply_scaled_ms,
               reload.v2_growth, reload.delta_growth,
               reload.v2_pass ? "true" : "false",
               reload.delta_pass ? "true" : "false");
  std::fclose(out);
  std::fprintf(stderr,
               "[bench_serve] written to bench_results/BENCH_serve.json\n");
  if (!all_pass) {
    std::fprintf(stderr, "[bench_serve] FAIL: SLO gate violated (see gates "
                         "line above)\n");
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace imr

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  return imr::Run(smoke);
}
