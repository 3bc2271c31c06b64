// Serving benchmark: the two serving gates that measure time. It trains a
// small PA-TMR on the NYT preset (bench/serve_setup.h, shared with
// serve_test's int8 gate), snapshots it to a temporary directory, and runs
//
//   engine-sync t1
//              one client calling a bare InferenceEngine::Predict on its
//              own thread: the single-client latency floor
//   router-batch r4 s8
//              the same replay through a ServeRouter with 4 replicas of one
//              worker each and an 8-shard MR cache, submitted as one batch.
//              Admission control bounds concurrent forwards to the core
//              count, so queue wait stays out of the forwards.
//   reload     open/apply microbench at NYT entity scale (114042 x 50) and
//              at 8x the rows: mmap snapshot open and a delta apply that
//              touches 228 rows at both sizes
//
// Gates (exit nonzero on violation, in full and --smoke mode):
//   tail    router-batch r4 s8 p99 <= 10x the engine-sync t1 p99 (both
//           from the engines' service-time rings)
//   reload  neither mmap open nor delta apply (same 228 rows) grows by
//           more than 3x when the entity table grows 8x
//
// The serving properties that do not depend on wall time (sharded cache
// hits, zero-failure hot swaps over plain, int8 and kNN snapshots, chained
// delta swaps, int8 parity with fp32) are ctest cases in
// tests/serve_test.cc.
//
// Writes bench_results/BENCH_serve.json under the working directory.
// --smoke runs a reduced replay (smaller preset, fewer epochs, requests
// and reload repeats); scripts/check.sh wires it in as the serve-smoke
// stage.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "imr.h"
#include "serve_setup.h"

namespace imr {
namespace {

void CheckOk(const util::Status& status) {
  if (!status.ok()) {
    std::fprintf(stderr, "bench_serve: %s\n", status.ToString().c_str());
    std::abort();
  }
}

// engine-sync t1, the single-client floor: one thread calling a bare
// engine's Predict, with no router, queue or admission in the way.
serve::EngineStats RunEngineSyncCell(
    const std::string& snapshot_path,
    const std::vector<serve::Query>& requests) {
  serve::EngineOptions options;
  options.top_k = 1;
  options.cache_shards = 1;
  auto engine = serve::InferenceEngine::Open(snapshot_path, options);
  CheckOk(engine.status());
  for (const serve::Query& query : requests) {
    CheckOk((*engine)->Predict(query).status());
  }
  return (*engine)->Stats();
}

// router-batch r4 s8: the whole replay as one PredictBatch through 4
// single-worker replicas.
serve::EngineStats RunRouterBatchCell(
    const std::string& snapshot_path,
    const std::vector<serve::Query>& requests) {
  serve::RouterOptions options;
  options.replicas = 4;
  options.workers_per_replica = 1;
  options.engine.top_k = 1;
  options.engine.cache_shards = 8;
  auto router = serve::ServeRouter::Open(snapshot_path, options);
  CheckOk(router.status());
  for (const auto& result : (*router)->PredictBatch(requests)) {
    CheckOk(result.status());
  }
  return (*router)->Stats().aggregate;
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

int Run(bool smoke) {
  // --- train a small pipeline on the NYT preset and snapshot it ----------
  const std::unique_ptr<bench::ServeSetup> setup =
      bench::MakeServeSetup(smoke);
  std::string scratch_dir =
      (std::filesystem::temp_directory_path() / "bench_serve.XXXXXX")
          .string();
  IMR_CHECK(mkdtemp(scratch_dir.data()) != nullptr);
  const std::string snapshot_path = scratch_dir + "/serve_model.imrs";
  CheckOk(setup->Save(snapshot_path));
  std::printf(
      "bench_serve%s: %zu unique pairs, %zu requests, %d relations\n",
      smoke ? " (smoke)" : "", setup->unique_queries.size(),
      setup->requests.size(), setup->bags.num_relations());

  const serve::EngineStats engine_sync =
      RunEngineSyncCell(snapshot_path, setup->requests);
  const serve::EngineStats router_batch =
      RunRouterBatchCell(snapshot_path, setup->requests);
  std::filesystem::remove_all(scratch_dir);
  CheckOk(util::MakeDirectories("bench_results"));
  const ReloadBench reload = RunReloadBench(smoke);

  // --- gates --------------------------------------------------------------
  const double tail_ratio =
      engine_sync.p99_latency_us > 0.0
          ? router_batch.p99_latency_us / engine_sync.p99_latency_us
          : 0.0;
  const bool tail_pass = tail_ratio <= 10.0;
  const bool all_pass = tail_pass && reload.v2_pass && reload.delta_pass;

  // --- report -------------------------------------------------------------
  std::printf("%-20s %9s %9s %9s %9s %9s\n", "cell", "qps", "p50_us",
              "p99_us", "p999_us", "mean_us");
  const std::pair<const char*, const serve::EngineStats*> cells[] = {
      {"engine-sync t1", &engine_sync},
      {"router-batch r4 s8", &router_batch}};
  for (const auto& [name, stats] : cells) {
    std::printf("%-20s %9.0f %9.0f %9.0f %9.0f %9.0f\n", name, stats->qps,
                stats->p50_latency_us, stats->p99_latency_us,
                stats->p999_latency_us, stats->mean_latency_us);
  }
  std::printf("gates: tail p99 ratio %.2f (<= 10) %s\n", tail_ratio,
              tail_pass ? "PASS" : "FAIL");
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
               smoke ? "true" : "false", setup->requests.size(),
               setup->unique_queries.size());
  std::fprintf(out,
               "  \"gates\": {\n"
               "    \"tail\": {\"engine_sync_p99_us\": %.2f, "
               "\"router_batch_p99_us\": %.2f, \"p99_ratio\": %.4f, "
               "\"max\": 10.0, \"pass\": %s},\n"
               "    \"reload\": {\"num_vertices\": %d, "
               "\"scaled_vertices\": %d, \"dim\": %d, "
               "\"touched_rows\": %d, \"v2_mmap_open_ms\": %.3f, "
               "\"delta_apply_ms\": %.3f, \"v2_mmap_open_scaled_ms\": %.3f, "
               "\"delta_apply_scaled_ms\": %.3f, \"v2_growth\": %.2f, "
               "\"delta_growth\": %.2f, \"growth_max\": 3.0, "
               "\"v2_pass\": %s, \"delta_pass\": %s}\n"
               "  }\n}\n",
               engine_sync.p99_latency_us, router_batch.p99_latency_us,
               tail_ratio, tail_pass ? "true" : "false", reload.num_vertices,
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
