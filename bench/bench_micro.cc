// Substrate micro-benchmarks (google-benchmark): tensor ops, encoder
// throughput, LINE edge-sampling throughput, alias sampling, and the
// evaluation pipeline. These are the performance counters a user needs to
// size real workloads.
//
// Besides the google-benchmark suite, main() first runs a thread-scaling
// sweep over imr_threads in {1, 2, 4, 8} for the parallelised hot paths
// (MatMul forward/backward, Conv1dSame, LINE SGNS) and records ops/sec and
// speedup-vs-1-thread in bench_results/micro_scaling.tsv plus the
// machine-readable bench_results/BENCH_parallel.json, so every later PR has
// a perf trajectory to compare against. Each row also records the tensor
// buffer-pool hit/miss counts for its timed region (warmup excluded), so a
// steady-state allocation regression shows up as pool_misses > 0, and the
// row-sparse gradient counters (rows_touched / rows_total), so a sweep row
// whose touch rate creeps toward 1.0 flags a sparsity regression. The sweep
// includes embedding-dominated train steps over a vocab sweep up to the
// NYT-10 word vocabulary, where those columns are the interesting ones. Pass
// --skip_scaling to go straight to google-benchmark, --scaling_only to stop
// after the sweep, or --warmup_iters=N to grow the untimed warmup.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "datagen/presets.h"
#include "graph/alias_sampler.h"
#include "graph/line.h"
#include "graph/proximity_graph.h"
#include "nn/encoders.h"
#include "nn/init.h"
#include "nn/layers.h"
#include "nn/module.h"
#include "nn/optimizer.h"
#include "re/bag_dataset.h"
#include "tensor/buffer_pool.h"
#include "tensor/ops.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "util/tsv_writer.h"

namespace imr {
namespace {

void BM_MatMul(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  util::Rng rng(1);
  tensor::Tensor a = nn::NormalInit({n, n}, 1.0f, &rng);
  tensor::Tensor b = nn::NormalInit({n, n}, 1.0f, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tensor::MatMul(a, b));
  }
  state.SetItemsProcessed(state.iterations() * 2LL * n * n * n);
}
BENCHMARK(BM_MatMul)->Arg(64)->Arg(128)->Arg(256);

void BM_Conv1dSame(benchmark::State& state) {
  const int time = static_cast<int>(state.range(0));
  const int dim = 60, filters = 230, window = 3;
  util::Rng rng(2);
  tensor::Tensor x = nn::NormalInit({time, dim}, 1.0f, &rng);
  tensor::Tensor w = nn::NormalInit({filters, window * dim}, 0.1f, &rng);
  tensor::Tensor b = tensor::Tensor::Zeros({filters});
  for (auto _ : state) {
    benchmark::DoNotOptimize(tensor::Conv1dSame(x, w, b, window));
  }
  state.SetItemsProcessed(state.iterations() * time);
}
BENCHMARK(BM_Conv1dSame)->Arg(20)->Arg(60)->Arg(120);

void BM_SoftmaxBackward(benchmark::State& state) {
  util::Rng rng(3);
  tensor::Tensor x = nn::NormalInit({160, 53}, 1.0f, &rng);
  x.set_requires_grad(true);
  std::vector<int> labels(160, 1);
  for (auto _ : state) {
    x.ZeroGrad();
    tensor::Tensor loss = tensor::CrossEntropyLoss(x, labels);
    loss.Backward();
    benchmark::DoNotOptimize(loss.item());
  }
}
BENCHMARK(BM_SoftmaxBackward);

std::unique_ptr<nn::SentenceEncoder> MakeBenchEncoder(
    const std::string& kind, util::Rng* rng) {
  nn::EncoderConfig config;
  config.vocab_size = 2000;
  config.word_dim = 50;
  config.position_dim = 5;
  config.max_position = 60;
  config.filters = 230;
  config.dropout = 0.0f;
  return nn::MakeEncoder(kind, config, rng);
}

nn::EncoderInput MakeBenchSentence(int length, util::Rng* rng) {
  nn::EncoderInput input;
  for (int t = 0; t < length; ++t) {
    input.word_ids.push_back(static_cast<int>(rng->UniformInt(2000)));
    input.head_offsets.push_back(60 + t);
    input.tail_offsets.push_back(60 + t - length / 2);
  }
  input.head_index = 0;
  input.tail_index = length / 2;
  return input;
}

// `state.range(0)` 40-token sentences, passed to EncodeBatch as one span:
// the call training, Predict and serving make (PCNN runs one op per layer
// over the span; the other encoders run Encode per sentence). Arg 1 is one
// sentence, arg 4 a bag.
std::vector<nn::EncoderInput> MakeBenchSentences(const benchmark::State& state,
                                                 util::Rng* rng) {
  std::vector<nn::EncoderInput> sentences;
  for (int64_t s = 0; s < state.range(0); ++s) {
    sentences.push_back(MakeBenchSentence(40, rng));
  }
  return sentences;
}

std::vector<const nn::EncoderInput*> Pointers(
    const std::vector<nn::EncoderInput>& sentences) {
  std::vector<const nn::EncoderInput*> inputs;
  for (const nn::EncoderInput& sentence : sentences) {
    inputs.push_back(&sentence);
  }
  return inputs;
}

void BM_EncoderForward(benchmark::State& state, const std::string& kind) {
  util::Rng rng(4);
  auto encoder = MakeBenchEncoder(kind, &rng);
  encoder->SetTraining(false);
  const std::vector<nn::EncoderInput> sentences =
      MakeBenchSentences(state, &rng);
  const std::vector<const nn::EncoderInput*> inputs = Pointers(sentences);
  tensor::NoGradGuard no_grad;
  for (auto _ : state) {
    benchmark::DoNotOptimize(encoder->EncodeBatch(inputs, &rng));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK_CAPTURE(BM_EncoderForward, pcnn, "pcnn")->Arg(1)->Arg(4);
BENCHMARK_CAPTURE(BM_EncoderForward, cnn, "cnn")->Arg(1)->Arg(4);
BENCHMARK_CAPTURE(BM_EncoderForward, gru, "gru")->Arg(1)->Arg(4);
BENCHMARK_CAPTURE(BM_EncoderForward, bgwa, "bgwa")->Arg(1)->Arg(4);

void BM_EncoderTrainStep(benchmark::State& state) {
  util::Rng rng(5);
  auto encoder = MakeBenchEncoder("pcnn", &rng);
  const std::vector<nn::EncoderInput> sentences =
      MakeBenchSentences(state, &rng);
  const std::vector<const nn::EncoderInput*> inputs = Pointers(sentences);
  for (auto _ : state) {
    encoder->ZeroGrad();
    tensor::Tensor out = encoder->EncodeBatch(inputs, &rng);
    tensor::Sum(tensor::Mul(out, out)).Backward();
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EncoderTrainStep)->Arg(1)->Arg(4);

void BM_AliasSampler(benchmark::State& state) {
  util::Rng rng(6);
  std::vector<double> weights(100000);
  for (double& w : weights) w = rng.Uniform() + 0.01;
  graph::AliasSampler sampler(weights);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sampler.Sample(&rng));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AliasSampler);

void BM_LineTraining(benchmark::State& state) {
  datagen::PresetOptions options;
  options.scale = 0.5;
  datagen::SyntheticDataset dataset = datagen::MakeGdsLike(options);
  graph::ProximityGraph graph(dataset.world.graph.num_entities());
  graph.AddCorpus(dataset.unlabeled.sentences);
  graph.Finalize(2);
  for (auto _ : state) {
    graph::LineConfig config;
    config.dim = 64;
    config.samples_per_edge = 50;
    benchmark::DoNotOptimize(graph::TrainLine(graph, config));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(graph.edges().size()) * 50);
  state.SetLabel(std::to_string(graph.edges().size()) + " edges");
}
BENCHMARK(BM_LineTraining);

void BM_ProximityGraphBuild(benchmark::State& state) {
  datagen::PresetOptions options;
  options.scale = 1.0;
  datagen::SyntheticDataset dataset = datagen::MakeGdsLike(options);
  for (auto _ : state) {
    graph::ProximityGraph graph(dataset.world.graph.num_entities());
    graph.AddCorpus(dataset.unlabeled.sentences);
    graph.Finalize(2);
    benchmark::DoNotOptimize(graph.edges().size());
  }
  state.SetItemsProcessed(
      state.iterations() *
      static_cast<int64_t>(dataset.unlabeled.sentences.size()));
}
BENCHMARK(BM_ProximityGraphBuild);

// ---- thread-scaling sweep -------------------------------------------------

struct ScalingRow {
  std::string bench;
  int threads = 1;
  double ops_per_sec = 0.0;
  double speedup = 1.0;  // vs the 1-thread row of the same bench
  // Buffer-pool traffic during the timed region (warmup excluded). A warm
  // steady state shows pool_misses == 0; a nonzero value flags an
  // allocation regression on that path.
  uint64_t pool_hits = 0;
  uint64_t pool_misses = 0;
  // Row-sparse gradient traffic during the timed region: rows the
  // optimizer walked vs rows a dense pass would have walked. 0/0 for
  // benches with no row-sparse parameters; for the embed_step sweep a
  // touch rate near 1.0 (or rows_total inflated by dense fallbacks) flags
  // a sparsity regression.
  uint64_t rows_touched = 0;
  uint64_t rows_total = 0;
};

// Embedding-dominated training step for the vocab sweep: table lookup,
// linear head, cross-entropy, fused SGD update. Dominated by the gradient
// path of the `vocab × dim` table, which is the point.
struct EmbedStepModel : nn::Module {
  EmbedStepModel(int vocab, int dim, int classes, util::Rng* rng)
      : embed(vocab, dim, rng), out(dim, classes, rng) {
    RegisterChild("embed", &embed);
    RegisterChild("out", &out);
  }
  nn::Embedding embed;
  nn::Linear out;
};

// Warmup calls before the timed region; --warmup_iters=N overrides. More
// warmup stabilises paths that lazily grow state (thread pools, the tensor
// buffer pool) before the steady state is measured.
int g_warmup_iters = 1;

// Calls `body` (which performs `ops_per_call` units of work) repeatedly for
// at least `min_seconds` of wall clock and returns ops/sec. Pool and
// sparse-gradient counters are reset after warmup so the caller can read
// the timed region's traffic from tensor::PoolStats() /
// tensor::SparseGradStats().
template <typename Body>
double MeasureOpsPerSec(const Body& body, double ops_per_call,
                        double min_seconds = 0.2) {
  using clock = std::chrono::steady_clock;
  for (int i = 0; i < g_warmup_iters; ++i) body();
  tensor::ResetPoolStats();
  tensor::ResetSparseGradStats();
  int64_t calls = 0;
  const auto start = clock::now();
  double elapsed = 0.0;
  do {
    body();
    ++calls;
    elapsed = std::chrono::duration<double>(clock::now() - start).count();
  } while (elapsed < min_seconds);
  return static_cast<double>(calls) * ops_per_call / elapsed;
}

void RunScalingSweep() {
  const std::vector<int> thread_counts = {1, 2, 4, 8};
  std::vector<ScalingRow> rows;

  const int n = 256;
  util::Rng rng(11);
  tensor::Tensor a = nn::NormalInit({n, n}, 1.0f, &rng);
  tensor::Tensor b = nn::NormalInit({n, n}, 1.0f, &rng);
  tensor::Tensor ag = nn::NormalInit({n, n}, 1.0f, &rng);
  tensor::Tensor bg = nn::NormalInit({n, n}, 1.0f, &rng);
  ag.set_requires_grad(true);
  bg.set_requires_grad(true);

  const int time = 120, dim = 60, filters = 230, window = 3;
  tensor::Tensor cx = nn::NormalInit({time, dim}, 1.0f, &rng);
  tensor::Tensor cw = nn::NormalInit({filters, window * dim}, 0.1f, &rng);
  tensor::Tensor cb = tensor::Tensor::Zeros({filters});

  datagen::PresetOptions options;
  options.scale = 0.25;
  datagen::SyntheticDataset dataset = datagen::MakeGdsLike(options);
  graph::ProximityGraph graph(dataset.world.graph.num_entities());
  graph.AddCorpus(dataset.unlabeled.sentences);
  graph.Finalize(2);
  const int64_t line_samples_per_edge = 50;
  const double line_ops = static_cast<double>(graph.edges().size()) *
                          static_cast<double>(line_samples_per_edge);

  // Vocab sweep for the embedding step, up to the NYT-10 word vocabulary.
  // The models persist across thread counts (training just keeps going);
  // what the sweep measures is steady-state step throughput and the
  // touched-row fraction, neither of which cares about the weights.
  const std::vector<int> embed_vocabs = {2000, 20000, 114042};
  const int embed_dim = 50, embed_classes = 53, embed_batch = 128;
  std::vector<std::unique_ptr<EmbedStepModel>> embed_models;
  std::vector<std::unique_ptr<nn::Sgd>> embed_opts;
  std::vector<std::vector<int>> embed_indices, embed_labels;
  for (int vocab : embed_vocabs) {
    embed_models.push_back(std::make_unique<EmbedStepModel>(
        vocab, embed_dim, embed_classes, &rng));
    embed_opts.push_back(std::make_unique<nn::Sgd>(
        embed_models.back().get(), 0.3f, 0.0f, /*clip_norm=*/1.0f));
    std::vector<int> indices(static_cast<size_t>(embed_batch));
    std::vector<int> labels(static_cast<size_t>(embed_batch));
    for (int i = 0; i < embed_batch; ++i) {
      indices[static_cast<size_t>(i)] =
          static_cast<int>(rng.UniformInt(static_cast<uint64_t>(vocab)));
      labels[static_cast<size_t>(i)] = static_cast<int>(
          rng.UniformInt(static_cast<uint64_t>(embed_classes)));
    }
    embed_indices.push_back(std::move(indices));
    embed_labels.push_back(std::move(labels));
  }

  for (int threads : thread_counts) {
    util::SetGlobalThreads(threads);

    // MeasureOpsPerSec resets the pool and sparse-gradient counters after
    // warmup, so the snapshots taken here cover exactly the timed region.
    auto add_row = [&rows, threads](const std::string& name,
                                    double ops_per_sec) {
      const tensor::PoolStatsSnapshot pool = tensor::PoolStats();
      const tensor::SparseGradStatsSnapshot sparse =
          tensor::SparseGradStats();
      rows.push_back({name, threads, ops_per_sec, 1.0, pool.total_hits(),
                      pool.total_misses(), sparse.rows_touched,
                      sparse.rows_total});
    };

    add_row("matmul256_forward",
            MeasureOpsPerSec(
                [&] {
                  tensor::NoGradGuard no_grad;
                  benchmark::DoNotOptimize(tensor::MatMul(a, b));
                },
                2.0 * n * n * n));

    add_row("matmul256_train_step",
            MeasureOpsPerSec(
                [&] {
                  ag.ZeroGrad();
                  bg.ZeroGrad();
                  tensor::Sum(tensor::MatMul(ag, bg)).Backward();
                },
                // forward + dA + dB
                3.0 * 2.0 * n * n * n));

    add_row("conv1d_forward",
            MeasureOpsPerSec(
                [&] {
                  tensor::NoGradGuard no_grad;
                  benchmark::DoNotOptimize(
                      tensor::Conv1dSame(cx, cw, cb, window));
                },
                2.0 * time * filters * window * dim));

    add_row("line_sgns",
            MeasureOpsPerSec(
                [&] {
                  graph::LineConfig config;
                  config.dim = 64;
                  config.samples_per_edge = line_samples_per_edge;
                  config.threads = threads;
                  benchmark::DoNotOptimize(
                      graph::TrainLine(graph, config));
                },
                line_ops, /*min_seconds=*/0.5));

    for (size_t vi = 0; vi < embed_vocabs.size(); ++vi) {
      EmbedStepModel& model = *embed_models[vi];
      nn::Sgd& opt = *embed_opts[vi];
      const std::vector<int>& indices = embed_indices[vi];
      const std::vector<int>& labels = embed_labels[vi];
      add_row("embed_step_v" + std::to_string(embed_vocabs[vi]),
              MeasureOpsPerSec(
                  [&] {
                    tensor::Tensor e = model.embed.Forward(indices);
                    tensor::Tensor logits = model.out.Forward(e);
                    tensor::CrossEntropyLoss(logits, labels).Backward();
                    opt.Step();
                  },
                  static_cast<double>(embed_batch)));
    }
  }
  util::SetGlobalThreads(0);  // restore default for the benchmark suite

  // Speedup vs the 1-thread row of the same benchmark.
  for (ScalingRow& row : rows) {
    for (const ScalingRow& base : rows) {
      if (base.bench == row.bench && base.threads == 1) {
        row.speedup = base.ops_per_sec > 0 ? row.ops_per_sec / base.ops_per_sec
                                           : 0.0;
        break;
      }
    }
  }

  (void)util::MakeDirectories("bench_results");
  {
    util::TsvWriter writer("bench_results/micro_scaling.tsv");
    writer.WriteRow({"bench", "threads", "ops_per_sec", "speedup_vs_1",
                     "pool_hits", "pool_misses", "rows_touched",
                     "rows_total"});
    for (const ScalingRow& row : rows) {
      char ops[64], speedup[64];
      std::snprintf(ops, sizeof(ops), "%.3e", row.ops_per_sec);
      std::snprintf(speedup, sizeof(speedup), "%.3f", row.speedup);
      writer.WriteRow({row.bench, std::to_string(row.threads), ops, speedup,
                       std::to_string(row.pool_hits),
                       std::to_string(row.pool_misses),
                       std::to_string(row.rows_touched),
                       std::to_string(row.rows_total)});
    }
    util::Status status = writer.Close();
    if (!status.ok())
      std::fprintf(stderr, "cannot write micro_scaling.tsv: %s\n",
                   status.ToString().c_str());
  }
  {
    std::FILE* out = std::fopen("bench_results/BENCH_parallel.json", "w");
    if (out == nullptr) {
      std::fprintf(stderr, "cannot write BENCH_parallel.json\n");
      return;
    }
    std::fprintf(out, "{\n  \"hardware_concurrency\": %u,\n  \"results\": [\n",
                 std::thread::hardware_concurrency());
    for (size_t i = 0; i < rows.size(); ++i) {
      const ScalingRow& row = rows[i];
      std::fprintf(out,
                   "    {\"bench\": \"%s\", \"threads\": %d, "
                   "\"ops_per_sec\": %.6e, \"speedup_vs_1\": %.4f, "
                   "\"pool_hits\": %llu, \"pool_misses\": %llu, "
                   "\"rows_touched\": %llu, \"rows_total\": %llu}%s\n",
                   row.bench.c_str(), row.threads, row.ops_per_sec,
                   row.speedup,
                   static_cast<unsigned long long>(row.pool_hits),
                   static_cast<unsigned long long>(row.pool_misses),
                   static_cast<unsigned long long>(row.rows_touched),
                   static_cast<unsigned long long>(row.rows_total),
                   i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(out, "  ]\n}\n");
    std::fclose(out);
  }
  std::fprintf(stderr,
               "[bench_micro] scaling sweep written to "
               "bench_results/micro_scaling.tsv and BENCH_parallel.json\n");
}

}  // namespace
}  // namespace imr

int main(int argc, char** argv) {
  bool skip_scaling = false;
  bool scaling_only = false;
  // Strip our flags before google-benchmark sees (and rejects) them.
  int out_argc = 0;
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--skip_scaling") == 0) {
      skip_scaling = true;
    } else if (std::strcmp(argv[i], "--scaling_only") == 0) {
      scaling_only = true;
    } else if (std::strncmp(argv[i], "--warmup_iters=", 15) == 0) {
      const int warmup = std::atoi(argv[i] + 15);
      if (warmup >= 0) imr::g_warmup_iters = warmup;
    } else {
      argv[out_argc++] = argv[i];
    }
  }
  argc = out_argc;
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  if (!skip_scaling) imr::RunScalingSweep();
  if (!scaling_only) benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
