// Buffer-pool behaviour: bucket reuse and counters, the disabled-guard
// bypass, bit-identity of pooled vs unpooled execution, EnsureGrad storage
// stability, and the headline property the pool exists for — a warmed-up
// training step and a cached serve Predict run with ZERO pool misses. A
// Predict's pool traffic must not grow with the relation count (one pass
// scores every relation). Each thread's pool holds only its own working
// set: buffers released on a thread that did not acquire them are freed,
// a full PA-TMR step (sequential, and data-parallel on four threads) runs
// with zero misses and flat pooled bytes, and snapshot reloads at rest on
// a thread that has trained and served neither miss nor move its pooled
// bytes. The last tests migrate buffers across threads for TSan coverage
// and exit the process with live worker pools for ASan.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "datagen/presets.h"
#include "graph/line.h"
#include "graph/proximity_graph.h"
#include "nn/init.h"
#include "nn/layers.h"
#include "nn/module.h"
#include "nn/optimizer.h"
#include "pa_step.h"
#include "re/bag_dataset.h"
#include "re/pa_model.h"
#include "re/trainer.h"
#include "serve/inference_engine.h"
#include "serve/router.h"
#include "serve/snapshot.h"
#include "tensor/buffer_pool.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace imr {
namespace {

using tensor::PoolStats;
using tensor::ResetPoolStats;
using tensor::Tensor;
using tensor::internal::AcquireBuffer;
using tensor::internal::ReleaseBuffer;
using tensor::internal::TrimThreadPool;

TEST(BufferPoolTest, BucketReuseAndCounters) {
  TrimThreadPool();  // start from an empty pool so hit/miss is deterministic
  ResetPoolStats();

  std::vector<float> a = AcquireBuffer(100);  // empty pool: miss
  EXPECT_EQ(a.size(), 100u);
  EXPECT_GE(a.capacity(), 128u);  // reserved to the full size class
  const float* storage = a.data();
  ReleaseBuffer(std::move(a));

  // 120 rounds up to the same 128 size class, so the released buffer
  // serves it.
  std::vector<float> b = AcquireBuffer(120);
  EXPECT_EQ(b.size(), 120u);
  EXPECT_EQ(b.data(), storage);

  // 129 needs the next class up: another miss.
  std::vector<float> c = AcquireBuffer(129);

  tensor::PoolStatsSnapshot stats = PoolStats();
  EXPECT_EQ(stats.buffer_hits, 1u);
  EXPECT_EQ(stats.buffer_misses, 2u);

  ReleaseBuffer(std::move(b));
  ReleaseBuffer(std::move(c));
  EXPECT_GE(PoolStats().pooled_buffers, 2u);
}

TEST(BufferPoolTest, AcquireBufferFillInitializes) {
  // Recycled storage holds stale floats; Fill must overwrite every element.
  std::vector<float> dirty = AcquireBuffer(64);
  for (float& v : dirty) v = 123.0f;
  ReleaseBuffer(std::move(dirty));
  std::vector<float> filled = tensor::internal::AcquireBufferFill(64, 2.5f);
  for (float v : filled) EXPECT_EQ(v, 2.5f);
  ReleaseBuffer(std::move(filled));
}

TEST(BufferPoolTest, DisabledGuardBypassesPool) {
  TrimThreadPool();
  ResetPoolStats();
  EXPECT_TRUE(tensor::PoolEnabled());
  {
    tensor::PoolDisabledGuard guard;
    EXPECT_FALSE(tensor::PoolEnabled());
    std::vector<float> buf = AcquireBuffer(64);
    EXPECT_EQ(buf.size(), 64u);
    for (float v : buf) EXPECT_EQ(v, 0.0f);  // disabled path zero-inits
    ReleaseBuffer(std::move(buf));
  }
  EXPECT_TRUE(tensor::PoolEnabled());
  tensor::PoolStatsSnapshot stats = PoolStats();
  EXPECT_EQ(stats.buffer_hits, 0u);
  EXPECT_EQ(stats.buffer_misses, 0u);
  EXPECT_EQ(stats.pooled_buffers, 0u);  // nothing was cached
}

TEST(BufferPoolTest, PooledVsUnpooledBitIdentical) {
  util::Rng rng(17);
  nn::Linear layer(8, 5, &rng);
  Tensor x = nn::NormalInit({4, 8}, 1.0f, &rng);
  const std::vector<int> labels = {0, 2, 4, 1};

  auto run = [&] {
    layer.ZeroGrad();
    Tensor loss = tensor::CrossEntropyLoss(layer.ForwardTanh(x), labels);
    loss.Backward();
    struct Result {
      float loss;
      std::vector<float> gw, gb;
    };
    return Result{loss.item(), layer.weight().grad(), layer.bias().grad()};
  };

  run();  // warm the pool so the pooled run reuses recycled storage
  const auto pooled = run();
  tensor::PoolDisabledGuard guard;
  const auto unpooled = run();
  EXPECT_EQ(pooled.loss, unpooled.loss);
  EXPECT_EQ(pooled.gw, unpooled.gw);
  EXPECT_EQ(pooled.gb, unpooled.gb);
}

TEST(BufferPoolTest, EnsureGradKeepsStorageAcrossSteps) {
  Tensor x = Tensor::FromData({16}, std::vector<float>(16, 0.5f),
                              /*requires_grad=*/true);
  tensor::Sum(tensor::Mul(x, x)).Backward();
  ASSERT_EQ(x.grad().size(), 16u);
  const float* storage = x.grad().data();
  x.ZeroGrad();
  tensor::Sum(tensor::Mul(x, x)).Backward();
  // The second backward must reuse the zeroed buffer, not reallocate.
  EXPECT_EQ(x.grad().data(), storage);
}

// A small but representative model: embedding lookup, fused affine+tanh,
// dropout, linear head, fused cross-entropy — every hot op family.
struct TinyModel : nn::Module {
  explicit TinyModel(util::Rng* rng)
      : embed(50, 16, rng), hidden(16, 12, rng), out(12, 4, rng) {
    RegisterChild("embed", &embed);
    RegisterChild("hidden", &hidden);
    RegisterChild("out", &out);
  }
  nn::Embedding embed;
  nn::Linear hidden;
  nn::Linear out;
};

TEST(BufferPoolTest, ZeroMissSteadyStateTrainingStep) {
  const int saved_threads = util::GlobalThreads();
  util::SetGlobalThreads(1);  // single thread: one pool, deterministic reuse
  util::Rng rng(7);
  TinyModel model(&rng);
  nn::Sgd opt(&model, 0.1f);
  util::Rng dropout_rng(99);
  const std::vector<int> indices = {1, 4, 7, 2, 9, 30};
  const std::vector<int> labels = {0, 2, 1, 3, 0, 2};

  auto step = [&] {
    Tensor emb = model.embed.Forward(indices);
    Tensor h = model.hidden.ForwardTanh(emb);
    Tensor d = tensor::Dropout(h, 0.25f, &dropout_rng, /*training=*/true);
    Tensor logits = model.out.Forward(d);
    Tensor loss = tensor::CrossEntropyLoss(logits, labels);
    loss.Backward();
    opt.Step();
  };

  for (int i = 0; i < 3; ++i) step();  // warmup populates the pool
  ResetPoolStats();
  for (int i = 0; i < 5; ++i) step();
  tensor::PoolStatsSnapshot stats = PoolStats();
  EXPECT_EQ(stats.total_misses(), 0u)
      << "buffer_misses=" << stats.buffer_misses
      << " node_misses=" << stats.node_misses;
  EXPECT_GT(stats.total_hits(), 0u);
  util::SetGlobalThreads(saved_threads);
}

TEST(BufferPoolTest, ZeroMissCachedServePredict) {
  const int saved_threads = util::GlobalThreads();
  util::SetGlobalThreads(1);

  // A slimmed-down version of the serve_test pipeline: train briefly, save
  // a snapshot, and serve it. Prediction quality is irrelevant here — only
  // the allocation behaviour of the warmed-up Predict path.
  datagen::PresetOptions preset;
  preset.scale = 0.5;
  preset.seed = 7;
  datagen::SyntheticDataset dataset = datagen::MakeGdsLike(preset);
  re::BagDatasetOptions bag_options;
  bag_options.max_sentence_length = 40;
  bag_options.max_position = 20;
  re::BagDataset bags =
      re::BagDataset::Build(dataset.world.graph, dataset.corpus.train,
                            dataset.corpus.test, bag_options);
  graph::ProximityGraph proximity(dataset.world.graph.num_entities());
  proximity.AddCorpus(dataset.unlabeled.sentences);
  proximity.Finalize(2);
  graph::LineConfig line;
  line.dim = 16;
  line.samples_per_edge = 60;
  graph::EmbeddingStore embeddings = graph::TrainLine(proximity, line);
  ASSERT_TRUE(bags.AttachMutualRelations(embeddings).ok());

  re::PaModelConfig config;
  config.num_relations = bags.num_relations();
  config.encoder = "pcnn";
  config.aggregation = re::Aggregation::kAttention;
  config.use_mutual_relation = true;
  config.mutual_relation_dim = embeddings.dim();
  config.encoder_config.vocab_size = bags.vocabulary().size();
  config.encoder_config.word_dim = 8;
  config.encoder_config.position_dim = 3;
  config.encoder_config.max_position = 20;
  config.encoder_config.filters = 8;

  util::Rng rng(1);
  re::PaModel model(config, &rng);
  re::TrainerConfig trainer_config;
  trainer_config.epochs = 1;
  trainer_config.batch_size = 32;
  trainer_config.optimizer = "sgd";
  trainer_config.learning_rate = 0.1f;
  trainer_config.seed = 3;
  re::Trainer trainer(&model, trainer_config);
  trainer.Train(bags.train_bags());
  model.SetTraining(false);

  const std::string path =
      testing::TempDir() + "/imr_buffer_pool_test.imrs";
  ASSERT_TRUE(serve::SaveSnapshot(model, bags.vocabulary(), embeddings,
                                  dataset.world.graph, bag_options,
                                  /*trained_steps=*/1, "buffer_pool_test",
                                  path)
                  .ok());

  auto engine_or = serve::InferenceEngine::Open(path);
  ASSERT_TRUE(engine_or.ok()) << engine_or.status().message();
  std::unique_ptr<serve::InferenceEngine> engine =
      std::move(engine_or).value();

  // Build one query from a held-out bag that has test-corpus sentences.
  serve::Query query;
  for (const re::Bag& bag : bags.test_bags()) {
    std::vector<text::Sentence> sentences;
    for (const text::LabeledSentence& labeled : dataset.corpus.test) {
      if (labeled.sentence.head_entity == bag.head &&
          labeled.sentence.tail_entity == bag.tail) {
        sentences.push_back(labeled.sentence);
        if (sentences.size() >= 4) break;
      }
    }
    if (sentences.empty()) continue;
    query.head = bag.head;
    query.tail = bag.tail;
    query.sentences = std::move(sentences);
    break;
  }
  ASSERT_GE(query.head, 0);

  // Two warmup calls: the first misses (cold pool + cold MR cache), the
  // second fills any remaining gaps. After that a cached Predict must be
  // fully served from recycled storage.
  ASSERT_TRUE(engine->Predict(query).ok());
  ASSERT_TRUE(engine->Predict(query).ok());
  ResetPoolStats();
  auto prediction = engine->Predict(query);
  ASSERT_TRUE(prediction.ok());
  EXPECT_TRUE(prediction.value().mr_cache_hit);
  tensor::PoolStatsSnapshot stats = PoolStats();
  EXPECT_EQ(stats.total_misses(), 0u)
      << "buffer_misses=" << stats.buffer_misses
      << " node_misses=" << stats.node_misses;
  EXPECT_GT(stats.total_hits(), 0u);
  std::remove(path.c_str());
  util::SetGlobalThreads(saved_threads);
}

TEST(BufferPoolTest, PredictPoolTrafficIndependentOfRelationCount) {
  const int saved_threads = util::GlobalThreads();
  util::SetGlobalThreads(1);
  datagen::PresetOptions preset;
  preset.scale = 0.3;
  preset.seed = 7;
  datagen::SyntheticDataset dataset = datagen::MakeGdsLike(preset);
  re::BagDatasetOptions bag_options;
  bag_options.max_sentence_length = 40;
  bag_options.max_position = 20;
  re::BagDataset bags =
      re::BagDataset::Build(dataset.world.graph, dataset.corpus.train,
                            dataset.corpus.test, bag_options);
  re::Bag bag = bags.train_bags().front();
  bag.mutual_relation.assign(8, 0.25f);

  // The same bag through the same encoder (same seed, encoder built first),
  // PA-TMR heads sized to 5 and to 53 relations.
  auto acquires = [&](int num_relations) {
    re::PaModelConfig config;
    config.num_relations = num_relations;
    config.encoder = "pcnn";
    config.aggregation = re::Aggregation::kAttention;
    config.use_mutual_relation = true;
    config.use_entity_type = true;
    config.mutual_relation_dim = 8;
    config.type_dim = 4;
    config.encoder_config.vocab_size = bags.vocabulary().size();
    config.encoder_config.word_dim = 8;
    config.encoder_config.position_dim = 3;
    config.encoder_config.max_position = 20;
    config.encoder_config.filters = 8;
    util::Rng rng(5);
    re::PaModel model(config, &rng);
    model.SetTraining(false);
    model.Predict(bag);  // warm the pool
    ResetPoolStats();
    model.Predict(bag);
    const tensor::PoolStatsSnapshot stats = PoolStats();
    return stats.total_hits() + stats.total_misses();
  };
  const uint64_t small = acquires(5);
  const uint64_t large = acquires(53);
  EXPECT_GT(small, 0u);
  EXPECT_EQ(small, large) << "pool acquisitions grew with num_relations";
  util::SetGlobalThreads(saved_threads);
}

// Sizes the global pool for one test and puts the previous size back.
class ScopedGlobalThreads {
 public:
  explicit ScopedGlobalThreads(int threads) : saved_(util::GlobalThreads()) {
    util::SetGlobalThreads(threads);
  }
  ~ScopedGlobalThreads() { util::SetGlobalThreads(saved_); }

 private:
  int saved_;
};

TEST(BufferPoolTest, ReleasingThreadKeepsOnlyItsOwnWorkingSet) {
  // Thread A acquires 64 buffers of the 1024-float class and 32 tensors
  // (value buffers plus node blocks); thread B, whose own working set is
  // two such buffers and one such tensor, releases all of them.
  constexpr size_t kFloats = 1000;  // size class 2^10
  std::vector<std::vector<float>> buffers;
  std::vector<Tensor> tensors;
  std::thread a([&] {
    for (int i = 0; i < 64; ++i) buffers.push_back(AcquireBuffer(kFloats));
    for (int i = 0; i < 32; ++i) tensors.push_back(Tensor::Zeros({4, 4}));
  });
  a.join();
  // Nothing else runs meanwhile, so the all-thread gauges move only with
  // thread B's pool.
  tensor::PoolStatsSnapshot start, own, after;
  std::thread b([&] {
    start = PoolStats();
    {
      std::vector<float> x = AcquireBuffer(kFloats);
      std::vector<float> y = AcquireBuffer(kFloats);
      Tensor t = Tensor::Zeros({4, 4});
      ReleaseBuffer(std::move(x));
      ReleaseBuffer(std::move(y));
    }
    own = PoolStats();
    for (std::vector<float>& buffer : buffers) ReleaseBuffer(std::move(buffer));
    tensors.clear();
    after = PoolStats();
  });
  b.join();
  // Two 1024-float buffers and one tensor value.
  EXPECT_EQ(own.pooled_buffers - start.pooled_buffers, 3u);
  EXPECT_EQ(after.pooled_buffers, own.pooled_buffers);
  EXPECT_EQ(after.pooled_bytes, own.pooled_bytes)
      << "thread B cached buffers and node blocks acquired on thread A";
}

// The PA-TMR set-up bench_kernels' smoke gate trains, built once for the
// tests below.
const bench::PaStepSetup& GetPaSetup() {
  static const std::unique_ptr<bench::PaStepSetup> setup =
      bench::MakePaStepSetup(/*scale=*/0.5);
  return *setup;
}

TEST(BufferPoolTest, ZeroMissSequentialPaModelStep) {
  ScopedGlobalThreads threads(1);
  const bench::PaStepSetup& s = GetPaSetup();
  util::Rng init(3);
  re::PaModel model(s.config, &init);
  model.SetTraining(true);
  nn::Adam adam(&model, 0.01f);
  util::Rng rng(5);
  std::vector<const re::Bag*> batch;
  for (const re::Bag& bag : s.same_shape_batch) batch.push_back(&bag);
  auto step = [&] {
    model.ZeroGrad();
    Tensor loss = model.BatchLoss(batch, &rng);
    loss.Backward();
    adam.Step();
  };
  for (int i = 0; i < 3; ++i) step();  // warm-up
  ResetPoolStats();
  const uint64_t pooled = PoolStats().pooled_bytes;
  for (int i = 0; i < 5; ++i) {
    step();
    EXPECT_EQ(PoolStats().pooled_bytes, pooled) << "step " << i;
  }
  const tensor::PoolStatsSnapshot stats = PoolStats();
  EXPECT_EQ(stats.total_misses(), 0u)
      << "buffer_misses=" << stats.buffer_misses
      << " node_misses=" << stats.node_misses;
  EXPECT_GT(stats.total_hits(), 0u);
}

TEST(BufferPoolTest, ZeroMissDataParallelPaModelStep) {
  // Three warm-up and five measured Trainer epochs of one batch each on
  // four global threads.
  const bench::PaStepResult result =
      bench::RunPaStep(GetPaSetup(), GetPaSetup().same_shape_batch,
                       /*warmup_epochs=*/3, /*threads=*/4);
  ASSERT_EQ(result.pooled_after.size(), 5u);
  for (uint64_t bytes : result.pooled_after) {
    EXPECT_EQ(bytes, result.pooled_at_warmup);
  }
  EXPECT_EQ(result.misses, 0u);
  EXPECT_GT(result.acquires, 0u);
}

TEST(BufferPoolTest, SnapshotReloadsAtRestKeepPooledBytesFlat) {
  ScopedGlobalThreads threads(1);
  const bench::PaStepSetup& s = GetPaSetup();
  util::Rng init(3);
  re::PaModel model(s.config, &init);
  model.SetTraining(false);
  const std::string path =
      testing::TempDir() + "/imr_buffer_pool_reload_test.imrs";
  ASSERT_TRUE(serve::SaveSnapshot(model, s.bags.vocabulary(), s.embeddings,
                                  s.dataset.world.graph, s.bag_options,
                                  /*trained_steps=*/1, "reload_test", path)
                  .ok());
  auto router_or = serve::ServeRouter::Open(path);
  ASSERT_TRUE(router_or.ok()) << router_or.status().message();
  std::unique_ptr<serve::ServeRouter> router = std::move(router_or).value();
  // Reloads run on a thread whose pool has history, as a serving process's
  // do: this one trains a step and serves a Predict first, so the size
  // classes a model load touches already hold buffers.
  {
    re::PaModel trainee(s.config, &init);
    trainee.SetTraining(true);
    util::Rng rng(5);
    std::vector<const re::Bag*> batch;
    for (const re::Bag& bag : s.same_shape_batch) batch.push_back(&bag);
    trainee.BatchLoss(batch, &rng).Backward();
    model.Predict(s.same_shape_batch[0]);
  }
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(router->Reload(path).ok());
  ResetPoolStats();
  const uint64_t pooled = PoolStats().pooled_bytes;
  for (int i = 0; i < 110; ++i) {
    ASSERT_TRUE(router->Reload(path).ok());
    if (i % 10 == 9) {
      EXPECT_EQ(PoolStats().pooled_bytes, pooled) << "after reload " << i + 11;
    }
  }
  const tensor::PoolStatsSnapshot stats = PoolStats();
  EXPECT_EQ(stats.total_misses(), 0u)
      << "buffer_misses=" << stats.buffer_misses
      << " node_misses=" << stats.node_misses;
  EXPECT_GT(stats.total_hits(), 0u);
  std::remove(path.c_str());
}

TEST(BufferPoolTest, CrossThreadMigrationIsSafe) {
  // Buffers acquired on worker threads and released on the main thread (and
  // vice versa) must be safe under TSan; counters stay readable throughout.
  const int saved_threads = util::GlobalThreads();
  util::SetGlobalThreads(4);
  constexpr int64_t kChunks = 8;
  std::vector<std::vector<float>> migrated(kChunks);
  std::vector<float> sums(kChunks, 0.0f);
  util::GlobalPool().ParallelForChunks(
      0, kChunks, 1, [&](int64_t lo, int64_t, int64_t chunk) {
        // Tensor work on the worker: allocates from and releases to the
        // worker's own pool.
        Tensor x = Tensor::Full({8, 8}, static_cast<float>(lo + 1),
                                /*requires_grad=*/true);
        Tensor w = Tensor::Full({8, 8}, 0.25f);
        tensor::Sum(tensor::MatMul(x, w)).Backward();
        sums[static_cast<size_t>(chunk)] = x.grad()[0];
        // And a raw buffer that deliberately outlives the worker scope.
        migrated[static_cast<size_t>(chunk)] = AcquireBuffer(256);
      });
  for (int64_t c = 0; c < kChunks; ++c) {
    EXPECT_EQ(sums[static_cast<size_t>(c)], 2.0f);  // sum of a 0.25 row of 8
    ReleaseBuffer(std::move(migrated[static_cast<size_t>(c)]));
  }
  tensor::PoolStatsSnapshot stats = PoolStats();
  EXPECT_GT(stats.buffer_hits + stats.buffer_misses, 0u);
  TrimThreadPool();
  util::SetGlobalThreads(saved_threads);
}

// Process exit joins the global pool's workers during static destruction,
// and each worker's thread-local pool then unregisters itself. The pool
// registry must still be alive at that point (under ASan a destroyed one is
// a heap-use-after-free and the child exits nonzero).
TEST(BufferPoolDeathTest, ExitWithLiveWorkerPoolsIsClean) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_EXIT(
      {
        util::SetGlobalThreads(4);
        std::atomic<int> started{0};
        util::GlobalPool().ParallelForChunks(
            0, 4, 1, [&](int64_t lo, int64_t, int64_t) {
              // Hold each chunk until all four run, so every thread takes
              // one and builds its own pool.
              started.fetch_add(1);
              const auto deadline =
                  std::chrono::steady_clock::now() + std::chrono::seconds(10);
              while (started.load() < 4 &&
                     std::chrono::steady_clock::now() < deadline) {
                std::this_thread::yield();
              }
              Tensor x = Tensor::Full({4, 4}, static_cast<float>(lo + 1));
              tensor::Sum(tensor::MatMul(x, x));
            });
        std::exit(0);
      },
      testing::ExitedWithCode(0), "");
}

}  // namespace
}  // namespace imr
