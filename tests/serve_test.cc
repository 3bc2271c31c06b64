// serve:: subsystem tests — snapshot round trips (bit-identical logits,
// loud failure on corruption), the LRU cache, the inference engine's
// determinism across caching and cache sharding, and the router's
// bit-exact agreement with a bare engine under concurrency and hot swap.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include <sys/stat.h>
#include <unistd.h>

#include "datagen/presets.h"
#include "graph/line.h"
#include "graph/proximity_graph.h"
#include "nn/module.h"
#include "re/bag_dataset.h"
#include "re/knn_predictor.h"
#include "re/pa_model.h"
#include "re/trainer.h"
#include "serve/admission.h"
#include "serve/delta.h"
#include "serve/inference_engine.h"
#include "serve/lru_cache.h"
#include "serve/router.h"
#include "serve/sharded_cache.h"
#include "serve/snapshot.h"
#include "serve/snapshot_watcher.h"
#include "serve_setup.h"
#include "util/logging.h"
#include "util/mutex.h"
#include "util/rng.h"
#include "util/serialization.h"

namespace imr {
namespace {

// One trained pipeline + saved snapshot shared across tests (training is
// the expensive part; every test reads, none mutates).
struct ServeFixture {
  ServeFixture() {
    datagen::PresetOptions options;
    options.scale = 0.5;
    options.seed = 7;
    dataset = std::make_unique<datagen::SyntheticDataset>(
        datagen::MakeGdsLike(options));
    bag_options.max_sentence_length = 40;
    bag_options.max_position = 20;
    bags = std::make_unique<re::BagDataset>(re::BagDataset::Build(
        dataset->world.graph, dataset->corpus.train, dataset->corpus.test,
        bag_options));
    graph::ProximityGraph proximity(dataset->world.graph.num_entities());
    proximity.AddCorpus(dataset->unlabeled.sentences);
    proximity.Finalize(2);
    graph::LineConfig line;
    line.dim = 32;
    line.samples_per_edge = 150;
    // One thread is LINE's bit-exact path; Hogwild on every core would make
    // the fixture, and so the exact int8/fp32 top-1 check, vary by load.
    line.threads = 1;
    embeddings = graph::TrainLine(proximity, line);
    IMR_CHECK(bags->AttachMutualRelations(embeddings).ok());

    re::PaModelConfig config;
    config.num_relations = bags->num_relations();
    config.encoder = "pcnn";
    config.aggregation = re::Aggregation::kAttention;
    config.use_mutual_relation = true;
    config.use_entity_type = true;
    config.mutual_relation_dim = embeddings.dim();
    config.type_dim = 6;
    config.encoder_config.vocab_size = bags->vocabulary().size();
    config.encoder_config.word_dim = 12;
    config.encoder_config.position_dim = 3;
    config.encoder_config.max_position = 20;
    config.encoder_config.filters = 16;
    config.encoder_config.word_dropout = 0.25f;

    util::Rng rng(1);
    model = std::make_unique<re::PaModel>(config, &rng);
    re::TrainerConfig trainer_config;
    trainer_config.epochs = 8;
    trainer_config.batch_size = 32;
    trainer_config.optimizer = "adam";
    trainer_config.learning_rate = 0.01f;
    trainer_config.seed = 3;
    re::Trainer trainer(model.get(), trainer_config);
    trainer.Train(bags->train_bags());
    model->SetTraining(false);

    snapshot_path = testing::TempDir() + "/imr_serve_test.imrs";
    IMR_CHECK(serve::SaveSnapshot(*model, bags->vocabulary(), embeddings,
                                  dataset->world.graph, bag_options,
                                  /*trained_steps=*/8, "serve_test",
                                  snapshot_path)
                  .ok());

    // Generation B for hot-swap tests: the same trained model over
    // embeddings retrained with a different seed — bit-different MR
    // vectors, so the two generations give bit-different predictions.
    // Saved WITH a QEMB section so a swap can also flip the quantized
    // serving path onto a file-supplied int8 store.
    graph::LineConfig line_b = line;
    line_b.seed = 41;
    embeddings_b = graph::TrainLine(proximity, line_b);
    const auto quantized_b =
        graph::QuantizedEmbeddingStore::Quantize(embeddings_b);
    snapshot_b_path = testing::TempDir() + "/imr_serve_test_b.imrs";
    IMR_CHECK(serve::SaveSnapshot(*model, bags->vocabulary(), embeddings_b,
                                  dataset->world.graph, bag_options,
                                  /*trained_steps=*/9, "serve_test_b",
                                  snapshot_b_path, &quantized_b)
                  .ok());

    // A and B again, each with an ANNI section, for the kNN hot-swap test.
    // The wide confidence gate makes the vote fire on most queries, so the
    // ANN search serves while generations flip.
    re::KnnOptions knn_options;
    knn_options.confidence_gate = 0.95f;
    knn_options.min_pairs_for_ivf = 64;
    const re::KnnPredictor knn_a =
        re::KnnPredictor::Build(embeddings, bags->train_bags(),
                                bags->num_relations(), knn_options, nullptr);
    const re::KnnPredictor knn_b =
        re::KnnPredictor::Build(embeddings_b, bags->train_bags(),
                                bags->num_relations(), knn_options, nullptr);
    snapshot_knn_path = testing::TempDir() + "/imr_serve_test_knn.imrs";
    IMR_CHECK(serve::SaveSnapshot(*model, bags->vocabulary(), embeddings,
                                  dataset->world.graph, bag_options,
                                  /*trained_steps=*/8, "serve_test_knn",
                                  snapshot_knn_path, nullptr, &knn_a)
                  .ok());
    snapshot_knn_b_path = testing::TempDir() + "/imr_serve_test_knn_b.imrs";
    IMR_CHECK(serve::SaveSnapshot(*model, bags->vocabulary(), embeddings_b,
                                  dataset->world.graph, bag_options,
                                  /*trained_steps=*/9, "serve_test_knn_b",
                                  snapshot_knn_b_path, nullptr, &knn_b)
                  .ok());
  }

  /// Sentences of the held-out corpus mentioning the bag's entity pair.
  std::vector<text::Sentence> PairSentences(const re::Bag& bag,
                                            size_t limit = 4) const {
    std::vector<text::Sentence> sentences;
    for (const text::LabeledSentence& labeled : dataset->corpus.test) {
      if (labeled.sentence.head_entity == bag.head &&
          labeled.sentence.tail_entity == bag.tail) {
        sentences.push_back(labeled.sentence);
        if (sentences.size() >= limit) break;
      }
    }
    return sentences;
  }

  /// Engine-style queries derived from held-out bags.
  std::vector<serve::Query> SampleQueries(size_t count) const {
    std::vector<serve::Query> queries;
    for (const re::Bag& bag : bags->test_bags()) {
      serve::Query query;
      query.head = bag.head;
      query.tail = bag.tail;
      query.sentences = PairSentences(bag);
      if (query.sentences.empty()) continue;
      queries.push_back(std::move(query));
      if (queries.size() >= count) break;
    }
    IMR_CHECK(!queries.empty());
    return queries;
  }

  std::unique_ptr<datagen::SyntheticDataset> dataset;
  std::unique_ptr<re::BagDataset> bags;
  re::BagDatasetOptions bag_options;
  graph::EmbeddingStore embeddings;
  graph::EmbeddingStore embeddings_b;
  std::unique_ptr<re::PaModel> model;
  std::string snapshot_path;
  std::string snapshot_b_path;
  std::string snapshot_knn_path;
  std::string snapshot_knn_b_path;
};

ServeFixture& Shared() {
  static ServeFixture* fixture = new ServeFixture();
  return *fixture;
}

// ---- LRU cache ------------------------------------------------------------

TEST(LruCacheTest, PutGetAndEvictionOrder) {
  serve::LruCache<int, int> cache(2);
  cache.Put(1, 10);
  cache.Put(2, 20);
  EXPECT_EQ(cache.Get(1).value(), 10);  // 1 becomes most-recent
  cache.Put(3, 30);                     // evicts 2
  EXPECT_FALSE(cache.Get(2).has_value());
  EXPECT_EQ(cache.Get(1).value(), 10);
  EXPECT_EQ(cache.Get(3).value(), 30);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(LruCacheTest, PutRefreshesExistingKey) {
  serve::LruCache<int, int> cache(2);
  cache.Put(1, 10);
  cache.Put(2, 20);
  cache.Put(1, 11);  // refresh, not insert
  cache.Put(3, 30);  // evicts 2 (1 was refreshed)
  EXPECT_EQ(cache.Get(1).value(), 11);
  EXPECT_FALSE(cache.Get(2).has_value());
}

TEST(LruCacheTest, ZeroCapacityDisables) {
  serve::LruCache<int, int> cache(0);
  cache.Put(1, 10);
  EXPECT_FALSE(cache.Get(1).has_value());
  EXPECT_EQ(cache.size(), 0u);
}

// ---- snapshot round trip --------------------------------------------------

TEST(SnapshotTest, RoundTripLogitsBitIdentical) {
  ServeFixture& f = Shared();
  auto snapshot = serve::LoadSnapshot(f.snapshot_path);
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  ASSERT_NE(snapshot->model, nullptr);
  EXPECT_FALSE(snapshot->model->training());

  int checked = 0;
  for (const re::Bag& bag : f.bags->test_bags()) {
    const std::vector<float> expected = f.model->Predict(bag);
    const std::vector<float> actual = snapshot->model->Predict(bag);
    ASSERT_EQ(expected.size(), actual.size());
    for (size_t r = 0; r < expected.size(); ++r) {
      ASSERT_EQ(expected[r], actual[r]) << "relation " << r;  // bit-exact
    }
    if (++checked >= 25) break;
  }
}

TEST(SnapshotTest, PreservesManifestAndTables) {
  ServeFixture& f = Shared();
  auto snapshot = serve::LoadSnapshot(f.snapshot_path);
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();

  EXPECT_EQ(snapshot->manifest.model_config.num_relations,
            f.bags->num_relations());
  EXPECT_EQ(snapshot->manifest.model_config.encoder, "pcnn");
  EXPECT_TRUE(snapshot->manifest.model_config.use_mutual_relation);
  EXPECT_EQ(snapshot->manifest.bag_options.max_sentence_length,
            f.bag_options.max_sentence_length);
  EXPECT_EQ(snapshot->manifest.bag_options.max_position,
            f.bag_options.max_position);
  EXPECT_EQ(snapshot->manifest.trained_steps, 8u);
  EXPECT_EQ(snapshot->manifest.notes, "serve_test");

  EXPECT_EQ(snapshot->vocab().size(), f.bags->vocabulary().size());
  ASSERT_EQ(static_cast<int>(snapshot->relation_names().size()),
            f.bags->num_relations());
  EXPECT_EQ(snapshot->relation_names()[0],
            f.dataset->world.graph.relation(0).name);
  ASSERT_EQ(static_cast<int>(snapshot->entities().size()),
            f.dataset->world.graph.num_entities());
  EXPECT_EQ(snapshot->entities()[0].name,
            f.dataset->world.graph.entity(0).name);
  EXPECT_EQ(snapshot->embeddings.num_vertices(),
            f.embeddings.num_vertices());
  EXPECT_EQ(snapshot->embeddings.dim(), f.embeddings.dim());
}

TEST(SnapshotTest, SaveRejectsInconsistentBundle) {
  ServeFixture& f = Shared();
  const std::string path = testing::TempDir() + "/imr_serve_bad_save.imrs";
  // Wrong relation-name count.
  auto status = serve::SaveSnapshot(
      *f.model, f.bags->vocabulary(), f.embeddings, {"only-one"}, {},
      f.bag_options, 0, "", path);
  EXPECT_FALSE(status.ok());
  // Entity table sized unlike the embedding store.
  std::vector<std::string> names;
  for (const auto& schema : f.dataset->world.graph.relations())
    names.push_back(schema.name);
  status = serve::SaveSnapshot(*f.model, f.bags->vocabulary(), f.embeddings,
                               names, {{"lonely", {0}}}, f.bag_options, 0, "",
                               path);
  EXPECT_FALSE(status.ok());
  std::remove(path.c_str());
}

// ---- corruption -----------------------------------------------------------

std::string SlurpSnapshot() {
  std::ifstream in(Shared().snapshot_path, std::ios::binary);
  IMR_CHECK(in.good());
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

util::Status LoadMutated(const std::string& bytes, const std::string& name) {
  const std::string path = testing::TempDir() + "/" + name;
  {
    std::ofstream out(path, std::ios::binary);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  util::Status status = serve::LoadSnapshot(path).status();
  std::remove(path.c_str());
  return status;
}

TEST(SnapshotTest, RejectsWrongMagic) {
  std::string bytes = SlurpSnapshot();
  bytes[0] = static_cast<char>(bytes[0] ^ 0xFF);
  util::Status status = LoadMutated(bytes, "bad_magic.imrs");
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.ToString().find("magic"), std::string::npos);
}

TEST(SnapshotTest, RejectsWrongVersion) {
  std::string bytes = SlurpSnapshot();
  bytes[4] = static_cast<char>(bytes[4] + 1);
  util::Status status = LoadMutated(bytes, "bad_version.imrs");
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.ToString().find("version"), std::string::npos);
}

TEST(SnapshotTest, RejectsGarbageSectionTag) {
  std::string bytes = SlurpSnapshot();
  bytes[8] = static_cast<char>(bytes[8] ^ 0xFF);  // first section tag
  EXPECT_FALSE(LoadMutated(bytes, "bad_tag.imrs").ok());
}

TEST(SnapshotTest, RejectsTruncatedFiles) {
  const std::string bytes = SlurpSnapshot();
  // Header only, mid-section, and just shy of the end sentinel: every
  // truncation point must fail loudly, never half-load.
  for (size_t size : {size_t{12}, bytes.size() / 2, bytes.size() - 6}) {
    util::Status status =
        LoadMutated(bytes.substr(0, size), "truncated.imrs");
    EXPECT_FALSE(status.ok()) << "truncated to " << size << " bytes";
  }
}

// ---- Rng-free inference overload -----------------------------------------

TEST(PaModelTest, RngFreePredictMatchesRngOverload) {
  ServeFixture& f = Shared();
  util::Rng rng(123);
  int checked = 0;
  for (const re::Bag& bag : f.bags->test_bags()) {
    const std::vector<float> with_rng = f.model->Predict(bag, &rng);
    const std::vector<float> without = f.model->Predict(bag);
    ASSERT_EQ(with_rng.size(), without.size());
    for (size_t r = 0; r < without.size(); ++r)
      ASSERT_EQ(with_rng[r], without[r]);
    if (++checked >= 10) break;
  }
}

TEST(PaModelTest, EvalModeGuardRestoresTrainingMode) {
  ServeFixture& f = Shared();
  f.model->SetTraining(true);
  {
    nn::EvalModeGuard guard(f.model.get());
    EXPECT_FALSE(f.model->training());
  }
  EXPECT_TRUE(f.model->training());
  f.model->SetTraining(false);  // restore fixture invariant
}

// ---- inference engine -----------------------------------------------------

TEST(InferenceEngineTest, MatchesInProcessModel) {
  ServeFixture& f = Shared();
  auto engine = serve::InferenceEngine::Open(f.snapshot_path);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();

  int checked = 0;
  for (const re::Bag& bag : f.bags->test_bags()) {
    serve::Query query;
    query.head = bag.head;
    query.tail = bag.tail;
    query.sentences = f.PairSentences(bag);
    if (query.sentences.empty()) continue;

    // The same bag, featurized in-process the way BagDataset does it.
    re::Bag manual;
    manual.head = bag.head;
    manual.tail = bag.tail;
    for (const text::Sentence& sentence : query.sentences) {
      manual.sentences.push_back(re::MakeEncoderInput(
          sentence, f.bags->vocabulary(), f.bag_options));
    }
    manual.head_types = f.dataset->world.graph.entity(bag.head).type_ids;
    manual.tail_types = f.dataset->world.graph.entity(bag.tail).type_ids;
    manual.mutual_relation = f.embeddings.MutualRelation(
        static_cast<int>(bag.head), static_cast<int>(bag.tail));

    const std::vector<float> expected = f.model->Predict(manual);
    auto prediction = (*engine)->Predict(query);
    ASSERT_TRUE(prediction.ok()) << prediction.status().ToString();
    ASSERT_EQ(prediction->probabilities.size(), expected.size());
    for (size_t r = 0; r < expected.size(); ++r)
      ASSERT_EQ(prediction->probabilities[r], expected[r]);
    ASSERT_FALSE(prediction->top.empty());
    EXPECT_EQ(prediction->top[0].name,
        (*engine)->snapshot().relation_names()[prediction->top[0].relation]);
    if (++checked >= 8) break;
  }
  EXPECT_GT(checked, 0);
}

TEST(InferenceEngineTest, CachedAndUncachedBitIdentical) {
  ServeFixture& f = Shared();
  serve::EngineOptions no_cache;
  no_cache.mr_cache_capacity = 0;
  serve::EngineOptions cached;
  cached.mr_cache_capacity = 256;

  auto engine_no_cache = serve::InferenceEngine::Open(f.snapshot_path, no_cache);
  auto engine_cached = serve::InferenceEngine::Open(f.snapshot_path, cached);
  ASSERT_TRUE(engine_no_cache.ok());
  ASSERT_TRUE(engine_cached.ok());

  // Replay unique pairs three times so the cache actually gets hits.
  // Concurrent scoring is covered by RouterTest.MatchesBareEngineBitExactly.
  std::vector<serve::Query> queries = f.SampleQueries(12);
  std::vector<serve::Query> stream;
  for (int repeat = 0; repeat < 3; ++repeat)
    stream.insert(stream.end(), queries.begin(), queries.end());

  for (const serve::Query& query : stream) {
    auto baseline = (*engine_no_cache)->Predict(query);
    auto cached_result = (*engine_cached)->Predict(query);
    ASSERT_TRUE(baseline.ok());
    ASSERT_TRUE(cached_result.ok());
    EXPECT_EQ(cached_result->probabilities, baseline->probabilities);
  }

  const serve::EngineStats stats = (*engine_cached)->Stats();
  EXPECT_EQ(stats.requests, stream.size());
  EXPECT_GT(stats.mr_cache_hits, 0u);  // repeats hit the pair cache
  EXPECT_EQ(stats.mr_cache_hits + stats.mr_cache_misses, stream.size());
  const serve::EngineStats uncached_stats = (*engine_no_cache)->Stats();
  EXPECT_EQ(uncached_stats.mr_cache_hits, 0u);
}

TEST(InferenceEngineTest, MakeQueryResolvesNamesAndMentions) {
  ServeFixture& f = Shared();
  auto engine = serve::InferenceEngine::Open(f.snapshot_path);
  ASSERT_TRUE(engine.ok());

  // A held-out sentence whose tokens contain both entity names.
  const text::Sentence* found = nullptr;
  for (const text::LabeledSentence& labeled : f.dataset->corpus.test) {
    if (labeled.sentence.head_entity >= 0 &&
        labeled.sentence.tail_entity >= 0) {
      found = &labeled.sentence;
      break;
    }
  }
  ASSERT_NE(found, nullptr);
  const std::string head_name =
      f.dataset->world.graph.entity(found->head_entity).name;
  const std::string tail_name =
      f.dataset->world.graph.entity(found->tail_entity).name;

  text::Sentence unlocated = *found;
  unlocated.head_index = -1;
  unlocated.tail_index = -1;
  auto query = (*engine)->MakeQuery(head_name, tail_name, {unlocated});
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  EXPECT_EQ(query->head, found->head_entity);
  EXPECT_EQ(query->tail, found->tail_entity);
  ASSERT_EQ(query->sentences.size(), 1u);
  EXPECT_EQ(query->sentences[0].head_index, found->head_index);
  EXPECT_EQ(query->sentences[0].tail_index, found->tail_index);
  EXPECT_TRUE((*engine)->Predict(*query).ok());

  EXPECT_FALSE((*engine)->MakeQuery("no_such_entity", tail_name, {}).ok());
}

TEST(InferenceEngineTest, RejectsMalformedQueries) {
  ServeFixture& f = Shared();
  auto engine = serve::InferenceEngine::Open(f.snapshot_path);
  ASSERT_TRUE(engine.ok());

  serve::Query no_sentences;
  no_sentences.head = 0;
  no_sentences.tail = 1;
  EXPECT_FALSE((*engine)->Predict(no_sentences).ok());

  std::vector<serve::Query> queries = f.SampleQueries(1);
  serve::Query out_of_range = queries[0];
  out_of_range.head = f.embeddings.num_vertices() + 5;
  EXPECT_FALSE((*engine)->Predict(out_of_range).ok());

  serve::Query negative = queries[0];
  negative.tail = -2;
  EXPECT_FALSE((*engine)->Predict(negative).ok());

  serve::Query bad_mention = queries[0];
  bad_mention.sentences[0].head_index = 10'000;
  EXPECT_FALSE((*engine)->Predict(bad_mention).ok());
}

// ---- int8 quantized serving -----------------------------------------------

TEST(QuantizedSnapshotTest, QuantizedSectionRoundTripsBitExactly) {
  ServeFixture& f = Shared();
  const auto quantized =
      graph::QuantizedEmbeddingStore::Quantize(f.embeddings);
  const std::string path =
      testing::TempDir() + "/imr_serve_test_quantized.imrs";
  ASSERT_TRUE(serve::SaveSnapshot(*f.model, f.bags->vocabulary(),
                                  f.embeddings, f.dataset->world.graph,
                                  f.bag_options, /*trained_steps=*/8,
                                  "quantized", path, &quantized)
                  .ok());
  auto snapshot = serve::LoadSnapshot(path);
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  ASSERT_FALSE(snapshot->quantized_embeddings.empty());
  EXPECT_EQ(snapshot->quantized_embeddings.num_vertices(),
            quantized.num_vertices());
  EXPECT_EQ(snapshot->quantized_embeddings.dim(), quantized.dim());
  for (int v = 0; v < quantized.num_vertices(); ++v) {
    ASSERT_EQ(snapshot->quantized_embeddings.scale(v), quantized.scale(v))
        << "vertex " << v;
    const int8_t* expected = quantized.Row(v);
    const int8_t* actual = snapshot->quantized_embeddings.Row(v);
    for (int d = 0; d < quantized.dim(); ++d) {
      ASSERT_EQ(actual[d], expected[d]) << "vertex " << v << " dim " << d;
    }
  }
  // The fp32 sections are untouched by the extra tail section. (The loaded
  // store may be a borrowed mmap view, so compare raw rows, not flat().)
  ASSERT_EQ(snapshot->embeddings.value_count(), f.embeddings.value_count());
  EXPECT_EQ(std::memcmp(snapshot->embeddings.raw(), f.embeddings.raw(),
                        f.embeddings.value_count() * sizeof(float)),
            0);
  std::remove(path.c_str());
}

TEST(QuantizedSnapshotTest, SnapshotsWithoutQembSectionStillLoad) {
  // The fixture snapshot predates the QEMB section by construction — the
  // forward-compat promise is that such files keep loading unchanged.
  auto snapshot = serve::LoadSnapshot(Shared().snapshot_path);
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  EXPECT_TRUE(snapshot->quantized_embeddings.empty());
  EXPECT_NE(snapshot->model, nullptr);
}

TEST(QuantizedSnapshotTest, SaveRejectsShapeMismatchedQuantizedStore) {
  ServeFixture& f = Shared();
  graph::EmbeddingStore wrong_shape(3, 4);
  const auto quantized =
      graph::QuantizedEmbeddingStore::Quantize(wrong_shape);
  const std::string path =
      testing::TempDir() + "/imr_serve_test_bad_quantized.imrs";
  EXPECT_FALSE(serve::SaveSnapshot(*f.model, f.bags->vocabulary(),
                                   f.embeddings, f.dataset->world.graph,
                                   f.bag_options, 0, "", path, &quantized)
                   .ok());
}

TEST(QuantizedEngineTest, QuantizedServingAgreesWithFp32) {
  ServeFixture& f = Shared();
  auto fp32 = serve::InferenceEngine::Open(f.snapshot_path);
  ASSERT_TRUE(fp32.ok()) << fp32.status().ToString();
  serve::EngineOptions options;
  options.quantized = true;
  // Opening a pre-quantization snapshot with the quantized option must
  // work: the int8 store is built at load time.
  auto quantized = serve::InferenceEngine::Open(f.snapshot_path, options);
  ASSERT_TRUE(quantized.ok()) << quantized.status().ToString();
  EXPECT_TRUE((*quantized)->snapshot().model->quantized_inference());
  EXPECT_FALSE((*quantized)->snapshot().quantized_embeddings.empty());

  const std::vector<serve::Query> queries = f.SampleQueries(12);
  int top1_agreements = 0;
  float max_delta = 0.0f;
  for (const serve::Query& query : queries) {
    auto exact = (*fp32)->Predict(query);
    auto approx = (*quantized)->Predict(query);
    ASSERT_TRUE(exact.ok()) << exact.status().ToString();
    ASSERT_TRUE(approx.ok()) << approx.status().ToString();
    ASSERT_EQ(approx->probabilities.size(), exact->probabilities.size());
    for (size_t r = 0; r < exact->probabilities.size(); ++r) {
      max_delta = std::max(max_delta,
                           std::fabs(approx->probabilities[r] -
                                     exact->probabilities[r]));
    }
    ASSERT_FALSE(exact->top.empty());
    ASSERT_FALSE(approx->top.empty());
    if (exact->top[0].relation == approx->top[0].relation) ++top1_agreements;
  }
  // On this small sample demand exact agreement and a tight score delta.
  EXPECT_EQ(top1_agreements, static_cast<int>(queries.size()));
  EXPECT_LT(max_delta, 0.05f);

  // Over a replay of bench_serve's full-run pipeline (NYT preset, 53
  // relations, LINE on one thread): >= 99.5% top-1 agreement and every
  // probability within 0.05 of fp32.
  const std::unique_ptr<bench::ServeSetup> nyt =
      bench::MakeServeSetup(/*smoke=*/false);
  const std::string nyt_path = testing::TempDir() + "/imr_serve_test_nyt.imrs";
  ASSERT_TRUE(nyt->Save(nyt_path).ok());
  auto nyt_fp32 = serve::InferenceEngine::Open(nyt_path);
  auto nyt_quantized = serve::InferenceEngine::Open(nyt_path, options);
  ASSERT_TRUE(nyt_fp32.ok()) << nyt_fp32.status().ToString();
  ASSERT_TRUE(nyt_quantized.ok()) << nyt_quantized.status().ToString();
  std::remove(nyt_path.c_str());
  size_t nyt_agreements = 0;
  float nyt_max_delta = 0.0f;
  for (const serve::Query& query : nyt->requests) {
    auto exact = (*nyt_fp32)->Predict(query);
    auto approx = (*nyt_quantized)->Predict(query);
    ASSERT_TRUE(exact.ok()) << exact.status().ToString();
    ASSERT_TRUE(approx.ok()) << approx.status().ToString();
    ASSERT_EQ(approx->probabilities.size(), exact->probabilities.size());
    for (size_t r = 0; r < exact->probabilities.size(); ++r) {
      nyt_max_delta = std::max(nyt_max_delta,
                               std::fabs(approx->probabilities[r] -
                                         exact->probabilities[r]));
    }
    ASSERT_FALSE(exact->top.empty() || approx->top.empty());
    if (exact->top[0].relation == approx->top[0].relation) ++nyt_agreements;
  }
  ASSERT_EQ(nyt->requests.size(), 768u);
  const double agreement = static_cast<double>(nyt_agreements) /
                           static_cast<double>(nyt->requests.size());
  RecordProperty("nyt_top1_agreement", std::to_string(agreement));
  RecordProperty("nyt_max_abs_prob_delta", std::to_string(nyt_max_delta));
  EXPECT_GE(agreement, 0.995);
  EXPECT_LE(nyt_max_delta, 0.05f);
}

// ---- sharded cache ---------------------------------------------------------

TEST(ShardedCacheTest, SingleShardReproducesLruBehavior) {
  serve::ShardedLruCache<int, int> cache(2, 1);
  EXPECT_EQ(cache.num_shards(), 1u);
  cache.Put(1, 10);
  cache.Put(2, 20);
  EXPECT_EQ(cache.Get(1).value(), 10);  // 1 becomes most-recent
  cache.Put(3, 30);                     // evicts 2
  EXPECT_FALSE(cache.Get(2).has_value());
  EXPECT_EQ(cache.Get(1).value(), 10);
  EXPECT_EQ(cache.Get(3).value(), 30);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(ShardedCacheTest, RoundsShardCountToPowerOfTwo) {
  serve::ShardedLruCache<int, int> cache(64, 5);
  EXPECT_EQ(cache.num_shards(), 8u);
  serve::ShardedLruCache<int, int> one(64, 0);
  EXPECT_EQ(one.num_shards(), 1u);
}

TEST(ShardedCacheTest, CountsHitsAndMissesPerShard) {
  serve::ShardedLruCache<int, int> cache(256, 4);
  for (int k = 0; k < 64; ++k) cache.Put(k, k * 2);
  for (int k = 0; k < 64; ++k) EXPECT_EQ(cache.Get(k).value(), k * 2);
  for (int k = 100; k < 110; ++k) EXPECT_FALSE(cache.Get(k).has_value());
  EXPECT_EQ(cache.TotalHits(), 64u);
  EXPECT_EQ(cache.TotalMisses(), 10u);
  const std::vector<serve::CacheShardStats> shards = cache.ShardStats();
  ASSERT_EQ(shards.size(), 4u);
  uint64_t hits = 0, misses = 0, resident = 0;
  for (const serve::CacheShardStats& shard : shards) {
    hits += shard.hits;
    misses += shard.misses;
    resident += shard.size;
  }
  EXPECT_EQ(hits, 64u);
  EXPECT_EQ(misses, 10u);
  EXPECT_EQ(resident, cache.size());
  EXPECT_EQ(resident, 64u);
}

TEST(ShardedCacheTest, SpreadsKeysAcrossShards) {
  // std::hash<int> is the identity on libstdc++; the shard picker must
  // still spread sequential keys instead of piling them on shard 0.
  serve::ShardedLruCache<int, int> cache(1024, 8);
  for (int k = 0; k < 256; ++k) cache.Put(k, k);
  size_t populated = 0;
  for (const serve::CacheShardStats& shard : cache.ShardStats()) {
    if (shard.size > 0) ++populated;
  }
  EXPECT_GE(populated, 6u);
}

TEST(ShardedCacheTest, ClearEmptiesEveryShard) {
  serve::ShardedLruCache<int, int> cache(256, 4);
  for (int k = 0; k < 32; ++k) cache.Put(k, k);
  EXPECT_GT(cache.size(), 0u);
  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  for (int k = 0; k < 32; ++k) EXPECT_FALSE(cache.Get(k).has_value());
}

TEST(EngineShardingTest, ShardCountsAreBitIdentical) {
  ServeFixture& f = Shared();
  serve::EngineOptions one_shard;
  one_shard.cache_shards = 1;
  serve::EngineOptions many_shards;
  many_shards.cache_shards = 16;
  auto engine_one = serve::InferenceEngine::Open(f.snapshot_path, one_shard);
  auto engine_many =
      serve::InferenceEngine::Open(f.snapshot_path, many_shards);
  ASSERT_TRUE(engine_one.ok());
  ASSERT_TRUE(engine_many.ok());

  std::vector<serve::Query> queries = f.SampleQueries(10);
  std::vector<serve::Query> stream;
  for (int repeat = 0; repeat < 3; ++repeat)
    stream.insert(stream.end(), queries.begin(), queries.end());
  for (const serve::Query& query : stream) {
    auto result_one = (*engine_one)->Predict(query);
    auto result_many = (*engine_many)->Predict(query);
    ASSERT_TRUE(result_one.ok());
    ASSERT_TRUE(result_many.ok());
    EXPECT_EQ(result_one->probabilities, result_many->probabilities);
  }
  // Hit behavior is shard-count independent: same pairs, same repeats.
  const serve::EngineStats one_stats = (*engine_one)->Stats();
  const serve::EngineStats many_stats = (*engine_many)->Stats();
  EXPECT_EQ(one_stats.mr_cache_hits, many_stats.mr_cache_hits);
  EXPECT_EQ(one_stats.cache_shards.size(), 1u);
  EXPECT_EQ(many_stats.cache_shards.size(), 16u);
}

// ---- admission control -----------------------------------------------------

TEST(AdmissionTest, RejectsWithRetryAfterWhenQueuesFill) {
  serve::AdmissionOptions options;
  options.max_queue = 2;
  serve::AdmissionController admission(/*replicas=*/2, options);
  // Four admits with no dequeues saturate both replicas (2 each)...
  for (int i = 0; i < 4; ++i) {
    auto replica = admission.Admit();
    ASSERT_TRUE(replica.ok()) << i;
  }
  // ...the fifth finds every queue full.
  auto rejected = admission.Admit();
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), util::StatusCode::kUnavailable);
  EXPECT_NE(rejected.status().message().find("retry"), std::string::npos);
  const serve::AdmissionCounters totals = admission.TotalCounters();
  EXPECT_EQ(totals.admitted, 4u);
  EXPECT_EQ(totals.rejected_queue_full, 1u);
  EXPECT_EQ(totals.queue_depth, 4u);
  EXPECT_EQ(totals.queue_peak, 2u);  // per-replica peak
  // Draining a queue reopens the door.
  admission.OnDequeue(0);
  EXPECT_TRUE(admission.Admit().ok());
}

TEST(AdmissionTest, PicksLeastLoadedReplica) {
  serve::AdmissionController admission(/*replicas=*/2, {});
  auto first = admission.Admit();
  auto second = admission.Admit();
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  // With equal depth the rotating start point spreads consecutive admits.
  EXPECT_NE(*first, *second);
  // Load one replica; the next admits must all land on the other.
  for (int i = 0; i < 3; ++i) {
    auto replica = admission.Admit();
    ASSERT_TRUE(replica.ok());
  }
  const serve::AdmissionCounters replica0 = admission.Counters(0);
  const serve::AdmissionCounters replica1 = admission.Counters(1);
  EXPECT_LE(replica0.queue_depth > replica1.queue_depth
                ? replica0.queue_depth - replica1.queue_depth
                : replica1.queue_depth - replica0.queue_depth,
            1u);
}

TEST(AdmissionTest, DeadlineExpiryAndShedding) {
  serve::AdmissionOptions options;
  options.deadline_us = 1000;
  serve::AdmissionController admission(/*replicas=*/1, options);
  const auto now = std::chrono::steady_clock::now();
  EXPECT_FALSE(admission.ExpiredInQueue(now));
  EXPECT_TRUE(admission.ExpiredInQueue(now - std::chrono::milliseconds(10)));
  util::Status shed = admission.Shed(0, /*waited_us=*/10000.0);
  EXPECT_EQ(shed.code(), util::StatusCode::kUnavailable);
  EXPECT_NE(shed.message().find("shed"), std::string::npos);
  EXPECT_EQ(admission.Counters(0).shed_deadline, 1u);

  serve::AdmissionController no_deadline(/*replicas=*/1, {});
  EXPECT_FALSE(no_deadline.ExpiredInQueue(
      now - std::chrono::milliseconds(10)));  // 0 disables shedding
}

TEST(AdmissionTest, ExecutionSlotsBoundConcurrency) {
  serve::AdmissionOptions options;
  options.max_concurrent = 1;
  serve::AdmissionController admission(/*replicas=*/1, options);
  EXPECT_EQ(admission.max_concurrent(), 1);
  admission.AcquireSlot();  // take the only slot
  std::atomic<bool> acquired{false};
  std::thread waiter([&] {
    admission.AcquireSlot();
    acquired.store(true);
    admission.ReleaseSlot();
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(acquired.load());  // blocked behind the held slot
  admission.ReleaseSlot();
  waiter.join();
  EXPECT_TRUE(acquired.load());
}

// ---- serve router ----------------------------------------------------------

TEST(RouterTest, MatchesBareEngineBitExactly) {
  ServeFixture& f = Shared();
  serve::RouterOptions options;
  options.replicas = 2;
  options.workers_per_replica = 2;
  options.engine.cache_shards = 4;
  auto router = serve::ServeRouter::Open(f.snapshot_path, options);
  ASSERT_TRUE(router.ok()) << router.status().ToString();
  auto reference = serve::InferenceEngine::Open(f.snapshot_path);
  ASSERT_TRUE(reference.ok());

  std::vector<serve::Query> queries = f.SampleQueries(10);
  std::vector<serve::Query> stream;
  for (int repeat = 0; repeat < 2; ++repeat)
    stream.insert(stream.end(), queries.begin(), queries.end());
  auto results = (*router)->PredictBatch(stream);
  ASSERT_EQ(results.size(), stream.size());
  for (size_t i = 0; i < stream.size(); ++i) {
    ASSERT_TRUE(results[i].ok()) << results[i].status().ToString();
    auto expected = (*reference)->Predict(stream[i]);
    ASSERT_TRUE(expected.ok());
    EXPECT_EQ(results[i]->probabilities, expected->probabilities);
    EXPECT_EQ(results[i]->generation, 1u);
  }

  const serve::RouterStats stats = (*router)->Stats();
  EXPECT_EQ(stats.aggregate.requests, stream.size());
  EXPECT_EQ(stats.aggregate.admitted, stream.size());
  EXPECT_EQ(stats.aggregate.rejected_queue_full, 0u);
  EXPECT_EQ(stats.aggregate.shed_deadline, 0u);
  EXPECT_GT(stats.aggregate.qps, 0.0);
  EXPECT_GT(stats.aggregate.p99_latency_us, 0.0);
  EXPECT_EQ(stats.generation, 1u);
}

TEST(RouterTest, SyncAsyncAndInvalidQueriesFlowThrough) {
  ServeFixture& f = Shared();
  auto router = serve::ServeRouter::Open(f.snapshot_path);
  ASSERT_TRUE(router.ok());
  std::vector<serve::Query> queries = f.SampleQueries(4);

  auto sync = (*router)->Predict(queries[0]);
  ASSERT_TRUE(sync.ok()) << sync.status().ToString();
  auto future = (*router)->SubmitAsync(queries[1]);
  auto async = future.get();
  ASSERT_TRUE(async.ok()) << async.status().ToString();

  serve::Query invalid = queries[0];
  invalid.tail = -2;
  auto bad = (*router)->Predict(invalid);
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), util::StatusCode::kInvalidArgument);
}

TEST(RouterTest, BackpressureRejectsUnderOverload) {
  ServeFixture& f = Shared();
  serve::RouterOptions options;
  options.replicas = 1;
  options.workers_per_replica = 1;
  options.admission.max_queue = 2;
  auto router = serve::ServeRouter::Open(f.snapshot_path, options);
  ASSERT_TRUE(router.ok());

  // Submissions take microseconds, a forward takes hundreds: firing 50
  // at a 2-deep queue must trip the door.
  const std::vector<serve::Query> queries = f.SampleQueries(4);
  std::vector<std::future<util::StatusOr<serve::Prediction>>> futures;
  for (int i = 0; i < 50; ++i) {
    futures.push_back((*router)->SubmitAsync(queries[i % queries.size()]));
  }
  uint64_t ok = 0, unavailable = 0;
  for (auto& future : futures) {
    auto result = future.get();
    if (result.ok()) {
      ++ok;
    } else {
      ASSERT_EQ(result.status().code(), util::StatusCode::kUnavailable);
      EXPECT_NE(result.status().message().find("retry"), std::string::npos);
      ++unavailable;
    }
  }
  EXPECT_EQ(ok + unavailable, 50u);
  EXPECT_GT(unavailable, 0u);
  const serve::RouterStats stats = (*router)->Stats();
  EXPECT_EQ(stats.aggregate.rejected_queue_full, unavailable);
  EXPECT_EQ(stats.aggregate.admitted, ok);
  EXPECT_LE(stats.aggregate.queue_peak, 2u);
}

TEST(RouterTest, DeadlineShedsStaleWork) {
  ServeFixture& f = Shared();
  serve::RouterOptions options;
  options.replicas = 1;
  options.workers_per_replica = 1;
  options.admission.deadline_us = 1;  // everything queued goes stale
  options.admission.max_queue = 0;    // unbounded: shedding, not rejection
  auto router = serve::ServeRouter::Open(f.snapshot_path, options);
  ASSERT_TRUE(router.ok());

  const std::vector<serve::Query> queries = f.SampleQueries(4);
  std::vector<std::future<util::StatusOr<serve::Prediction>>> futures;
  for (int i = 0; i < 30; ++i) {
    futures.push_back((*router)->SubmitAsync(queries[i % queries.size()]));
  }
  uint64_t shed = 0;
  for (auto& future : futures) {
    auto result = future.get();
    if (!result.ok()) {
      ASSERT_EQ(result.status().code(), util::StatusCode::kUnavailable);
      ++shed;
    }
  }
  // A 1us budget against a ~hundreds-of-us forward: the backlog is shed.
  EXPECT_GT(shed, 0u);
  EXPECT_EQ((*router)->Stats().aggregate.shed_deadline, shed);
}

// ---- hot swap --------------------------------------------------------------

TEST(HotSwapTest, ReloadFlipsGenerationsAndPredictions) {
  ServeFixture& f = Shared();
  auto router = serve::ServeRouter::Open(f.snapshot_path);
  ASSERT_TRUE(router.ok());
  const std::vector<serve::Query> queries = f.SampleQueries(4);

  auto before = (*router)->Predict(queries[0]);
  ASSERT_TRUE(before.ok());
  EXPECT_EQ(before->generation, 1u);

  ASSERT_TRUE((*router)->Reload(f.snapshot_b_path).ok());
  EXPECT_EQ((*router)->generation(), 2u);
  auto after = (*router)->Predict(queries[0]);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->generation, 2u);
  // Generation B retrained the embeddings: the MR vector differs, so the
  // distribution must differ (same model, different fusion input).
  EXPECT_NE(before->probabilities, after->probabilities);

  // Swap back: bit-identical to the original generation's output.
  ASSERT_TRUE((*router)->Reload(f.snapshot_path).ok());
  auto back = (*router)->Predict(queries[0]);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->generation, 3u);
  EXPECT_EQ(back->probabilities, before->probabilities);

  const serve::RouterStats stats = (*router)->Stats();
  EXPECT_EQ(stats.reloads, 2u);
  EXPECT_TRUE(stats.last_reload_error.empty());
}

TEST(HotSwapTest, RejectsIncompatibleGeneration) {
  ServeFixture& f = Shared();
  auto router = serve::ServeRouter::Open(f.snapshot_path);
  ASSERT_TRUE(router.ok());
  // A corrupt file must be refused with the old generation still serving.
  const std::string bad_path = testing::TempDir() + "/imr_swap_garbage.imrs";
  {
    std::ofstream out(bad_path, std::ios::binary);
    out << "not a snapshot";
  }
  util::Status status = (*router)->Reload(bad_path);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ((*router)->generation(), 1u);
  EXPECT_FALSE((*router)->Stats().last_reload_error.empty());
  const std::vector<serve::Query> queries = f.SampleQueries(1);
  EXPECT_TRUE((*router)->Predict(queries[0]).ok());  // still serving
  std::remove(bad_path.c_str());
}

/// Sustained concurrent traffic across all three calling conventions while
/// the main thread flips generations A<->B. Every response must succeed
/// and be bit-consistent with exactly one generation — the one stamped in
/// Prediction::generation — and every Stats() poll must report the content
/// hash of the generation it names. With `knn` both generations carry an
/// ANNI section and the kNN vote must have fired under fire. Runs under
/// TSan in the sanitizer tree.
void HotSwapUnderFire(bool quantized, bool knn) {
  ServeFixture& f = Shared();
  const std::string& path_a = knn ? f.snapshot_knn_path : f.snapshot_path;
  const std::string& path_b = knn ? f.snapshot_knn_b_path : f.snapshot_b_path;
  serve::RouterOptions options;
  options.replicas = 2;
  options.workers_per_replica = 2;
  options.engine.cache_shards = 4;
  options.engine.quantized = quantized;
  options.admission.max_queue = 0;   // nothing rejected:
  options.admission.deadline_us = 0; // the gate is ZERO failed requests
  auto router = serve::ServeRouter::Open(path_a, options);
  ASSERT_TRUE(router.ok()) << router.status().ToString();

  // Reference predictions per generation, computed single-threaded on bare
  // engines. Odd generations serve snapshot A, even ones snapshot B.
  serve::EngineOptions reference_options;
  reference_options.quantized = quantized;
  auto engine_a = serve::InferenceEngine::Open(path_a, reference_options);
  auto engine_b = serve::InferenceEngine::Open(path_b, reference_options);
  ASSERT_TRUE(engine_a.ok());
  ASSERT_TRUE(engine_b.ok());
  const std::vector<serve::Query> queries = f.SampleQueries(6);
  std::vector<std::vector<float>> expected_a, expected_b;
  for (const serve::Query& query : queries) {
    auto a = (*engine_a)->Predict(query);
    auto b = (*engine_b)->Predict(query);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    ASSERT_NE(a->probabilities, b->probabilities);  // generations differ
    expected_a.push_back(a->probabilities);
    expected_b.push_back(b->probabilities);
  }
  // Odd generations serve snapshot A, even ones B: a Stats() that pairs a
  // generation with the other snapshot's hash read a half-published swap.
  const uint64_t hash_a = (*engine_a)->snapshot().content_hash;
  const uint64_t hash_b = (*engine_b)->snapshot().content_hash;
  ASSERT_NE(hash_a, hash_b);

  struct Observed {
    size_t query = 0;
    uint64_t generation = 0;
    std::vector<float> probabilities;
  };
  util::Mutex observed_mutex;
  std::vector<Observed> observed;
  std::atomic<uint64_t> failures{0};
  std::atomic<uint64_t> stats_polls{0}, mismatched_stats{0};
  std::atomic<bool> stop{false};
  const auto record = [&](size_t query_index,
                          const util::StatusOr<serve::Prediction>& result) {
    if (!result.ok()) {
      failures.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    util::MutexLock lock(observed_mutex);
    observed.push_back(
        Observed{query_index, result->generation, result->probabilities});
  };

  std::vector<std::thread> traffic;
  traffic.emplace_back([&] {  // sync caller
    size_t i = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      const size_t q = i++ % queries.size();
      record(q, (*router)->Predict(queries[q]));
    }
  });
  traffic.emplace_back([&] {  // batch caller
    size_t i = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      std::vector<serve::Query> batch;
      std::vector<size_t> indices;
      for (int b = 0; b < 4; ++b) {
        indices.push_back(i % queries.size());
        batch.push_back(queries[i % queries.size()]);
        ++i;
      }
      auto results = (*router)->PredictBatch(batch);
      for (size_t r = 0; r < results.size(); ++r)
        record(indices[r], results[r]);
    }
  });
  traffic.emplace_back([&] {  // async caller
    size_t i = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      const size_t q = i++ % queries.size();
      auto future = (*router)->SubmitAsync(queries[q]);
      record(q, future.get());
    }
  });
  traffic.emplace_back([&] {  // stats poller
    while (!stop.load(std::memory_order_relaxed)) {
      const serve::RouterStats stats = (*router)->Stats();
      const uint64_t expected = stats.generation % 2 == 1 ? hash_a : hash_b;
      if (stats.content_hash != expected) {
        mismatched_stats.fetch_add(1, std::memory_order_relaxed);
      }
      stats_polls.fetch_add(1, std::memory_order_relaxed);
    }
  });

  // Flip generations under fire: A -> B -> A -> ... with live traffic.
  constexpr int kReloads = 6;
  for (int flip = 0; flip < kReloads; ++flip) {
    std::this_thread::sleep_for(std::chrono::milliseconds(15));
    ASSERT_TRUE((*router)->Reload(flip % 2 == 0 ? path_b : path_a).ok());
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(15));
  stop.store(true);
  for (std::thread& t : traffic) t.join();

  EXPECT_EQ(failures.load(), 0u);  // zero failed requests across all swaps
  EXPECT_GT(stats_polls.load(), 0u);
  EXPECT_EQ(mismatched_stats.load(), 0u);
  EXPECT_EQ((*router)->generation(), static_cast<uint64_t>(kReloads + 1));
  if (knn) {
    EXPECT_GT((*router)->Stats().aggregate.knn_fired, 0u);
  }
  util::MutexLock lock(observed_mutex);
  ASSERT_GT(observed.size(), 0u);
  uint64_t max_generation = 0;
  for (const Observed& response : observed) {
    ASSERT_GE(response.generation, 1u);
    ASSERT_LE(response.generation, static_cast<uint64_t>(kReloads + 1));
    // Odd generation == snapshot A, even == snapshot B; no torn reads
    // means bit-exact agreement with that generation's reference.
    const std::vector<std::vector<float>>& expected =
        response.generation % 2 == 1 ? expected_a : expected_b;
    ASSERT_EQ(response.probabilities, expected[response.query])
        << "generation " << response.generation << " query "
        << response.query;
    max_generation = std::max(max_generation, response.generation);
  }
  EXPECT_GT(max_generation, 1u);  // traffic actually observed a swap
}

TEST(HotSwapTest, ServesConsistentGenerationsUnderFire) {
  HotSwapUnderFire(/*quantized=*/false, /*knn=*/false);
}

TEST(HotSwapTest, ServesConsistentQuantizedGenerationsUnderFire) {
  // Generation B's int8 store comes from the file's QEMB section,
  // generation A's is built at load: the swap flips between them.
  HotSwapUnderFire(/*quantized=*/true, /*knn=*/false);
}

TEST(HotSwapTest, ServesConsistentKnnGenerationsUnderFire) {
  // Each generation blends in its own index's neighbors: a response that
  // paired one generation's MR vectors with the other's index would match
  // neither reference.
  HotSwapUnderFire(/*quantized=*/false, /*knn=*/true);
}

// ---- snapshot watcher ------------------------------------------------------

namespace {

// Atomic replace: write a temp sibling, then rename() over the target.
// This is the published contract for snapshot writers — live generations
// mmap the old inode, and rename keeps that inode alive while swapping
// the path. Truncating the watched file in place would SIGBUS readers.
void CopyFile(const std::string& from, const std::string& to) {
  const std::string tmp = to + ".tmp";
  {
    std::ifstream in(from, std::ios::binary);
    IMR_CHECK(in.good());
    std::ofstream out(tmp, std::ios::binary);
    out << in.rdbuf();
  }
  IMR_CHECK_EQ(std::rename(tmp.c_str(), to.c_str()), 0);
}

void WriteFileAtomic(const std::string& to, const std::string& bytes) {
  const std::string tmp = to + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  IMR_CHECK_EQ(std::rename(tmp.c_str(), to.c_str()), 0);
}

}  // namespace

TEST(SnapshotWatcherTest, RequiresStabilityThenReloads) {
  ServeFixture& f = Shared();
  const std::string watched = testing::TempDir() + "/imr_watched.imrs";
  CopyFile(f.snapshot_path, watched);

  std::vector<std::string> reloads;
  serve::SnapshotWatcher watcher(
      watched, [&](const std::string& path) {
        reloads.push_back(path);
        return util::OkStatus();
      });
  // Unchanged file: polls do nothing.
  EXPECT_FALSE(watcher.CheckNow());
  EXPECT_FALSE(watcher.CheckNow());
  EXPECT_TRUE(reloads.empty());

  // New generation lands: first poll only records the candidate (the
  // writer might still be flushing), the second poll sees it stable and
  // fires the reload.
  CopyFile(f.snapshot_b_path, watched);
  EXPECT_FALSE(watcher.CheckNow());
  EXPECT_TRUE(reloads.empty());
  EXPECT_TRUE(watcher.CheckNow());
  ASSERT_EQ(reloads.size(), 1u);
  EXPECT_EQ(reloads[0], watched);
  // Settled: no re-fire.
  EXPECT_FALSE(watcher.CheckNow());
  EXPECT_EQ(reloads.size(), 1u);

  const serve::WatcherStats stats = watcher.Stats();
  EXPECT_EQ(stats.reloads_attempted, 1u);
  EXPECT_EQ(stats.reloads_succeeded, 1u);
  EXPECT_EQ(stats.reloads_failed, 0u);
  EXPECT_GE(stats.polls, 5u);
  std::remove(watched.c_str());
}

TEST(SnapshotWatcherTest, FailedReloadKeepsServingAndRearms) {
  ServeFixture& f = Shared();
  const std::string watched = testing::TempDir() + "/imr_watched_bad.imrs";
  CopyFile(f.snapshot_path, watched);

  serve::RouterOptions options;
  auto router = serve::ServeRouter::Open(watched, options);
  ASSERT_TRUE(router.ok());
  serve::SnapshotWatcher watcher(watched, [&](const std::string& path) {
    return (*router)->Reload(path);
  });

  // A corrupt write lands at the watched path (atomically, like any
  // well-behaved publisher — the serving mmap stays on the old inode).
  WriteFileAtomic(watched, "garbage, definitely not IMRS");
  EXPECT_FALSE(watcher.CheckNow());  // candidate observed
  EXPECT_TRUE(watcher.CheckNow());   // stable -> reload attempted, fails
  EXPECT_EQ(watcher.Stats().reloads_failed, 1u);
  EXPECT_FALSE(watcher.last_error().empty());
  // The old generation keeps serving.
  EXPECT_EQ((*router)->generation(), 1u);
  const std::vector<serve::Query> queries = f.SampleQueries(1);
  EXPECT_TRUE((*router)->Predict(queries[0]).ok());
  // The corrupt signature is consumed — no retry storm on every poll.
  EXPECT_FALSE(watcher.CheckNow());

  // The fixed snapshot lands: rollout proceeds.
  CopyFile(f.snapshot_b_path, watched);
  EXPECT_FALSE(watcher.CheckNow());
  EXPECT_TRUE(watcher.CheckNow());
  EXPECT_EQ(watcher.Stats().reloads_succeeded, 1u);
  EXPECT_TRUE(watcher.last_error().empty());
  EXPECT_EQ((*router)->generation(), 2u);
  std::remove(watched.c_str());
}

TEST(SnapshotWatcherTest, BackgroundThreadPicksUpChanges) {
  ServeFixture& f = Shared();
  const std::string watched = testing::TempDir() + "/imr_watched_bg.imrs";
  CopyFile(f.snapshot_path, watched);

  std::atomic<int> reloads{0};
  serve::WatcherOptions options;
  options.poll_interval_ms = 5;
  serve::SnapshotWatcher watcher(
      watched,
      [&](const std::string&) {
        reloads.fetch_add(1);
        return util::OkStatus();
      },
      options);
  watcher.Start();
  CopyFile(f.snapshot_b_path, watched);
  for (int i = 0; i < 400 && reloads.load() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  watcher.Stop();
  EXPECT_EQ(reloads.load(), 1);
  std::remove(watched.c_str());
}

// ---- format compat ---------------------------------------------------------
//
// check.sh's snapshot-compat stage runs exactly `SnapshotCompat*`.

TEST(SnapshotCompatTest, Version1FileIsRejectedAsUnsupported) {
  // v2 is the only format: a file whose version field says 1 fails on
  // that field with the same clean Status as any other unknown version,
  // before a single section is parsed.
  std::string bytes = SlurpSnapshot();
  const uint32_t version = 1;
  std::memcpy(bytes.data() + 4, &version, sizeof version);
  const util::Status status = LoadMutated(bytes, "imr_compat_v1.imrs");
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), util::StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("imr_compat_v1.imrs"), std::string::npos)
      << status.ToString();
  EXPECT_NE(status.message().find("unsupported version"), std::string::npos)
      << status.ToString();
  EXPECT_NE(status.message().find("file has 1"), std::string::npos)
      << status.ToString();
}

TEST(SnapshotCompatTest, V2OpensZeroCopyWithContentHash) {
  ServeFixture& f = Shared();
  auto v2 = serve::LoadSnapshot(f.snapshot_path);
  ASSERT_TRUE(v2.ok()) << v2.status().ToString();
  EXPECT_TRUE(v2->embeddings.borrowed());  // views into the mapping
  ASSERT_NE(v2->mapping, nullptr);
  EXPECT_NE(v2->content_hash, 0u);
  // The borrowed rows point into the mapped file, on a 64-byte boundary.
  const auto* raw = reinterpret_cast<const uint8_t*>(v2->embeddings.raw());
  EXPECT_GE(raw, v2->mapping->data());
  EXPECT_LT(raw, v2->mapping->data() + v2->mapping->size());
  EXPECT_EQ(reinterpret_cast<uintptr_t>(raw) % 64, 0u);
  // The footer hash is reproducible from the file bytes (identity, not
  // checked on the open fast path): FNV-1a over [8, footer_offset), where
  // footer_offset sits in the 16-byte trailer.
  const std::string bytes = SlurpSnapshot();
  ASSERT_GT(bytes.size(), 24u);
  uint64_t footer_offset = 0;
  std::memcpy(&footer_offset, bytes.data() + bytes.size() - 16, 8);
  ASSERT_LT(footer_offset, bytes.size());
  EXPECT_EQ(util::Fnv1a(bytes.data() + 8, footer_offset - 8),
            v2->content_hash);
}

TEST(SnapshotCompatTest, BulkArraysAre64ByteAlignedInMemory) {
  // The format aligns the EMBD and QEMB arrays to 64 bytes within the
  // file, which holds in memory only if the mapping (or the IMR_NO_MMAP
  // read buffer, or a delta's private copy of either) starts on a 64-byte
  // boundary. Several live opens, so one lucky heap placement cannot hide a
  // misaligned buffer.
  ServeFixture& f = Shared();
  std::vector<serve::Snapshot> live;
  for (int i = 0; i < 4; ++i) {
    auto snapshot = serve::LoadSnapshot(f.snapshot_b_path);  // carries QEMB
    ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
    live.push_back(std::move(*snapshot));
  }
  const std::string delta_path = testing::TempDir() + "/imr_aligned.imrd";
  serve::DeltaSpec spec;
  spec.touched_rows = {0};
  ASSERT_TRUE(serve::SaveDelta(live[0].content_hash, f.embeddings_b, nullptr,
                               spec, delta_path)
                  .ok());
  for (int i = 0; i < 2; ++i) {
    auto applied = serve::ApplyDelta(live[0], delta_path);
    ASSERT_TRUE(applied.ok()) << applied.status().ToString();
    live.push_back(std::move(*applied));
  }
  std::remove(delta_path.c_str());
  for (const serve::Snapshot& snapshot : live) {
    ASSERT_FALSE(snapshot.quantized_embeddings.empty());
    const void* arrays[] = {snapshot.embeddings.raw(),
                            snapshot.quantized_embeddings.raw(),
                            snapshot.quantized_embeddings.raw_scales()};
    for (const void* array : arrays) {
      EXPECT_EQ(reinterpret_cast<uintptr_t>(array) % 64, 0u);
    }
  }
}

TEST(SnapshotCompatTest, V2RejectedBySimulatedV1Reader) {
  // A v1-era reader validates (magic, version=1) in the BinaryReader
  // header check; a v2 file must fail that check with a clean Status, not
  // misparse the section table as sections.
  util::BinaryReader reader(Shared().snapshot_path, 0x494D5253u, 1u);
  ASSERT_FALSE(reader.status().ok());
  EXPECT_NE(reader.status().message().find("unsupported version"),
            std::string::npos);
  EXPECT_NE(reader.status().message().find("file has 2"), std::string::npos);
}

// ---- IMRD delta generations ------------------------------------------------

namespace {

/// Owned copy of `source` with `rows` perturbed by a row-dependent offset.
graph::EmbeddingStore PerturbRows(const graph::EmbeddingStore& source,
                                  const std::vector<int>& rows,
                                  float offset = 0.5f) {
  graph::EmbeddingStore copy(source.num_vertices(), source.dim());
  std::memcpy(copy.Vector(0), source.raw(),
              source.value_count() * sizeof(float));
  for (int row : rows) {
    float* values = copy.Vector(row);
    for (int d = 0; d < copy.dim(); ++d)
      values[d] += offset + 0.01f * static_cast<float>(d);
  }
  return copy;
}

}  // namespace

TEST(DeltaTest, HeaderProbeAndRowPatchRoundTrip) {
  ServeFixture& f = Shared();
  auto base = serve::LoadSnapshot(f.snapshot_path);
  ASSERT_TRUE(base.ok()) << base.status().ToString();
  ASSERT_NE(base->content_hash, 0u);

  const std::vector<int> rows = {1, 7, f.embeddings.num_vertices() - 1};
  const graph::EmbeddingStore patched = PerturbRows(f.embeddings, rows);
  const std::string delta_path = testing::TempDir() + "/imr_rt.imrd";
  serve::DeltaSpec spec;
  spec.touched_rows = {rows[2], rows[0], rows[1], rows[0]};  // unsorted, dup
  auto result_hash = serve::SaveDelta(base->content_hash, patched, nullptr,
                                      spec, delta_path);
  ASSERT_TRUE(result_hash.ok()) << result_hash.status().ToString();
  EXPECT_NE(*result_hash, base->content_hash);

  // O(1) identity probe.
  auto header = serve::ReadDeltaHeader(delta_path);
  ASSERT_TRUE(header.ok()) << header.status().ToString();
  EXPECT_EQ(header->base_hash, base->content_hash);
  EXPECT_EQ(header->result_hash, *result_hash);

  auto applied = serve::ApplyDelta(*base, delta_path);
  ASSERT_TRUE(applied.ok()) << applied.status().ToString();
  EXPECT_EQ(applied->content_hash, *result_hash);
  EXPECT_TRUE(applied->embeddings.borrowed());  // views over the CoW clone
  ASSERT_NE(applied->mapping, nullptr);
  EXPECT_NE(applied->mapping, base->mapping);  // private clone, not the base
  // Tables and kNN ride along by refcount, not copy.
  EXPECT_EQ(applied->tables.get(), base->tables.get());
  EXPECT_EQ(applied->knn.get(), base->knn.get());

  const int dim = f.embeddings.dim();
  const graph::EmbeddingStore& base_rows = base->embeddings;
  const graph::EmbeddingStore& applied_rows = applied->embeddings;
  for (int v = 0; v < f.embeddings.num_vertices(); ++v) {
    const bool touched =
        std::find(rows.begin(), rows.end(), v) != rows.end();
    const float* expected =
        touched ? patched.Vector(v) : base_rows.Vector(v);
    ASSERT_EQ(std::memcmp(applied_rows.Vector(v), expected,
                          static_cast<size_t>(dim) * sizeof(float)),
              0)
        << "row " << v << (touched ? " (touched)" : " (untouched)");
  }
  // The base generation is untouched by the apply (CoW isolation).
  EXPECT_EQ(std::memcmp(base->embeddings.raw(), f.embeddings.raw(),
                        f.embeddings.value_count() * sizeof(float)),
            0);
  // The applied model still predicts (parameters rebuilt from the base).
  ASSERT_NE(applied->model, nullptr);
  EXPECT_EQ(applied->model->Predict(*f.bags->test_bags().begin()),
            base->model->Predict(*f.bags->test_bags().begin()));
  std::remove(delta_path.c_str());
}

TEST(DeltaTest, PatchesNamedParameters) {
  ServeFixture& f = Shared();
  auto base = serve::LoadSnapshot(f.snapshot_path);
  ASSERT_TRUE(base.ok());
  // A scratch model (same trained weights) whose first parameter we nudge:
  // the delta must carry exactly that tensor.
  auto scratch = serve::LoadSnapshot(f.snapshot_path);
  ASSERT_TRUE(scratch.ok());
  auto scratch_params = scratch->model->Parameters();
  ASSERT_FALSE(scratch_params.empty());
  const std::string& name = scratch_params[0].name;
  scratch_params[0].tensor.mutable_data()[0] += 0.25f;  // shared node

  const std::string delta_path = testing::TempDir() + "/imr_param.imrd";
  serve::DeltaSpec spec;
  spec.touched_rows = {0};
  spec.changed_params = {name};
  auto result_hash = serve::SaveDelta(base->content_hash, f.embeddings,
                                      scratch->model.get(), spec, delta_path);
  ASSERT_TRUE(result_hash.ok()) << result_hash.status().ToString();

  auto applied = serve::ApplyDelta(*base, delta_path);
  ASSERT_TRUE(applied.ok()) << applied.status().ToString();
  const auto applied_params = applied->model->Parameters();
  const auto base_params = base->model->Parameters();
  ASSERT_EQ(applied_params.size(), base_params.size());
  for (size_t i = 0; i < applied_params.size(); ++i) {
    const std::vector<float>& expected = i == 0
                                             ? scratch_params[0].tensor.data()
                                             : base_params[i].tensor.data();
    EXPECT_EQ(applied_params[i].tensor.data(), expected)
        << "parameter " << applied_params[i].name;
  }
  // End to end: the applied model now predicts like the scratch model.
  int checked = 0;
  for (const re::Bag& bag : f.bags->test_bags()) {
    EXPECT_EQ(applied->model->Predict(bag), scratch->model->Predict(bag));
    if (++checked >= 3) break;
  }
  std::remove(delta_path.c_str());
}

TEST(DeltaTest, QuantizedRowsPatchInPlaceBitExactly) {
  ServeFixture& f = Shared();
  auto base = serve::LoadSnapshot(f.snapshot_b_path);  // carries QEMB
  ASSERT_TRUE(base.ok());
  ASSERT_FALSE(base->quantized_embeddings.empty());
  ASSERT_TRUE(base->quantized_embeddings.borrowed());

  const std::vector<int> rows = {0, 5, 11};
  const graph::EmbeddingStore patched = PerturbRows(f.embeddings_b, rows);
  const std::string delta_path = testing::TempDir() + "/imr_qemb.imrd";
  serve::DeltaSpec spec;
  spec.touched_rows = rows;  // include_quantized defaults to true
  auto result_hash = serve::SaveDelta(base->content_hash, patched, nullptr,
                                      spec, delta_path);
  ASSERT_TRUE(result_hash.ok()) << result_hash.status().ToString();

  auto applied = serve::ApplyDelta(*base, delta_path);
  ASSERT_TRUE(applied.ok()) << applied.status().ToString();
  ASSERT_FALSE(applied->quantized_embeddings.empty());
  EXPECT_TRUE(applied->quantized_embeddings.borrowed());

  const int dim = patched.dim();
  std::vector<int8_t> expected_row(static_cast<size_t>(dim));
  for (int v = 0; v < patched.num_vertices(); ++v) {
    const bool touched =
        std::find(rows.begin(), rows.end(), v) != rows.end();
    float expected_scale;
    if (touched) {
      // Bit-identical to save-time quantization: one shared kernel.
      graph::QuantizedEmbeddingStore::QuantizeRow(
          patched.Vector(v), dim, expected_row.data(), &expected_scale);
    } else {
      std::memcpy(expected_row.data(), base->quantized_embeddings.Row(v),
                  static_cast<size_t>(dim));
      expected_scale = base->quantized_embeddings.scale(v);
    }
    ASSERT_EQ(applied->quantized_embeddings.scale(v), expected_scale)
        << "row " << v;
    ASSERT_EQ(std::memcmp(applied->quantized_embeddings.Row(v),
                          expected_row.data(), static_cast<size_t>(dim)),
              0)
        << "row " << v;
  }
  std::remove(delta_path.c_str());
}

TEST(DeltaTest, RejectsBaseHashMismatchAndBadFraming) {
  ServeFixture& f = Shared();
  auto base = serve::LoadSnapshot(f.snapshot_path);
  auto other = serve::LoadSnapshot(f.snapshot_b_path);
  ASSERT_TRUE(base.ok());
  ASSERT_TRUE(other.ok());
  ASSERT_NE(base->content_hash, other->content_hash);

  const std::string delta_path = testing::TempDir() + "/imr_mismatch.imrd";
  serve::DeltaSpec spec;
  spec.touched_rows = {3};
  ASSERT_TRUE(serve::SaveDelta(base->content_hash, f.embeddings, nullptr,
                               spec, delta_path)
                  .ok());
  // Wrong generation: clean FailedPrecondition naming both hashes.
  auto mismatch = serve::ApplyDelta(*other, delta_path);
  ASSERT_FALSE(mismatch.ok());
  EXPECT_EQ(mismatch.status().code(), util::StatusCode::kFailedPrecondition);
  EXPECT_NE(mismatch.status().message().find("applies to base hash"),
            std::string::npos);

  // Bad framing: Status, never a crash.
  WriteFileAtomic(delta_path, "definitely not an IMRD file");
  EXPECT_FALSE(serve::ReadDeltaHeader(delta_path).ok());
  EXPECT_FALSE(serve::ApplyDelta(*base, delta_path).ok());

  // Bad spec: out-of-range rows and unknown parameter names fail the save.
  serve::DeltaSpec bad_rows;
  bad_rows.touched_rows = {f.embeddings.num_vertices() + 3};
  EXPECT_FALSE(serve::SaveDelta(base->content_hash, f.embeddings, nullptr,
                                bad_rows, delta_path)
                   .ok());
  serve::DeltaSpec bad_param;
  bad_param.touched_rows = {0};
  bad_param.changed_params = {"no/such/parameter"};
  EXPECT_FALSE(serve::SaveDelta(base->content_hash, f.embeddings,
                                f.model.get(), bad_param, delta_path)
                   .ok());
  std::remove(delta_path.c_str());
}

TEST(DeltaTest, ChainedDeltasComposeAcrossGenerations) {
  ServeFixture& f = Shared();
  auto base = serve::LoadSnapshot(f.snapshot_path);
  ASSERT_TRUE(base.ok());

  const std::vector<int> rows1 = {2, 9};
  const std::vector<int> rows2 = {4};
  const graph::EmbeddingStore step1 = PerturbRows(f.embeddings, rows1);
  const graph::EmbeddingStore step2 = PerturbRows(step1, rows2, 0.25f);
  const std::string d1 = testing::TempDir() + "/imr_chain1.imrd";
  const std::string d2 = testing::TempDir() + "/imr_chain2.imrd";
  serve::DeltaSpec spec1;
  spec1.touched_rows = rows1;
  auto h1 = serve::SaveDelta(base->content_hash, step1, nullptr, spec1, d1);
  ASSERT_TRUE(h1.ok());
  serve::DeltaSpec spec2;
  spec2.touched_rows = rows2;
  auto h2 = serve::SaveDelta(*h1, step2, nullptr, spec2, d2);
  ASSERT_TRUE(h2.ok());

  // d2 refuses the base generation (it chains on d1's result)...
  EXPECT_FALSE(serve::ApplyDelta(*base, d2).ok());
  // ...but composes through the chain.
  auto gen1 = serve::ApplyDelta(*base, d1);
  ASSERT_TRUE(gen1.ok()) << gen1.status().ToString();
  EXPECT_EQ(gen1->content_hash, *h1);
  auto gen2 = serve::ApplyDelta(*gen1, d2);
  ASSERT_TRUE(gen2.ok()) << gen2.status().ToString();
  EXPECT_EQ(gen2->content_hash, *h2);
  EXPECT_EQ(gen2->tables.get(), base->tables.get());
  ASSERT_EQ(gen2->embeddings.value_count(), step2.value_count());
  EXPECT_EQ(std::memcmp(gen2->embeddings.raw(), step2.raw(),
                        step2.value_count() * sizeof(float)),
            0);
  std::remove(d1.c_str());
  std::remove(d2.c_str());
}

TEST(DeltaTest, BaseWithoutMappingFailsPrecondition) {
  // Deltas patch a copy-on-write clone of the base's mapping; a generation
  // assembled by hand (owned embeddings, nothing mapped) has nothing to
  // clone and must fail cleanly, not dereference a null mapping.
  ServeFixture& f = Shared();
  auto loaded = serve::LoadSnapshot(f.snapshot_path);
  ASSERT_TRUE(loaded.ok());
  const std::string delta_path = testing::TempDir() + "/imr_unmapped.imrd";
  serve::DeltaSpec spec;
  spec.touched_rows = {0};
  ASSERT_TRUE(serve::SaveDelta(loaded->content_hash, f.embeddings, nullptr,
                               spec, delta_path)
                  .ok());
  serve::Snapshot unmapped;
  unmapped.manifest = loaded->manifest;
  unmapped.model = std::move(loaded->model);
  unmapped.embeddings = f.embeddings;
  unmapped.content_hash = loaded->content_hash;
  auto applied = serve::ApplyDelta(unmapped, delta_path);
  ASSERT_FALSE(applied.ok());
  EXPECT_EQ(applied.status().code(), util::StatusCode::kFailedPrecondition);
  std::remove(delta_path.c_str());
}

TEST(DeltaTest, AppliesOnlyVerifiedBytesWhilePathIsRenamedOver) {
  // A publisher replaces a delta by renaming a finished file over the
  // path. Here one thread renames a good delta and a copy with one flipped
  // row byte (which fails its own hash check) over the same path in a
  // loop, while this thread applies that path a fixed number of times.
  // ApplyDelta must parse the bytes whose hash it verified, so every apply
  // either fails the hash check or yields exactly the good delta's rows.
  ServeFixture& f = Shared();
  // A wide table, every row touched: each apply hashes and parses ~0.7 MB,
  // long enough for the path to flip many times while it runs.
  constexpr int kRows = 4096;
  const int dim = f.embeddings.dim();
  const size_t row_bytes = static_cast<size_t>(dim) * sizeof(float);
  graph::EmbeddingStore table(kRows, dim);
  for (int v = 0; v < kRows; ++v) {
    std::memcpy(table.Vector(v),
                f.embeddings.Vector(v % f.embeddings.num_vertices()),
                row_bytes);
  }
  std::vector<std::string> relation_names;
  for (const auto& schema : f.dataset->world.graph.relations())
    relation_names.push_back(schema.name);
  const std::string base_path = testing::TempDir() + "/imr_race_base.imrs";
  ASSERT_TRUE(serve::SaveSnapshot(*f.model, f.bags->vocabulary(), table,
                                  relation_names, {}, f.bag_options, 1,
                                  "race", base_path)
                  .ok());
  auto base = serve::LoadSnapshot(base_path);
  ASSERT_TRUE(base.ok()) << base.status().ToString();
  std::vector<int> rows(kRows);
  for (int v = 0; v < kRows; ++v) rows[static_cast<size_t>(v)] = v;
  const graph::EmbeddingStore patched = PerturbRows(table, rows);

  // The path flips between two staged files: the good delta and a copy
  // with one row byte flipped.
  const std::string path = testing::TempDir() + "/imr_race.imrd";
  const std::string staged[2] = {path + ".good", path + ".corrupt"};
  serve::DeltaSpec spec;
  spec.touched_rows = rows;
  auto result_hash = serve::SaveDelta(base->content_hash, patched, nullptr,
                                      spec, staged[0]);
  ASSERT_TRUE(result_hash.ok()) << result_hash.status().ToString();
  std::string bytes;
  {
    std::ifstream in(staged[0], std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  const size_t row_at = bytes.find(std::string(
      reinterpret_cast<const char*>(patched.Vector(rows[0])), row_bytes));
  ASSERT_NE(row_at, std::string::npos);
  bytes[row_at + 1] = static_cast<char>(bytes[row_at + 1] ^ 0x10);
  WriteFileAtomic(staged[1], bytes);
  CopyFile(staged[0], path);

  // Each publish hard-links a staged file to a temp name and renames it
  // over the path: the same atomic replace as writing a temp file, but
  // cheap enough to flip the path many times during one apply.
  std::atomic<bool> stop{false};
  std::thread publisher([&] {
    const std::string tmp = path + ".tmp";
    for (uint64_t i = 0; !stop.load(std::memory_order_relaxed); ++i) {
      const std::string& next = staged[(i + 1) % 2];
      if (::link(next.c_str(), tmp.c_str()) == 0) {
        IMR_CHECK_EQ(std::rename(tmp.c_str(), path.c_str()), 0);
      } else {
        CopyFile(next, path);  // no hard links on this filesystem
      }
    }
  });
  constexpr int kApplies = 200;
  int applied_ok = 0;
  int rejected = 0;
  for (int i = 0; i < kApplies; ++i) {
    auto applied = serve::ApplyDelta(*base, path);
    if (!applied.ok()) {
      ++rejected;
      EXPECT_NE(applied.status().message().find("content hash mismatch"),
                std::string::npos)
          << applied.status().ToString();
      continue;
    }
    ++applied_ok;
    EXPECT_EQ(applied->content_hash, *result_hash);
    // No ASSERT while the publisher runs: an early return would leave its
    // thread joinable.
    const graph::EmbeddingStore& served = applied->embeddings;
    int bad_row = -1;
    for (int row : rows) {
      if (std::memcmp(served.Vector(row), patched.Vector(row), row_bytes) !=
          0) {
        bad_row = row;
        break;
      }
    }
    EXPECT_EQ(bad_row, -1) << "apply " << i << " served unverified bytes";
    if (bad_row != -1) break;
  }
  stop.store(true);
  publisher.join();
  for (const std::string& file : {path, staged[0], staged[1], base_path})
    std::remove(file.c_str());
  EXPECT_GT(applied_ok, 0);
  EXPECT_GT(rejected, 0);
}

TEST(DeltaTest, RouterReloadDeltaMatchesFullSnapshot) {
  ServeFixture& f = Shared();
  serve::RouterOptions options;
  options.replicas = 2;
  auto router = serve::ServeRouter::Open(f.snapshot_path, options);
  ASSERT_TRUE(router.ok());
  const uint64_t base_hash = (*router)->content_hash();
  ASSERT_NE(base_hash, 0u);

  // Touch every sampled query's head row so predictions actually change.
  const std::vector<serve::Query> queries = f.SampleQueries(6);
  std::vector<int> rows;
  for (const serve::Query& query : queries)
    rows.push_back(static_cast<int>(query.head));
  const graph::EmbeddingStore patched = PerturbRows(f.embeddings, rows);
  const std::string delta_path = testing::TempDir() + "/imr_router.imrd";
  serve::DeltaSpec spec;
  spec.touched_rows = rows;
  auto result_hash =
      serve::SaveDelta(base_hash, patched, nullptr, spec, delta_path);
  ASSERT_TRUE(result_hash.ok());

  // Reference: the same post-step state saved as a FULL snapshot.
  const std::string ref_path = testing::TempDir() + "/imr_router_ref.imrs";
  ASSERT_TRUE(serve::SaveSnapshot(*f.model, f.bags->vocabulary(), patched,
                                  f.dataset->world.graph, f.bag_options, 9,
                                  "ref", ref_path)
                  .ok());
  auto reference = serve::InferenceEngine::Open(ref_path);
  ASSERT_TRUE(reference.ok());

  ASSERT_TRUE((*router)->ReloadDelta(delta_path).ok());
  EXPECT_EQ((*router)->generation(), 2u);
  EXPECT_EQ((*router)->content_hash(), *result_hash);
  const serve::RouterStats stats = (*router)->Stats();
  EXPECT_EQ(stats.reloads, 1u);
  EXPECT_EQ(stats.delta_reloads, 1u);
  EXPECT_EQ(stats.content_hash, *result_hash);
  EXPECT_TRUE(stats.last_reload_error.empty());

  for (const serve::Query& query : queries) {
    auto via_delta = (*router)->Predict(query);
    auto via_full = (*reference)->Predict(query);
    ASSERT_TRUE(via_delta.ok()) << via_delta.status().ToString();
    ASSERT_TRUE(via_full.ok());
    EXPECT_EQ(via_delta->probabilities, via_full->probabilities);
    EXPECT_EQ(via_delta->generation, 2u);
  }

  // Replaying the same delta fails cleanly (its base generation is gone)
  // and leaves the serving generation untouched.
  EXPECT_FALSE((*router)->ReloadDelta(delta_path).ok());
  EXPECT_EQ((*router)->generation(), 2u);
  EXPECT_FALSE((*router)->Stats().last_reload_error.empty());
  std::remove(delta_path.c_str());
  std::remove(ref_path.c_str());
}

// ---- watcher-driven delta rollout ------------------------------------------

namespace {

std::string MakeWatchDir(const std::string& name) {
  const std::string dir = testing::TempDir() + "/" + name;
  ::mkdir(dir.c_str(), 0755);
  return dir;
}

}  // namespace

TEST(SnapshotWatcherTest, AppliesSettledDeltasInChainOrder) {
  ServeFixture& f = Shared();
  const std::string dir = MakeWatchDir("imr_watch_chain");
  const std::string watched = dir + "/base.imrs";
  CopyFile(f.snapshot_path, watched);
  auto router = serve::ServeRouter::Open(watched);
  ASSERT_TRUE(router.ok());
  const uint64_t h0 = (*router)->content_hash();

  // Two chained deltas, NAMED so lexicographic order disagrees with chain
  // order — the watcher must order by base hash, not by name.
  const graph::EmbeddingStore step1 = PerturbRows(f.embeddings, {2, 9});
  const graph::EmbeddingStore step2 = PerturbRows(step1, {4}, 0.25f);
  serve::DeltaSpec spec1;
  spec1.touched_rows = {2, 9};
  auto h1 = serve::SaveDelta(h0, step1, nullptr, spec1,
                             dir + "/z_first.imrd");
  ASSERT_TRUE(h1.ok());
  serve::DeltaSpec spec2;
  spec2.touched_rows = {4};
  auto h2 = serve::SaveDelta(*h1, step2, nullptr, spec2,
                             dir + "/a_second.imrd");
  ASSERT_TRUE(h2.ok());

  serve::SnapshotWatcher watcher(watched, [&](const std::string& path) {
    return (*router)->Reload(path);
  });
  watcher.WatchDeltas(serve::DeltaHooks{
      [&] { return (*router)->content_hash(); },
      [&](const std::string& path) { return (*router)->ReloadDelta(path); }});

  // First poll: both files become debounce candidates, nothing applies.
  EXPECT_FALSE(watcher.CheckNow());
  EXPECT_EQ((*router)->generation(), 1u);
  // Second poll: both settled; the chain rolls out fully, in hash order.
  EXPECT_TRUE(watcher.CheckNow());
  EXPECT_EQ((*router)->generation(), 3u);
  EXPECT_EQ((*router)->content_hash(), *h2);
  serve::WatcherStats stats = watcher.Stats();
  EXPECT_EQ(stats.delta_applies_attempted, 2u);
  EXPECT_EQ(stats.delta_applies_succeeded, 2u);
  EXPECT_EQ(stats.delta_applies_failed, 0u);
  // Consumed: further polls are quiet.
  EXPECT_FALSE(watcher.CheckNow());
  EXPECT_EQ(watcher.Stats().delta_applies_attempted, 2u);

  std::remove((dir + "/z_first.imrd").c_str());
  std::remove((dir + "/a_second.imrd").c_str());
  std::remove(watched.c_str());
}

TEST(SnapshotWatcherTest, ConsumesFailedDeltasWithoutRetryStorm) {
  ServeFixture& f = Shared();
  const std::string dir = MakeWatchDir("imr_watch_bad_delta");
  const std::string watched = dir + "/base.imrs";
  CopyFile(f.snapshot_path, watched);
  auto router = serve::ServeRouter::Open(watched);
  ASSERT_TRUE(router.ok());
  const uint64_t h0 = (*router)->content_hash();

  serve::SnapshotWatcher watcher(watched, [&](const std::string& path) {
    return (*router)->Reload(path);
  });
  watcher.WatchDeltas(serve::DeltaHooks{
      [&] { return (*router)->content_hash(); },
      [&](const std::string& path) { return (*router)->ReloadDelta(path); }});

  // Corrupt framing: consumed after one failed probe, never retried.
  WriteFileAtomic(dir + "/bad.imrd", "garbage, definitely not IMRD");
  EXPECT_FALSE(watcher.CheckNow());
  EXPECT_TRUE(watcher.CheckNow());
  serve::WatcherStats stats = watcher.Stats();
  EXPECT_EQ(stats.delta_applies_attempted, 1u);
  EXPECT_EQ(stats.delta_applies_failed, 1u);
  EXPECT_FALSE(watcher.last_error().empty());
  EXPECT_FALSE(watcher.CheckNow());
  EXPECT_EQ(watcher.Stats().delta_applies_attempted, 1u);  // no storm

  // A delta for a FUTURE generation stays pending (cheap header probe,
  // not consumed, not counted as an attempt).
  serve::DeltaSpec spec;
  spec.touched_rows = {1};
  ASSERT_TRUE(serve::SaveDelta(0xDEADBEEFu, f.embeddings, nullptr, spec,
                               dir + "/pending.imrd")
                  .ok());
  EXPECT_FALSE(watcher.CheckNow());
  EXPECT_FALSE(watcher.CheckNow());
  EXPECT_EQ(watcher.Stats().delta_applies_attempted, 1u);

  // A hash-matched delta whose APPLY fails (shape mismatch) is consumed.
  graph::EmbeddingStore tiny(4, 3);
  serve::DeltaSpec tiny_spec;
  tiny_spec.touched_rows = {0};
  ASSERT_TRUE(serve::SaveDelta(h0, tiny, nullptr, tiny_spec,
                               dir + "/mismatch.imrd")
                  .ok());
  EXPECT_FALSE(watcher.CheckNow());  // debounce
  EXPECT_TRUE(watcher.CheckNow());   // apply attempted, fails, consumed
  stats = watcher.Stats();
  EXPECT_EQ(stats.delta_applies_attempted, 2u);
  EXPECT_EQ(stats.delta_applies_failed, 2u);
  EXPECT_FALSE(watcher.CheckNow());
  EXPECT_EQ(watcher.Stats().delta_applies_attempted, 2u);
  // Through it all the old generation kept serving.
  EXPECT_EQ((*router)->generation(), 1u);
  EXPECT_EQ((*router)->content_hash(), h0);

  for (const char* name : {"/bad.imrd", "/pending.imrd", "/mismatch.imrd"})
    std::remove((dir + name).c_str());
  std::remove(watched.c_str());
}

// ---- mmap lifetime under fire ----------------------------------------------

TEST(MmapLifetimeTest, UnlinkedBaseServesBitExactThroughDeltaSwap) {
  // The base snapshot file is DELETED mid-traffic while borrowed views are
  // live, then a chain of delta generations is published (each a CoW clone
  // of the previous mapping, the first of the unlinked base's), and each
  // delta file is deleted as soon as it applies. Every response must carry
  // an in-range generation stamp and bit-match that generation's
  // reference — the mappings outlive their directory entries — and every
  // apply must count as a delta reload.
  ServeFixture& f = Shared();
  const std::string dir = MakeWatchDir("imr_mmap_lifetime");
  const std::string base_path = dir + "/base.imrs";
  CopyFile(f.snapshot_path, base_path);

  serve::RouterOptions options;
  options.replicas = 2;
  options.workers_per_replica = 2;
  auto router = serve::ServeRouter::Open(base_path, options);
  ASSERT_TRUE(router.ok());

  // Generation g + 1 is generation g with the queried head rows moved
  // again; each delta chains on the previous generation's content hash.
  constexpr int kDeltas = 3;
  const std::vector<serve::Query> queries = f.SampleQueries(4);
  std::vector<int> rows;
  for (const serve::Query& query : queries)
    rows.push_back(static_cast<int>(query.head));
  std::vector<graph::EmbeddingStore> tables;
  tables.push_back(f.embeddings);
  std::vector<std::string> delta_paths;
  uint64_t chain_hash = (*router)->content_hash();
  for (int d = 0; d < kDeltas; ++d) {
    tables.push_back(PerturbRows(tables.back(), rows));
    delta_paths.push_back(dir + "/step" + std::to_string(d) + ".imrd");
    serve::DeltaSpec spec;
    spec.touched_rows = rows;
    auto result_hash = serve::SaveDelta(chain_hash, tables.back(), nullptr,
                                        spec, delta_paths.back());
    ASSERT_TRUE(result_hash.ok());
    chain_hash = *result_hash;
  }

  // Per-generation references (expected[g - 1] for generation g), from
  // full snapshots of the same tables.
  std::vector<std::vector<std::vector<float>>> expected;
  const std::string ref_path = dir + "/ref.imrs";
  for (const graph::EmbeddingStore& table : tables) {
    ASSERT_TRUE(serve::SaveSnapshot(*f.model, f.bags->vocabulary(), table,
                                    f.dataset->world.graph, f.bag_options, 9,
                                    "ref", ref_path)
                    .ok());
    auto engine = serve::InferenceEngine::Open(ref_path);
    ASSERT_TRUE(engine.ok());
    expected.emplace_back();
    for (const serve::Query& query : queries) {
      auto result = (*engine)->Predict(query);
      ASSERT_TRUE(result.ok());
      expected.back().push_back(result->probabilities);
    }
    std::remove(ref_path.c_str());
  }
  for (size_t g = 1; g < expected.size(); ++g) {
    for (size_t q = 0; q < queries.size(); ++q)
      ASSERT_NE(expected[g][q], expected[g - 1][q]);
  }

  struct Observed {
    size_t query = 0;
    uint64_t generation = 0;
    std::vector<float> probabilities;
  };
  util::Mutex observed_mutex;
  std::vector<Observed> observed;
  std::atomic<uint64_t> failures{0};
  std::atomic<bool> stop{false};
  std::vector<std::thread> traffic;
  for (int t = 0; t < 2; ++t) {
    traffic.emplace_back([&, t] {
      size_t i = static_cast<size_t>(t);
      while (!stop.load(std::memory_order_relaxed)) {
        const size_t q = i++ % queries.size();
        auto result = (*router)->Predict(queries[q]);
        if (!result.ok()) {
          failures.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        util::MutexLock lock(observed_mutex);
        observed.push_back(
            Observed{q, result->generation, result->probabilities});
      }
    });
  }

  std::this_thread::sleep_for(std::chrono::milliseconds(15));
  // Unlink the base snapshot out from under the live mapping...
  ASSERT_EQ(std::remove(base_path.c_str()), 0);
  for (const std::string& delta_path : delta_paths) {
    std::this_thread::sleep_for(std::chrono::milliseconds(15));
    // ...publish the next delta generation (CoW over the previous one)...
    ASSERT_TRUE((*router)->ReloadDelta(delta_path).ok());
    // ...and delete the delta file as well: serving owes nothing to disk.
    ASSERT_EQ(std::remove(delta_path.c_str()), 0);
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(15));
  stop.store(true);
  for (std::thread& t : traffic) t.join();

  constexpr uint64_t kLastGeneration = kDeltas + 1;
  EXPECT_EQ(failures.load(), 0u);
  EXPECT_EQ((*router)->generation(), kLastGeneration);
  EXPECT_EQ((*router)->content_hash(), chain_hash);
  const serve::RouterStats stats = (*router)->Stats();
  EXPECT_EQ(stats.reloads, static_cast<uint64_t>(kDeltas));
  EXPECT_EQ(stats.delta_reloads, static_cast<uint64_t>(kDeltas));
  util::MutexLock lock(observed_mutex);
  ASSERT_GT(observed.size(), 0u);
  uint64_t max_generation = 0;
  for (const Observed& response : observed) {
    ASSERT_GE(response.generation, 1u);
    ASSERT_LE(response.generation, kLastGeneration);
    ASSERT_EQ(response.probabilities,
              expected[response.generation - 1][response.query])
        << "generation " << response.generation << " query "
        << response.query;
    max_generation = std::max(max_generation, response.generation);
  }
  EXPECT_EQ(max_generation, kLastGeneration);  // traffic reached the last
}

TEST(QuantizedEngineTest, QuantizedServingIsDeterministic) {
  ServeFixture& f = Shared();
  serve::EngineOptions options;
  options.quantized = true;
  auto engine = serve::InferenceEngine::Open(f.snapshot_path, options);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  const std::vector<serve::Query> queries = f.SampleQueries(4);
  for (const serve::Query& query : queries) {
    auto first = (*engine)->Predict(query);
    auto second = (*engine)->Predict(query);  // second hits the MR cache
    ASSERT_TRUE(first.ok());
    ASSERT_TRUE(second.ok());
    EXPECT_EQ(first->probabilities, second->probabilities);
  }
}

}  // namespace
}  // namespace imr
