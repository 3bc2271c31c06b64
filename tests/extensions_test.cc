// Tests for the extension modules: corpus persistence, DeepWalk embedding,
// GNN-style embedding propagation (the paper's future-work direction), and
// multi-run aggregation.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>

#include "datagen/presets.h"
#include "eval/aggregate.h"
#include "eval/per_relation.h"
#include "graph/deepwalk.h"
#include "graph/node2vec.h"
#include "graph/line.h"
#include "graph/propagation.h"
#include "re/bag_dataset.h"
#include "re/pa_model.h"
#include "re/trainer.h"
#include "text/corpus_io.h"
#include "util/rng.h"

namespace imr {
namespace {

// ---------- corpus persistence ----------

text::LabeledSentence MakeLabeled(int seed) {
  text::LabeledSentence labeled;
  labeled.sentence.tokens = {"the", "head" + std::to_string(seed), "works",
                             "at", "tail" + std::to_string(seed), "."};
  labeled.sentence.head_index = 1;
  labeled.sentence.tail_index = 4;
  labeled.sentence.head_entity = seed;
  labeled.sentence.tail_entity = seed + 100;
  labeled.relation = seed % 5;
  labeled.true_relation = (seed + 1) % 5;
  return labeled;
}

TEST(CorpusIoTest, LabeledRoundTrip) {
  std::vector<text::LabeledSentence> corpus;
  for (int i = 0; i < 25; ++i) corpus.push_back(MakeLabeled(i));
  const std::string path = "/tmp/imr_corpus_labeled.bin";
  ASSERT_TRUE(text::SaveLabeledCorpus(corpus, path).ok());
  auto loaded = text::LoadLabeledCorpus(path);
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded->size(), corpus.size());
  for (size_t i = 0; i < corpus.size(); ++i) {
    EXPECT_EQ((*loaded)[i].sentence.tokens, corpus[i].sentence.tokens);
    EXPECT_EQ((*loaded)[i].sentence.head_entity,
              corpus[i].sentence.head_entity);
    EXPECT_EQ((*loaded)[i].relation, corpus[i].relation);
    EXPECT_EQ((*loaded)[i].true_relation, corpus[i].true_relation);
  }
  std::remove(path.c_str());
}

TEST(CorpusIoTest, UnlabeledRoundTrip) {
  std::vector<text::Sentence> corpus;
  for (int i = 0; i < 10; ++i) corpus.push_back(MakeLabeled(i).sentence);
  const std::string path = "/tmp/imr_corpus_unlabeled.bin";
  ASSERT_TRUE(text::SaveUnlabeledCorpus(corpus, path).ok());
  auto loaded = text::LoadUnlabeledCorpus(path);
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded->size(), corpus.size());
  EXPECT_EQ((*loaded)[3].tokens, corpus[3].tokens);
  std::remove(path.c_str());
}

TEST(CorpusIoTest, WrongMagicRejected) {
  std::vector<text::Sentence> corpus = {MakeLabeled(1).sentence};
  const std::string path = "/tmp/imr_corpus_mixed.bin";
  ASSERT_TRUE(text::SaveUnlabeledCorpus(corpus, path).ok());
  EXPECT_FALSE(text::LoadLabeledCorpus(path).ok());  // labeled magic differs
  std::remove(path.c_str());
}

TEST(CorpusIoTest, GeneratedCorpusRoundTrip) {
  datagen::PresetOptions options;
  options.scale = 0.2;
  auto dataset = datagen::MakeGdsLike(options);
  const std::string path = "/tmp/imr_corpus_generated.bin";
  ASSERT_TRUE(text::SaveLabeledCorpus(dataset.corpus.train, path).ok());
  auto loaded = text::LoadLabeledCorpus(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->size(), dataset.corpus.train.size());
  std::remove(path.c_str());
}

TEST(CorpusIoTest, MissingFileFails) {
  EXPECT_FALSE(text::LoadLabeledCorpus("/tmp/imr_nonexistent_xyz.bin").ok());
}

// ---------- DeepWalk ----------

graph::ProximityGraph TwoCommunities() {
  graph::ProximityGraph graph(16);
  util::Rng rng(5);
  for (int round = 0; round < 60; ++round) {
    int a = static_cast<int>(rng.UniformInt(8));
    int b = static_cast<int>(rng.UniformInt(8));
    if (a != b) graph.AddCooccurrence(a, b);
    a = 8 + static_cast<int>(rng.UniformInt(8));
    b = 8 + static_cast<int>(rng.UniformInt(8));
    if (a != b) graph.AddCooccurrence(a, b);
  }
  graph.AddCooccurrence(0, 8);
  graph.AddCooccurrence(0, 8);
  graph.Finalize(2);
  return graph;
}

TEST(DeepWalkTest, SeparatesCommunities) {
  graph::ProximityGraph graph = TwoCommunities();
  graph::DeepWalkConfig config;
  config.dim = 16;
  config.walks_per_vertex = 20;
  graph::EmbeddingStore store = graph::TrainDeepWalk(graph, config);
  double within = 0, across = 0;
  int nw = 0, na = 0;
  for (int a = 0; a < 8; ++a) {
    for (int b = a + 1; b < 8; ++b) {
      within += store.Cosine(a, b);
      ++nw;
    }
    for (int b = 8; b < 16; ++b) {
      across += store.Cosine(a, b);
      ++na;
    }
  }
  EXPECT_GT(within / nw, across / na + 0.2);
}

TEST(DeepWalkTest, RowsAreUnitNorm) {
  graph::ProximityGraph graph = TwoCommunities();
  graph::DeepWalkConfig config;
  config.dim = 8;
  config.walks_per_vertex = 4;
  graph::EmbeddingStore store = graph::TrainDeepWalk(graph, config);
  for (int v = 0; v < 16; ++v) {
    double norm = 0;
    for (int d = 0; d < 8; ++d)
      norm += static_cast<double>(store.Vector(v)[d]) * store.Vector(v)[d];
    EXPECT_NEAR(std::sqrt(norm), 1.0, 1e-4) << "vertex " << v;
  }
}

TEST(DeepWalkTest, DeterministicForSeed) {
  graph::ProximityGraph graph = TwoCommunities();
  graph::DeepWalkConfig config;
  config.dim = 8;
  config.walks_per_vertex = 3;
  config.threads = 1;  // only one thread is bit-exact (Hogwild otherwise)
  auto a = graph::TrainDeepWalk(graph, config);
  auto b = graph::TrainDeepWalk(graph, config);
  EXPECT_EQ(a.flat(), b.flat());
}

// ---------- node2vec ----------

TEST(Node2VecTest, SeparatesCommunities) {
  graph::ProximityGraph graph = TwoCommunities();
  graph::Node2VecConfig config;
  config.dim = 16;
  config.walks_per_vertex = 20;
  graph::EmbeddingStore store = graph::TrainNode2Vec(graph, config);
  double within = 0, across = 0;
  int nw = 0, na = 0;
  for (int a = 0; a < 8; ++a) {
    for (int b = a + 1; b < 8; ++b) {
      within += store.Cosine(a, b);
      ++nw;
    }
    for (int b = 8; b < 16; ++b) {
      across += store.Cosine(a, b);
      ++na;
    }
  }
  EXPECT_GT(within / nw, across / na + 0.2);
}

TEST(Node2VecTest, PQOneMatchesDeepWalkQualitatively) {
  // With p = q = 1 node2vec walks are unbiased; the embedding should be of
  // comparable quality to DeepWalk's (both separate the communities).
  graph::ProximityGraph graph = TwoCommunities();
  graph::Node2VecConfig config;
  config.dim = 8;
  config.walks_per_vertex = 10;
  config.p = 1.0;
  config.q = 1.0;
  graph::EmbeddingStore store = graph::TrainNode2Vec(graph, config);
  EXPECT_GT(store.Cosine(1, 2), store.Cosine(1, 12));
}

TEST(Node2VecTest, RowsAreUnitNormAndDeterministic) {
  graph::ProximityGraph graph = TwoCommunities();
  graph::Node2VecConfig config;
  config.dim = 8;
  config.walks_per_vertex = 3;
  config.p = 0.5;
  config.q = 2.0;
  config.threads = 1;  // only one thread is bit-exact (Hogwild otherwise)
  auto a = graph::TrainNode2Vec(graph, config);
  auto b = graph::TrainNode2Vec(graph, config);
  EXPECT_EQ(a.flat(), b.flat());
  for (int v = 0; v < 16; ++v) {
    double norm = 0;
    for (int d = 0; d < 8; ++d)
      norm += static_cast<double>(a.Vector(v)[d]) * a.Vector(v)[d];
    EXPECT_NEAR(std::sqrt(norm), 1.0, 1e-4);
  }
}

// ---------- propagation ----------

TEST(PropagationTest, ZeroRoundsIsIdentity) {
  graph::ProximityGraph graph = TwoCommunities();
  graph::EmbeddingStore store(16, 4);
  util::Rng rng(3);
  for (int v = 0; v < 16; ++v)
    for (int d = 0; d < 4; ++d)
      store.Vector(v)[d] = static_cast<float>(rng.Normal());
  graph::PropagationConfig config;
  config.rounds = 0;
  auto out = graph::PropagateEmbeddings(graph, store, config);
  EXPECT_EQ(out.flat(), store.flat());
}

TEST(PropagationTest, IsolatedVertexUnchanged) {
  graph::ProximityGraph graph(4);
  graph.AddCooccurrence(0, 1);
  graph.AddCooccurrence(0, 1);
  graph.Finalize(2);  // vertices 2, 3 isolated
  graph::EmbeddingStore store(4, 3);
  for (int v = 0; v < 4; ++v)
    for (int d = 0; d < 3; ++d) store.Vector(v)[d] = v + d * 0.1f;
  graph::PropagationConfig config;
  config.rounds = 2;
  config.renormalize = false;
  auto out = graph::PropagateEmbeddings(graph, store, config);
  for (int d = 0; d < 3; ++d) {
    EXPECT_FLOAT_EQ(out.Vector(2)[d], store.Vector(2)[d]);
    EXPECT_FLOAT_EQ(out.Vector(3)[d], store.Vector(3)[d]);
  }
}

TEST(PropagationTest, SmoothingPullsNeighborsTogether) {
  graph::ProximityGraph graph = TwoCommunities();
  graph::LineConfig line;  // use LINE as base embedding
  line.dim = 16;
  line.samples_per_edge = 200;
  auto base = graph::TrainLine(graph, line);
  graph::PropagationConfig config;
  config.rounds = 2;
  auto smoothed = graph::PropagateEmbeddings(graph, base, config);
  // Average within-community cosine must not decrease.
  auto mean_within = [](const graph::EmbeddingStore& store) {
    double total = 0;
    int n = 0;
    for (int a = 0; a < 8; ++a)
      for (int b = a + 1; b < 8; ++b) {
        total += store.Cosine(a, b);
        ++n;
      }
    return total / n;
  };
  EXPECT_GE(mean_within(smoothed), mean_within(base) - 1e-6);
}

TEST(PropagationTest, AttentionWeightingRuns) {
  graph::ProximityGraph graph = TwoCommunities();
  graph::EmbeddingStore store(16, 8);
  util::Rng rng(9);
  for (int v = 0; v < 16; ++v)
    for (int d = 0; d < 8; ++d)
      store.Vector(v)[d] = static_cast<float>(rng.Normal());
  graph::PropagationConfig config;
  config.rounds = 1;
  config.weighting = graph::PropagationWeighting::kAttention;
  auto out = graph::PropagateEmbeddings(graph, store, config);
  for (float v : out.flat()) EXPECT_TRUE(std::isfinite(v));
}

// ---------- per-relation breakdown ----------

TEST(PerRelationTest, CountsAndMacroAverages) {
  // gold:      1 1 2 0 0
  // predicted: 1 2 2 0 1
  auto result =
      eval::PerRelationBreakdown({1, 1, 2, 0, 0}, {1, 2, 2, 0, 1}, 3);
  ASSERT_EQ(result.relations.size(), 3u);
  // Relation 1: support 2, predicted 2, tp 1.
  EXPECT_EQ(result.relations[1].support, 2);
  EXPECT_EQ(result.relations[1].predicted, 2);
  EXPECT_EQ(result.relations[1].true_positive, 1);
  EXPECT_NEAR(result.relations[1].precision, 0.5, 1e-12);
  EXPECT_NEAR(result.relations[1].recall, 0.5, 1e-12);
  // Relation 2: support 1, predicted 2, tp 1.
  EXPECT_NEAR(result.relations[2].precision, 0.5, 1e-12);
  EXPECT_NEAR(result.relations[2].recall, 1.0, 1e-12);
  // Macro over relations 1 and 2 only (NA excluded).
  EXPECT_EQ(result.relations_with_support, 2);
  EXPECT_NEAR(result.macro_precision, 0.5, 1e-12);
  EXPECT_NEAR(result.macro_recall, 0.75, 1e-12);
}

TEST(PerRelationTest, PerfectPredictions) {
  auto result = eval::PerRelationBreakdown({0, 1, 2}, {0, 1, 2}, 3);
  EXPECT_NEAR(result.macro_f1, 1.0, 1e-12);
}

TEST(PerRelationTest, EmptyInput) {
  auto result = eval::PerRelationBreakdown({}, {}, 4);
  EXPECT_EQ(result.relations_with_support, 0);
  EXPECT_EQ(result.macro_f1, 0.0);
}

// ---------- adversarial training ----------

TEST(AdversarialTrainingTest, RunsAndStillLearns) {
  datagen::PresetOptions options;
  options.scale = 0.4;
  auto dataset = datagen::MakeGdsLike(options);
  re::BagDatasetOptions bag_options;
  bag_options.max_sentence_length = 40;
  bag_options.max_position = 20;
  auto bags = re::BagDataset::Build(dataset.world.graph,
                                    dataset.corpus.train,
                                    dataset.corpus.test, bag_options);
  util::Rng rng(3);
  re::PaModelConfig config;
  config.num_relations = bags.num_relations();
  config.encoder = "cnn";
  config.aggregation = re::Aggregation::kAverage;
  config.encoder_config.vocab_size = bags.vocabulary().size();
  config.encoder_config.word_dim = 12;
  config.encoder_config.position_dim = 3;
  config.encoder_config.max_position = 20;
  config.encoder_config.filters = 16;
  re::PaModel model(config, &rng);

  re::TrainerConfig trainer_config;
  trainer_config.epochs = 8;
  trainer_config.batch_size = 32;
  trainer_config.optimizer = "adam";
  trainer_config.learning_rate = 0.01f;
  trainer_config.adversarial_epsilon = 0.01f;
  re::Trainer trainer(&model, trainer_config);
  auto history = trainer.Train(bags.train_bags());
  ASSERT_EQ(history.size(), 8u);
  EXPECT_LT(history.back().mean_loss, history.front().mean_loss);
  // Parameters stayed finite under the perturb/restore cycle.
  for (const auto& p : model.Parameters()) {
    for (float v : p.tensor.data()) ASSERT_TRUE(std::isfinite(v)) << p.name;
  }
}

// ---------- aggregation ----------

TEST(RunStatsTest, MeanAndStddev) {
  eval::RunStats stats;
  stats.Add("auc", 0.4);
  stats.Add("auc", 0.6);
  stats.Add("auc", 0.5);
  auto summary = stats.Summary("auc");
  EXPECT_EQ(summary.runs, 3);
  EXPECT_NEAR(summary.mean, 0.5, 1e-12);
  EXPECT_NEAR(summary.stddev, 0.1, 1e-9);
  EXPECT_NEAR(summary.min, 0.4, 1e-12);
  EXPECT_NEAR(summary.max, 0.6, 1e-12);
}

TEST(RunStatsTest, UnknownMetricIsZero) {
  eval::RunStats stats;
  auto summary = stats.Summary("nothing");
  EXPECT_EQ(summary.runs, 0);
  EXPECT_EQ(summary.mean, 0.0);
}

TEST(RunStatsTest, AddResultRecordsStandardSet) {
  eval::RunStats stats;
  eval::HeldOutResult result;
  result.auc = 0.7;
  result.best.precision = 0.8;
  result.best.recall = 0.6;
  result.best.f1 = 0.69;
  result.p_at_100 = 0.9;
  result.p_at_200 = 0.85;
  stats.AddResult(result);
  stats.AddResult(result);
  EXPECT_EQ(stats.Summary("auc").runs, 2);
  EXPECT_NEAR(stats.Summary("f1").mean, 0.69, 1e-12);
  EXPECT_EQ(stats.MetricNames().size(), 6u);
  EXPECT_NEAR(stats.Summary("auc").stddev, 0.0, 1e-12);
}

}  // namespace
}  // namespace imr
