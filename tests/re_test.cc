#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>

#include "datagen/presets.h"
#include "graph/line.h"
#include "graph/proximity_graph.h"
#include "nn/gradcheck.h"
#include "re/bag_dataset.h"
#include "re/cnn_rl.h"
#include "re/config.h"
#include "re/features.h"
#include "re/mimlre.h"
#include "re/mintz.h"
#include "re/multir.h"
#include "re/pa_model.h"
#include "re/trainer.h"
#include "tensor/ops.h"
#include "tensor/simd/dispatch.h"
#include "tensor/tensor.h"

namespace imr::re {
namespace {

// A tiny dataset shared by the model tests.
struct Fixture {
  Fixture() {
    datagen::PresetOptions options;
    options.scale = 0.5;
    dataset = std::make_unique<datagen::SyntheticDataset>(
        datagen::MakeGdsLike(options));
    BagDatasetOptions bag_options;
    bag_options.max_sentence_length = 40;
    bag_options.max_position = 20;
    bags = std::make_unique<BagDataset>(
        BagDataset::Build(dataset->world.graph, dataset->corpus.train,
                          dataset->corpus.test, bag_options));
  }

  PaModelConfig SmallModelConfig(const std::string& encoder,
                                 Aggregation aggregation, bool use_mr,
                                 bool use_type) const {
    PaModelConfig config;
    config.num_relations = bags->num_relations();
    config.encoder = encoder;
    config.aggregation = aggregation;
    config.use_mutual_relation = use_mr;
    config.use_entity_type = use_type;
    config.mutual_relation_dim = 16;
    config.type_dim = 6;
    config.encoder_config.vocab_size = bags->vocabulary().size();
    config.encoder_config.word_dim = 16;
    config.encoder_config.position_dim = 3;
    config.encoder_config.max_position = 20;
    config.encoder_config.filters = 24;
    config.encoder_config.dropout = 0.0f;
    return config;
  }

  void AttachMr() {
    graph::ProximityGraph proximity(dataset->world.graph.num_entities());
    proximity.AddCorpus(dataset->unlabeled.sentences);
    proximity.Finalize(2);
    graph::LineConfig line;
    line.dim = 16;
    line.samples_per_edge = 150;
    auto store = graph::TrainLine(proximity, line);
    ASSERT_TRUE(bags->AttachMutualRelations(store).ok());
  }

  std::unique_ptr<datagen::SyntheticDataset> dataset;
  std::unique_ptr<BagDataset> bags;
};

Fixture& SharedFixture() {
  static Fixture* fixture = new Fixture();
  return *fixture;
}

TEST(BagDatasetTest, GroupsByPairAndKeepsLabels) {
  Fixture& f = SharedFixture();
  const auto& train = f.bags->train_bags();
  ASSERT_FALSE(train.empty());
  std::set<std::pair<int64_t, int64_t>> pairs;
  for (const Bag& bag : train) {
    EXPECT_FALSE(bag.sentences.empty());
    EXPECT_FALSE(bag.head_types.empty());
    EXPECT_FALSE(bag.tail_types.empty());
    EXPECT_TRUE(pairs.insert({bag.head, bag.tail}).second)
        << "duplicate bag for a pair";
    EXPECT_EQ(bag.relation,
              f.dataset->world.graph.PairRelation(bag.head, bag.tail));
  }
}

TEST(BagDatasetTest, EncoderInputsWellFormed) {
  Fixture& f = SharedFixture();
  for (const Bag& bag : f.bags->train_bags()) {
    for (const nn::EncoderInput& input : bag.sentences) {
      ASSERT_FALSE(input.word_ids.empty());
      EXPECT_LE(input.word_ids.size(), 40u);
      EXPECT_EQ(input.word_ids.size(), input.head_offsets.size());
      EXPECT_EQ(input.word_ids.size(), input.tail_offsets.size());
      EXPECT_GE(input.head_index, 0);
      EXPECT_LT(static_cast<size_t>(input.head_index),
                input.word_ids.size());
      for (int id : input.word_ids) {
        EXPECT_GE(id, 0);
        EXPECT_LT(id, f.bags->vocabulary().size());
      }
      for (int id : input.head_offsets) {
        EXPECT_GE(id, 0);
        EXPECT_LE(id, 40);
      }
    }
  }
}

TEST(BagDatasetTest, EntityBlindingUsesPlaceholders) {
  Fixture& f = SharedFixture();
  const int head_id = f.bags->vocabulary().Id(kHeadPlaceholder);
  const int tail_id = f.bags->vocabulary().Id(kTailPlaceholder);
  ASSERT_NE(head_id, text::Vocabulary::kUnkId);
  ASSERT_NE(tail_id, text::Vocabulary::kUnkId);
  for (const Bag& bag : f.bags->test_bags()) {
    for (const auto& input : bag.sentences) {
      EXPECT_EQ(input.word_ids[static_cast<size_t>(input.head_index)],
                head_id);
      EXPECT_EQ(input.word_ids[static_cast<size_t>(input.tail_index)],
                tail_id);
    }
  }
}

TEST(BagDatasetTest, WithoutBlindingTestEntitiesAreUnk) {
  Fixture& f = SharedFixture();
  BagDatasetOptions options;
  options.max_sentence_length = 40;
  options.max_position = 20;
  options.blind_entities = false;
  auto raw = BagDataset::Build(f.dataset->world.graph,
                               f.dataset->corpus.train,
                               f.dataset->corpus.test, options);
  // Entity names unique to test pairs cannot be in the train vocabulary.
  int unks = 0;
  for (const Bag& bag : raw.test_bags()) {
    for (const auto& input : bag.sentences) {
      for (int id : input.word_ids) unks += (id == text::Vocabulary::kUnkId);
    }
  }
  EXPECT_GT(unks, 0);
}

TEST(BagDatasetTest, MakeEncoderInputTruncatesLongSentence) {
  text::Sentence sentence;
  for (int i = 0; i < 100; ++i)
    sentence.tokens.push_back("w" + std::to_string(i));
  sentence.head_index = 50;
  sentence.tail_index = 55;
  text::Vocabulary vocab;
  vocab.Count("w50");
  vocab.Freeze();
  BagDatasetOptions options;
  options.max_sentence_length = 20;
  options.max_position = 10;
  options.blind_entities = false;
  nn::EncoderInput input = MakeEncoderInput(sentence, vocab, options);
  EXPECT_EQ(input.word_ids.size(), 20u);
  EXPECT_EQ(input.word_ids[static_cast<size_t>(input.head_index)],
            vocab.Id("w50"));
}

TEST(BagDatasetTest, AttachMutualRelationsFillsVectors) {
  Fixture& f = SharedFixture();
  f.AttachMr();
  for (const Bag& bag : f.bags->train_bags()) {
    ASSERT_EQ(bag.mutual_relation.size(), 16u);
  }
}

TEST(PaModelTest, LogitShapesForAllVariants) {
  Fixture& f = SharedFixture();
  f.AttachMr();
  util::Rng rng(71);
  const Bag& bag = f.bags->train_bags().front();
  for (bool use_mr : {false, true}) {
    for (bool use_type : {false, true}) {
      PaModelConfig config = f.SmallModelConfig(
          "pcnn", Aggregation::kAttention, use_mr, use_type);
      PaModel model(config, &rng);
      tensor::Tensor logits = model.BagLogits(bag, bag.relation, &rng);
      EXPECT_EQ(logits.size(),
                static_cast<size_t>(f.bags->num_relations()));
      auto probs = model.Predict(bag, &rng);
      EXPECT_EQ(probs.size(), static_cast<size_t>(f.bags->num_relations()));
      float sum = 0;
      for (float p : probs) {
        EXPECT_GE(p, 0.0f);
        sum += p;
      }
      if (config.aggregation != Aggregation::kAttention) {
        EXPECT_NEAR(sum, 1.0f, 1e-4);
      }
    }
  }
}

TEST(PaModelTest, FullFusionGradCheck) {
  Fixture& f = SharedFixture();
  f.AttachMr();
  util::Rng rng(73);
  PaModelConfig config =
      f.SmallModelConfig("cnn", Aggregation::kAttention, true, true);
  // Shrink further for the numeric check.
  config.encoder_config.word_dim = 6;
  config.encoder_config.filters = 6;
  PaModel model(config, &rng);
  const Bag& bag = f.bags->train_bags().front();
  std::vector<const Bag*> batch = {&bag};
  auto result = nn::CheckModuleGradients(
      &model, [&] { return model.BatchLoss(batch, &rng); }, 1e-2, 8);
  EXPECT_LT(result.max_abs_diff, 3e-2)
      << result.worst_parameter << "[" << result.worst_index << "]";
}

// Predict scores every relation in one pass (stacked attention, one RE-head
// GEMM, C_MR / C_T once per bag). Entry r must stay bit-identical to the
// single-query computation, on every backend: a stacked head that took
// MatMul's packed panel path (8+ rows) would reorder the k-sum on vector
// backends and fail here at R = 53.
TEST(PaModelTest, PredictMatchesPerRelationBagLogitsBitForBit) {
  Fixture& f = SharedFixture();
  f.AttachMr();
  const Bag& source = f.bags->train_bags().front();
  std::vector<nn::EncoderInput> sentences;
  for (const Bag& bag : f.bags->train_bags()) {
    for (const nn::EncoderInput& sentence : bag.sentences) {
      if (sentences.size() < 8) sentences.push_back(sentence);
    }
  }
  ASSERT_EQ(sentences.size(), 8u);
  const auto bits = [](float v) { return std::bit_cast<uint32_t>(v); };
  for (int num_relations : {5, 53}) {
    for (bool use_mr : {false, true}) {
      for (bool use_type : {false, true}) {
        PaModelConfig config = f.SmallModelConfig(
            "pcnn", Aggregation::kAttention, use_mr, use_type);
        config.num_relations = num_relations;
        util::Rng rng(89);
        PaModel model(config, &rng);
        model.SetTraining(false);
        for (size_t size : {1u, 2u, 8u}) {
          Bag bag = source;
          bag.sentences.assign(sentences.begin(),
                               sentences.begin() + static_cast<long>(size));
          for (tensor::simd::Backend backend :
               tensor::simd::SupportedBackends()) {
            tensor::simd::ScopedEvalBackend pin(backend);
            const std::vector<float> probs = model.Predict(bag);
            ASSERT_EQ(probs.size(), static_cast<size_t>(num_relations));
            tensor::NoGradGuard no_grad;
            for (int r = 0; r < num_relations; ++r) {
              const float expected =
                  tensor::Softmax(model.BagLogits(bag, r, nullptr)).at(r);
              EXPECT_EQ(bits(probs[static_cast<size_t>(r)]), bits(expected))
                  << "R=" << num_relations << " mr=" << use_mr
                  << " type=" << use_type << " sentences=" << size
                  << " backend=" << tensor::simd::BackendName(backend)
                  << " r=" << r;
            }
          }
        }
      }
    }
  }
}

// BatchLoss encodes its whole batch with one op per encoder layer. Its
// gradients must equal, bit for bit, those of the graph BatchLoss built
// before: per-sentence Encode, one ConcatRows per bag. The batch repeats
// words across sentences, so table rows, the conv weight and its bias all
// take contributions from several sentences, whose order must hold. Checked
// with and without word dropout, on the shared gradients and inside a
// gradient sink (its touched rows too).
TEST(PaModelTest, BatchLossGradientsMatchPerSentenceGraphBitForBit) {
  Fixture& f = SharedFixture();
  f.AttachMr();
  std::vector<const Bag*> batch;
  for (const Bag& bag : f.bags->train_bags()) {
    if (bag.sentences.size() >= 2 && batch.size() < 4) batch.push_back(&bag);
  }
  ASSERT_EQ(batch.size(), 4u);
  std::map<int, std::set<const nn::EncoderInput*>> sentences_per_word;
  for (const Bag* bag : batch) {
    for (const nn::EncoderInput& sentence : bag->sentences) {
      for (int id : sentence.word_ids) sentences_per_word[id].insert(&sentence);
    }
  }
  size_t most = 0;
  for (const auto& [id, holders] : sentences_per_word) {
    most = std::max(most, holders.size());
  }
  ASSERT_GE(most, 3u);
  const auto bits = [](const std::vector<float>& values) {
    std::vector<uint32_t> out;
    for (float v : values) out.push_back(std::bit_cast<uint32_t>(v));
    return out;
  };
  for (float word_dropout : {0.0f, 0.25f}) {
    for (bool in_sink : {false, true}) {
      PaModelConfig config =
          f.SmallModelConfig("pcnn", Aggregation::kAttention, true, true);
      config.encoder_config.word_dropout = word_dropout;
      config.encoder_config.dropout = 0.5f;
      util::Rng init(61);
      PaModel model(config, &init);
      model.SetTraining(true);
      struct Run {
        float loss;
        std::vector<std::string> names;
        std::vector<std::vector<uint32_t>> grads;
        std::vector<std::vector<uint32_t>> touched;
        std::vector<std::vector<int>> sink_rows;
      };
      const auto run = [&](bool batched) {
        model.ZeroGrad();
        util::Rng rng(5);
        std::vector<std::unique_ptr<tensor::internal::ScopedGradSink>> sinks;
        if (in_sink) {
          sinks.push_back(
              std::make_unique<tensor::internal::ScopedGradSink>());
        }
        tensor::Tensor loss;
        if (batched) {
          loss = model.BatchLoss(batch, &rng);
        } else {
          std::vector<tensor::Tensor> encodings;
          for (const Bag* bag : batch) {
            std::vector<tensor::Tensor> rows;
            for (const nn::EncoderInput& sentence : bag->sentences) {
              rows.push_back(model.encoder().Encode(sentence, &rng));
            }
            encodings.push_back(tensor::ConcatRows(rows));
          }
          loss = model.BatchLoss(batch, encodings);
        }
        loss.Backward();
        Run result{loss.item(), {}, {}, {}, {}};
        if (in_sink) {
          sinks[0]->Deactivate();
          for (const auto& entry : sinks[0]->entries()) {
            if (entry.row_sparse) result.sink_rows.push_back(entry.touched_rows);
          }
          tensor::internal::ScopedGradSink::MergeIntoShared(sinks);
        }
        for (nn::NamedParameter& p : model.Parameters()) {
          result.names.push_back(p.name);
          result.grads.push_back(bits(p.tensor.grad()));
          const std::vector<int>& rows = p.tensor.grad_touched_rows();
          result.touched.emplace_back(rows.begin(), rows.end());
        }
        return result;
      };
      const Run batched = run(true);
      const Run reference = run(false);
      const std::string where = "word_dropout=" +
                                std::to_string(word_dropout) +
                                " sink=" + std::to_string(in_sink);
      EXPECT_EQ(std::bit_cast<uint32_t>(batched.loss),
                std::bit_cast<uint32_t>(reference.loss))
          << where;
      ASSERT_EQ(batched.grads.size(), reference.grads.size());
      for (size_t i = 0; i < batched.grads.size(); ++i) {
        EXPECT_EQ(batched.grads[i], reference.grads[i])
            << where << " gradient of " << batched.names[i];
        EXPECT_EQ(batched.touched[i], reference.touched[i])
            << where << " touched rows of " << batched.names[i];
      }
      if (in_sink) {
        EXPECT_FALSE(batched.sink_rows.empty());
        // First-touch order differs between the graphs; compare as sets.
        std::vector<std::vector<int>> a = batched.sink_rows;
        std::vector<std::vector<int>> b = reference.sink_rows;
        std::sort(a.begin(), a.end());
        std::sort(b.begin(), b.end());
        EXPECT_EQ(a, b) << where;
      }
    }
  }
}

TEST(PaModelTest, AverageAndMaxAggregations) {
  Fixture& f = SharedFixture();
  util::Rng rng(79);
  for (Aggregation agg : {Aggregation::kAverage, Aggregation::kMax}) {
    PaModelConfig config = f.SmallModelConfig("pcnn", agg, false, false);
    PaModel model(config, &rng);
    const Bag& bag = f.bags->train_bags().front();
    auto probs = model.Predict(bag, &rng);
    EXPECT_EQ(probs.size(), static_cast<size_t>(f.bags->num_relations()));
  }
}

TEST(PaModelTest, FusionWeightsAreLearnable) {
  Fixture& f = SharedFixture();
  f.AttachMr();
  util::Rng rng(83);
  PaModelConfig config =
      f.SmallModelConfig("cnn", Aggregation::kAverage, true, true);
  PaModel model(config, &rng);
  EXPECT_FLOAT_EQ(model.alpha(), 0.5f);  // down-weighted init (see PaModel)
  const Bag& bag = f.bags->train_bags().front();
  model.ZeroGrad();
  model.BatchLoss({&bag}, &rng).Backward();
  // Gradients reached the fusion scalars.
  bool alpha_has_grad = false;
  for (const auto& p : model.Parameters()) {
    if (p.name == "alpha" && !p.tensor.grad().empty() &&
        p.tensor.grad()[0] != 0.0f)
      alpha_has_grad = true;
  }
  EXPECT_TRUE(alpha_has_grad);
}

TEST(FeatureExtractorTest, DeterministicAndBounded) {
  Fixture& f = SharedFixture();
  FeatureExtractor extractor(12);
  const Bag& bag = f.bags->train_bags().front();
  SparseFeatures a = extractor.BagFeatures(bag);
  SparseFeatures b = extractor.BagFeatures(bag);
  ASSERT_EQ(a.indices.size(), b.indices.size());
  for (size_t i = 0; i < a.indices.size(); ++i) {
    EXPECT_EQ(a.indices[i], b.indices[i]);
    EXPECT_LT(a.indices[i], static_cast<uint32_t>(extractor.dim()));
  }
}

TEST(FeatureExtractorTest, DifferentSentencesDiffer) {
  Fixture& f = SharedFixture();
  FeatureExtractor extractor(12);
  const auto& bags = f.bags->train_bags();
  SparseFeatures a = extractor.SentenceFeatures(bags[0].sentences[0]);
  SparseFeatures b = extractor.SentenceFeatures(bags[1].sentences[0]);
  EXPECT_NE(a.indices, b.indices);
}

// End-to-end learning: every model family must beat a uniform-random
// scorer by a wide margin on the small synthetic dataset.
double RandomBaselineAuc(const Fixture& f) {
  util::Rng rng(89);
  auto random_scorer = [&rng, &f](const Bag&) {
    std::vector<float> probs(
        static_cast<size_t>(f.bags->num_relations()));
    for (float& p : probs) p = static_cast<float>(rng.Uniform());
    return probs;
  };
  return eval::Evaluate(random_scorer, f.bags->test_bags(),
                        f.bags->num_relations())
      .auc;
}

// Uses its own larger dataset: text-only models need enough bags to prefer
// the trigger signal over memorisation (see DESIGN.md).
TEST(TrainingTest, PcnnAttLearnsSignal) {
  datagen::PresetOptions options;
  options.scale = 2.0;
  auto dataset = datagen::MakeGdsLike(options);
  BagDatasetOptions bag_options;
  bag_options.max_sentence_length = 40;
  bag_options.max_position = 20;
  auto bags = BagDataset::Build(dataset.world.graph, dataset.corpus.train,
                                dataset.corpus.test, bag_options);

  util::Rng rng(97);
  PaModelConfig config;
  config.num_relations = bags.num_relations();
  config.encoder = "pcnn";
  config.aggregation = Aggregation::kAttention;
  config.encoder_config.vocab_size = bags.vocabulary().size();
  config.encoder_config.word_dim = 16;
  config.encoder_config.position_dim = 3;
  config.encoder_config.max_position = 20;
  config.encoder_config.filters = 24;
  config.encoder_config.dropout = 0.5f;
  PaModel model(config, &rng);
  TrainerConfig trainer_config;
  trainer_config.epochs = 40;
  trainer_config.batch_size = 32;
  auto result = TrainAndEvaluate(&model, bags.train_bags(),
                                 bags.test_bags(), trainer_config);
  EXPECT_GT(result.auc, 0.5) << result.Summary();
}

TEST(TrainingTest, LossDecreasesOverEpochs) {
  Fixture& f = SharedFixture();
  util::Rng rng(101);
  PaModelConfig config =
      f.SmallModelConfig("cnn", Aggregation::kAverage, false, false);
  PaModel model(config, &rng);
  TrainerConfig trainer_config;
  trainer_config.epochs = 3;
  trainer_config.batch_size = 32;
  trainer_config.learning_rate = 0.2f;
  Trainer trainer(&model, trainer_config);
  auto history = trainer.Train(f.bags->train_bags());
  ASSERT_EQ(history.size(), 3u);
  EXPECT_LT(history.back().mean_loss, history.front().mean_loss);
}

TEST(TrainingTest, ParallelBatchesBitIdenticalAcrossThreadCounts) {
  // The data-parallel trainer splits each batch into a fixed number of
  // chunks whose boundaries depend only on the batch size, so every
  // thread count > 1 must yield bit-identical loss curves.
  Fixture& f = SharedFixture();
  auto run = [&f](int threads) {
    util::Rng rng(107);
    PaModelConfig config =
        f.SmallModelConfig("cnn", Aggregation::kAverage, false, false);
    PaModel model(config, &rng);
    TrainerConfig trainer_config;
    trainer_config.epochs = 2;
    trainer_config.batch_size = 32;
    trainer_config.learning_rate = 0.2f;
    trainer_config.threads = threads;
    Trainer trainer(&model, trainer_config);
    return trainer.Train(f.bags->train_bags());
  };
  auto two = run(2);
  auto four = run(4);
  ASSERT_EQ(two.size(), four.size());
  for (size_t e = 0; e < two.size(); ++e) {
    EXPECT_EQ(two[e].mean_loss, four[e].mean_loss) << "epoch " << e;
  }
}

TEST(TrainingTest, PaTmrBeatsUniformByWideMargin) {
  Fixture& f = SharedFixture();
  f.AttachMr();
  util::Rng rng(103);
  PaModelConfig config =
      f.SmallModelConfig("pcnn", Aggregation::kAttention, true, true);
  PaModel model(config, &rng);
  TrainerConfig trainer_config;
  trainer_config.epochs = 8;
  trainer_config.batch_size = 32;
  trainer_config.learning_rate = 0.3f;
  auto result = TrainAndEvaluate(&model, f.bags->train_bags(),
                                 f.bags->test_bags(), trainer_config);
  EXPECT_GT(result.auc, RandomBaselineAuc(f) + 0.2);
}

TEST(MintzTest, LearnsAboveRandom) {
  Fixture& f = SharedFixture();
  MintzConfig config;
  MintzModel model(f.bags->num_relations(), config);
  model.Train(f.bags->train_bags());
  auto result = eval::Evaluate(
      [&model](const Bag& bag) { return model.Predict(bag); },
      f.bags->test_bags(), f.bags->num_relations());
  EXPECT_GT(result.auc, RandomBaselineAuc(f) + 0.1);
}

TEST(MimlreTest, LearnsAboveRandom) {
  Fixture& f = SharedFixture();
  MimlreConfig config;
  MimlreModel model(f.bags->num_relations(), config);
  model.Train(f.bags->train_bags());
  auto result = eval::Evaluate(
      [&model](const Bag& bag) { return model.Predict(bag); },
      f.bags->test_bags(), f.bags->num_relations());
  EXPECT_GT(result.auc, RandomBaselineAuc(f) + 0.1);
  // Probabilities are a valid distribution over relations.
  auto probs = model.Predict(f.bags->test_bags().front());
  float total = 0;
  for (float p : probs) {
    EXPECT_GE(p, 0.0f);
    total += p;
  }
  EXPECT_NEAR(total, 1.0f, 1e-4);
}

TEST(MultirTest, LearnsAboveRandom) {
  Fixture& f = SharedFixture();
  MultirConfig config;
  MultirModel model(f.bags->num_relations(), config);
  model.Train(f.bags->train_bags());
  auto result = eval::Evaluate(
      [&model](const Bag& bag) { return model.Predict(bag); },
      f.bags->test_bags(), f.bags->num_relations());
  EXPECT_GT(result.auc, RandomBaselineAuc(f) + 0.1);
}

TEST(CnnRlTest, TrainsAndPredicts) {
  Fixture& f = SharedFixture();
  util::Rng rng(107);
  PaModelConfig config =
      f.SmallModelConfig("cnn", Aggregation::kAverage, false, false);
  CnnRlConfig rl_config;
  rl_config.pretrain_epochs = 1;
  rl_config.joint_epochs = 1;
  rl_config.batch_size = 32;
  CnnRlModel model(config, rl_config, &rng);
  model.Train(f.bags->train_bags());
  auto result = eval::Evaluate(
      [&model](const Bag& bag) {
        return const_cast<CnnRlModel&>(model).Predict(bag);
      },
      f.bags->test_bags(), f.bags->num_relations());
  // Smoke-level check: the dataset is tiny and the episode budget is 1+1,
  // so only require a sane, non-degenerate result here (the Table IV bench
  // exercises CNN+RL at full budget).
  EXPECT_GT(result.auc, 0.02);
  EXPECT_LE(result.auc, 1.0);
  // Selector produces valid probabilities.
  const Bag& bag = f.bags->train_bags().front();
  const float p = model.KeepProbability(bag.sentences[0]);
  EXPECT_GE(p, 0.0f);
  EXPECT_LE(p, 1.0f);
}

TEST(ConfigTest, PaperDefaultsMatchTableIII) {
  PaModelConfig config = PaperDefaults(53, 10000);
  EXPECT_EQ(config.encoder_config.word_dim, 50);
  EXPECT_EQ(config.encoder_config.position_dim, 5);
  EXPECT_EQ(config.encoder_config.window, 3);
  EXPECT_EQ(config.encoder_config.filters, 230);
  EXPECT_EQ(config.type_dim, 20);
  EXPECT_EQ(config.mutual_relation_dim, 128);
  EXPECT_FLOAT_EQ(config.encoder_config.dropout, 0.5f);
}

}  // namespace
}  // namespace imr::re
