#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "nn/attention.h"
#include "nn/encoders.h"
#include "nn/gradcheck.h"
#include "nn/init.h"
#include "nn/layers.h"
#include "nn/module.h"
#include "nn/optimizer.h"
#include "tensor/ops.h"
#include "tensor/simd/dispatch.h"

namespace imr::nn {
namespace {

using tensor::Tensor;

EncoderConfig SmallConfig() {
  EncoderConfig config;
  config.vocab_size = 20;
  config.word_dim = 6;
  config.position_dim = 2;
  config.max_position = 10;
  config.window = 3;
  config.filters = 4;
  config.dropout = 0.0f;  // deterministic for gradient checks
  return config;
}

EncoderInput SmallInput() {
  EncoderInput input;
  input.word_ids = {3, 7, 1, 12, 5, 0};
  input.head_offsets = {10, 11, 12, 13, 14, 15};
  input.tail_offsets = {6, 7, 8, 9, 10, 11};
  input.head_index = 0;
  input.tail_index = 4;
  return input;
}

TEST(LinearTest, ShapesAndForward) {
  util::Rng rng(1);
  Linear layer(3, 2, &rng);
  EXPECT_EQ(layer.ParameterCount(), 3u * 2u + 2u);
  Tensor x = Tensor::FromData({2, 3}, {1, 0, 0, 0, 1, 0});
  Tensor y = layer.Forward(x);
  EXPECT_EQ(y.shape(), (std::vector<int>{2, 2}));
  // Row 0 of y equals row 0 of W (+ zero bias).
  EXPECT_FLOAT_EQ(y.at(0, 0), layer.weight().at(0, 0));
  Tensor v = Tensor::FromData({3}, {1, 1, 1});
  Tensor yv = layer.Forward(v);
  EXPECT_EQ(yv.rank(), 1);
  EXPECT_EQ(yv.size(), 2u);
}

TEST(LinearTest, GradCheck) {
  util::Rng rng(2);
  Linear layer(4, 3, &rng);
  Tensor x = NormalInit({2, 4}, 1.0f, &rng);
  auto result = CheckModuleGradients(&layer, [&] {
    return tensor::Sum(tensor::Tanh(layer.Forward(x)));
  });
  EXPECT_LT(result.max_abs_diff, 1e-2) << result.worst_parameter;
}

TEST(EmbeddingTest, LookupAndSetWeights) {
  util::Rng rng(3);
  Embedding emb(5, 3, &rng);
  Tensor rows = emb.Forward({4, 0, 4});
  EXPECT_EQ(rows.shape(), (std::vector<int>{3, 3}));
  EXPECT_FLOAT_EQ(rows.at(0, 1), rows.at(2, 1));  // same row twice

  std::vector<float> table(15, 0.5f);
  ASSERT_TRUE(emb.SetWeights(table).ok());
  EXPECT_FLOAT_EQ(emb.Forward({2}).at(0, 0), 0.5f);
  EXPECT_FALSE(emb.SetWeights({1.0f}).ok());
}

TEST(EmbeddingTest, GradAccumulatesOnRepeatedIndex) {
  util::Rng rng(4);
  Embedding emb(4, 2, &rng);
  Tensor rows = emb.Forward({1, 1});
  tensor::Sum(rows).Backward();
  const auto& grad = emb.table().grad();
  EXPECT_FLOAT_EQ(grad[1 * 2 + 0], 2.0f);
  EXPECT_FLOAT_EQ(grad[0], 0.0f);
}

TEST(ModuleTest, ParameterNamesArePrefixed) {
  util::Rng rng(5);
  PcnnEncoder encoder(SmallConfig(), &rng);
  bool found_word_table = false;
  for (const auto& p : encoder.Parameters()) {
    if (p.name == "embedder.word.table") found_word_table = true;
  }
  EXPECT_TRUE(found_word_table);
}

TEST(ModuleTest, SaveLoadRoundTrip) {
  util::Rng rng(6);
  Linear a(3, 2, &rng), b(3, 2, &rng);
  const std::string path = "/tmp/imr_nn_params.bin";
  ASSERT_TRUE(a.SaveParameters(path).ok());
  ASSERT_TRUE(b.LoadParameters(path).ok());
  EXPECT_EQ(a.weight().data(), b.weight().data());
  Embedding wrong(2, 2, &rng);
  EXPECT_FALSE(wrong.LoadParameters(path).ok());
  std::remove(path.c_str());
}

TEST(PcnnEncoderTest, OutputShapeAndGradCheck) {
  util::Rng rng(7);
  PcnnEncoder encoder(SmallConfig(), &rng);
  EncoderInput input = SmallInput();
  Tensor repr = encoder.Encode(input, &rng);
  EXPECT_EQ(repr.rank(), 1);
  EXPECT_EQ(repr.size(), static_cast<size_t>(encoder.output_dim()));
  EXPECT_EQ(encoder.output_dim(), 12);

  auto result = CheckModuleGradients(&encoder, [&] {
    Tensor out = encoder.Encode(input, &rng);
    return tensor::Sum(tensor::Mul(out, out));
  });
  EXPECT_LT(result.max_abs_diff, 2e-2)
      << result.worst_parameter << "[" << result.worst_index << "]";
}

TEST(CnnEncoderTest, OutputShapeAndGradCheck) {
  util::Rng rng(8);
  CnnEncoder encoder(SmallConfig(), &rng);
  EncoderInput input = SmallInput();
  Tensor repr = encoder.Encode(input, &rng);
  EXPECT_EQ(repr.size(), 4u);

  auto result = CheckModuleGradients(&encoder, [&] {
    Tensor out = encoder.Encode(input, &rng);
    return tensor::Sum(tensor::Mul(out, out));
  });
  EXPECT_LT(result.max_abs_diff, 2e-2) << result.worst_parameter;
}

TEST(GruEncoderTest, OutputShapeAndGradCheck) {
  util::Rng rng(9);
  GruEncoder encoder(SmallConfig(), /*word_attention=*/false, &rng);
  EncoderInput input = SmallInput();
  Tensor repr = encoder.Encode(input, &rng);
  EXPECT_EQ(repr.size(), static_cast<size_t>(encoder.output_dim()));

  auto result = CheckModuleGradients(&encoder, [&] {
    Tensor out = encoder.Encode(input, &rng);
    return tensor::Sum(tensor::Mul(out, out));
  });
  EXPECT_LT(result.max_abs_diff, 2e-2) << result.worst_parameter;
}

TEST(GruEncoderTest, WordAttentionGradCheck) {
  util::Rng rng(10);
  GruEncoder encoder(SmallConfig(), /*word_attention=*/true, &rng);
  EncoderInput input = SmallInput();
  auto result = CheckModuleGradients(&encoder, [&] {
    Tensor out = encoder.Encode(input, &rng);
    return tensor::Sum(tensor::Mul(out, out));
  });
  EXPECT_LT(result.max_abs_diff, 2e-2) << result.worst_parameter;
}

TEST(EncoderFactoryTest, MakesAllKinds) {
  util::Rng rng(11);
  for (const char* kind : {"pcnn", "cnn", "gru", "bgwa"}) {
    auto encoder = MakeEncoder(kind, SmallConfig(), &rng);
    ASSERT_NE(encoder, nullptr) << kind;
    Tensor repr = encoder->Encode(SmallInput(), &rng);
    EXPECT_EQ(repr.size(), static_cast<size_t>(encoder->output_dim()));
  }
  EXPECT_EQ(MakeEncoder("bogus", SmallConfig(), &rng), nullptr);
}

TEST(SelectiveAttentionTest, WeightsOnSimplex) {
  util::Rng rng(12);
  SelectiveAttention attention(6, 3, &rng);
  Tensor x = NormalInit({4, 6}, 1.0f, &rng);
  Tensor alpha = attention.Weights(x, 1);
  ASSERT_EQ(alpha.size(), 4u);
  float sum = 0;
  for (int i = 0; i < 4; ++i) {
    EXPECT_GE(alpha.at(i), 0.0f);
    sum += alpha.at(i);
  }
  EXPECT_NEAR(sum, 1.0f, 1e-5);
}

TEST(SelectiveAttentionTest, SingleSentenceBagIsIdentity) {
  util::Rng rng(13);
  SelectiveAttention attention(5, 2, &rng);
  Tensor x = NormalInit({1, 5}, 1.0f, &rng);
  Tensor bag = attention.BagRepresentation(x, 0);
  for (int c = 0; c < 5; ++c) EXPECT_NEAR(bag.at(c), x.at(0, c), 1e-6);
}

TEST(SelectiveAttentionTest, GradCheck) {
  util::Rng rng(14);
  SelectiveAttention attention(4, 2, &rng);
  Tensor x = NormalInit({3, 4}, 1.0f, &rng);
  auto result = CheckModuleGradients(&attention, [&] {
    Tensor bag = attention.BagRepresentation(x, 1);
    return tensor::Sum(tensor::Mul(bag, bag));
  });
  EXPECT_LT(result.max_abs_diff, 1e-2) << result.worst_parameter;
}

// A 2-layer MLP on a toy problem must fit it with each optimizer.
class ToyProblem : public Module {
 public:
  explicit ToyProblem(util::Rng* rng) : l1_(2, 8, rng), l2_(8, 2, rng) {
    RegisterChild("l1", &l1_);
    RegisterChild("l2", &l2_);
  }
  Tensor Loss() {
    // XOR-ish: four points, two classes.
    Tensor x = Tensor::FromData({4, 2}, {0, 0, 0, 1, 1, 0, 1, 1});
    Tensor h = tensor::Tanh(l1_.Forward(x));
    Tensor logits = l2_.Forward(h);
    return tensor::CrossEntropyLoss(logits, {0, 1, 1, 0});
  }
  Linear l1_, l2_;
};

TEST(OptimizerTest, SgdFitsToyProblem) {
  util::Rng rng(15);
  ToyProblem model(&rng);
  Sgd opt(&model, 0.5f);
  float first_loss = model.Loss().item();
  for (int i = 0; i < 300; ++i) {
    model.ZeroGrad();
    model.Loss().Backward();
    opt.Step();
  }
  EXPECT_LT(model.Loss().item(), first_loss * 0.2f);
  EXPECT_LT(model.Loss().item(), 0.2f);
}

TEST(OptimizerTest, AdagradFitsToyProblem) {
  util::Rng rng(16);
  ToyProblem model(&rng);
  Adagrad opt(&model, 0.3f);
  for (int i = 0; i < 300; ++i) {
    model.ZeroGrad();
    model.Loss().Backward();
    opt.Step();
  }
  EXPECT_LT(model.Loss().item(), 0.2f);
}

TEST(OptimizerTest, AdamFitsToyProblem) {
  util::Rng rng(17);
  ToyProblem model(&rng);
  Adam opt(&model, 0.05f);
  for (int i = 0; i < 300; ++i) {
    model.ZeroGrad();
    model.Loss().Backward();
    opt.Step();
  }
  EXPECT_LT(model.Loss().item(), 0.2f);
}

TEST(OptimizerTest, SgdClipNormLimitsUpdate) {
  util::Rng rng(18);
  Linear layer(2, 2, &rng);
  const std::vector<float> before = layer.weight().data();
  // Gigantic loss -> gigantic gradient; clipping must bound the step.
  Tensor x = Tensor::FromData({1, 2}, {1e4f, 1e4f});
  Tensor loss = tensor::Sum(layer.Forward(x));
  layer.ZeroGrad();
  loss.Backward();
  Sgd opt(&layer, 0.1f, 0.0f, /*clip_norm=*/1.0f);
  opt.Step();
  double moved = 0;
  for (size_t i = 0; i < before.size(); ++i)
    moved += std::abs(layer.weight().data()[i] - before[i]);
  EXPECT_LT(moved, 0.5);  // lr * clip_norm bounds total movement
}

TEST(OptimizerTest, WeightDecayShrinksWeights) {
  util::Rng rng(19);
  Linear layer(2, 2, &rng);
  double norm_before = 0;
  for (float v : layer.weight().data()) norm_before += std::abs(v);
  Sgd opt(&layer, 0.1f, /*weight_decay=*/0.5f);
  // No gradient, so the only effect is the decay.
  layer.ZeroGrad();
  tensor::Sum(tensor::Scale(layer.Forward(Tensor::Zeros({1, 2})), 0.0f))
      .Backward();
  opt.Step();
  double norm_after = 0;
  for (float v : layer.weight().data()) norm_after += std::abs(v);
  EXPECT_LT(norm_after, norm_before);
}

TEST(ModuleTest, TrainingFlagPropagates) {
  util::Rng rng(20);
  PcnnEncoder encoder(SmallConfig(), &rng);
  encoder.SetTraining(false);
  EXPECT_FALSE(encoder.training());
}

// Dropout behaves differently in train and eval; with p=0.5 and training on,
// some outputs should be exactly zero.
TEST(EncoderDropoutTest, TrainingDropsValues) {
  util::Rng rng(21);
  EncoderConfig config = SmallConfig();
  config.dropout = 0.5f;
  config.filters = 32;
  PcnnEncoder encoder(config, &rng);
  EncoderInput input = SmallInput();

  encoder.SetTraining(true);
  Tensor train_out = encoder.Encode(input, &rng);
  int zeros = 0;
  for (float v : train_out.data()) zeros += (v == 0.0f);
  EXPECT_GT(zeros, 10);

  encoder.SetTraining(false);
  Tensor eval_out = encoder.Encode(input, &rng);
  int eval_zeros = 0;
  for (float v : eval_out.data()) eval_zeros += (v == 0.0f);
  EXPECT_LT(eval_zeros, zeros);
}

// Bit patterns, so -0.0f against +0.0f (or a NaN payload) is a difference.
std::vector<uint32_t> Bits(const float* values, size_t n) {
  std::vector<uint32_t> bits(n);
  for (size_t i = 0; i < n; ++i) bits[i] = std::bit_cast<uint32_t>(values[i]);
  return bits;
}

std::vector<uint32_t> Bits(const std::vector<float>& values) {
  return Bits(values.data(), values.size());
}

// Sentences of 1 to 40 tokens whose words come from a small vocabulary, so
// many words appear in three or more sentences; every third has its head
// and tail on the same token.
std::vector<EncoderInput> RandomSentences(util::Rng* rng, int count,
                                          int vocab, int max_position) {
  std::vector<EncoderInput> sentences;
  for (int s = 0; s < count; ++s) {
    const int time = s == 0   ? 1
                     : s == 1 ? 40
                              : 1 + static_cast<int>(rng->UniformInt(40));
    EncoderInput input;
    for (int t = 0; t < time; ++t) {
      input.word_ids.push_back(2 + static_cast<int>(rng->UniformInt(
                                       static_cast<uint64_t>(vocab - 2))));
    }
    input.head_index = static_cast<int>(rng->UniformInt(time));
    input.tail_index = s % 3 == 0
                           ? input.head_index
                           : static_cast<int>(rng->UniformInt(time));
    for (int t = 0; t < time; ++t) {
      input.head_offsets.push_back(
          std::clamp(t - input.head_index, -max_position, max_position) +
          max_position);
      input.tail_offsets.push_back(
          std::clamp(t - input.tail_index, -max_position, max_position) +
          max_position);
    }
    sentences.push_back(std::move(input));
  }
  return sentences;
}

// Every parameter gradient of `encoder`, then its tables' touched rows.
std::vector<std::vector<uint32_t>> GradientBits(Module* module) {
  std::vector<std::vector<uint32_t>> out;
  for (NamedParameter& p : module->Parameters()) {
    out.push_back(Bits(p.tensor.grad()));
    std::vector<uint32_t> rows;
    for (int r : p.tensor.grad_touched_rows()) {
      rows.push_back(static_cast<uint32_t>(r));
    }
    out.push_back(std::move(rows));
  }
  return out;
}

// EncodeBatch's row s must be Encode(sentence s) bit for bit on every
// backend: without grad in eval mode, and with grad in training mode with
// dropout and word dropout, where the gradients of one backward through the
// batch must equal those through per-sentence Encodes joined by ConcatRows.
TEST(PcnnEncoderTest, EncodeBatchMatchesEncodeBitForBit) {
  struct Dims {
    int word;
    int position;
    int filters;
  };
  // Benchmark dims, Table III dims and an odd filter count.
  for (const Dims& dims : {Dims{16, 3, 32}, Dims{50, 5, 230},
                           Dims{16, 3, 13}}) {
    EncoderConfig config;
    config.vocab_size = 12;
    config.word_dim = dims.word;
    config.position_dim = dims.position;
    config.max_position = 20;
    config.filters = dims.filters;
    config.dropout = 0.5f;
    config.word_dropout = 0.25f;
    util::Rng init(31);
    PcnnEncoder encoder(config, &init);
    util::Rng data(41);
    const std::vector<EncoderInput> sentences =
        RandomSentences(&data, 9, config.vocab_size, config.max_position);
    std::vector<const EncoderInput*> inputs;
    for (const EncoderInput& sentence : sentences) inputs.push_back(&sentence);
    const int out_dim = encoder.output_dim();
    std::vector<float> weights(sentences.size() * out_dim);
    for (float& w : weights) w = static_cast<float>(data.Normal());
    const Tensor loss_weights = Tensor::FromData(
        {static_cast<int>(sentences.size()), out_dim}, weights);

    for (tensor::simd::Backend backend : tensor::simd::SupportedBackends()) {
      tensor::simd::ScopedEvalBackend pin(backend);
      const std::string where =
          std::string(tensor::simd::BackendName(backend)) +
          " filters=" + std::to_string(dims.filters);
      {
        encoder.SetTraining(false);
        tensor::NoGradGuard no_grad;
        const Tensor batch = encoder.EncodeBatch(inputs, nullptr);
        ASSERT_EQ(batch.rows(), static_cast<int>(sentences.size()));
        ASSERT_EQ(batch.cols(), out_dim);
        for (size_t s = 0; s < sentences.size(); ++s) {
          const Tensor row = encoder.Encode(sentences[s], nullptr);
          EXPECT_EQ(Bits(batch.data().data() + s * out_dim, out_dim),
                    Bits(row.data()))
              << where << " eval sentence " << s;
        }
      }
      encoder.SetTraining(true);
      encoder.ZeroGrad();
      util::Rng batch_rng(77);
      const Tensor batch = encoder.EncodeBatch(inputs, &batch_rng);
      tensor::Sum(tensor::Mul(batch, loss_weights)).Backward();
      const auto batch_grads = GradientBits(&encoder);

      encoder.ZeroGrad();
      util::Rng sentence_rng(77);
      std::vector<Tensor> rows;
      for (const EncoderInput& sentence : sentences) {
        rows.push_back(encoder.Encode(sentence, &sentence_rng));
      }
      const Tensor reference = tensor::ConcatRows(rows);
      tensor::Sum(tensor::Mul(reference, loss_weights)).Backward();
      EXPECT_EQ(Bits(batch.data()), Bits(reference.data())) << where;
      EXPECT_EQ(batch_grads, GradientBits(&encoder)) << where;
      EXPECT_EQ(batch_rng.Next(), sentence_rng.Next()) << where;
    }
  }
}

}  // namespace
}  // namespace imr::nn
