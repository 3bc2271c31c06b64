#include "re/pa_model.h"

#include <algorithm>

#include "tensor/buffer_pool.h"
#include "tensor/ops.h"
#include "util/logging.h"

namespace imr::re {

using tensor::Tensor;
using tensor::internal::AcquireBuffer;

PaModel::PaModel(const PaModelConfig& config, util::Rng* rng)
    : config_(config) {
  IMR_CHECK_GT(config.num_relations, 1);
  encoder_ = nn::MakeEncoder(config.encoder, config.encoder_config, rng);
  IMR_CHECK(encoder_ != nullptr);
  RegisterChild("encoder", encoder_.get());

  const int repr_dim = encoder_->output_dim();
  if (config.aggregation == Aggregation::kAttention) {
    attention_ = std::make_unique<nn::SelectiveAttention>(
        repr_dim, config.num_relations, rng);
    RegisterChild("attention", attention_.get());
  }
  re_head_ =
      std::make_unique<nn::Linear>(repr_dim, config.num_relations, rng);
  RegisterChild("re_head", re_head_.get());

  if (config.use_mutual_relation) {
    mr_head_ = std::make_unique<nn::Linear>(config.mutual_relation_dim,
                                            config.num_relations, rng);
    RegisterChild("mr_head", mr_head_.get());
  }
  if (config.use_entity_type) {
    type_embedding_ = std::make_unique<TypeEmbedding>(config.type_dim, rng);
    RegisterChild("type_embedding", type_embedding_.get());
    type_head_ = std::make_unique<nn::Linear>(2 * config.type_dim,
                                              config.num_relations, rng);
    RegisterChild("type_head", type_head_.get());
  }
  if (config.use_mutual_relation || config.use_entity_type) {
    // The side components start down-weighted relative to the base RE
    // model: with few training bags the type head otherwise wins the early
    // optimisation race and the fused model collapses onto it.
    alpha_ = RegisterParameter("alpha", Tensor::Scalar(0.5f));
    beta_ = RegisterParameter("beta", Tensor::Scalar(0.5f));
    gamma_ = RegisterParameter("gamma", Tensor::Scalar(1.5f));
    // w and the bias of the final linear fusion; w starts at a value that
    // keeps initial logits in a useful softmax range.
    fuse_scale_ = RegisterParameter("fuse_scale", Tensor::Scalar(4.0f));
    fuse_bias_ = RegisterParameter(
        "fuse_bias", Tensor::Zeros({config.num_relations}));
  }
}

void PaModel::EnableQuantizedInference() {
  quantized_re_head_ = std::make_unique<nn::QuantizedLinear>(*re_head_);
  if (mr_head_ != nullptr) {
    quantized_mr_head_ = std::make_unique<nn::QuantizedLinear>(*mr_head_);
  }
  if (type_head_ != nullptr) {
    quantized_type_head_ = std::make_unique<nn::QuantizedLinear>(*type_head_);
  }
}

Tensor PaModel::HeadForward(const nn::Linear& head,
                            const nn::QuantizedLinear* quantized,
                            const Tensor& x) const {
  if (tensor::GradModeEnabled()) return head.Forward(x);
  if (quantized != nullptr) return quantized->Forward(x);
  // Row-exact: a stacked [R x dim] input gives each row the bits of its
  // own rank-1 head.Forward.
  return tensor::RowwiseAffine(x, head.weight(), head.bias());
}

float PaModel::alpha() const { return alpha_.defined() ? alpha_.item() : 0; }
float PaModel::beta() const { return beta_.defined() ? beta_.item() : 0; }
float PaModel::gamma() const { return gamma_.defined() ? gamma_.item() : 0; }

namespace {

// The sentences handed to EncodeBatch. Kept per thread and reused: chunks
// of a data-parallel batch and router workers encode concurrently.
std::vector<const nn::EncoderInput*>& ThreadEncoderInputs() {
  thread_local std::vector<const nn::EncoderInput*> inputs;
  inputs.clear();
  return inputs;
}

}  // namespace

Tensor PaModel::EncodeBag(const Bag& bag, util::Rng* rng) const {
  IMR_CHECK(!bag.sentences.empty());
  std::vector<const nn::EncoderInput*>& inputs = ThreadEncoderInputs();
  for (const nn::EncoderInput& sentence : bag.sentences) {
    inputs.push_back(&sentence);
  }
  return encoder_->EncodeBatch(inputs, rng);
}

Tensor PaModel::Aggregate(const Tensor& encodings, int query_relation) const {
  switch (config_.aggregation) {
    case Aggregation::kAttention:
      return attention_->BagRepresentation(encodings, query_relation);
    case Aggregation::kAverage:
      return tensor::MeanRows(encodings);
    case Aggregation::kMax:
      return tensor::MaxOverRows(encodings);
  }
  IMR_CHECK(false);
  return Tensor();
}

Tensor PaModel::FuseLogits(const Bag& bag, const Tensor& re_logits) const {
  if (!config_.use_mutual_relation && !config_.use_entity_type) {
    return re_logits;
  }
  // gamma * RE with RE = softmax(re_logits), one row per attention query.
  // C_MR and C_T do not depend on the query: each is computed once and
  // added to every row.
  Tensor mixture =
      tensor::ScaleByScalarTensor(tensor::Softmax(re_logits), gamma_);
  if (config_.use_mutual_relation) {
    IMR_CHECK_EQ(static_cast<int>(bag.mutual_relation.size()),
                 config_.mutual_relation_dim);
    // A pooled copy: storage the pool hands out comes back to it, so the
    // per-bag MR vector does not blur the thread's working-set count.
    std::vector<float> mr = AcquireBuffer(bag.mutual_relation.size());
    std::copy(bag.mutual_relation.begin(), bag.mutual_relation.end(),
              mr.begin());
    Tensor mr_input =
        Tensor::FromData({config_.mutual_relation_dim}, std::move(mr));
    Tensor c_mr = tensor::Softmax(
        HeadForward(*mr_head_, quantized_mr_head_.get(), mr_input));
    mixture = tensor::AddRowVector(mixture,
                                   tensor::ScaleByScalarTensor(c_mr, alpha_));
  }
  if (config_.use_entity_type) {
    Tensor t_input =
        type_embedding_->PairVector(bag.head_types, bag.tail_types);
    Tensor c_t = tensor::Softmax(
        HeadForward(*type_head_, quantized_type_head_.get(), t_input));
    mixture = tensor::AddRowVector(mixture,
                                   tensor::ScaleByScalarTensor(c_t, beta_));
  }
  return tensor::AddRowVector(
      tensor::ScaleByScalarTensor(mixture, fuse_scale_), fuse_bias_);
}

Tensor PaModel::BagLogits(const Bag& bag, int query_relation,
                          util::Rng* rng) const {
  Tensor encodings = EncodeBag(bag, rng);
  Tensor bag_repr = Aggregate(encodings, query_relation);
  Tensor re_logits = re_head_->Forward(bag_repr);
  return FuseLogits(bag, re_logits);
}

Tensor PaModel::BatchLoss(const std::vector<const Bag*>& batch,
                          util::Rng* rng) const {
  IMR_CHECK(!batch.empty());
  // Every sentence of the batch in one EncodeBatch call; each bag then
  // takes its rows with one slice.
  std::vector<const nn::EncoderInput*>& inputs = ThreadEncoderInputs();
  for (const Bag* bag : batch) {
    IMR_CHECK(!bag->sentences.empty());
    for (const nn::EncoderInput& sentence : bag->sentences) {
      inputs.push_back(&sentence);
    }
  }
  const Tensor all = encoder_->EncodeBatch(inputs, rng);
  std::vector<Tensor> encodings;
  encodings.reserve(batch.size());
  int first_row = 0;
  for (const Bag* bag : batch) {
    const int rows = static_cast<int>(bag->sentences.size());
    encodings.push_back(tensor::SliceRows(all, first_row, rows));
    first_row += rows;
  }
  return BatchLoss(batch, encodings);
}

Tensor PaModel::BatchLoss(const std::vector<const Bag*>& batch,
                          const std::vector<Tensor>& encodings) const {
  IMR_CHECK(!batch.empty());
  IMR_CHECK_EQ(encodings.size(), batch.size());
  const bool fused =
      config_.use_mutual_relation || config_.use_entity_type;
  const bool auxiliary = fused && config_.auxiliary_re_loss > 0.0f;
  std::vector<Tensor> logit_rows;
  std::vector<Tensor> re_rows;
  std::vector<int> labels;
  logit_rows.reserve(batch.size());
  labels.reserve(batch.size());
  for (size_t b = 0; b < batch.size(); ++b) {
    const Bag& bag = *batch[b];
    Tensor bag_repr = Aggregate(encodings[b], bag.relation);
    Tensor re_logits = re_head_->Forward(bag_repr);
    logit_rows.push_back(FuseLogits(bag, re_logits));
    if (auxiliary) re_rows.push_back(re_logits);
    labels.push_back(bag.relation);
  }
  Tensor loss =
      tensor::CrossEntropyLoss(tensor::ConcatRows(logit_rows), labels);
  if (auxiliary) {
    // Keep the text path trained even when the fused loss leans on the
    // faster-converging MR/type heads (see PaModelConfig).
    Tensor re_loss =
        tensor::CrossEntropyLoss(tensor::ConcatRows(re_rows), labels);
    loss = tensor::Add(
        loss, tensor::Scale(re_loss, config_.auxiliary_re_loss));
  }
  return loss;
}

std::vector<float> PaModel::Predict(const Bag& bag, util::Rng* rng) const {
  return PredictImpl(bag, rng);
}

std::vector<float> PaModel::Predict(const Bag& bag) const {
  // Without an rng there is nothing to drive dropout, so a training-mode
  // forward pass would be silently wrong — refuse it.
  IMR_CHECK(!training());
  return PredictImpl(bag, /*rng=*/nullptr);
}

std::vector<float> PaModel::PredictImpl(const Bag& bag,
                                        util::Rng* rng) const {
  tensor::NoGradGuard no_grad;
  Tensor encodings = EncodeBag(bag, rng);
  // Diagonal evaluation under attention: relation r is scored under its own
  // query, i.e. read at [r, r] of the stacked [R x R] result. avg/max give
  // one rank-1 row that scores every relation.
  const bool diagonal = config_.aggregation == Aggregation::kAttention;
  Tensor bag_repr = diagonal ? attention_->StackedBagRepresentations(encodings)
                             : Aggregate(encodings, /*query_relation=*/0);
  Tensor probs = tensor::Softmax(FuseLogits(
      bag, HeadForward(*re_head_, quantized_re_head_.get(), bag_repr)));
  std::vector<float> probabilities(
      static_cast<size_t>(config_.num_relations), 0.0f);
  for (int r = 0; r < config_.num_relations; ++r) {
    probabilities[static_cast<size_t>(r)] =
        diagonal ? probs.at(r, r) : probs.at(r);
  }
  return probabilities;
}

}  // namespace imr::re
