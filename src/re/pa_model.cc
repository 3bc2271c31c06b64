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
  if (quantized != nullptr && !tensor::GradModeEnabled()) {
    return quantized->Forward(x);
  }
  // Row-exact: a stacked [B x dim] input gives each row the bits of its own
  // rank-1 head.Forward, forward and backward.
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

Tensor PaModel::AggregateBags(const Tensor& encodings,
                              const std::vector<int>& offsets,
                              const std::vector<int>& relations) const {
  switch (config_.aggregation) {
    case Aggregation::kAttention:
      return attention_->BagRepresentations(encodings, offsets, relations);
    case Aggregation::kAverage:
      return tensor::MeanRows(encodings, offsets);
    case Aggregation::kMax:
      return tensor::MaxOverRows(encodings, offsets);
  }
  IMR_CHECK(false);
  return Tensor();
}

Tensor PaModel::FuseLogits(const std::vector<const Bag*>& bags,
                           const std::vector<int>& rows,
                           const Tensor& re_logits) const {
  if (!config_.use_mutual_relation && !config_.use_entity_type) {
    return re_logits;
  }
  const int count = static_cast<int>(bags.size());
  // gamma * RE with RE = softmax(re_logits), row by row. C_MR and C_T do
  // not depend on the attention query: each bag's are computed once, one
  // row per bag, and added to each of its rows.
  Tensor mixture =
      tensor::ScaleByScalarTensor(tensor::Softmax(re_logits), gamma_);
  if (config_.use_mutual_relation) {
    const size_t dim = static_cast<size_t>(config_.mutual_relation_dim);
    // A pooled copy: storage the pool hands out comes back to it, so the
    // bags' MR vectors do not blur the thread's working-set count.
    std::vector<float> mr = AcquireBuffer(static_cast<size_t>(count) * dim);
    for (int b = 0; b < count; ++b) {
      const std::vector<float>& bag_mr =
          bags[static_cast<size_t>(b)]->mutual_relation;
      IMR_CHECK_EQ(bag_mr.size(), dim);
      std::copy(bag_mr.begin(), bag_mr.end(),
                mr.begin() + static_cast<long>(static_cast<size_t>(b) * dim));
    }
    Tensor mr_input = Tensor::FromData(
        {count, config_.mutual_relation_dim}, std::move(mr));
    Tensor c_mr = tensor::Softmax(
        HeadForward(*mr_head_, quantized_mr_head_.get(), mr_input));
    mixture = tensor::AddRowVector(
        mixture, tensor::ScaleByScalarTensor(c_mr, alpha_), rows);
  }
  if (config_.use_entity_type) {
    // Every bag's head type ids, then its tail type ids: 2B segments.
    std::vector<int> type_ids;
    std::vector<int> type_offsets(1, 0);
    type_offsets.reserve(2 * bags.size() + 1);
    for (const Bag* bag : bags) {
      type_ids.insert(type_ids.end(), bag->head_types.begin(),
                      bag->head_types.end());
      type_offsets.push_back(static_cast<int>(type_ids.size()));
      type_ids.insert(type_ids.end(), bag->tail_types.begin(),
                      bag->tail_types.end());
      type_offsets.push_back(static_cast<int>(type_ids.size()));
    }
    Tensor c_t = tensor::Softmax(
        HeadForward(*type_head_, quantized_type_head_.get(),
                    type_embedding_->PairVectors(type_ids, type_offsets)));
    mixture = tensor::AddRowVector(
        mixture, tensor::ScaleByScalarTensor(c_t, beta_), rows);
  }
  return tensor::AddRowVector(
      tensor::ScaleByScalarTensor(mixture, fuse_scale_), fuse_bias_, rows);
}

Tensor PaModel::BagLogits(const Bag& bag, int query_relation,
                          util::Rng* rng) const {
  Tensor encodings = EncodeBag(bag, rng);
  Tensor re_logits = HeadForward(*re_head_, quantized_re_head_.get(),
                                 Aggregate(encodings, query_relation));
  return FuseLogits({&bag}, {0, 1}, re_logits);
}

Tensor PaModel::BatchLoss(const std::vector<const Bag*>& batch,
                          util::Rng* rng) const {
  IMR_CHECK(!batch.empty());
  // Every sentence of the batch in one EncodeBatch call.
  std::vector<const nn::EncoderInput*>& inputs = ThreadEncoderInputs();
  for (const Bag* bag : batch) {
    IMR_CHECK(!bag->sentences.empty());
    for (const nn::EncoderInput& sentence : bag->sentences) {
      inputs.push_back(&sentence);
    }
  }
  return BatchLoss(batch, encoder_->EncodeBatch(inputs, rng));
}

Tensor PaModel::BatchLoss(const std::vector<const Bag*>& batch,
                          const Tensor& encodings) const {
  IMR_CHECK(!batch.empty());
  const bool fused =
      config_.use_mutual_relation || config_.use_entity_type;
  const bool auxiliary = fused && config_.auxiliary_re_loss > 0.0f;
  // Bag b owns rows [offsets[b], offsets[b + 1]) of the encodings and row
  // b of every [B x ...] tensor below.
  std::vector<int> offsets(1, 0);
  std::vector<int> bag_rows(1, 0);
  std::vector<int> labels;
  offsets.reserve(batch.size() + 1);
  bag_rows.reserve(batch.size() + 1);
  labels.reserve(batch.size());
  for (const Bag* bag : batch) {
    IMR_CHECK(!bag->sentences.empty());
    offsets.push_back(offsets.back() +
                      static_cast<int>(bag->sentences.size()));
    bag_rows.push_back(bag_rows.back() + 1);
    labels.push_back(bag->relation);
  }
  Tensor re_logits =
      HeadForward(*re_head_, quantized_re_head_.get(),
                  AggregateBags(encodings, offsets, labels));
  Tensor loss = tensor::CrossEntropyLoss(
      FuseLogits(batch, bag_rows, re_logits), labels);
  if (auxiliary) {
    // Keep the text path trained even when the fused loss leans on the
    // faster-converging MR/type heads (see PaModelConfig).
    Tensor re_loss = tensor::CrossEntropyLoss(re_logits, labels);
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
  Tensor re_logits =
      HeadForward(*re_head_, quantized_re_head_.get(), bag_repr);
  Tensor probs =
      tensor::Softmax(FuseLogits({&bag}, {0, re_logits.rows()}, re_logits));
  std::vector<float> probabilities(
      static_cast<size_t>(config_.num_relations), 0.0f);
  for (int r = 0; r < config_.num_relations; ++r) {
    probabilities[static_cast<size_t>(r)] =
        diagonal ? probs.at(r, r) : probs.at(r);
  }
  return probabilities;
}

}  // namespace imr::re
