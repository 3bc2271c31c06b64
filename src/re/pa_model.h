// The paper's unified relation-extraction model (Section III-D).
//
// Per bag of sentences for an entity pair (e_i, e_j):
//   RE     = softmax(W_RE X_bag + b_RE)   X_bag from the sentence encoder +
//                                          selective attention / averaging
//   C_MR   = softmax(W_MR MR_ij + b_MR)    MR_ij = U_j - U_i from LINE
//   C_T    = softmax(W_T  T_ij  + b_T)     T_ij = concat(type embeddings)
//   P(r)   = softmax(w (a C_MR + b C_T + g RE) + bias)
// with scalar a, b, g, w learned jointly with everything else.
//
// Configuration degrees of freedom reproduce the paper's model zoo:
//   encoder=pcnn, att, no MR/T            -> PCNN+ATT   (Lin et al.)
//   encoder=pcnn, avg, no MR/T            -> PCNN       (Zeng et al.)
//   encoder=cnn,  att, no MR/T            -> CNN+ATT
//   encoder=gru,  att, no MR/T            -> GRU+ATT
//   encoder=bgwa, att, no MR/T            -> BGWA-style
//   + use_entity_type                     -> PA-T
//   + use_mutual_relation                 -> PA-MR
//   + both                                -> PA-TMR (the paper's model)
#ifndef IMR_RE_PA_MODEL_H_
#define IMR_RE_PA_MODEL_H_

#include <memory>
#include <vector>

#include "nn/attention.h"
#include "nn/encoders.h"
#include "nn/layers.h"
#include "re/bag_dataset.h"
#include "re/config.h"
#include "re/type_embedding.h"
#include "util/status.h"

namespace imr::re {

class PaModel : public nn::Module {
 public:
  PaModel(const PaModelConfig& config, util::Rng* rng);

  /// Final (pre-softmax) logits of one bag, with the attention query fixed
  /// to `query_relation` (the gold label during training).
  tensor::Tensor BagLogits(const Bag& bag, int query_relation,
                           util::Rng* rng) const;

  /// Training loss of a batch of bags (mean cross-entropy of the gold
  /// labels, attention queried with the gold label as in Lin et al.).
  /// Encodes every sentence of the batch with one EncodeBatch call and
  /// hands each bag one row slice of the result to the overload below.
  tensor::Tensor BatchLoss(const std::vector<const Bag*>& batch,
                           util::Rng* rng) const;

  /// The same loss from sentence encodings the caller computed:
  /// encodings[b] is bag b's [N_b x C], for example a graph built with
  /// encoder().Encode one sentence at a time.
  tensor::Tensor BatchLoss(const std::vector<const Bag*>& batch,
                           const std::vector<tensor::Tensor>& encodings) const;

  const nn::SentenceEncoder& encoder() const { return *encoder_; }

  /// Inference: probability of every relation for a bag. With selective
  /// attention each relation r is scored under its own query (the standard
  /// "diagonal" evaluation). All R queries run in one pass: the stacked
  /// [R x dim] bag representations go through the RE head once, C_MR and
  /// C_T are computed once. With fp32 heads entry r is bit-identical to
  /// Softmax(BagLogits(bag, r, ...)).at(r) evaluated without gradients.
  /// `rng` only drives dropout and is untouched (may be null) unless the
  /// model is in training mode.
  std::vector<float> Predict(const Bag& bag, util::Rng* rng) const;

  /// Deterministic, Rng-free inference: the same probabilities with dropout
  /// guaranteed off. Requires the model to be in eval mode
  /// (SetTraining(false) or nn::EvalModeGuard); checked loudly.
  std::vector<float> Predict(const Bag& bag) const;

  const PaModelConfig& config() const { return config_; }
  int num_relations() const { return config_.num_relations; }

  /// The learned fusion weights (alpha, beta, gamma) — exposed for the
  /// ablation benches.
  float alpha() const;
  float beta() const;
  float gamma() const;

  /// Builds int8 shadows of the RE/MR/type heads from the current fp32
  /// weights. Afterwards every no-grad forward (Predict, serving) routes
  /// those heads through the quantized int8 GEMM; training-mode forwards
  /// (gradients recording) still use the fp32 parameters, so a co-located
  /// fine-tuning loop keeps exact gradients. Call again after a weight
  /// update to refresh the shadows.
  void EnableQuantizedInference();
  bool quantized_inference() const { return quantized_re_head_ != nullptr; }

 private:
  // Shared inference path behind both Predict overloads.
  std::vector<float> PredictImpl(const Bag& bag, util::Rng* rng) const;
  // Encodes all sentences of a bag into [N x C] with one EncodeBatch call.
  tensor::Tensor EncodeBag(const Bag& bag, util::Rng* rng) const;
  tensor::Tensor Aggregate(const tensor::Tensor& encodings,
                           int query_relation) const;
  // Fuses RE logits with the MR / Type confidences for one bag. re_logits
  // is rank-1 [R] (one query) or [Q x R] (one row per query); C_MR and C_T
  // are broadcast over the rows.
  tensor::Tensor FuseLogits(const Bag& bag,
                            const tensor::Tensor& re_logits) const;
  // Head forward that honors quantized inference: the int8 shadow when one
  // exists and no gradients are recording, the fp32 layer otherwise. Both
  // no-grad paths compute each row of a rank-2 x on its own.
  tensor::Tensor HeadForward(const nn::Linear& head,
                             const nn::QuantizedLinear* quantized,
                             const tensor::Tensor& x) const;

  PaModelConfig config_;
  std::unique_ptr<nn::SentenceEncoder> encoder_;
  std::unique_ptr<nn::SelectiveAttention> attention_;
  std::unique_ptr<nn::Linear> re_head_;
  std::unique_ptr<nn::Linear> mr_head_;
  std::unique_ptr<TypeEmbedding> type_embedding_;
  std::unique_ptr<nn::Linear> type_head_;
  // Int8 serving shadows (EnableQuantizedInference); null until enabled.
  std::unique_ptr<nn::QuantizedLinear> quantized_re_head_;
  std::unique_ptr<nn::QuantizedLinear> quantized_mr_head_;
  std::unique_ptr<nn::QuantizedLinear> quantized_type_head_;
  // Fusion parameters.
  tensor::Tensor alpha_, beta_, gamma_, fuse_scale_, fuse_bias_;
};

}  // namespace imr::re

#endif  // IMR_RE_PA_MODEL_H_
