// Sentence encoders used by the RE models: PCNN (Zeng et al. 2015), plain
// CNN (Zeng et al. 2014), and a bidirectional GRU with optional word-level
// attention (BGWA-style, Jat et al. 2018). All encoders share the same
// input features and expose one virtual Encode() so the implicit-mutual-
// relation fusion can wrap any of them (the paper's "flexibility" claim).
#ifndef IMR_NN_ENCODERS_H_
#define IMR_NN_ENCODERS_H_

#include <memory>
#include <span>
#include <vector>

#include "nn/layers.h"
#include "nn/module.h"
#include "tensor/ops.h"
#include "util/rng.h"

namespace imr::nn {

/// Features of one sentence, produced by the text pipeline.
struct EncoderInput {
  std::vector<int> word_ids;       // token ids, length T >= 1
  std::vector<int> head_offsets;   // relative-position ids w.r.t. head
  std::vector<int> tail_offsets;   // relative-position ids w.r.t. tail
  int head_index = 0;              // token index of the head mention
  int tail_index = 0;              // token index of the tail mention
};

/// Hyper-parameters shared by the encoders (paper Table III defaults).
struct EncoderConfig {
  int vocab_size = 0;       // required
  int word_dim = 50;        // kw
  int position_dim = 5;     // kp
  int max_position = 60;    // offsets clipped to [-max, max]
  int window = 3;           // l
  int filters = 230;        // k (CNN/PCNN); GRU hidden = filters / 2
  float dropout = 0.5f;     // p
  // Word-level dropout: during training each token id is replaced by <unk>
  // with this probability. Discourages memorising bag-specific word
  // combinations, which dominates small distant-supervision corpora.
  float word_dropout = 0.0f;
};

class SentenceEncoder : public Module {
 public:
  ~SentenceEncoder() override = default;

  /// Encodes one sentence into a fixed-size vector. `rng` drives dropout
  /// and is only touched when training() is true.
  virtual tensor::Tensor Encode(const EncoderInput& input,
                                util::Rng* rng) const = 0;

  /// Encodes a batch of sentences into [S x output_dim()]. Row s equals
  /// Encode(*inputs[s], rng) bit for bit, forward and backward, with the
  /// rng drawn in the same order as calling Encode on each input in turn.
  /// The default does exactly that and stacks the rows with ConcatRows;
  /// PCNN overrides it with one op per layer over the whole batch.
  virtual tensor::Tensor EncodeBatch(
      std::span<const EncoderInput* const> inputs, util::Rng* rng) const;

  /// Dimension of the encoded vector.
  virtual int output_dim() const = 0;
};

/// Shared word + position embedding front-end: [T x (kw + 2*kp)].
class FeatureEmbedder : public Module {
 public:
  FeatureEmbedder(const EncoderConfig& config, util::Rng* rng);

  /// `rng` is only used for word dropout while training() is true (pass
  /// nullptr to disable).
  tensor::Tensor Embed(const EncoderInput& input, util::Rng* rng) const;

  /// Appends `input`'s word ids to `ids`, each replaced by <unk> as Embed
  /// replaces it: one rng draw per token while word dropout is on.
  void AppendWordIds(const EncoderInput& input, util::Rng* rng,
                     std::vector<int>* ids) const;

  /// Features of a batch whose tokens are concatenated, split by `offsets`
  /// (tensor/ops.h segments): one gather per table and one ConcatCols,
  /// [total tokens x (kw + 2*kp)]. `word_ids` are AppendWordIds' output.
  tensor::Tensor EmbedSegments(const std::vector<int>& word_ids,
                               const std::vector<int>& head_offsets,
                               const std::vector<int>& tail_offsets,
                               const std::vector<int>& offsets) const;
  int feature_dim() const;
  Embedding* word_embedding() { return word_.get(); }

 private:
  float word_dropout_;
  int position_vocab_;
  std::unique_ptr<Embedding> word_;
  std::unique_ptr<Embedding> pos_head_;
  std::unique_ptr<Embedding> pos_tail_;
};

/// Piecewise CNN: conv over windows, 3-segment max pooling split at the
/// entity positions, tanh, dropout. Output dim = 3 * filters.
class PcnnEncoder : public SentenceEncoder {
 public:
  PcnnEncoder(const EncoderConfig& config, util::Rng* rng);

  /// The per-sentence reference: ops of one sentence each. Training,
  /// Predict and serving call EncodeBatch, whose rows the exactness tests
  /// (nn_test, re_test) compare against this bit for bit.
  tensor::Tensor Encode(const EncoderInput& input,
                        util::Rng* rng) const override;
  /// One gather per feature table, one ConcatCols, one segmented conv, one
  /// segmented piecewise pool, one Tanh and one Dropout over the batch.
  /// Each sentence's word-dropout ids and then its dropout mask are drawn
  /// before any op runs, in Encode's order.
  tensor::Tensor EncodeBatch(std::span<const EncoderInput* const> inputs,
                             util::Rng* rng) const override;
  int output_dim() const override { return 3 * config_.filters; }

 private:
  EncoderConfig config_;
  std::unique_ptr<FeatureEmbedder> embedder_;
  tensor::Tensor conv_weight_;
  tensor::Tensor conv_bias_;
};

/// Plain CNN: conv + single max pooling. Output dim = filters.
class CnnEncoder : public SentenceEncoder {
 public:
  CnnEncoder(const EncoderConfig& config, util::Rng* rng);

  tensor::Tensor Encode(const EncoderInput& input,
                        util::Rng* rng) const override;
  int output_dim() const override { return config_.filters; }

 private:
  EncoderConfig config_;
  std::unique_ptr<FeatureEmbedder> embedder_;
  tensor::Tensor conv_weight_;
  tensor::Tensor conv_bias_;
};

/// Bidirectional GRU; the sentence vector is a max over time of the
/// concatenated directions, or a word-attention weighted sum when
/// `word_attention` is set (BGWA). Output dim = 2 * hidden.
class GruEncoder : public SentenceEncoder {
 public:
  GruEncoder(const EncoderConfig& config, bool word_attention,
             util::Rng* rng);

  tensor::Tensor Encode(const EncoderInput& input,
                        util::Rng* rng) const override;
  int output_dim() const override { return 2 * hidden_; }

 private:
  // Runs one direction; returns per-step hidden states [T x H].
  tensor::Tensor RunDirection(const tensor::Tensor& features, bool reverse,
                              const tensor::Tensor& wx,
                              const tensor::Tensor& bx,
                              const tensor::Tensor& u_zr,
                              const tensor::Tensor& u_n) const;

  EncoderConfig config_;
  int hidden_;
  bool word_attention_;
  std::unique_ptr<FeatureEmbedder> embedder_;
  // Per direction: input projection [D x 3H], bias [3H], recurrent
  // [H x 2H] (update/reset) and [H x H] (candidate).
  tensor::Tensor fwd_wx_, fwd_bx_, fwd_u_zr_, fwd_u_n_;
  tensor::Tensor bwd_wx_, bwd_bx_, bwd_u_zr_, bwd_u_n_;
  // Word attention: projection + query vector.
  std::unique_ptr<Linear> attn_proj_;
  tensor::Tensor attn_query_;
};

/// Factory by name: "pcnn", "cnn", "gru", "bgwa" (gru + word attention).
std::unique_ptr<SentenceEncoder> MakeEncoder(const std::string& kind,
                                             const EncoderConfig& config,
                                             util::Rng* rng);

}  // namespace imr::nn

#endif  // IMR_NN_ENCODERS_H_
