#include "nn/encoders.h"

#include <algorithm>

#include "nn/init.h"
#include "tensor/buffer_pool.h"
#include "util/logging.h"

namespace imr::nn {

using tensor::Tensor;
using tensor::internal::AcquireBuffer;

Tensor SentenceEncoder::EncodeBatch(std::span<const EncoderInput* const> inputs,
                                    util::Rng* rng) const {
  IMR_CHECK(!inputs.empty());
  std::vector<Tensor> rows;
  rows.reserve(inputs.size());
  for (const EncoderInput* input : inputs) rows.push_back(Encode(*input, rng));
  return tensor::ConcatRows(rows);
}

FeatureEmbedder::FeatureEmbedder(const EncoderConfig& config,
                                 util::Rng* rng)
    : word_dropout_(config.word_dropout),
      position_vocab_(2 * config.max_position + 1) {
  IMR_CHECK_GT(config.vocab_size, 0);
  word_ = std::make_unique<Embedding>(config.vocab_size, config.word_dim,
                                      rng);
  pos_head_ = std::make_unique<Embedding>(position_vocab_,
                                          config.position_dim, rng);
  pos_tail_ = std::make_unique<Embedding>(position_vocab_,
                                          config.position_dim, rng);
  RegisterChild("word", word_.get());
  RegisterChild("pos_head", pos_head_.get());
  RegisterChild("pos_tail", pos_tail_.get());
}

int FeatureEmbedder::feature_dim() const {
  return word_->dim() + pos_head_->dim() + pos_tail_->dim();
}

namespace {

void CheckInput(const EncoderInput& input) {
  IMR_CHECK(!input.word_ids.empty());
  IMR_CHECK_EQ(input.word_ids.size(), input.head_offsets.size());
  IMR_CHECK_EQ(input.word_ids.size(), input.tail_offsets.size());
}

}  // namespace

void FeatureEmbedder::AppendWordIds(const EncoderInput& input, util::Rng* rng,
                                    std::vector<int>* ids) const {
  const size_t start = ids->size();
  ids->insert(ids->end(), input.word_ids.begin(), input.word_ids.end());
  if (training() && word_dropout_ > 0.0f && rng != nullptr) {
    // <unk> has id 1 in every vocabulary built by text::Vocabulary.
    for (size_t i = start; i < ids->size(); ++i) {
      if (rng->Bernoulli(word_dropout_)) (*ids)[i] = 1;
    }
  }
}

Tensor FeatureEmbedder::Embed(const EncoderInput& input,
                              util::Rng* rng) const {
  CheckInput(input);
  Tensor words;
  if (training() && word_dropout_ > 0.0f && rng != nullptr) {
    std::vector<int> dropped;
    AppendWordIds(input, rng, &dropped);
    words = word_->Forward(dropped);
  } else {
    words = word_->Forward(input.word_ids);
  }
  Tensor ph = pos_head_->Forward(input.head_offsets);
  Tensor pt = pos_tail_->Forward(input.tail_offsets);
  return tensor::ConcatCols({words, ph, pt});  // [T x (kw + 2*kp)]
}

Tensor FeatureEmbedder::EmbedSegments(const std::vector<int>& word_ids,
                                      const std::vector<int>& head_offsets,
                                      const std::vector<int>& tail_offsets,
                                      const std::vector<int>& offsets) const {
  Tensor words = tensor::GatherRows(word_->table(), word_ids, offsets);
  Tensor ph = tensor::GatherRows(pos_head_->table(), head_offsets, offsets);
  Tensor pt = tensor::GatherRows(pos_tail_->table(), tail_offsets, offsets);
  return tensor::ConcatCols({words, ph, pt});
}

namespace {

// Piecewise boundaries: segments end after each entity position
// (inclusive), as in Zeng et al. 2015.
void SegmentBounds(const EncoderInput& input, int time, int* b1, int* b2) {
  int first = std::min(input.head_index, input.tail_index);
  int second = std::max(input.head_index, input.tail_index);
  first = std::clamp(first, 0, time - 1);
  second = std::clamp(second, 0, time - 1);
  *b1 = first + 1;
  *b2 = second + 1;
}

}  // namespace

PcnnEncoder::PcnnEncoder(const EncoderConfig& config, util::Rng* rng)
    : config_(config) {
  embedder_ = std::make_unique<FeatureEmbedder>(config, rng);
  RegisterChild("embedder", embedder_.get());
  const int in_dim = embedder_->feature_dim();
  conv_weight_ = RegisterParameter(
      "conv_weight",
      XavierInit({config.filters, config.window * in_dim}, rng));
  conv_bias_ = RegisterParameter("conv_bias",
                                 tensor::Tensor::Zeros({config.filters}));
}

Tensor PcnnEncoder::Encode(const EncoderInput& input, util::Rng* rng) const {
  Tensor features = embedder_->Embed(input, rng);
  Tensor conv =
      tensor::Conv1dSame(features, conv_weight_, conv_bias_, config_.window);
  int b1 = 0, b2 = 0;
  SegmentBounds(input, conv.rows(), &b1, &b2);
  Tensor pooled = tensor::PiecewiseMaxOverRows(conv, b1, b2);
  Tensor activated = tensor::Tanh(pooled);
  return tensor::Dropout(activated, config_.dropout, rng, training());
}

namespace {

// EncodeBatch's token, offset and piece-bound lists. Kept per thread and
// reused, so a steady-state batch (or served bag) does not allocate them.
struct PcnnBatchScratch {
  std::vector<int> word_ids;
  std::vector<int> head_offsets;
  std::vector<int> tail_offsets;
  std::vector<int> offsets;
  std::vector<int> splits;
};

PcnnBatchScratch& ThreadPcnnBatchScratch() {
  thread_local PcnnBatchScratch scratch;
  return scratch;
}

}  // namespace

Tensor PcnnEncoder::EncodeBatch(std::span<const EncoderInput* const> inputs,
                                util::Rng* rng) const {
  IMR_CHECK(!inputs.empty());
  PcnnBatchScratch& batch = ThreadPcnnBatchScratch();
  batch.word_ids.clear();
  batch.head_offsets.clear();
  batch.tail_offsets.clear();
  batch.offsets.assign(1, 0);
  batch.splits.clear();
  const bool dropout = training() && config_.dropout > 0.0f;
  const size_t out_dim = static_cast<size_t>(output_dim());
  // Empty (and taken from no pool bucket) when dropout is off.
  std::vector<float> mask =
      AcquireBuffer(dropout ? inputs.size() * out_dim : 0);
  for (size_t s = 0; s < inputs.size(); ++s) {
    const EncoderInput& input = *inputs[s];
    CheckInput(input);
    // Encode draws a sentence's word-dropout ids, then its dropout mask.
    embedder_->AppendWordIds(input, rng, &batch.word_ids);
    if (dropout) {
      tensor::DrawDropoutMask(config_.dropout, rng, mask.data() + s * out_dim,
                              out_dim);
    }
    batch.head_offsets.insert(batch.head_offsets.end(),
                              input.head_offsets.begin(),
                              input.head_offsets.end());
    batch.tail_offsets.insert(batch.tail_offsets.end(),
                              input.tail_offsets.begin(),
                              input.tail_offsets.end());
    const int time = static_cast<int>(input.word_ids.size());
    int b1 = 0, b2 = 0;
    SegmentBounds(input, time, &b1, &b2);
    batch.splits.push_back(b1);
    batch.splits.push_back(b2);
    batch.offsets.push_back(batch.offsets.back() + time);
  }
  Tensor features =
      embedder_->EmbedSegments(batch.word_ids, batch.head_offsets,
                               batch.tail_offsets, batch.offsets);
  Tensor conv = tensor::Conv1dSame(features, conv_weight_, conv_bias_,
                                   config_.window, batch.offsets);
  Tensor pooled =
      tensor::PiecewiseMaxOverRows(conv, batch.offsets, batch.splits);
  Tensor activated = tensor::Tanh(pooled);
  if (!dropout) return activated;
  return tensor::Dropout(activated, std::move(mask));
}

CnnEncoder::CnnEncoder(const EncoderConfig& config, util::Rng* rng)
    : config_(config) {
  embedder_ = std::make_unique<FeatureEmbedder>(config, rng);
  RegisterChild("embedder", embedder_.get());
  const int in_dim = embedder_->feature_dim();
  conv_weight_ = RegisterParameter(
      "conv_weight",
      XavierInit({config.filters, config.window * in_dim}, rng));
  conv_bias_ = RegisterParameter("conv_bias",
                                 tensor::Tensor::Zeros({config.filters}));
}

Tensor CnnEncoder::Encode(const EncoderInput& input, util::Rng* rng) const {
  Tensor features = embedder_->Embed(input, rng);
  Tensor conv =
      tensor::Conv1dSame(features, conv_weight_, conv_bias_, config_.window);
  Tensor pooled = tensor::MaxOverRows(conv);
  Tensor activated = tensor::Tanh(pooled);
  return tensor::Dropout(activated, config_.dropout, rng, training());
}

GruEncoder::GruEncoder(const EncoderConfig& config, bool word_attention,
                       util::Rng* rng)
    : config_(config),
      hidden_(std::max(1, config.filters / 2)),
      word_attention_(word_attention) {
  embedder_ = std::make_unique<FeatureEmbedder>(config, rng);
  RegisterChild("embedder", embedder_.get());
  const int in_dim = embedder_->feature_dim();
  const int h = hidden_;
  fwd_wx_ = RegisterParameter("fwd_wx", XavierInit({in_dim, 3 * h}, rng));
  fwd_bx_ = RegisterParameter("fwd_bx", tensor::Tensor::Zeros({3 * h}));
  fwd_u_zr_ = RegisterParameter("fwd_u_zr", XavierInit({h, 2 * h}, rng));
  fwd_u_n_ = RegisterParameter("fwd_u_n", XavierInit({h, h}, rng));
  bwd_wx_ = RegisterParameter("bwd_wx", XavierInit({in_dim, 3 * h}, rng));
  bwd_bx_ = RegisterParameter("bwd_bx", tensor::Tensor::Zeros({3 * h}));
  bwd_u_zr_ = RegisterParameter("bwd_u_zr", XavierInit({h, 2 * h}, rng));
  bwd_u_n_ = RegisterParameter("bwd_u_n", XavierInit({h, h}, rng));
  if (word_attention_) {
    attn_proj_ = std::make_unique<Linear>(2 * h, 2 * h, rng);
    RegisterChild("attn_proj", attn_proj_.get());
    attn_query_ = RegisterParameter("attn_query", XavierInit({2 * h}, rng));
  }
}

Tensor GruEncoder::RunDirection(const Tensor& features, bool reverse,
                                const Tensor& wx, const Tensor& bx,
                                const Tensor& u_zr,
                                const Tensor& u_n) const {
  const int time = features.rows();
  const int h = hidden_;
  // Project all inputs at once: [T x 3H].
  Tensor gates_x = tensor::AddRowVector(tensor::MatMul(features, wx), bx);
  Tensor state = Tensor::Zeros({h});
  std::vector<Tensor> states(time);
  for (int step = 0; step < time; ++step) {
    const int t = reverse ? time - 1 - step : step;
    Tensor gx = tensor::Row(gates_x, t);
    Tensor h_zr = tensor::MatMul(state, u_zr);  // [2H]
    Tensor z = tensor::Sigmoid(
        tensor::Add(tensor::Slice(gx, 0, h), tensor::Slice(h_zr, 0, h)));
    Tensor r = tensor::Sigmoid(
        tensor::Add(tensor::Slice(gx, h, h), tensor::Slice(h_zr, h, h)));
    Tensor candidate = tensor::Tanh(tensor::Add(
        tensor::Slice(gx, 2 * h, h),
        tensor::Mul(r, tensor::MatMul(state, u_n))));
    // h' = z * h + (1 - z) * candidate
    Tensor one_minus_z = tensor::AddScalar(tensor::Scale(z, -1.0f), 1.0f);
    state = tensor::Add(tensor::Mul(z, state),
                        tensor::Mul(one_minus_z, candidate));
    states[t] = state;
  }
  return tensor::ConcatRows(states);
}

Tensor GruEncoder::Encode(const EncoderInput& input, util::Rng* rng) const {
  Tensor features = embedder_->Embed(input, rng);
  Tensor fwd =
      RunDirection(features, /*reverse=*/false, fwd_wx_, fwd_bx_, fwd_u_zr_,
                   fwd_u_n_);
  Tensor bwd =
      RunDirection(features, /*reverse=*/true, bwd_wx_, bwd_bx_, bwd_u_zr_,
                   bwd_u_n_);
  // Concat directions per step: [T x 2H].
  Tensor hidden = tensor::ConcatCols({fwd, bwd});
  Tensor repr;
  if (word_attention_) {
    // Fused MatMul+bias+Tanh (bit-identical to the composition it replaces).
    Tensor proj = attn_proj_->ForwardTanh(hidden);
    Tensor scores = tensor::RowwiseDot(proj, attn_query_);
    Tensor alpha = tensor::Softmax(scores);
    repr = tensor::WeightedSumRows(hidden, alpha);
  } else {
    repr = tensor::MaxOverRows(hidden);
  }
  return tensor::Dropout(repr, config_.dropout, rng, training());
}

std::unique_ptr<SentenceEncoder> MakeEncoder(const std::string& kind,
                                             const EncoderConfig& config,
                                             util::Rng* rng) {
  if (kind == "pcnn") return std::make_unique<PcnnEncoder>(config, rng);
  if (kind == "cnn") return std::make_unique<CnnEncoder>(config, rng);
  if (kind == "gru")
    return std::make_unique<GruEncoder>(config, /*word_attention=*/false,
                                        rng);
  if (kind == "bgwa")
    return std::make_unique<GruEncoder>(config, /*word_attention=*/true,
                                        rng);
  IMR_LOG(Error) << "unknown encoder kind: " << kind;
  return nullptr;
}

}  // namespace imr::nn
