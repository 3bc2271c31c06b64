#include "nn/attention.h"

#include <numeric>

#include "nn/init.h"
#include "tensor/buffer_pool.h"
#include "tensor/simd/dispatch.h"
#include "util/logging.h"

namespace imr::nn {

using tensor::Tensor;
using tensor::internal::AcquireBuffer;
using tensor::internal::AcquireBufferFill;
using tensor::internal::PooledFloats;

SelectiveAttention::SelectiveAttention(int dim, int num_relations,
                                       util::Rng* rng)
    : dim_(dim),
      num_relations_(num_relations),
      all_relations_(static_cast<size_t>(num_relations)) {
  IMR_CHECK_GT(dim, 0);
  IMR_CHECK_GT(num_relations, 0);
  // A initialised to identity so attention starts as plain dot-product
  // similarity with the query.
  diag_ = RegisterParameter("diag", tensor::Tensor::Full({dim}, 1.0f));
  queries_ = std::make_unique<Embedding>(num_relations, dim, rng);
  RegisterChild("queries", queries_.get());
  std::iota(all_relations_.begin(), all_relations_.end(), 0);
}

Tensor SelectiveAttention::Weights(const Tensor& x, int relation) const {
  IMR_CHECK_GE(relation, 0);
  IMR_CHECK_LT(relation, num_relations_);
  Tensor query = tensor::Reshape(queries_->Forward({relation}), {dim_});
  // q_j = x_j A r with diagonal A == x_j . (diag * r).
  Tensor scores = tensor::RowwiseDot(x, tensor::Mul(diag_, query));
  return tensor::Softmax(scores);
}

Tensor SelectiveAttention::BagRepresentation(const Tensor& x,
                                             int relation) const {
  Tensor alpha = Weights(x, relation);
  return tensor::WeightedSumRows(x, alpha);
}

Tensor SelectiveAttention::StackedBagRepresentations(const Tensor& x) const {
  IMR_CHECK(!tensor::GradModeEnabled());
  IMR_CHECK_EQ(x.rank(), 2);
  IMR_CHECK_EQ(x.shape()[1], dim_);
  const int n = x.shape()[0];
  const size_t cols = static_cast<size_t>(dim_);
  // Gathered (not read off the table) so deferred optimizer updates are
  // replayed exactly as BagRepresentation's lookups replay them.
  const Tensor queries = queries_->Forward(all_relations_);
  const float* xv = x.data().data();
  const float* qv = queries.data().data();
  const float* dv = diag_.data().data();
  // Each loop repeats the arithmetic of the op it stands in for, so every
  // row matches the single-query path: Mul's diag * r, RowwiseDot's
  // c-ascending dot from 0, Softmax's softmax_rows, and WeightedSumRows'
  // j-ascending sum from 0.
  PooledFloats query(AcquireBuffer(cols));
  PooledFloats scores(AcquireBuffer(static_cast<size_t>(num_relations_) * n));
  for (int r = 0; r < num_relations_; ++r) {
    const float* qrow = qv + static_cast<size_t>(r) * cols;
    for (size_t c = 0; c < cols; ++c) query[c] = dv[c] * qrow[c];
    for (int j = 0; j < n; ++j) {
      const float* xrow = xv + static_cast<size_t>(j) * cols;
      float acc = 0.0f;
      for (size_t c = 0; c < cols; ++c) acc += xrow[c] * query[c];
      scores[static_cast<size_t>(r) * n + static_cast<size_t>(j)] = acc;
    }
  }
  PooledFloats alpha(AcquireBuffer(scores.size()));
  tensor::simd::Active().softmax_rows(scores.data(), alpha.data(),
                                      num_relations_, n);
  std::vector<float> out =
      AcquireBufferFill(static_cast<size_t>(num_relations_) * cols, 0.0f);
  for (int r = 0; r < num_relations_; ++r) {
    float* orow = out.data() + static_cast<size_t>(r) * cols;
    for (int j = 0; j < n; ++j) {
      const float w = alpha[static_cast<size_t>(r) * n + static_cast<size_t>(j)];
      const float* xrow = xv + static_cast<size_t>(j) * cols;
      for (size_t c = 0; c < cols; ++c) orow[c] += w * xrow[c];
    }
  }
  return Tensor::FromData({num_relations_, dim_}, std::move(out));
}

}  // namespace imr::nn
