// Sentence-level selective attention over a bag of sentence encodings
// (Lin et al. 2016): alpha_j = softmax_j(x_j A r), bag = sum_j alpha_j x_j,
// where A is a learned diagonal matrix and r a per-relation query vector.
#ifndef IMR_NN_ATTENTION_H_
#define IMR_NN_ATTENTION_H_

#include <memory>
#include <vector>

#include "nn/layers.h"
#include "nn/module.h"

namespace imr::nn {

class SelectiveAttention : public Module {
 public:
  /// `dim` is the sentence-encoding width, `num_relations` the number of
  /// query vectors.
  SelectiveAttention(int dim, int num_relations, util::Rng* rng);

  /// Attention-weighted bag representation for a query relation.
  /// x: [N x dim] sentence encodings; returns [dim].
  tensor::Tensor BagRepresentation(const tensor::Tensor& x,
                                   int relation) const;

  /// The attention weights themselves (softmax over sentences), useful for
  /// inspection and tests. Returns [N].
  tensor::Tensor Weights(const tensor::Tensor& x, int relation) const;

  /// Inference only: the bag representation under every query relation at
  /// once. x: [N x dim]; returns [num_relations x dim] whose row r equals
  /// BagRepresentation(x, r) bit for bit on every backend. One [R x N]
  /// score matrix and one row softmax replace R separate passes. Records no
  /// graph; IMR_CHECKs that grad mode is off.
  tensor::Tensor StackedBagRepresentations(const tensor::Tensor& x) const;

  int dim() const { return dim_; }
  int num_relations() const { return num_relations_; }

 private:
  int dim_;
  int num_relations_;
  tensor::Tensor diag_;  // A, stored as its diagonal [dim]
  std::unique_ptr<Embedding> queries_;
  std::vector<int> all_relations_;  // 0 .. num_relations-1
};

}  // namespace imr::nn

#endif  // IMR_NN_ATTENTION_H_
