// Entity-type embedding (paper Section III-B): each of the 38 coarse FIGER
// types gets a kt-dimensional vector; an entity's type vector is the mean
// over its types, and a pair is represented as concat(head, tail) in 2*kt.
#ifndef IMR_RE_TYPE_EMBEDDING_H_
#define IMR_RE_TYPE_EMBEDDING_H_

#include <memory>
#include <vector>

#include "kg/types.h"
#include "nn/layers.h"
#include "nn/module.h"

namespace imr::re {

class TypeEmbedding : public nn::Module {
 public:
  TypeEmbedding(int type_dim, util::Rng* rng,
                int num_types = kg::kNumCoarseTypes);

  /// T_ij = concat(Type_i, Type_j) of B pairs at once: [B x 2 * type_dim],
  /// one gather and one segmented mean. `type_ids` holds each pair's head
  /// type ids, then its tail type ids, pair after pair; `offsets` (2B + 1
  /// entries, the segment contract in tensor/ops.h) makes segment 2b pair
  /// b's head types and 2b + 1 its tail types. Every entity needs >= 1
  /// type. Row b has the bits of the mean of each entity's rows, and the
  /// backward adds into the table last pair first, tail before head.
  tensor::Tensor PairVectors(const std::vector<int>& type_ids,
                             const std::vector<int>& offsets) const;

  int type_dim() const { return type_dim_; }

 private:
  int type_dim_;
  std::unique_ptr<nn::Embedding> table_;
};

}  // namespace imr::re

#endif  // IMR_RE_TYPE_EMBEDDING_H_
