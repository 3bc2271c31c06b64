#include "re/type_embedding.h"

#include "tensor/ops.h"
#include "util/logging.h"

namespace imr::re {

TypeEmbedding::TypeEmbedding(int type_dim, util::Rng* rng, int num_types)
    : type_dim_(type_dim) {
  table_ = std::make_unique<nn::Embedding>(num_types, type_dim, rng);
  RegisterChild("table", table_.get());
}

tensor::Tensor TypeEmbedding::PairVectors(
    const std::vector<int>& type_ids, const std::vector<int>& offsets) const {
  IMR_CHECK_EQ(offsets.size() % 2, 1u);
  return tensor::MeanRows(
      tensor::GatherRows(table_->table(), type_ids, offsets), offsets,
      /*per_row=*/2);
}

}  // namespace imr::re
