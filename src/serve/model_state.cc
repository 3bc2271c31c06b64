#include "serve/model_state.h"

#include <utility>

#include "util/logging.h"
#include "util/string_util.h"

namespace imr::serve {

util::StatusOr<std::shared_ptr<const ModelState>> ModelState::Create(
    Snapshot snapshot, bool quantized, uint64_t generation,
    const ModelState* base) {
  if (snapshot.model == nullptr) {
    return util::InvalidArgument("snapshot carries no model");
  }
  auto state = std::make_shared<ModelState>();
  state->generation = generation;
  state->snapshot = std::move(snapshot);
  state->snapshot.model->SetTraining(false);  // serving is deterministic
  if (quantized) {
    if (state->snapshot.quantized_embeddings.empty() &&
        state->snapshot.embeddings.num_vertices() > 0) {
      // Snapshot saved without a QEMB section: build the int8 store at load
      // time so the quantized path works against any snapshot.
      state->snapshot.quantized_embeddings =
          graph::QuantizedEmbeddingStore::Quantize(state->snapshot.embeddings);
    }
    state->snapshot.model->EnableQuantizedInference();
  }
  if (base != nullptr && base->snapshot.tables == state->snapshot.tables) {
    // Same immutable tables handle (delta generation): share the index.
    state->entity_by_name = base->entity_by_name;
  } else {
    auto index = std::make_shared<EntityIndex>();
    const std::vector<EntityRecord>& entities = state->snapshot.entities();
    index->reserve(entities.size());
    for (size_t i = 0; i < entities.size(); ++i) {
      index->emplace(entities[i].name, static_cast<int64_t>(i));
    }
    state->entity_by_name = std::move(index);
  }
  return std::shared_ptr<const ModelState>(std::move(state));
}

util::Status ModelState::ValidateSwap(const ModelState& current,
                                      const ModelState& next) {
  const re::PaModelConfig& now = current.snapshot.manifest.model_config;
  const re::PaModelConfig& incoming = next.snapshot.manifest.model_config;
  if (incoming.num_relations != now.num_relations) {
    return util::FailedPrecondition(util::StrFormat(
        "snapshot swap rejected: new generation has %d relations, serving "
        "%d — responses would silently change meaning",
        incoming.num_relations, now.num_relations));
  }
  if (incoming.use_mutual_relation != now.use_mutual_relation ||
      incoming.mutual_relation_dim != now.mutual_relation_dim) {
    return util::FailedPrecondition(
        "snapshot swap rejected: mutual-relation configuration differs from "
        "the serving generation");
  }
  return util::OkStatus();
}

}  // namespace imr::serve
