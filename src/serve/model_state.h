// The unit of zero-downtime snapshot hot-swap: one fully prepared,
// immutable-after-publication serving state (loaded snapshot, eval-mode
// model, optional int8 quantization, entity-name index) tagged with a
// monotonically increasing generation number.
//
// The RCU-style protocol: request threads load a
// std::shared_ptr<const ModelState> once at the top of the request and use
// only that state for featurization, the mutual-relation vector, and the
// model forward — so every response is consistent with exactly one
// generation even while a swap is in flight. Publishing a new generation is
// one shared_ptr exchange; the old generation stays alive (and keeps
// serving its in-flight requests) until the last request drops its
// reference, then frees on whatever thread held it last. No request ever
// blocks on a reload.
#ifndef IMR_SERVE_MODEL_STATE_H_
#define IMR_SERVE_MODEL_STATE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>

#include "serve/snapshot.h"
#include "util/status.h"

namespace imr::serve {

struct ModelState {
  using EntityIndex = std::unordered_map<std::string, int64_t>;

  /// Generation numbers are assigned by whoever publishes the state (the
  /// engine numbers its boot snapshot 1 and increments per swap).
  uint64_t generation = 0;
  Snapshot snapshot;
  /// Entity name -> vertex id, built once so MakeQuery never scans. Never
  /// null. Shared: an IMRD delta generation whose snapshot reuses its
  /// base's tables also reuses the base's index instead of re-hashing
  /// O(entities) names — part of keeping delta publication O(touched rows).
  std::shared_ptr<const EntityIndex> entity_by_name =
      std::make_shared<EntityIndex>();

  /// Prepares a loaded snapshot for serving: forces eval mode, applies the
  /// int8 path when `quantized` (building the QEMB store on the fly for
  /// files that predate the section), and indexes the entity table. The
  /// returned state must not be mutated after publication. `base` (may be
  /// null) is the generation this snapshot was derived from; when its
  /// tables handle matches, derived lookup structures are shared instead of
  /// rebuilt.
  [[nodiscard]] static util::StatusOr<std::shared_ptr<const ModelState>>
  Create(Snapshot snapshot, bool quantized, uint64_t generation,
         const ModelState* base = nullptr);

  /// Swap-compatibility validation: a new generation may replace `current`
  /// only if it serves the same decision space (relation count and
  /// mutual-relation dimension). Anything else would silently change the
  /// meaning of in-flight client code, so the swap is refused instead.
  [[nodiscard]] static util::Status ValidateSwap(const ModelState& current,
                                                const ModelState& next);
};

}  // namespace imr::serve

#endif  // IMR_SERVE_MODEL_STATE_H_
