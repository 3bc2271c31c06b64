// IMRD row-sparse delta generations: the O(touched-rows) companion of the
// IMRS snapshot format.
//
// A training step that touches 0.2% of the embedding rows should not cost
// an O(vocab x dim) snapshot rewrite plus an O(model) reload to reach the
// serve tier. Instead the trainer writes an IMRD *delta* file — the sorted
// touched-row ids plus just those rows' payloads (fp32, optionally int8),
// plus any changed named parameters — and the serve tier applies it to the
// in-memory base generation:
//
//   base (mmap'd IMRS) ──PrivateCopy──>  copy-on-write clone
//                                         │ memcpy touched row-blocks only
//                                         ▼
//                                    new Snapshot (borrowed views over the
//                                    clone; tables/kNN shared with the base)
//
// The kernel CoW-faults only the pages the memcpys dirty, so apply cost is
// O(touched blocks), not O(vocab x dim) — the base mapping stays pinned
// (and its pages shared) until the last borrowing generation drains.
//
// Identity chaining: a delta names its base by the base's FNV-1a content
// hash (snapshot footer) and carries result_hash = FNV(delta payload, seed =
// base_hash); applying to any other generation fails with a clean Status.
// SnapshotWatcher uses the (base_hash -> result_hash) edges to apply a
// directory of sibling deltas in chain order.
//
// File layout (little-endian):
//
//   u32 'IMRD'  u32 version=1
//   u64 base_hash
//   DEMB  u32 tag, u32 nv, u32 dim, u32 count, count x u32 row ids
//         (ascending, unique), pad to 64, count x dim raw f32 rows
//   DQEM  OPTIONAL: u32 tag, u32 count, count x u32 row ids, pad to 64,
//         count raw f32 scales, pad to 64, count x dim raw i8 rows
//   DPRM  OPTIONAL: u32 tag, u32 param count, then per parameter:
//         name string, u64 value count, raw f32 values
//   SEND  u32 tag, u64 result_hash          <- last 12 bytes, cheap probe
#ifndef IMR_SERVE_DELTA_H_
#define IMR_SERVE_DELTA_H_

#include <cstdint>
#include <string>
#include <vector>

#include "graph/embedding_store.h"
#include "re/pa_model.h"
#include "serve/snapshot.h"
#include "util/status.h"

namespace imr::serve {

inline constexpr uint32_t kDeltaMagic = 0x494D5244;  // "IMRD"
inline constexpr uint32_t kDeltaFormatVersion = 1;

/// The identity edge a delta file encodes, readable in O(1) (header plus
/// the last 12 bytes) without parsing any payload.
struct DeltaHeader {
  uint64_t base_hash = 0;    // content hash of the generation it applies to
  uint64_t result_hash = 0;  // identity of (base ∘ delta); further deltas
                             // chain on this
};

/// What a delta carries; the caller (trainer) fills touched_rows from the
/// row-sparse gradient tracking (tensor::Tensor::grad_touched_rows()).
struct DeltaSpec {
  /// Embedding rows whose payload the delta carries. Need not be sorted or
  /// unique; out-of-range rows fail SaveDelta.
  std::vector<int> touched_rows;
  /// Also carry int8 rows + scales (requantized from the fp32 rows) so a
  /// quantized-serving base patches without requantizing at apply time.
  bool include_quantized = true;
  /// Names of model parameters (nn::Module registry names) whose full
  /// values the delta carries. Unknown names fail SaveDelta.
  std::vector<std::string> changed_params;
};

/// Probes `path` for its identity edge. Status (not a crash) on anything
/// that is not a well-formed IMRD file.
[[nodiscard]] util::StatusOr<DeltaHeader> ReadDeltaHeader(
    const std::string& path);

/// Writes the delta capturing `spec` against `embeddings` (the POST-step
/// matrix; only the listed rows are read) and `model` (may be null when
/// spec.changed_params is empty). `base_hash` is the content hash of the
/// base generation. Returns the delta's result hash.
[[nodiscard]] util::StatusOr<uint64_t> SaveDelta(
    uint64_t base_hash, const graph::EmbeddingStore& embeddings,
    const re::PaModel* model, const DeltaSpec& spec, const std::string& path);

/// Applies the delta at `path` to `base`, producing a new Snapshot:
/// block-aliases the base mapping via copy-on-write, memcpys only the
/// touched row-blocks, shares the base's tables and kNN predictor, and
/// rebuilds only the (small) parameter set. The file is opened once: the
/// bytes whose result_hash is verified are the bytes parsed, so a file
/// renamed over `path` mid-apply cannot slip in unverified rows. Fails with
/// a clean Status when the delta's base_hash does not match
/// `base.content_hash`, on any framing corruption, and never crashes on
/// corrupt input; a `base` without a mapping (not produced by LoadSnapshot
/// or ApplyDelta) gets kFailedPrecondition.
[[nodiscard]] util::StatusOr<Snapshot> ApplyDelta(const Snapshot& base,
                                                  const std::string& path);

}  // namespace imr::serve

#endif  // IMR_SERVE_DELTA_H_
