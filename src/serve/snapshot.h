// Versioned on-disk model snapshots: everything needed to stand a trained
// PA-* pipeline back up in a fresh process, in one file.
//
// IMRS v2 is the one format (DESIGN.md §14 has the byte-level diagram):
// tagged sections, every section payload 64-byte aligned, the bulk arrays
// (EMBD floats, QEMB scales/int8) additionally 64-byte aligned inside their
// payloads, and a footer carrying a section-offset table plus an FNV-1a
// content hash. The reader mmaps the file (util::MmapFile), validates the
// bounds-checked footer, parses the small sections in place through
// view-mode BinaryReaders, and hands the embedding stores *borrowed* views
// of the mapped bytes — open is O(header) with lazy page faulting, never
// O(model) parse-and-copy.
//
// Section order (each payload is preceded by its tag):
//
//   MANI  manifest: PaModelConfig (incl. EncoderConfig), BagDatasetOptions,
//         trained-step count, free-form notes
//   VOCB  frozen word vocabulary (ids preserved exactly)
//   RELS  relation names, index == relation id (0 = NA)
//   ENTS  entity table: name + FIGER type ids per entity, index == graph
//         vertex id (may be empty when serving by raw ids only)
//   EMBD  graph::EmbeddingStore (the mutual-relation source)
//   PARM  model parameters (name + values, registry order)
//   QEMB  OPTIONAL int8 graph::QuantizedEmbeddingStore for the quantized
//         serving path
//   ANNI  OPTIONAL re::KnnPredictor — memorised training pairs plus the
//         learned IVF structure for kNN-interpolated long-tail serving
//   SEND  footer opener
//
// Every section is validated on load (tag, counts, cross-section shape
// consistency, parameter names/shapes); any mismatch returns a non-OK
// Status naming the file and byte offset instead of crashing or silently
// loading garbage. Any version other than 2 is rejected outright with an
// `unsupported version` Status; so is a v2 file presented to an older
// v1-only reader (the snapshot-compat CI stage asserts both).
#ifndef IMR_SERVE_SNAPSHOT_H_
#define IMR_SERVE_SNAPSHOT_H_

#include <memory>
#include <string>
#include <vector>

#include "graph/embedding_store.h"
#include "kg/knowledge_graph.h"
#include "re/bag_dataset.h"
#include "re/config.h"
#include "re/knn_predictor.h"
#include "re/pa_model.h"
#include "text/vocab.h"
#include "util/mmap_file.h"
#include "util/status.h"

namespace imr::serve {

inline constexpr int kSnapshotFormatV2 = 2;

/// Everything about a snapshot except the tensors: enough to rebuild the
/// model skeleton and the input featurization exactly as trained.
struct SnapshotManifest {
  re::PaModelConfig model_config;
  re::BagDatasetOptions bag_options;
  uint64_t trained_steps = 0;  // informational (optimizer steps or epochs)
  std::string notes;
};

/// One row of the entity table; index in the table == embedding vertex id.
struct EntityRecord {
  std::string name;
  std::vector<int> type_ids;
};

/// The lookup tables (vocabulary, relation names, entity table) bundled
/// behind one shared, immutable handle: an IMRD delta generation reuses its
/// base's tables by bumping a refcount instead of copying O(vocab)
/// strings — part of keeping delta apply O(touched rows).
struct SnapshotTables {
  text::Vocabulary vocab;
  std::vector<std::string> relation_names;
  std::vector<EntityRecord> entities;
};

/// Byte offsets of the zero-copy bulk arrays inside the mapping, recorded
/// at load so ApplyDelta can patch touched rows into a copy-on-write clone
/// without re-parsing the file.
struct SnapshotLayout {
  uint64_t embd_data = 0;    // first float of the [nv x dim] fp32 matrix
  uint64_t qemb_scales = 0;  // first float of the per-row scales (QEMB only)
  uint64_t qemb_data = 0;    // first int8 of the [nv x dim] matrix
};

/// A fully materialized snapshot: the model is constructed, loaded, and
/// switched to eval mode.
struct Snapshot {
  SnapshotManifest manifest;
  /// Never null; shared with delta generations derived from this snapshot.
  std::shared_ptr<const SnapshotTables> tables =
      std::make_shared<SnapshotTables>();
  /// Borrows `mapping` (zero-copy).
  graph::EmbeddingStore embeddings;
  /// Empty unless the file carried a QEMB section.
  graph::QuantizedEmbeddingStore quantized_embeddings;
  /// Null unless the file carried an ANNI section. Shared (not unique) so
  /// every serve replica of a ModelState can hold the same immutable
  /// predictor across the RCU swap.
  std::shared_ptr<const re::KnnPredictor> knn;
  std::unique_ptr<re::PaModel> model;
  /// The mapping the embedding stores borrow from. Held shared so the
  /// mapped pages survive file unlink/replace until the last borrower
  /// (serving generation) drops its reference.
  std::shared_ptr<const util::MmapFile> mapping;
  SnapshotLayout layout;
  /// FNV-1a identity of the snapshot contents (footer; deltas chain on it).
  uint64_t content_hash = 0;

  const text::Vocabulary& vocab() const { return tables->vocab; }
  const std::vector<std::string>& relation_names() const {
    return tables->relation_names;
  }
  const std::vector<EntityRecord>& entities() const {
    return tables->entities;
  }
};

/// Writes a snapshot of `model` plus its featurization state. `entities`
/// may be empty (serving then requires raw entity ids and explicit types);
/// when non-empty its size must equal embeddings.num_vertices(). Passing
/// `quantized` (shape-matched to `embeddings`) appends the optional QEMB
/// section so the file also carries the int8 serving weights. Passing
/// `knn` (dim- and relation-matched) appends the optional ANNI section so
/// the serve tier can kNN-interpolate long-tail predictions.
[[nodiscard]] util::Status SaveSnapshot(
    const re::PaModel& model, const text::Vocabulary& vocab,
    const graph::EmbeddingStore& embeddings,
    const std::vector<std::string>& relation_names,
    const std::vector<EntityRecord>& entities,
    const re::BagDatasetOptions& bag_options, uint64_t trained_steps,
    const std::string& notes, const std::string& path,
    const graph::QuantizedEmbeddingStore* quantized = nullptr,
    const re::KnnPredictor* knn = nullptr);

/// Convenience overload that pulls relation names and the entity table
/// (names + type ids) from a knowledge graph.
[[nodiscard]] util::Status SaveSnapshot(
    const re::PaModel& model, const text::Vocabulary& vocab,
    const graph::EmbeddingStore& embeddings, const kg::KnowledgeGraph& graph,
    const re::BagDatasetOptions& bag_options, uint64_t trained_steps,
    const std::string& notes, const std::string& path,
    const graph::QuantizedEmbeddingStore* quantized = nullptr,
    const re::KnnPredictor* knn = nullptr);

/// Maps and validates a snapshot; the returned model reproduces the saved
/// model's inference outputs bit-for-bit.
[[nodiscard]] util::StatusOr<Snapshot> LoadSnapshot(const std::string& path);

}  // namespace imr::serve

#endif  // IMR_SERVE_SNAPSHOT_H_
