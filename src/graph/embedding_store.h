// Dense entity-embedding store with cosine nearest-neighbour queries and
// the paper's implicit-mutual-relation vector MR(i, j) = U_j - U_i.
//
// Storage comes in two modes behind one read API:
//   - owned:    the classic std::vector<float> copy (training, .emb files)
//   - borrowed: a View() over bytes owned by someone else — an mmap'd IMRS
//     snapshot section. The view holds a shared_ptr to the owner, so the
//     mapping stays pinned while any store (and thus any serving
//     generation) still reads from it. Borrowed stores are read-only:
//     mutating accessors (Vector(int), NormalizeRows, flat) CHECK-fail.
#ifndef IMR_GRAPH_EMBEDDING_STORE_H_
#define IMR_GRAPH_EMBEDDING_STORE_H_

#include <memory>
#include <string>
#include <vector>

#include "util/serialization.h"
#include "util/status.h"

namespace imr::graph {

class EmbeddingStore {
 public:
  EmbeddingStore() = default;
  EmbeddingStore(int num_vertices, int dim);

  /// Borrowed-storage mode: reads route to `data` (row-major
  /// [num_vertices x dim]) without copying; `owner` is pinned for the
  /// store's lifetime (an mmap keeps its pages valid even after the
  /// backing file is unlinked).
  static EmbeddingStore View(int num_vertices, int dim, const float* data,
                             std::shared_ptr<const void> owner);
  bool borrowed() const { return view_ != nullptr; }

  int num_vertices() const { return num_vertices_; }
  int dim() const { return dim_; }

  /// Mutable row access.
  float* Vector(int vertex);
  const float* Vector(int vertex) const;
  std::vector<float> VectorCopy(int vertex) const;

  /// MR(i, j) = U_j - U_i (paper Section III-A.3).
  std::vector<float> MutualRelation(int i, int j) const;

  /// Top-k most cosine-similar vertices to `vertex` (excluding itself).
  struct Neighbor {
    int vertex = -1;
    double similarity = 0.0;
  };
  std::vector<Neighbor> NearestNeighbors(int vertex, int k) const;

  /// Cosine similarity between two stored vectors.
  double Cosine(int a, int b) const;
  /// Cosine similarity between two raw vectors of dim().
  static double Cosine(const std::vector<float>& a,
                       const std::vector<float>& b);

  /// L2-normalises every row in place (no-op for zero rows).
  void NormalizeRows();

  /// Flat [num_vertices x dim] vector, row-major. Owned stores only; use
  /// raw() for mode-agnostic access.
  const std::vector<float>& flat() const;
  /// First element of the row-major [num_vertices x dim] block, in either
  /// storage mode.
  const float* raw() const { return view_ != nullptr ? view_ : data_.data(); }
  size_t value_count() const {
    return static_cast<size_t>(num_vertices_) * static_cast<size_t>(dim_);
  }

  [[nodiscard]] util::Status Save(const std::string& path) const;
  [[nodiscard]] static util::StatusOr<EmbeddingStore> Load(const std::string& path);

  /// Streams the store into an already-open writer / restores it from one
  /// (the body of a Save/Load .emb file). Values round-trip bit-exactly.
  void WriteTo(util::BinaryWriter* writer) const;
  [[nodiscard]] static util::StatusOr<EmbeddingStore> ReadFrom(util::BinaryReader* reader);

 private:
  int num_vertices_ = 0;
  int dim_ = 0;
  std::vector<float> data_;
  const float* view_ = nullptr;          // non-null: borrowed mode
  std::shared_ptr<const void> storage_;  // pins the borrowed bytes' owner
};

/// Int8 companion of EmbeddingStore for the serving path: every row is
/// quantized with its own symmetric scale (scale_v = maxabs(row)/127, zero
/// rows get scale 0), so dequantization is q[d] * scale and the worst-case
/// row error is scale/2 ≈ maxabs/254. MR vectors computed from the
/// quantized rows therefore differ from fp32 MR by at most
/// (scale_i + scale_j)/2 per element — small enough for the int8 serving
/// accuracy gate (QuantizedEngineTest.QuantizedServingAgreesWithFp32), at
/// a quarter of the memory traffic.
class QuantizedEmbeddingStore {
 public:
  QuantizedEmbeddingStore() = default;

  /// Quantizes every row of `source` (round-to-nearest, saturating).
  static QuantizedEmbeddingStore Quantize(const EmbeddingStore& source);

  /// Quantizes one row (the shared kernel of Quantize and IMRD delta
  /// writers, so a patched row re-quantized at apply time is bit-identical
  /// to the same row quantized at save time).
  static void QuantizeRow(const float* row, int dim, int8_t* out,
                          float* scale);

  /// Borrowed-storage mode over externally owned bytes (mmap'd QEMB
  /// section): `data` is row-major int8 [num_vertices x dim], `scales` one
  /// float per row. Read-only; `owner` is pinned for the store's lifetime.
  static QuantizedEmbeddingStore View(int num_vertices, int dim,
                                      const int8_t* data, const float* scales,
                                      std::shared_ptr<const void> owner);
  bool borrowed() const { return data_view_ != nullptr; }

  int num_vertices() const { return num_vertices_; }
  int dim() const { return dim_; }
  bool empty() const { return num_vertices_ == 0; }

  const int8_t* Row(int vertex) const;
  float scale(int vertex) const;
  const int8_t* raw() const {
    return data_view_ != nullptr ? data_view_ : data_.data();
  }
  const float* raw_scales() const {
    return scales_view_ != nullptr ? scales_view_ : scales_.data();
  }

  /// Reconstructed fp32 row: q[d] * scale.
  std::vector<float> Dequantize(int vertex) const;

  /// MR(i, j) = U_j - U_i over the dequantized rows — the quantized
  /// serving analogue of EmbeddingStore::MutualRelation.
  std::vector<float> MutualRelation(int i, int j) const;

  /// Largest |dequantized - reference| over all elements; the round-trip
  /// test asserts this stays within the per-row scale/2 bound.
  double MaxAbsError(const EmbeddingStore& reference) const;

 private:
  int num_vertices_ = 0;
  int dim_ = 0;
  std::vector<int8_t> data_;    // [num_vertices x dim], row-major
  std::vector<float> scales_;   // [num_vertices]
  const int8_t* data_view_ = nullptr;   // non-null: borrowed mode
  const float* scales_view_ = nullptr;
  std::shared_ptr<const void> storage_;
};

}  // namespace imr::graph

#endif  // IMR_GRAPH_EMBEDDING_STORE_H_
