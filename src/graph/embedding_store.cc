#include "graph/embedding_store.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"
#include "util/serialization.h"

namespace imr::graph {

namespace {
constexpr uint32_t kEmbeddingMagic = 0x494D5245;  // "IMRE"
constexpr uint32_t kEmbeddingVersion = 1;
}  // namespace

EmbeddingStore::EmbeddingStore(int num_vertices, int dim)
    : num_vertices_(num_vertices), dim_(dim) {
  IMR_CHECK_GT(num_vertices, 0);
  IMR_CHECK_GT(dim, 0);
  data_.assign(static_cast<size_t>(num_vertices) * dim, 0.0f);
}

EmbeddingStore EmbeddingStore::View(int num_vertices, int dim,
                                    const float* data,
                                    std::shared_ptr<const void> owner) {
  IMR_CHECK_GT(num_vertices, 0);
  IMR_CHECK_GT(dim, 0);
  IMR_CHECK(data != nullptr);
  EmbeddingStore store;
  store.num_vertices_ = num_vertices;
  store.dim_ = dim;
  store.view_ = data;
  store.storage_ = std::move(owner);
  return store;
}

float* EmbeddingStore::Vector(int vertex) {
  IMR_CHECK(view_ == nullptr);  // borrowed storage is read-only
  IMR_CHECK_GE(vertex, 0);
  IMR_CHECK_LT(vertex, num_vertices_);
  return data_.data() + static_cast<size_t>(vertex) * dim_;
}

const float* EmbeddingStore::Vector(int vertex) const {
  IMR_CHECK_GE(vertex, 0);
  IMR_CHECK_LT(vertex, num_vertices_);
  return raw() + static_cast<size_t>(vertex) * dim_;
}

const std::vector<float>& EmbeddingStore::flat() const {
  IMR_CHECK(view_ == nullptr);  // borrowed stores have no backing vector
  return data_;
}

std::vector<float> EmbeddingStore::VectorCopy(int vertex) const {
  const float* row = Vector(vertex);
  return std::vector<float>(row, row + dim_);
}

std::vector<float> EmbeddingStore::MutualRelation(int i, int j) const {
  const float* ui = Vector(i);
  const float* uj = Vector(j);
  std::vector<float> mr(static_cast<size_t>(dim_));
  for (int d = 0; d < dim_; ++d) mr[static_cast<size_t>(d)] = uj[d] - ui[d];
  return mr;
}

double EmbeddingStore::Cosine(int a, int b) const {
  const float* va = Vector(a);
  const float* vb = Vector(b);
  double dot = 0, na = 0, nb = 0;
  for (int d = 0; d < dim_; ++d) {
    dot += static_cast<double>(va[d]) * vb[d];
    na += static_cast<double>(va[d]) * va[d];
    nb += static_cast<double>(vb[d]) * vb[d];
  }
  const double denom = std::sqrt(na) * std::sqrt(nb);
  return denom > 0 ? dot / denom : 0.0;
}

double EmbeddingStore::Cosine(const std::vector<float>& a,
                              const std::vector<float>& b) {
  IMR_CHECK_EQ(a.size(), b.size());
  double dot = 0, na = 0, nb = 0;
  for (size_t d = 0; d < a.size(); ++d) {
    dot += static_cast<double>(a[d]) * b[d];
    na += static_cast<double>(a[d]) * a[d];
    nb += static_cast<double>(b[d]) * b[d];
  }
  const double denom = std::sqrt(na) * std::sqrt(nb);
  return denom > 0 ? dot / denom : 0.0;
}

std::vector<EmbeddingStore::Neighbor> EmbeddingStore::NearestNeighbors(
    int vertex, int k) const {
  std::vector<Neighbor> all;
  all.reserve(static_cast<size_t>(num_vertices_ - 1));
  for (int v = 0; v < num_vertices_; ++v) {
    if (v == vertex) continue;
    all.push_back({v, Cosine(vertex, v)});
  }
  const size_t keep = std::min<size_t>(static_cast<size_t>(k), all.size());
  std::partial_sort(all.begin(), all.begin() + static_cast<long>(keep),
                    all.end(), [](const Neighbor& a, const Neighbor& b) {
                      return a.similarity > b.similarity;
                    });
  all.resize(keep);
  return all;
}

void EmbeddingStore::NormalizeRows() {
  for (int v = 0; v < num_vertices_; ++v) {
    float* row = Vector(v);
    double norm = 0;
    for (int d = 0; d < dim_; ++d) norm += static_cast<double>(row[d]) * row[d];
    norm = std::sqrt(norm);
    if (norm <= 0) continue;
    const float inv = static_cast<float>(1.0 / norm);
    for (int d = 0; d < dim_; ++d) row[d] *= inv;
  }
}

util::Status EmbeddingStore::Save(const std::string& path) const {
  util::BinaryWriter writer(path, kEmbeddingMagic, kEmbeddingVersion);
  IMR_RETURN_IF_ERROR(writer.status());
  WriteTo(&writer);
  return writer.Close();
}

util::StatusOr<EmbeddingStore> EmbeddingStore::Load(const std::string& path) {
  util::BinaryReader reader(path, kEmbeddingMagic, kEmbeddingVersion);
  IMR_RETURN_IF_ERROR(reader.status());
  return ReadFrom(&reader);
}

void EmbeddingStore::WriteTo(util::BinaryWriter* writer) const {
  writer->WriteU32(static_cast<uint32_t>(num_vertices_));
  writer->WriteU32(static_cast<uint32_t>(dim_));
  // Length prefix + raw block == WriteFloatVector bytes, but works for
  // borrowed storage too (no backing std::vector to hand over).
  writer->WriteU64(value_count());
  writer->WriteRawBytes(raw(), value_count() * sizeof(float));
}

util::StatusOr<EmbeddingStore> EmbeddingStore::ReadFrom(
    util::BinaryReader* reader) {
  const int num_vertices = static_cast<int>(reader->ReadU32());
  const int dim = static_cast<int>(reader->ReadU32());
  std::vector<float> data = reader->ReadFloatVector();
  IMR_RETURN_IF_ERROR(reader->status());
  if (num_vertices <= 0 || dim <= 0 ||
      data.size() != static_cast<size_t>(num_vertices) * dim) {
    return util::InvalidArgument("corrupt embedding section in '" +
                                 reader->path() + "'");
  }
  EmbeddingStore store(num_vertices, dim);
  store.data_ = std::move(data);
  return store;
}

void QuantizedEmbeddingStore::QuantizeRow(const float* row, int dim,
                                          int8_t* out, float* scale) {
  float maxabs = 0.0f;
  for (int d = 0; d < dim; ++d) {
    maxabs = std::max(maxabs, std::fabs(row[d]));
  }
  *scale = maxabs / 127.0f;
  if (*scale <= 0.0f) {
    std::fill(out, out + dim, static_cast<int8_t>(0));
    return;
  }
  const float inv = 1.0f / *scale;
  for (int d = 0; d < dim; ++d) {
    const long q = std::lrintf(row[d] * inv);
    out[d] = static_cast<int8_t>(std::clamp(q, -127L, 127L));
  }
}

QuantizedEmbeddingStore QuantizedEmbeddingStore::Quantize(
    const EmbeddingStore& source) {
  QuantizedEmbeddingStore store;
  store.num_vertices_ = source.num_vertices();
  store.dim_ = source.dim();
  store.data_.resize(static_cast<size_t>(store.num_vertices_) * store.dim_);
  store.scales_.resize(static_cast<size_t>(store.num_vertices_));
  for (int v = 0; v < store.num_vertices_; ++v) {
    QuantizeRow(source.Vector(v), store.dim_,
                store.data_.data() + static_cast<size_t>(v) * store.dim_,
                &store.scales_[static_cast<size_t>(v)]);
  }
  return store;
}

QuantizedEmbeddingStore QuantizedEmbeddingStore::View(
    int num_vertices, int dim, const int8_t* data, const float* scales,
    std::shared_ptr<const void> owner) {
  IMR_CHECK_GT(num_vertices, 0);
  IMR_CHECK_GT(dim, 0);
  IMR_CHECK(data != nullptr);
  IMR_CHECK(scales != nullptr);
  QuantizedEmbeddingStore store;
  store.num_vertices_ = num_vertices;
  store.dim_ = dim;
  store.data_view_ = data;
  store.scales_view_ = scales;
  store.storage_ = std::move(owner);
  return store;
}

const int8_t* QuantizedEmbeddingStore::Row(int vertex) const {
  IMR_CHECK_GE(vertex, 0);
  IMR_CHECK_LT(vertex, num_vertices_);
  return raw() + static_cast<size_t>(vertex) * dim_;
}

float QuantizedEmbeddingStore::scale(int vertex) const {
  IMR_CHECK_GE(vertex, 0);
  IMR_CHECK_LT(vertex, num_vertices_);
  return raw_scales()[static_cast<size_t>(vertex)];
}

std::vector<float> QuantizedEmbeddingStore::Dequantize(int vertex) const {
  const int8_t* row = Row(vertex);
  const float s = raw_scales()[static_cast<size_t>(vertex)];
  std::vector<float> out(static_cast<size_t>(dim_));
  for (int d = 0; d < dim_; ++d) {
    out[static_cast<size_t>(d)] = static_cast<float>(row[d]) * s;
  }
  return out;
}

std::vector<float> QuantizedEmbeddingStore::MutualRelation(int i,
                                                           int j) const {
  const int8_t* qi = Row(i);
  const int8_t* qj = Row(j);
  const float si = raw_scales()[static_cast<size_t>(i)];
  const float sj = raw_scales()[static_cast<size_t>(j)];
  std::vector<float> mr(static_cast<size_t>(dim_));
  for (int d = 0; d < dim_; ++d) {
    mr[static_cast<size_t>(d)] =
        static_cast<float>(qj[d]) * sj - static_cast<float>(qi[d]) * si;
  }
  return mr;
}

double QuantizedEmbeddingStore::MaxAbsError(
    const EmbeddingStore& reference) const {
  IMR_CHECK_EQ(num_vertices_, reference.num_vertices());
  IMR_CHECK_EQ(dim_, reference.dim());
  double worst = 0.0;
  for (int v = 0; v < num_vertices_; ++v) {
    const float* row = reference.Vector(v);
    const int8_t* qrow = Row(v);
    const float s = raw_scales()[static_cast<size_t>(v)];
    for (int d = 0; d < dim_; ++d) {
      worst = std::max(
          worst, std::fabs(static_cast<double>(qrow[d]) * s - row[d]));
    }
  }
  return worst;
}

}  // namespace imr::graph
