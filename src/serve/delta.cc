#include "serve/delta.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "util/mmap_file.h"
#include "util/rng.h"
#include "util/serialization.h"
#include "util/string_util.h"

namespace imr::serve {

namespace {

constexpr uint32_t kTagEmbeddingRows = 0x44454D42;  // "DEMB"
constexpr uint32_t kTagQuantizedRows = 0x4451454D;  // "DQEM"
constexpr uint32_t kTagParameters = 0x4450524D;     // "DPRM"
constexpr uint32_t kTagEnd = 0x53454E44;            // "SEND"
constexpr size_t kRowAlign = 64;

util::Status SkipPad(util::BinaryReader* reader, uint64_t alignment) {
  char scratch[kRowAlign];
  const uint64_t rem = reader->offset() % alignment;
  if (rem != 0) reader->ReadBytes(scratch, alignment - rem);
  return reader->status();
}

/// Reads and validates a touched-row id list: ascending, unique, in
/// [0, num_vertices).
util::Status ReadRowIds(util::BinaryReader* reader, uint32_t count,
                        int num_vertices, std::vector<uint32_t>* out) {
  out->clear();
  out->reserve(count);
  int64_t previous = -1;
  for (uint32_t i = 0; i < count; ++i) {
    const uint32_t id = reader->ReadU32();
    IMR_RETURN_IF_ERROR(reader->status());
    if (static_cast<int64_t>(id) <= previous ||
        id >= static_cast<uint32_t>(num_vertices)) {
      return util::InvalidArgument(util::StrFormat(
          "delta '%s': row id list not ascending/unique/in-range at byte "
          "offset %llu",
          reader->path().c_str(),
          static_cast<unsigned long long>(reader->offset())));
    }
    previous = static_cast<int64_t>(id);
    out->push_back(id);
  }
  return util::OkStatus();
}

/// Validates the framing of a mapped IMRD file (size floor, magic, version,
/// end sentinel) and returns its identity edge.
util::StatusOr<DeltaHeader> ParseDeltaHeader(const util::MmapFile& file,
                                             const std::string& path) {
  // Minimum well-formed file: header + base hash + an empty DEMB would
  // already exceed this, so 28 bytes is a pure plausibility floor.
  if (file.size() < 28) {
    return util::InvalidArgument("delta '" + path + "': file too small");
  }
  const uint8_t* bytes = file.data();
  uint32_t magic = 0;
  uint32_t version = 0;
  std::memcpy(&magic, bytes, 4);
  std::memcpy(&version, bytes + 4, 4);
  if (magic != kDeltaMagic) {
    return util::InvalidArgument(
        util::StrFormat("bad magic in '%s': file has 0x%08x, expected 0x%08x",
                        path.c_str(), magic, kDeltaMagic));
  }
  if (version != kDeltaFormatVersion) {
    return util::InvalidArgument(util::StrFormat(
        "unsupported version in '%s': file has %u, expected %u", path.c_str(),
        version, kDeltaFormatVersion));
  }
  uint32_t end_tag = 0;
  std::memcpy(&end_tag, bytes + file.size() - 12, 4);
  if (end_tag != kTagEnd) {
    return util::InvalidArgument("delta '" + path +
                                 "': missing end sentinel (truncated?)");
  }
  DeltaHeader header;
  std::memcpy(&header.base_hash, bytes + 8, 8);
  std::memcpy(&header.result_hash, bytes + file.size() - 8, 8);
  return header;
}

}  // namespace

util::StatusOr<DeltaHeader> ReadDeltaHeader(const std::string& path) {
  auto file = util::MmapFile::Open(path);
  IMR_RETURN_IF_ERROR(file.status());
  return ParseDeltaHeader(**file, path);
}

util::StatusOr<uint64_t> SaveDelta(uint64_t base_hash,
                                   const graph::EmbeddingStore& embeddings,
                                   const re::PaModel* model,
                                   const DeltaSpec& spec,
                                   const std::string& path) {
  std::vector<int> rows = spec.touched_rows;
  std::sort(rows.begin(), rows.end());
  rows.erase(std::unique(rows.begin(), rows.end()), rows.end());
  if (!rows.empty() &&
      (rows.front() < 0 || rows.back() >= embeddings.num_vertices())) {
    return util::InvalidArgument(
        "delta: touched row outside the embedding store");
  }
  std::vector<nn::NamedParameter> carried;
  if (!spec.changed_params.empty()) {
    if (model == nullptr) {
      return util::InvalidArgument(
          "delta: changed_params given but no model");
    }
    const std::vector<nn::NamedParameter> params = model->Parameters();
    for (const std::string& name : spec.changed_params) {
      const auto it =
          std::find_if(params.begin(), params.end(),
                       [&name](const nn::NamedParameter& parameter) {
                         return parameter.name == name;
                       });
      if (it == params.end()) {
        return util::InvalidArgument("delta: unknown parameter '" + name +
                                     "'");
      }
      carried.push_back(*it);
    }
  }

  const int dim = embeddings.dim();
  util::BinaryWriter writer(path, kDeltaMagic, kDeltaFormatVersion);
  IMR_RETURN_IF_ERROR(writer.status());
  writer.StartHashing(base_hash);
  writer.WriteU64(base_hash);

  writer.WriteU32(kTagEmbeddingRows);
  writer.WriteU32(static_cast<uint32_t>(embeddings.num_vertices()));
  writer.WriteU32(static_cast<uint32_t>(dim));
  writer.WriteU32(static_cast<uint32_t>(rows.size()));
  for (int row : rows) writer.WriteU32(static_cast<uint32_t>(row));
  writer.PadTo(kRowAlign);
  for (int row : rows) {
    writer.WriteRawBytes(embeddings.Vector(row),
                         static_cast<size_t>(dim) * sizeof(float));
  }

  if (spec.include_quantized) {
    // Requantize the carried rows at save time (the same QuantizeRow kernel
    // snapshots use), so apply is a straight memcpy and the patched QEMB is
    // bit-identical to a full re-save.
    std::vector<float> scales(rows.size());
    std::vector<int8_t> qrows(rows.size() * static_cast<size_t>(dim));
    for (size_t i = 0; i < rows.size(); ++i) {
      graph::QuantizedEmbeddingStore::QuantizeRow(
          embeddings.Vector(rows[i]), dim,
          qrows.data() + i * static_cast<size_t>(dim), &scales[i]);
    }
    writer.WriteU32(kTagQuantizedRows);
    writer.WriteU32(static_cast<uint32_t>(rows.size()));
    for (int row : rows) writer.WriteU32(static_cast<uint32_t>(row));
    writer.PadTo(kRowAlign);
    writer.WriteRawBytes(scales.data(), scales.size() * sizeof(float));
    writer.PadTo(kRowAlign);
    writer.WriteRawBytes(qrows.data(), qrows.size());
  }

  if (!carried.empty()) {
    writer.WriteU32(kTagParameters);
    writer.WriteU32(static_cast<uint32_t>(carried.size()));
    for (const nn::NamedParameter& parameter : carried) {
      writer.WriteString(parameter.name);
      writer.WriteU64(parameter.tensor.size());
      writer.WriteRawBytes(parameter.tensor.data().data(),
                           parameter.tensor.size() * sizeof(float));
    }
  }

  writer.StopHashing();
  const uint64_t result_hash = writer.hash();
  writer.WriteU32(kTagEnd);
  writer.WriteU64(result_hash);
  IMR_RETURN_IF_ERROR(writer.Close());
  return result_hash;
}

util::StatusOr<Snapshot> ApplyDelta(const Snapshot& base,
                                    const std::string& path) {
  if (base.model == nullptr) {
    return util::InvalidArgument("delta base snapshot carries no model");
  }
  if (base.mapping == nullptr) {
    return util::FailedPrecondition(
        "delta base snapshot has no mapping to patch (not opened by "
        "LoadSnapshot or ApplyDelta)");
  }
  // Deltas are authenticated end to end: result_hash covers every byte
  // between the header and the end sentinel, seeded with the base hash.
  // Verify it up front — the file is O(touched rows) small, so one hash
  // sweep is cheap — so a corrupt delta can never silently patch a
  // generation. (Snapshot opens skip this to stay O(header); deltas are
  // the write path into a live server and get the strict check.) The
  // parse below reads the same mapped bytes the hash covered: a second
  // open of `path` could see a different file once a publisher renames a
  // new delta over it.
  auto file = util::MmapFile::Open(path);
  IMR_RETURN_IF_ERROR(file.status());
  auto header = ParseDeltaHeader(**file, path);
  IMR_RETURN_IF_ERROR(header.status());
  const uint8_t* bytes = (*file)->data();
  const size_t size = (*file)->size();
  const uint64_t actual = util::Fnv1a(bytes + 8, size - 20, header->base_hash);
  if (actual != header->result_hash) {
    return util::InvalidArgument(util::StrFormat(
        "delta '%s': content hash mismatch (file says %016llx, payload "
        "hashes to %016llx) — corrupt or tampered delta",
        path.c_str(), static_cast<unsigned long long>(header->result_hash),
        static_cast<unsigned long long>(actual)));
  }
  if (header->base_hash != base.content_hash) {
    return util::FailedPrecondition(util::StrFormat(
        "delta '%s' applies to base hash %016llx but the serving generation "
        "is %016llx",
        path.c_str(), static_cast<unsigned long long>(header->base_hash),
        static_cast<unsigned long long>(base.content_hash)));
  }
  // The sections: everything after the base hash, up to and including the
  // end sentinel's tag.
  util::BinaryReader reader(path, bytes + 16, size - 24, 16);

  const int num_vertices = base.embeddings.num_vertices();
  const int dim = base.embeddings.dim();
  const size_t row_bytes = static_cast<size_t>(dim) * sizeof(float);

  if (reader.ReadU32() != kTagEmbeddingRows || !reader.status().ok()) {
    IMR_RETURN_IF_ERROR(reader.status());
    return util::InvalidArgument("delta '" + path +
                                 "': missing embedding-rows section");
  }
  const uint32_t file_nv = reader.ReadU32();
  const uint32_t file_dim = reader.ReadU32();
  const uint32_t count = reader.ReadU32();
  IMR_RETURN_IF_ERROR(reader.status());
  if (file_nv != static_cast<uint32_t>(num_vertices) ||
      file_dim != static_cast<uint32_t>(dim)) {
    return util::InvalidArgument(util::StrFormat(
        "delta '%s' is shaped [%u x %u] but the base serves [%d x %d]",
        path.c_str(), file_nv, file_dim, num_vertices, dim));
  }
  std::vector<uint32_t> rows;
  IMR_RETURN_IF_ERROR(ReadRowIds(&reader, count, num_vertices, &rows));
  IMR_RETURN_IF_ERROR(SkipPad(&reader, kRowAlign));

  // Block-alias the base mapping: a MAP_PRIVATE clone of the same pages,
  // where only the row-blocks memcpy'd below are actually copied (kernel
  // CoW) — everything else keeps sharing the base's physical pages.
  auto cloned = base.mapping->PrivateCopy();
  IMR_RETURN_IF_ERROR(cloned.status());
  std::shared_ptr<util::MmapFile> clone = std::move(*cloned);
  uint8_t* clone_bytes = clone->mutable_data();
  for (uint32_t row : rows) {
    reader.ReadBytes(clone_bytes + base.layout.embd_data + row * row_bytes,
                     row_bytes);
  }
  IMR_RETURN_IF_ERROR(reader.status());

  // The base mapping carries a QEMB section (layout recorded at load).
  const bool qemb_in_place = base.layout.qemb_data != 0;
  bool quantized_patched = false;

  // Rebuild only the parameter set (small next to the embedding table):
  // a fresh skeleton, values copied from the base registry, then the
  // delta's overrides.
  util::Rng init_rng(0x5EED);
  auto model =
      std::make_unique<re::PaModel>(base.manifest.model_config, &init_rng);
  {
    const std::vector<nn::NamedParameter> src = base.model->Parameters();
    const std::vector<nn::NamedParameter> dst = model->Parameters();
    if (src.size() != dst.size()) {
      return util::Internal("delta: base/clone parameter registries differ");
    }
    for (size_t i = 0; i < src.size(); ++i) {
      if (src[i].name != dst[i].name ||
          src[i].tensor.size() != dst[i].tensor.size()) {
        return util::Internal(
            "delta: base/clone parameter registries differ");
      }
      nn::NamedParameter writable = dst[i];  // handle shares the node
      writable.tensor.mutable_data() = src[i].tensor.data();
    }
  }
  model->SetTraining(false);

  uint32_t tag = reader.ReadU32();
  IMR_RETURN_IF_ERROR(reader.status());
  if (tag == kTagQuantizedRows) {
    const uint32_t qcount = reader.ReadU32();
    IMR_RETURN_IF_ERROR(reader.status());
    std::vector<uint32_t> qrows;
    IMR_RETURN_IF_ERROR(ReadRowIds(&reader, qcount, num_vertices, &qrows));
    IMR_RETURN_IF_ERROR(SkipPad(&reader, kRowAlign));
    std::vector<float> scales(qcount);
    reader.ReadBytes(scales.data(), scales.size() * sizeof(float));
    IMR_RETURN_IF_ERROR(SkipPad(&reader, kRowAlign));
    if (qemb_in_place) {
      for (size_t i = 0; i < qrows.size(); ++i) {
        std::memcpy(clone_bytes + base.layout.qemb_scales +
                        static_cast<size_t>(qrows[i]) * sizeof(float),
                    &scales[i], sizeof(float));
        reader.ReadBytes(clone_bytes + base.layout.qemb_data +
                             static_cast<size_t>(qrows[i]) *
                                 static_cast<size_t>(dim),
                         static_cast<size_t>(dim));
      }
      quantized_patched = true;
    } else {
      // The base has no QEMB section to patch: consume the payload.
      std::vector<int8_t> discard(static_cast<size_t>(dim));
      for (uint32_t i = 0; i < qcount; ++i) {
        reader.ReadBytes(discard.data(), discard.size());
      }
    }
    IMR_RETURN_IF_ERROR(reader.status());
    tag = reader.ReadU32();
    IMR_RETURN_IF_ERROR(reader.status());
  }
  if (qemb_in_place && !quantized_patched) {
    // Delta without a DQEM section against a quantized base: requantize
    // the touched rows locally from the already-patched fp32 rows.
    for (uint32_t row : rows) {
      float scale = 0.0f;
      graph::QuantizedEmbeddingStore::QuantizeRow(
          reinterpret_cast<const float*>(clone_bytes +
                                         base.layout.embd_data +
                                         row * row_bytes),
          dim,
          reinterpret_cast<int8_t*>(clone_bytes + base.layout.qemb_data +
                                    static_cast<size_t>(row) *
                                        static_cast<size_t>(dim)),
          &scale);
      std::memcpy(clone_bytes + base.layout.qemb_scales +
                      static_cast<size_t>(row) * sizeof(float),
                  &scale, sizeof(float));
    }
  }

  if (tag == kTagParameters) {
    const uint32_t param_count = reader.ReadU32();
    IMR_RETURN_IF_ERROR(reader.status());
    const std::vector<nn::NamedParameter> params = model->Parameters();
    if (param_count > params.size()) {
      return util::InvalidArgument("delta '" + path +
                                   "': more parameters than the model has");
    }
    for (uint32_t i = 0; i < param_count; ++i) {
      const std::string name = reader.ReadString();
      const uint64_t values = reader.ReadU64();
      IMR_RETURN_IF_ERROR(reader.status());
      const auto it =
          std::find_if(params.begin(), params.end(),
                       [&name](const nn::NamedParameter& parameter) {
                         return parameter.name == name;
                       });
      if (it == params.end()) {
        return util::InvalidArgument("delta '" + path +
                                     "': unknown parameter '" + name + "'");
      }
      if (values != it->tensor.size()) {
        return util::InvalidArgument(util::StrFormat(
            "delta '%s': parameter '%s' carries %llu values, model expects "
            "%zu",
            path.c_str(), name.c_str(),
            static_cast<unsigned long long>(values), it->tensor.size()));
      }
      nn::NamedParameter writable = *it;
      reader.ReadBytes(writable.tensor.mutable_data().data(),
                       values * sizeof(float));
      IMR_RETURN_IF_ERROR(reader.status());
    }
    tag = reader.ReadU32();
    IMR_RETURN_IF_ERROR(reader.status());
  }
  // The only sentinel is the one the header probe found, at size - 12.
  if (tag != kTagEnd || reader.remaining() != 0) {
    return util::InvalidArgument(util::StrFormat(
        "delta '%s': expected section or end sentinel tag, found 0x%08x at "
        "byte offset %llu",
        path.c_str(), tag,
        static_cast<unsigned long long>(reader.offset() - 4)));
  }

  Snapshot next;
  next.manifest = base.manifest;
  next.tables = base.tables;  // refcount bump, not an O(vocab) copy
  next.knn = base.knn;
  next.model = std::move(model);
  next.content_hash = header->result_hash;
  next.embeddings = graph::EmbeddingStore::View(
      num_vertices, dim,
      reinterpret_cast<const float*>(clone->data() + base.layout.embd_data),
      clone);
  if (qemb_in_place) {
    next.quantized_embeddings = graph::QuantizedEmbeddingStore::View(
        num_vertices, dim,
        reinterpret_cast<const int8_t*>(clone->data() +
                                        base.layout.qemb_data),
        reinterpret_cast<const float*>(clone->data() +
                                       base.layout.qemb_scales),
        clone);
  }
  next.mapping = std::move(clone);
  next.layout = base.layout;
  return next;
}

}  // namespace imr::serve
