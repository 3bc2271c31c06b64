#include "serve/snapshot.h"

#include <cstring>
#include <utility>

#include "util/rng.h"
#include "util/serialization.h"
#include "util/string_util.h"

namespace imr::serve {

namespace {

constexpr uint32_t kSnapshotMagic = 0x494D5253;  // "IMRS"

// Section tags, written before each section payload; the reader checks each
// against the footer's offset table, so a mismatched table or a file
// corrupted on a boundary fails instead of misreading unrelated bytes.
constexpr uint32_t kTagManifest = 0x4D414E49;    // "MANI"
constexpr uint32_t kTagVocabulary = 0x564F4342;  // "VOCB"
constexpr uint32_t kTagRelations = 0x52454C53;   // "RELS"
constexpr uint32_t kTagEntities = 0x454E5453;    // "ENTS"
constexpr uint32_t kTagEmbeddings = 0x454D4244;  // "EMBD"
constexpr uint32_t kTagParameters = 0x5041524D;  // "PARM"
constexpr uint32_t kTagQuantized = 0x51454D42;   // "QEMB" (optional)
constexpr uint32_t kTagAnn = 0x414E4E49;         // "ANNI" (optional)
constexpr uint32_t kTagEnd = 0x53454E44;         // "SEND"

// Framing constants.
constexpr size_t kSectionAlign = 64;
constexpr size_t kTrailerBytes = 16;  // u64 footer offset + version + magic
constexpr uint32_t kMaxSections = 16;

// Sanity caps applied to manifest counts before any dependent allocation,
// so a corrupt (fuzzed) manifest fails with a Status instead of an OOM.
constexpr int kMaxRelations = 1 << 20;
constexpr int kMaxVocabSize = 1 << 24;
constexpr int kMaxDim = 1 << 16;

uint64_t AlignUp(uint64_t offset, uint64_t alignment) {
  return (offset + alignment - 1) & ~(alignment - 1);
}

bool ValidEncoder(const std::string& kind) {
  return kind == "pcnn" || kind == "cnn" || kind == "gru" || kind == "bgwa";
}

util::Status ExpectTag(util::BinaryReader* reader, uint32_t tag,
                       const char* section) {
  const uint64_t at = reader->offset();
  const uint32_t found = reader->ReadU32();
  IMR_RETURN_IF_ERROR(reader->status());
  if (found != tag) {
    return util::InvalidArgument(util::StrFormat(
        "snapshot '%s': expected %s section tag at byte offset %llu, found "
        "0x%08x",
        reader->path().c_str(), section,
        static_cast<unsigned long long>(at), found));
  }
  return util::OkStatus();
}

void WriteManifest(util::BinaryWriter* writer,
                   const SnapshotManifest& manifest) {
  const re::PaModelConfig& m = manifest.model_config;
  writer->WriteU32(static_cast<uint32_t>(m.num_relations));
  writer->WriteString(m.encoder);
  writer->WriteU32(static_cast<uint32_t>(m.aggregation));
  writer->WriteU32(m.use_mutual_relation ? 1 : 0);
  writer->WriteU32(m.use_entity_type ? 1 : 0);
  writer->WriteU32(static_cast<uint32_t>(m.type_dim));
  writer->WriteU32(static_cast<uint32_t>(m.mutual_relation_dim));
  writer->WriteFloat(m.auxiliary_re_loss);
  const nn::EncoderConfig& e = m.encoder_config;
  writer->WriteU32(static_cast<uint32_t>(e.vocab_size));
  writer->WriteU32(static_cast<uint32_t>(e.word_dim));
  writer->WriteU32(static_cast<uint32_t>(e.position_dim));
  writer->WriteU32(static_cast<uint32_t>(e.max_position));
  writer->WriteU32(static_cast<uint32_t>(e.window));
  writer->WriteU32(static_cast<uint32_t>(e.filters));
  writer->WriteFloat(e.dropout);
  writer->WriteFloat(e.word_dropout);
  const re::BagDatasetOptions& b = manifest.bag_options;
  writer->WriteU32(static_cast<uint32_t>(b.max_sentence_length));
  writer->WriteU32(static_cast<uint32_t>(b.max_position));
  writer->WriteU32(static_cast<uint32_t>(b.vocab_min_count));
  writer->WriteU32(b.blind_entities ? 1 : 0);
  writer->WriteU64(manifest.trained_steps);
  writer->WriteString(manifest.notes);
}

util::StatusOr<SnapshotManifest> ReadManifest(util::BinaryReader* reader) {
  SnapshotManifest manifest;
  re::PaModelConfig& m = manifest.model_config;
  m.num_relations = static_cast<int>(reader->ReadU32());
  m.encoder = reader->ReadString();
  const uint32_t aggregation = reader->ReadU32();
  m.use_mutual_relation = reader->ReadU32() != 0;
  m.use_entity_type = reader->ReadU32() != 0;
  m.type_dim = static_cast<int>(reader->ReadU32());
  m.mutual_relation_dim = static_cast<int>(reader->ReadU32());
  m.auxiliary_re_loss = reader->ReadFloat();
  nn::EncoderConfig& e = m.encoder_config;
  e.vocab_size = static_cast<int>(reader->ReadU32());
  e.word_dim = static_cast<int>(reader->ReadU32());
  e.position_dim = static_cast<int>(reader->ReadU32());
  e.max_position = static_cast<int>(reader->ReadU32());
  e.window = static_cast<int>(reader->ReadU32());
  e.filters = static_cast<int>(reader->ReadU32());
  e.dropout = reader->ReadFloat();
  e.word_dropout = reader->ReadFloat();
  re::BagDatasetOptions& b = manifest.bag_options;
  b.max_sentence_length = static_cast<int>(reader->ReadU32());
  b.max_position = static_cast<int>(reader->ReadU32());
  b.vocab_min_count = static_cast<int>(reader->ReadU32());
  b.blind_entities = reader->ReadU32() != 0;
  manifest.trained_steps = reader->ReadU64();
  manifest.notes = reader->ReadString();
  IMR_RETURN_IF_ERROR(reader->status());

  // Reject anything the model constructor would IMR_CHECK-crash on — or
  // allocate unboundedly for: the whole point of the manifest is that
  // corrupt input fails with a Status.
  const std::string& path = reader->path();
  if (m.num_relations < 2 || m.num_relations > kMaxRelations) {
    return util::InvalidArgument("snapshot '" + path +
                                 "': manifest num_relations out of range");
  }
  if (!ValidEncoder(m.encoder)) {
    return util::InvalidArgument("snapshot '" + path +
                                 "': unknown encoder '" + m.encoder + "'");
  }
  if (aggregation > static_cast<uint32_t>(re::Aggregation::kMax)) {
    return util::InvalidArgument("snapshot '" + path +
                                 "': invalid aggregation id");
  }
  m.aggregation = static_cast<re::Aggregation>(aggregation);
  if (e.vocab_size <= 0 || e.vocab_size > kMaxVocabSize ||
      e.word_dim <= 0 || e.word_dim > kMaxDim || e.position_dim <= 0 ||
      e.position_dim > kMaxDim || e.max_position <= 0 ||
      e.max_position > kMaxRelations || e.window <= 0 ||
      e.window > kMaxDim || e.filters <= 0 || e.filters > kMaxDim) {
    return util::InvalidArgument("snapshot '" + path +
                                 "': encoder dimension out of range");
  }
  if (!(e.dropout >= 0.0f && e.dropout < 1.0f) ||
      !(e.word_dropout >= 0.0f && e.word_dropout < 1.0f)) {
    return util::InvalidArgument("snapshot '" + path +
                                 "': dropout outside [0, 1)");
  }
  if (m.use_mutual_relation &&
      (m.mutual_relation_dim <= 0 || m.mutual_relation_dim > kMaxDim)) {
    return util::InvalidArgument("snapshot '" + path +
                                 "': mutual_relation_dim out of range");
  }
  if (m.use_entity_type && (m.type_dim <= 0 || m.type_dim > kMaxDim)) {
    return util::InvalidArgument("snapshot '" + path +
                                 "': type_dim out of range");
  }
  if (b.max_sentence_length <= 0 || b.max_position <= 0) {
    return util::InvalidArgument("snapshot '" + path +
                                 "': non-positive bag option");
  }
  return manifest;
}

// ---- section parsers -------------------------------------------------------

util::Status ReadRelationNames(util::BinaryReader* reader,
                               const SnapshotManifest& manifest,
                               const std::string& path,
                               std::vector<std::string>* out) {
  const uint64_t count = reader->ReadU64();
  IMR_RETURN_IF_ERROR(reader->status());
  if (count !=
      static_cast<uint64_t>(manifest.model_config.num_relations)) {
    return util::InvalidArgument(util::StrFormat(
        "snapshot '%s': %llu relation names, manifest declares %d",
        path.c_str(), static_cast<unsigned long long>(count),
        manifest.model_config.num_relations));
  }
  out->reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    out->push_back(reader->ReadString());
    IMR_RETURN_IF_ERROR(reader->status());
  }
  return util::OkStatus();
}

util::Status ReadEntityTable(util::BinaryReader* reader,
                             const std::string& path,
                             std::vector<EntityRecord>* out) {
  const uint64_t count = reader->ReadU64();
  IMR_RETURN_IF_ERROR(reader->status());
  // Each record costs at least two u64 length prefixes, so any honest
  // count is bounded by the bytes left; anything bigger is corruption and
  // must fail before the reserve below allocates.
  if (count > reader->remaining() / 16) {
    return util::InvalidArgument("snapshot '" + path +
                                 "': entity table too large");
  }
  out->reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    EntityRecord entity;
    entity.name = reader->ReadString();
    entity.type_ids = reader->ReadIntVector();
    IMR_RETURN_IF_ERROR(reader->status());
    out->push_back(std::move(entity));
  }
  return util::OkStatus();
}

util::Status ReadModelParameters(util::BinaryReader* reader,
                                 const SnapshotManifest& manifest,
                                 std::unique_ptr<re::PaModel>* out) {
  // The initializer draws are overwritten entirely by ReadParameters, so
  // the seed is arbitrary; validation happens against the registry the
  // manifest-built skeleton produces.
  util::Rng init_rng(0x5EED);
  *out = std::make_unique<re::PaModel>(manifest.model_config, &init_rng);
  IMR_RETURN_IF_ERROR((*out)->ReadParameters(reader));
  (*out)->SetTraining(false);
  return util::OkStatus();
}

/// Cross-section shape consistency.
util::Status ValidateCrossSections(const Snapshot& snapshot,
                                   const std::string& path) {
  if (snapshot.vocab().size() !=
      snapshot.manifest.model_config.encoder_config.vocab_size) {
    return util::InvalidArgument(util::StrFormat(
        "snapshot '%s': vocabulary has %d words, manifest declares %d",
        path.c_str(), snapshot.vocab().size(),
        snapshot.manifest.model_config.encoder_config.vocab_size));
  }
  if (snapshot.manifest.model_config.use_mutual_relation &&
      snapshot.embeddings.dim() !=
          snapshot.manifest.model_config.mutual_relation_dim) {
    return util::InvalidArgument(util::StrFormat(
        "snapshot '%s': embedding dim %d != mutual_relation_dim %d",
        path.c_str(), snapshot.embeddings.dim(),
        snapshot.manifest.model_config.mutual_relation_dim));
  }
  if (!snapshot.entities().empty() &&
      static_cast<int>(snapshot.entities().size()) !=
          snapshot.embeddings.num_vertices()) {
    return util::InvalidArgument(util::StrFormat(
        "snapshot '%s': entity table has %zu rows, embeddings have %d "
        "vertices",
        path.c_str(), snapshot.entities().size(),
        snapshot.embeddings.num_vertices()));
  }
  return util::OkStatus();
}

util::Status ValidateQuantizedShape(
    const graph::QuantizedEmbeddingStore& quantized,
    const graph::EmbeddingStore& embeddings, const std::string& path) {
  if (quantized.num_vertices() != embeddings.num_vertices() ||
      quantized.dim() != embeddings.dim()) {
    return util::InvalidArgument(util::StrFormat(
        "snapshot '%s': quantized embeddings [%d x %d] do not match fp32 "
        "embeddings [%d x %d]",
        path.c_str(), quantized.num_vertices(), quantized.dim(),
        embeddings.num_vertices(), embeddings.dim()));
  }
  return util::OkStatus();
}

struct SectionEntry {
  uint32_t tag = 0;
  uint64_t tag_offset = 0;
  uint64_t payload_offset = 0;
  uint64_t payload_end = 0;
};

util::StatusOr<Snapshot> ParseSnapshot(
    std::shared_ptr<util::MmapFile> mapping, const std::string& path) {
  const uint8_t* base = mapping->data();
  const uint64_t size = mapping->size();
  if (size < 8 + kTrailerBytes) {
    return util::InvalidArgument("snapshot '" + path +
                                 "': file too small for a trailer");
  }

  // Trailer: footer offset + version/magic echo, at the very end so a
  // truncated file can never present a plausible table.
  uint64_t footer_offset = 0;
  uint32_t echo_version = 0;
  uint32_t echo_magic = 0;
  std::memcpy(&footer_offset, base + size - 16, 8);
  std::memcpy(&echo_version, base + size - 8, 4);
  std::memcpy(&echo_magic, base + size - 4, 4);
  if (echo_magic != kSnapshotMagic ||
      echo_version != static_cast<uint32_t>(kSnapshotFormatV2)) {
    return util::InvalidArgument(util::StrFormat(
        "snapshot '%s': truncated or corrupt trailer at byte offset %llu",
        path.c_str(), static_cast<unsigned long long>(size - kTrailerBytes)));
  }
  if (footer_offset < 8 || footer_offset > size - kTrailerBytes) {
    return util::InvalidArgument(util::StrFormat(
        "snapshot '%s': footer offset %llu outside the file", path.c_str(),
        static_cast<unsigned long long>(footer_offset)));
  }

  // Footer: SEND + section-offset table + content hash, parsed through a
  // bounds-checked view.
  util::BinaryReader footer(path, base + footer_offset,
                            size - kTrailerBytes - footer_offset,
                            footer_offset);
  IMR_RETURN_IF_ERROR(ExpectTag(&footer, kTagEnd, "footer"));
  const uint32_t section_count = footer.ReadU32();
  IMR_RETURN_IF_ERROR(footer.status());
  if (section_count < 6 || section_count > kMaxSections) {
    return util::InvalidArgument("snapshot '" + path +
                                 "': implausible section count");
  }
  std::vector<SectionEntry> sections;
  sections.reserve(section_count);
  uint64_t previous_end = 8;
  for (uint32_t i = 0; i < section_count; ++i) {
    SectionEntry entry;
    entry.tag = footer.ReadU32();
    footer.ReadU32();  // reserved
    entry.tag_offset = footer.ReadU64();
    entry.payload_offset = footer.ReadU64();
    entry.payload_end = footer.ReadU64();
    IMR_RETURN_IF_ERROR(footer.status());
    if (entry.tag_offset < previous_end ||
        entry.payload_offset < entry.tag_offset + 4 ||
        entry.payload_end < entry.payload_offset ||
        entry.payload_end > footer_offset) {
      return util::InvalidArgument(util::StrFormat(
          "snapshot '%s': section %u has an out-of-bounds offset table "
          "entry",
          path.c_str(), i));
    }
    uint32_t inline_tag = 0;
    std::memcpy(&inline_tag, base + entry.tag_offset, 4);
    if (inline_tag != entry.tag) {
      return util::InvalidArgument(util::StrFormat(
          "snapshot '%s': section tag at byte offset %llu does not match "
          "the offset table (0x%08x vs 0x%08x)",
          path.c_str(), static_cast<unsigned long long>(entry.tag_offset),
          inline_tag, entry.tag));
    }
    previous_end = entry.payload_end;
    sections.push_back(entry);
  }
  uint64_t content_hash = footer.ReadU64();
  IMR_RETURN_IF_ERROR(footer.status());

  // Fixed order: the six required sections, then the optional tail.
  static constexpr uint32_t kRequired[] = {kTagManifest, kTagVocabulary,
                                           kTagRelations, kTagEntities,
                                           kTagEmbeddings, kTagParameters};
  for (size_t i = 0; i < 6; ++i) {
    if (sections[i].tag != kRequired[i]) {
      return util::InvalidArgument(util::StrFormat(
          "snapshot '%s': section %zu is 0x%08x, expected 0x%08x",
          path.c_str(), i, sections[i].tag, kRequired[i]));
    }
  }
  auto section_reader = [&](const SectionEntry& entry) {
    return util::BinaryReader(path, base + entry.payload_offset,
                              entry.payload_end - entry.payload_offset,
                              entry.payload_offset);
  };

  Snapshot snapshot;
  auto tables = std::make_shared<SnapshotTables>();
  {
    util::BinaryReader reader = section_reader(sections[0]);
    auto manifest = ReadManifest(&reader);
    IMR_RETURN_IF_ERROR(manifest.status());
    snapshot.manifest = std::move(*manifest);
  }
  {
    util::BinaryReader reader = section_reader(sections[1]);
    auto vocab = text::Vocabulary::ReadFrom(&reader);
    IMR_RETURN_IF_ERROR(vocab.status());
    tables->vocab = std::move(*vocab);
  }
  {
    util::BinaryReader reader = section_reader(sections[2]);
    IMR_RETURN_IF_ERROR(ReadRelationNames(&reader, snapshot.manifest, path,
                                          &tables->relation_names));
  }
  {
    util::BinaryReader reader = section_reader(sections[3]);
    IMR_RETURN_IF_ERROR(ReadEntityTable(&reader, path, &tables->entities));
  }
  snapshot.tables = std::move(tables);

  {
    // EMBD, zero-copy: parse the tiny shape prefix, then alias the aligned
    // matrix bytes straight out of the mapping.
    const SectionEntry& entry = sections[4];
    util::BinaryReader reader = section_reader(entry);
    const int num_vertices = static_cast<int>(reader.ReadU32());
    const int dim = static_cast<int>(reader.ReadU32());
    IMR_RETURN_IF_ERROR(reader.status());
    if (num_vertices <= 0 || dim <= 0 || dim > kMaxDim) {
      return util::InvalidArgument("snapshot '" + path +
                                   "': corrupt embedding shape");
    }
    const uint64_t data_offset = AlignUp(entry.payload_offset + 8,
                                         kSectionAlign);
    const uint64_t bytes = static_cast<uint64_t>(num_vertices) *
                           static_cast<uint64_t>(dim) * sizeof(float);
    if (data_offset > entry.payload_end ||
        bytes > entry.payload_end - data_offset) {
      return util::InvalidArgument(util::StrFormat(
          "snapshot '%s': embedding matrix overruns its section at byte "
          "offset %llu",
          path.c_str(), static_cast<unsigned long long>(data_offset)));
    }
    snapshot.embeddings = graph::EmbeddingStore::View(
        num_vertices, dim,
        reinterpret_cast<const float*>(base + data_offset), mapping);
    snapshot.layout.embd_data = data_offset;
  }
  IMR_RETURN_IF_ERROR(ValidateCrossSections(snapshot, path));

  {
    util::BinaryReader reader = section_reader(sections[5]);
    IMR_RETURN_IF_ERROR(
        ReadModelParameters(&reader, snapshot.manifest, &snapshot.model));
  }

  for (size_t i = 6; i < sections.size(); ++i) {
    const SectionEntry& entry = sections[i];
    if (entry.tag == kTagQuantized) {
      util::BinaryReader reader = section_reader(entry);
      const int num_vertices = static_cast<int>(reader.ReadU32());
      const int dim = static_cast<int>(reader.ReadU32());
      IMR_RETURN_IF_ERROR(reader.status());
      if (num_vertices <= 0 || dim <= 0 || dim > kMaxDim) {
        return util::InvalidArgument("snapshot '" + path +
                                     "': corrupt quantized shape");
      }
      const uint64_t scales_offset = AlignUp(entry.payload_offset + 8,
                                             kSectionAlign);
      const uint64_t scale_bytes =
          static_cast<uint64_t>(num_vertices) * sizeof(float);
      const uint64_t data_offset =
          AlignUp(scales_offset + scale_bytes, kSectionAlign);
      const uint64_t data_bytes = static_cast<uint64_t>(num_vertices) *
                                  static_cast<uint64_t>(dim);
      if (scales_offset > entry.payload_end ||
          scale_bytes > entry.payload_end - scales_offset ||
          data_offset > entry.payload_end ||
          data_bytes > entry.payload_end - data_offset) {
        return util::InvalidArgument(util::StrFormat(
            "snapshot '%s': quantized matrix overruns its section at byte "
            "offset %llu",
            path.c_str(), static_cast<unsigned long long>(scales_offset)));
      }
      graph::QuantizedEmbeddingStore quantized =
          graph::QuantizedEmbeddingStore::View(
              num_vertices, dim,
              reinterpret_cast<const int8_t*>(base + data_offset),
              reinterpret_cast<const float*>(base + scales_offset), mapping);
      IMR_RETURN_IF_ERROR(
          ValidateQuantizedShape(quantized, snapshot.embeddings, path));
      snapshot.quantized_embeddings = std::move(quantized);
      snapshot.layout.qemb_scales = scales_offset;
      snapshot.layout.qemb_data = data_offset;
    } else if (entry.tag == kTagAnn) {
      util::BinaryReader reader = section_reader(entry);
      auto knn = re::KnnPredictor::ReadFrom(&reader, snapshot.embeddings);
      IMR_RETURN_IF_ERROR(knn.status());
      if (knn->num_relations() !=
          snapshot.manifest.model_config.num_relations) {
        return util::InvalidArgument(util::StrFormat(
            "snapshot '%s': kNN section has %d relations, manifest "
            "declares %d",
            path.c_str(), knn->num_relations(),
            snapshot.manifest.model_config.num_relations));
      }
      snapshot.knn =
          std::make_shared<const re::KnnPredictor>(std::move(*knn));
    } else {
      return util::InvalidArgument(util::StrFormat(
          "snapshot '%s': unknown optional section tag 0x%08x", path.c_str(),
          entry.tag));
    }
  }

  snapshot.mapping = std::move(mapping);
  snapshot.content_hash = content_hash;
  return snapshot;
}

}  // namespace

util::Status SaveSnapshot(const re::PaModel& model,
                          const text::Vocabulary& vocab,
                          const graph::EmbeddingStore& embeddings,
                          const std::vector<std::string>& relation_names,
                          const std::vector<EntityRecord>& entities,
                          const re::BagDatasetOptions& bag_options,
                          uint64_t trained_steps, const std::string& notes,
                          const std::string& path,
                          const graph::QuantizedEmbeddingStore* quantized,
                          const re::KnnPredictor* knn) {
  const re::PaModelConfig& config = model.config();
  // Catch inconsistent bundles at save time: a snapshot that cannot pass
  // its own load-time validation must never reach disk.
  if (!vocab.frozen() || vocab.size() != config.encoder_config.vocab_size) {
    return util::InvalidArgument(
        "snapshot: vocabulary does not match the model's vocab_size");
  }
  if (static_cast<int>(relation_names.size()) != config.num_relations) {
    return util::InvalidArgument(
        "snapshot: relation name count != num_relations");
  }
  if (config.use_mutual_relation &&
      embeddings.dim() != config.mutual_relation_dim) {
    return util::InvalidArgument(
        "snapshot: embedding dim != mutual_relation_dim");
  }
  if (!entities.empty() &&
      static_cast<int>(entities.size()) != embeddings.num_vertices()) {
    return util::InvalidArgument(
        "snapshot: entity table size != embedding vertex count");
  }
  if (quantized != nullptr &&
      (quantized->num_vertices() != embeddings.num_vertices() ||
       quantized->dim() != embeddings.dim())) {
    return util::InvalidArgument(
        "snapshot: quantized embedding shape != fp32 embedding shape");
  }
  if (knn != nullptr && knn->dim() != embeddings.dim()) {
    return util::InvalidArgument(
        "snapshot: kNN predictor dim != embedding dim");
  }
  if (knn != nullptr && knn->num_relations() != config.num_relations) {
    return util::InvalidArgument(
        "snapshot: kNN predictor relation count != num_relations");
  }

  util::BinaryWriter writer(path, kSnapshotMagic,
                            static_cast<uint32_t>(kSnapshotFormatV2));
  IMR_RETURN_IF_ERROR(writer.status());
  writer.StartHashing();

  // Every section is recorded in the trailing offset table.
  std::vector<SectionEntry> table;
  auto begin_section = [&](uint32_t tag) {
    SectionEntry entry;
    entry.tag = tag;
    entry.tag_offset = writer.offset();
    writer.WriteU32(tag);
    writer.PadTo(kSectionAlign);
    entry.payload_offset = writer.offset();
    table.push_back(entry);
  };
  auto end_section = [&] { table.back().payload_end = writer.offset(); };

  SnapshotManifest manifest;
  manifest.model_config = config;
  manifest.bag_options = bag_options;
  manifest.trained_steps = trained_steps;
  manifest.notes = notes;

  begin_section(kTagManifest);
  WriteManifest(&writer, manifest);
  end_section();

  begin_section(kTagVocabulary);
  IMR_RETURN_IF_ERROR(vocab.WriteTo(&writer));
  end_section();

  begin_section(kTagRelations);
  writer.WriteU64(relation_names.size());
  for (const std::string& name : relation_names) writer.WriteString(name);
  end_section();

  begin_section(kTagEntities);
  writer.WriteU64(entities.size());
  for (const EntityRecord& entity : entities) {
    writer.WriteString(entity.name);
    writer.WriteIntVector(entity.type_ids);
  }
  end_section();

  begin_section(kTagEmbeddings);
  // Shape prefix, then the matrix re-aligned to 64 bytes so the reader can
  // alias it in place.
  writer.WriteU32(static_cast<uint32_t>(embeddings.num_vertices()));
  writer.WriteU32(static_cast<uint32_t>(embeddings.dim()));
  writer.PadTo(kSectionAlign);
  writer.WriteRawBytes(embeddings.raw(),
                       embeddings.value_count() * sizeof(float));
  end_section();

  begin_section(kTagParameters);
  model.WriteParameters(&writer);
  end_section();

  if (quantized != nullptr) {
    begin_section(kTagQuantized);
    writer.WriteU32(static_cast<uint32_t>(quantized->num_vertices()));
    writer.WriteU32(static_cast<uint32_t>(quantized->dim()));
    writer.PadTo(kSectionAlign);
    writer.WriteRawBytes(
        quantized->raw_scales(),
        static_cast<size_t>(quantized->num_vertices()) * sizeof(float));
    writer.PadTo(kSectionAlign);
    writer.WriteRawBytes(quantized->raw(),
                         static_cast<size_t>(quantized->num_vertices()) *
                             static_cast<size_t>(quantized->dim()));
    end_section();
  }

  if (knn != nullptr) {
    begin_section(kTagAnn);
    knn->WriteTo(&writer);
    end_section();
  }

  // Footer + trailer. The content hash covers [8, footer) — every section
  // byte including padding — and is the identity deltas chain on.
  writer.PadTo(8);
  const uint64_t footer_offset = writer.offset();
  writer.StopHashing();
  const uint64_t content_hash = writer.hash();
  writer.WriteU32(kTagEnd);
  writer.WriteU32(static_cast<uint32_t>(table.size()));
  for (const SectionEntry& entry : table) {
    writer.WriteU32(entry.tag);
    writer.WriteU32(0);  // reserved
    writer.WriteU64(entry.tag_offset);
    writer.WriteU64(entry.payload_offset);
    writer.WriteU64(entry.payload_end);
  }
  writer.WriteU64(content_hash);
  writer.WriteU64(footer_offset);
  writer.WriteU32(static_cast<uint32_t>(kSnapshotFormatV2));
  writer.WriteU32(kSnapshotMagic);
  return writer.Close();
}

util::Status SaveSnapshot(const re::PaModel& model,
                          const text::Vocabulary& vocab,
                          const graph::EmbeddingStore& embeddings,
                          const kg::KnowledgeGraph& graph,
                          const re::BagDatasetOptions& bag_options,
                          uint64_t trained_steps, const std::string& notes,
                          const std::string& path,
                          const graph::QuantizedEmbeddingStore* quantized,
                          const re::KnnPredictor* knn) {
  std::vector<std::string> relation_names;
  relation_names.reserve(static_cast<size_t>(graph.num_relations()));
  for (const kg::RelationSchema& schema : graph.relations())
    relation_names.push_back(schema.name);
  std::vector<EntityRecord> entities;
  entities.reserve(static_cast<size_t>(graph.num_entities()));
  for (const kg::Entity& entity : graph.entities())
    entities.push_back({entity.name, entity.type_ids});
  return SaveSnapshot(model, vocab, embeddings, relation_names, entities,
                      bag_options, trained_steps, notes, path, quantized,
                      knn);
}

util::StatusOr<Snapshot> LoadSnapshot(const std::string& path) {
  auto mapping = util::MmapFile::Open(path);
  IMR_RETURN_IF_ERROR(mapping.status());
  if ((*mapping)->size() < 8) {
    return util::InvalidArgument(util::StrFormat(
        "bad magic in '%s': file too small for a header", path.c_str()));
  }
  uint32_t magic = 0;
  uint32_t version = 0;
  std::memcpy(&magic, (*mapping)->data(), 4);
  std::memcpy(&version, (*mapping)->data() + 4, 4);
  if (magic != kSnapshotMagic) {
    return util::InvalidArgument(
        util::StrFormat("bad magic in '%s': file has 0x%08x, expected 0x%08x",
                        path.c_str(), magic, kSnapshotMagic));
  }
  if (version != static_cast<uint32_t>(kSnapshotFormatV2)) {
    return util::InvalidArgument(util::StrFormat(
        "unsupported version in '%s': file has %u, expected %d", path.c_str(),
        version, kSnapshotFormatV2));
  }
  return ParseSnapshot(std::move(*mapping), path);
}

}  // namespace imr::serve
