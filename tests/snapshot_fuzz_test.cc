// Corruption fuzz-smoke for the snapshot/delta readers: seeded byte flips
// and truncations over real snapshot and IMRD fixtures. The contract under
// test is narrow and absolute — LoadSnapshot / ReadDeltaHeader / ApplyDelta
// NEVER crash on corrupt input. Every outcome is either an ok() load (a
// flip the reader legitimately cannot see, e.g. in a snapshot bulk payload
// whose hash is identity-only) or a Status naming the file. Runs under the same
// ASan/UBSan trees as the rest of the suite, so an out-of-bounds parse or
// a corrupt-length allocation fails CI even when it does not segfault.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "graph/embedding_store.h"
#include "re/config.h"
#include "re/pa_model.h"
#include "serve/delta.h"
#include "serve/snapshot.h"
#include "text/vocab.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/status.h"

namespace imr {
namespace {

// A small but fully populated snapshot bundle (untrained weights are fine:
// the readers validate structure, not accuracy), plus a delta chained on
// it. Built once.
struct FuzzFixture {
  FuzzFixture() {
    for (const char* word :
         {"alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta"}) {
      vocab.Count(word);
    }
    vocab.Freeze();

    const int num_vertices = 10;
    const int dim = 8;
    embeddings = graph::EmbeddingStore(num_vertices, dim);
    util::Rng rng(17);
    for (int v = 0; v < num_vertices; ++v)
      for (int d = 0; d < dim; ++d)
        embeddings.Vector(v)[d] = static_cast<float>(rng.Normal());
    for (int v = 0; v < num_vertices; ++v) {
      serve::EntityRecord record;
      record.name = "entity_" + std::to_string(v);
      record.type_ids = {v % 3};
      entities.push_back(record);
    }

    re::PaModelConfig config;
    config.num_relations = 3;
    config.encoder = "pcnn";
    config.use_mutual_relation = true;
    config.use_entity_type = true;
    config.type_dim = 4;
    config.mutual_relation_dim = dim;
    config.encoder_config.vocab_size = vocab.size();
    config.encoder_config.word_dim = 6;
    config.encoder_config.position_dim = 2;
    config.encoder_config.max_position = 10;
    config.encoder_config.filters = 4;
    util::Rng model_rng(23);
    model = std::make_unique<re::PaModel>(config, &model_rng);
    model->SetTraining(false);

    const auto quantized = graph::QuantizedEmbeddingStore::Quantize(embeddings);
    const std::vector<std::string> relation_names = {"NA", "r1", "r2"};
    v2_path = testing::TempDir() + "/imr_fuzz_v2.imrs";
    IMR_CHECK(serve::SaveSnapshot(*model, vocab, embeddings, relation_names,
                                  entities, {}, 1, "fuzz", v2_path,
                                  &quantized)
                  .ok());

    auto loaded = serve::LoadSnapshot(v2_path);
    IMR_CHECK(loaded.ok());
    base = std::make_unique<serve::Snapshot>(std::move(*loaded));

    graph::EmbeddingStore patched(num_vertices, dim);
    std::memcpy(patched.Vector(0), embeddings.raw(),
                embeddings.value_count() * sizeof(float));
    for (int d = 0; d < dim; ++d) patched.Vector(3)[d] += 0.5f;
    serve::DeltaSpec spec;
    spec.touched_rows = {3, 7};
    spec.changed_params = {model->Parameters()[0].name};
    delta_path = testing::TempDir() + "/imr_fuzz.imrd";
    IMR_CHECK(serve::SaveDelta(base->content_hash, patched, model.get(),
                               spec, delta_path)
                  .ok());
  }

  text::Vocabulary vocab;
  graph::EmbeddingStore embeddings;
  std::vector<serve::EntityRecord> entities;
  std::unique_ptr<re::PaModel> model;
  std::unique_ptr<serve::Snapshot> base;
  std::string v2_path;
  std::string delta_path;
};

FuzzFixture& Fixture() {
  static FuzzFixture* fixture = new FuzzFixture();
  return *fixture;
}

std::string Slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  IMR_CHECK(in.good());
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

std::string WriteMutant(const std::string& bytes, const std::string& name) {
  const std::string path = testing::TempDir() + "/" + name;
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  return path;
}

/// Flips a seeded-random byte of `bytes` per iteration and feeds the
/// mutant to `probe`, which must return (ok or Status) — any crash or
/// sanitizer report fails the test. Returns how many mutants still loaded
/// ok (a flip the format legitimately does not authenticate).
template <typename Probe>
int FuzzByteFlips(const std::string& bytes, const std::string& name,
                  int iterations, uint64_t seed, const Probe& probe) {
  util::Rng rng(seed);
  int survivors = 0;
  for (int i = 0; i < iterations; ++i) {
    std::string mutant = bytes;
    const size_t pos = rng.UniformInt(mutant.size());
    // Bias half the flips into the first 256 bytes, where the header,
    // section framing, and counts live — the highest-value targets.
    const size_t target =
        i % 2 == 0 ? pos % std::min<size_t>(mutant.size(), 256) : pos;
    const uint8_t flip = static_cast<uint8_t>(1 + rng.UniformInt(255));
    mutant[target] = static_cast<char>(
        static_cast<uint8_t>(mutant[target]) ^ flip);
    const std::string path = WriteMutant(mutant, name);
    if (probe(path).ok()) ++survivors;
    std::remove(path.c_str());
  }
  return survivors;
}

/// Truncates `bytes` at a seeded-random point per iteration (plus the
/// always-interesting boundary cuts) and feeds each to `probe`; a
/// truncation must never crash and must never load ok.
template <typename Probe>
void FuzzTruncations(const std::string& bytes, const std::string& name,
                     int iterations, uint64_t seed, const Probe& probe) {
  util::Rng rng(seed);
  std::vector<size_t> cuts = {0,  1,  4,  7,  8,  12, bytes.size() / 2,
                              bytes.size() - 1, bytes.size() - 8,
                              bytes.size() - 16, bytes.size() - 17};
  for (int i = 0; i < iterations; ++i) cuts.push_back(rng.UniformInt(bytes.size()));
  for (const size_t cut : cuts) {
    const std::string path = WriteMutant(bytes.substr(0, cut), name);
    EXPECT_FALSE(probe(path).ok()) << name << " truncated to " << cut;
    std::remove(path.c_str());
  }
}

util::Status ProbeSnapshot(const std::string& path) {
  return serve::LoadSnapshot(path).status();
}

util::Status ProbeDelta(const std::string& path) {
  // Both entry points must survive: the O(1) header probe and the full
  // apply against a live base generation.
  const util::Status header = serve::ReadDeltaHeader(path).status();
  const util::Status applied =
      serve::ApplyDelta(*Fixture().base, path).status();
  // ApplyDelta validates strictly more than the header probe.
  if (header.ok() && applied.ok()) return util::OkStatus();
  return applied.ok() ? header : applied;
}

TEST(SnapshotFuzzTest, V2ByteFlipsNeverCrash) {
  const std::string bytes = Slurp(Fixture().v2_path);
  FuzzByteFlips(bytes, "imr_fuzz_mut_v2.imrs", 400, 0xF00D, ProbeSnapshot);
}

TEST(SnapshotFuzzTest, DeltaByteFlipsNeverCrash) {
  const std::string bytes = Slurp(Fixture().delta_path);
  // Deltas ARE hash-authenticated end to end (result_hash covers every
  // payload byte), so unlike v2 snapshots, no interior flip survives — a
  // flipped delta can never silently patch a serving generation.
  const int survivors = FuzzByteFlips(bytes, "imr_fuzz_mut.imrd", 400,
                                      0xCAFE, ProbeDelta);
  EXPECT_EQ(survivors, 0);
}

TEST(SnapshotFuzzTest, TruncationsNeverCrashOrHalfLoad) {
  FuzzTruncations(Slurp(Fixture().v2_path), "imr_fuzz_trunc_v2.imrs", 40,
                  0x7777, ProbeSnapshot);
}

TEST(SnapshotFuzzTest, DeltaTruncationsNeverCrashOrHalfLoad) {
  FuzzTruncations(Slurp(Fixture().delta_path), "imr_fuzz_trunc.imrd", 30,
                  0x1234, ProbeDelta);
}

TEST(SnapshotFuzzTest, ErrorsNameTheFile) {
  // Spot-check the diagnosability contract: corruption Statuses carry the
  // path so an operator knows WHICH generation file is bad.
  const std::string bytes = Slurp(Fixture().v2_path);
  std::string mutant = bytes;
  mutant[9] = static_cast<char>(mutant[9] ^ 0x40);  // section tag byte
  const std::string path = WriteMutant(mutant, "imr_fuzz_named.imrs");
  const util::Status status = serve::LoadSnapshot(path).status();
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("imr_fuzz_named.imrs"), std::string::npos)
      << status.ToString();
  std::remove(path.c_str());
}

}  // namespace
}  // namespace imr
