// The trained PA-TMR and the request replay that bench_serve's tail cells
// serve and that tests/serve_test.cc's int8 gate
// (QuantizedEngineTest.QuantizedServingAgreesWithFp32) checks: an
// NYT-preset pipeline (seed 13) at the benchmark's encoder dims, with LINE
// embeddings trained on one thread so every run serves the same model, and
// up to 128 held-out pairs replayed with pair-frequency skew.
#ifndef IMR_BENCH_SERVE_SETUP_H_
#define IMR_BENCH_SERVE_SETUP_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "datagen/presets.h"
#include "graph/embedding_store.h"
#include "re/bag_dataset.h"
#include "re/pa_model.h"
#include "serve/inference_engine.h"
#include "util/status.h"

namespace imr::bench {

struct ServeSetup {
  explicit ServeSetup(datagen::SyntheticDataset data)
      : dataset(std::move(data)) {}
  datagen::SyntheticDataset dataset;
  re::BagDatasetOptions bag_options;
  re::BagDataset bags;
  graph::EmbeddingStore embeddings;
  std::unique_ptr<re::PaModel> model;
  int epochs = 0;
  // Held-out pairs (up to 4 sentences each), and the replay over them:
  // pair k is requested roughly in proportion to 1/(k+1), mirroring the
  // long-tailed pair frequencies the paper measures.
  std::vector<serve::Query> unique_queries;
  std::vector<serve::Query> requests;

  /// Saves the trained model, vocabulary, embeddings and entity table as
  /// a snapshot at `path`.
  [[nodiscard]] util::Status Save(const std::string& path) const;
};

/// Trains the pipeline and builds the replay. The full set-up is the NYT
/// preset at scale 0.5, 6 epochs and 768 requests; `smoke` is scale 0.3,
/// 2 epochs and 256 requests.
std::unique_ptr<ServeSetup> MakeServeSetup(bool smoke);

}  // namespace imr::bench

#endif  // IMR_BENCH_SERVE_SETUP_H_
