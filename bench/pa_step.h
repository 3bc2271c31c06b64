// The warmed-up PA-TMR training step that bench_kernels' smoke gate and
// tests/buffer_pool_test.cc both check for pool misses and pooled-bytes
// growth: a small GDS-preset PA-TMR (PCNN + ATT + MR + T) at the
// benchmark's encoder dims (word 16, position 3, 32 filters), trained by
// re::Trainer in 32-bag batches, data-parallel on the global thread pool or
// sequential on one thread.
#ifndef IMR_BENCH_PA_STEP_H_
#define IMR_BENCH_PA_STEP_H_

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "datagen/presets.h"
#include "graph/embedding_store.h"
#include "re/bag_dataset.h"
#include "re/pa_model.h"

namespace imr::bench {

/// The dataset, MR embeddings and model config the step trains on.
struct PaStepSetup {
  explicit PaStepSetup(datagen::SyntheticDataset data)
      : dataset(std::move(data)) {}
  datagen::SyntheticDataset dataset;
  re::BagDatasetOptions bag_options;
  re::BagDataset bags;
  graph::EmbeddingStore embeddings;
  re::PaModelConfig config;
  // 32 training bags, each given the sentences and entity types of one
  // multi-sentence bag (labels and MR vectors stay their own), so every
  // data-parallel chunk of the batch has the same working set whichever
  // bags the trainer shuffles into it.
  std::vector<re::Bag> same_shape_batch;
};

/// Builds the setup from a GDS preset at `scale` (seed 7), with LINE
/// embeddings trained on one thread.
std::unique_ptr<PaStepSetup> MakePaStepSetup(double scale);

/// Pool counters of the epochs after the warm-up.
struct PaStepResult {
  int threads = 0;
  int epochs = 0;   // measured epochs
  int batches = 0;  // measured batches
  uint64_t misses = 0;
  uint64_t acquires = 0;
  uint64_t node_acquires = 0;    // TensorImpl node blocks (graph nodes)
  uint64_t buffer_acquires = 0;  // float buffers
  uint64_t pooled_at_warmup = 0;        // bytes pooled when measuring began
  std::vector<uint64_t> pooled_after;   // after each measured epoch
  double ms_per_epoch = 0.0;            // median measured epoch

  /// Last measured epoch's pooled bytes minus those at the warm-up's end.
  int64_t pooled_growth() const;
  double misses_per_batch() const;
  double nodes_per_batch() const;
  double buffers_per_batch() const;
};

/// Trains a fresh PA-TMR on `bags` (Adam, batch 32, `threads` trainer and
/// global threads: 1 runs the sequential step, more the data-parallel one)
/// for `warmup_epochs` and then five epochs, and returns the pool counters
/// of those five. Before training it creates the shared parameter
/// gradients (the trainer's first merge would create them on the calling
/// thread, which then holds them for good) and runs one chunk's work on
/// every pool thread, so each pool has seen a chunk's working set however
/// the trainer's chunks later land on threads. The global pool gets its
/// previous size back afterwards.
PaStepResult RunPaStep(const PaStepSetup& setup,
                       const std::vector<re::Bag>& bags, int warmup_epochs,
                       int threads);

}  // namespace imr::bench

#endif  // IMR_BENCH_PA_STEP_H_
