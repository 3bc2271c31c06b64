// Mini-batch SGD training loop for PaModel over a bag dataset, with the
// paper's schedule (SGD, lr 0.3, batch 160, per-epoch decay) and an
// optional per-epoch held-out evaluation callback.
#ifndef IMR_RE_TRAINER_H_
#define IMR_RE_TRAINER_H_

#include <functional>
#include <memory>
#include <vector>

#include "eval/heldout.h"
#include "re/config.h"
#include "re/pa_model.h"

namespace imr::re {

struct EpochStats {
  int epoch = 0;
  double mean_loss = 0.0;
  double seconds = 0.0;
};

class Trainer {
 public:
  Trainer(PaModel* model, const TrainerConfig& config);

  /// Trains on `train_bags`; returns per-epoch stats. The optional callback
  /// fires after each epoch (e.g. for eval logging / early stopping: return
  /// false to stop).
  std::vector<EpochStats> Train(
      const std::vector<Bag>& train_bags,
      const std::function<bool(const EpochStats&)>& on_epoch = nullptr);

  /// Convenience: evaluates the trained model on `test_bags`.
  eval::HeldOutResult Evaluate(const std::vector<Bag>& test_bags);

 private:
  /// Data-parallel forward/backward over one batch (clean pass plus the
  /// optional FGSM adversarial pass), leaving full-batch gradients in the
  /// shared parameter tensors. Returns the batch mean loss. Chunking is a
  /// pure function of the batch size, so results are bit-identical for any
  /// worker count > 1.
  double ParallelBatchStep(const std::vector<const Bag*>& batch,
                           std::vector<tensor::Tensor>* adversarial_targets);

  /// FGSM helpers shared by the sequential and data-parallel paths:
  /// snapshot the targeted embedding tables and nudge them along the sign
  /// of the accumulated gradient, then (after the adversarial pass) copy
  /// the snapshots back in place. Tables with a row-sparse gradient save,
  /// perturb and restore only the touched rows — exact, because rows with
  /// zero gradient receive a zero perturbation and the adversarial pass
  /// re-gathers the same batch, so untouched rows are never read while
  /// perturbed. Snapshot storage is a reused member, so steady-state FGSM
  /// steps stop allocating O(vocab x dim) copies.
  void PerturbAdversarial(std::vector<tensor::Tensor>* targets);
  void RestoreAdversarial(std::vector<tensor::Tensor>* targets);

  PaModel* model_;
  TrainerConfig config_;
  util::Rng rng_;
  // ParallelBatchStep's gradient sinks, indexed by chunk, kept for one
  // Train call so their buffers are reused from batch to batch.
  std::vector<std::unique_ptr<tensor::internal::ScopedGradSink>> grad_sinks_;

  struct FgsmSnapshot {
    bool sparse = false;
    std::vector<int> rows;      // touched rows when sparse
    std::vector<float> values;  // row slices when sparse, whole table dense
  };
  std::vector<FgsmSnapshot> fgsm_saved_;
};

/// One-call helper used by benches: train a model, return the held-out
/// result.
eval::HeldOutResult TrainAndEvaluate(PaModel* model,
                                     const std::vector<Bag>& train_bags,
                                     const std::vector<Bag>& test_bags,
                                     const TrainerConfig& config);

}  // namespace imr::re

#endif  // IMR_RE_TRAINER_H_
