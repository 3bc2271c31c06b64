// First-order optimizers over a Module's parameters. The paper trains with
// SGD (lr = 0.3); Adagrad is used for LINE-style embedding training and
// Adam is provided for convenience.
//
// Row-sparse parameters (embedding tables that opted in via
// Tensor::set_row_sparse_grad, see DESIGN.md §10) are updated in O(touched
// rows) instead of O(vocab × dim): the clip-norm reduction, the state
// updates and the parameter writes all walk only the rows GatherRows'
// backward recorded. The sparse path is bit-identical to the dense one —
// untouched-row updates are exact no-ops for SGD (without weight decay) and
// Adagrad, and Adam replays the skipped decay steps exactly on the next
// touch (lazy catch-up; call Finalize() to bring every row up to date
// before reading parameters).
#ifndef IMR_NN_OPTIMIZER_H_
#define IMR_NN_OPTIMIZER_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "nn/module.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace imr::nn {

class Optimizer {
 public:
  virtual ~Optimizer() = default;

  /// Applies one update from the accumulated gradients, then zeroes them.
  virtual void Step() = 0;

  /// Brings lazily-updated optimizer state fully up to date. Adam defers
  /// the decay of untouched rows of row-sparse parameters until their next
  /// touch; Finalize() replays those skipped steps for every row so the
  /// parameter values match a dense run exactly. Safe to call at any point
  /// (idempotent between Steps); a no-op for SGD and Adagrad, whose
  /// untouched-row updates are exact no-ops already. The trainer calls it
  /// after the last epoch.
  virtual void Finalize() {}

  void set_learning_rate(float lr) { learning_rate_ = lr; }
  float learning_rate() const { return learning_rate_; }

 protected:
  Optimizer(Module* module, float learning_rate);

  std::vector<tensor::Tensor> params_;
  // params_[i].row_sparse_grad() snapshotted at construction; a parameter
  // toggled afterwards keeps its dense treatment (toggling mid-training is
  // unsupported).
  std::vector<bool> sparse_capable_;
  float learning_rate_;
};

/// Plain SGD with optional L2 weight decay and gradient clipping (by global
/// norm; 0 disables). Weight decay reads every parameter element, so it
/// forces the dense path for row-sparse parameters (counted as a dense
/// fallback in tensor::SparseGradStats).
class Sgd : public Optimizer {
 public:
  Sgd(Module* module, float learning_rate, float weight_decay = 0.0f,
      float clip_norm = 0.0f);
  void Step() override;

 private:
  float weight_decay_;
  float clip_norm_;
};

class Adagrad : public Optimizer {
 public:
  Adagrad(Module* module, float learning_rate, float epsilon = 1e-8f);
  void Step() override;

 private:
  float epsilon_;
  std::vector<std::vector<float>> accum_;
};

/// Adam defers the zero-gradient m/v decay of untouched rows of row-sparse
/// parameters. The deferred steps are replayed exactly (same kernel, same
/// recorded lr/bias floats) the moment a stale row becomes visible again —
/// via a row-materializer hook that GatherRows' forward fires before
/// reading — so training trajectories are bit-identical to a dense run.
/// Finalize() (or destruction of the model-reading scope calling it)
/// catches the remaining rows up.
///
/// Phase rule: Step() and Finalize() run between forward regions, never
/// alongside a forward or backward pass on the model. Within a forward
/// region the hook may fire from every data-parallel chunk at once; it
/// takes no lock but claims rows one at a time (see row_done_), so
/// concurrent chunks replay different rows in parallel and each (row,
/// step) is replayed exactly once.
class Adam : public Optimizer {
 public:
  Adam(Module* module, float learning_rate, float beta1 = 0.9f,
       float beta2 = 0.999f, float epsilon = 1e-8f);
  ~Adam() override;
  void Step() override;
  void Finalize() override;

 private:
  // One recorded step a row-sparse parameter took part in: enough to replay
  // the update of a row whose gradient was zero that step (m/v decay plus
  // the bias-corrected write-back) bit-for-bit later.
  struct StepRecord {
    float lr;
    float bias1;
    float bias2;
  };

  // One unit of a step's updates, for parameter `param`: elements [lo, hi)
  // (kElements), the rows at positions [lo, hi) of its grad_touched_rows()
  // (kTouchedRows), or rows [lo, hi) (kRows).
  struct UpdateBlock {
    enum Kind { kElements, kTouchedRows, kRows };
    size_t param;
    Kind kind;
    size_t lo;
    size_t hi;
  };

  // Queues blocks covering `units` units (elements or rows) of
  // `unit_floats` floats each for this Step.
  void AddUpdateBlocks(size_t param, UpdateBlock::Kind kind, size_t units,
                       size_t unit_floats);

  // Replays the recorded steps [from, upto) for one row of parameter i with
  // an all-zero gradient row, through the same in-place kernel as live
  // updates. Distinct rows touch disjoint slices of the parameter/m/v
  // storage, so replay order across rows cannot change the result.
  void ReplayRow(size_t i, int row, uint32_t from, uint32_t upto);

  // Brings one row up to step `upto` during Step (no forward running, so
  // no claim is needed).
  void CatchUpRow(size_t i, int row, uint32_t upto);

  // The row-materializer hook installed on row-sparse parameters: brings
  // `rows` fully up to date before their values are read. Safe under
  // concurrent data-parallel forward passes without a lock: each stale row
  // is claimed with a compare-and-swap on its row_done_ entry, replayed by
  // the claiming thread, and released; a thread that finds a row claimed
  // waits for the release before reading it.
  void MaterializeRows(size_t i, const std::vector<int>& rows);

  // Set in a row_done_ entry while a thread replays that row.
  static constexpr uint32_t kRowBusy = uint32_t{1} << 31;

  float beta1_, beta2_, epsilon_;
  // Taken by Step and Finalize. The hook never takes it: the phase rule in
  // the class comment keeps it from overlapping them.
  util::Mutex mu_;
  int64_t step_ IMR_GUARDED_BY(mu_) = 0;
  // Running beta^step accumulators in double: float std::pow(beta, step)
  // drifts from the true power long before step 10k, and the bias term is
  // the one place Adam is sensitive to it.
  double beta1_pow_ IMR_GUARDED_BY(mu_) = 1.0;
  double beta2_pow_ IMR_GUARDED_BY(mu_) = 1.0;
  // m/v state, parameter values and the two tables below are read by the
  // hook without mu_: Step and Finalize write them only outside forward
  // regions, and within one the hook writes only the rows it has claimed.
  std::vector<std::vector<float>> m_, v_;
  // Per row-sparse parameter: the steps it had a gradient for (hist_), and
  // per row how many of those steps have been applied, with kRowBusy set
  // while a forward pass replays the row (row_done_). Empty for dense
  // parameters.
  std::vector<std::vector<StepRecord>> hist_;
  std::vector<std::vector<std::atomic<uint32_t>>> row_done_;
  std::vector<float> zero_row_;  // scratch all-zero gradient row, read-only
  // Step's queued update blocks (reused from step to step) and the floats
  // they cover; used only inside Step.
  std::vector<UpdateBlock> blocks_;
  size_t block_floats_ = 0;
};

}  // namespace imr::nn

#endif  // IMR_NN_OPTIMIZER_H_
