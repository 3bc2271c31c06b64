#include "re/trainer.h"

#include <algorithm>
#include <chrono>
#include <memory>
#include <span>

#include "nn/optimizer.h"
#include "tensor/ops.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace imr::re {

namespace {
// Each batch splits into at most this many data-parallel chunks. The chunk
// count depends only on the batch size — never on the worker count — so
// every threads > 1 run reproduces the same floats.
constexpr int64_t kTrainerChunks = 16;
}  // namespace

Trainer::Trainer(PaModel* model, const TrainerConfig& config)
    : model_(model), config_(config), rng_(config.seed) {
  IMR_CHECK(model != nullptr);
}

std::vector<EpochStats> Trainer::Train(
    const std::vector<Bag>& train_bags,
    const std::function<bool(const EpochStats&)>& on_epoch) {
  IMR_CHECK(!train_bags.empty());
  std::unique_ptr<nn::Optimizer> optimizer_holder;
  if (config_.optimizer == "adam") {
    optimizer_holder =
        std::make_unique<nn::Adam>(model_, config_.learning_rate);
  } else if (config_.optimizer == "adagrad") {
    optimizer_holder =
        std::make_unique<nn::Adagrad>(model_, config_.learning_rate);
  } else {
    IMR_CHECK(config_.optimizer == "sgd");
    optimizer_holder = std::make_unique<nn::Sgd>(
        model_, config_.learning_rate, config_.weight_decay,
        config_.clip_norm);
  }
  nn::Optimizer& optimizer = *optimizer_holder;
  std::vector<const Bag*> order;
  order.reserve(train_bags.size());
  for (const Bag& bag : train_bags) order.push_back(&bag);

  // Word-embedding tables targeted by adversarial perturbation.
  std::vector<tensor::Tensor> adversarial_targets;
  if (config_.adversarial_epsilon > 0.0f) {
    for (nn::NamedParameter& p : model_->Parameters()) {
      if (p.name.size() >= 10 &&
          p.name.compare(p.name.size() - 10, 10, "word.table") == 0) {
        adversarial_targets.push_back(p.tensor);
      }
    }
  }

  std::vector<EpochStats> history;
  for (int epoch = 0; epoch < config_.epochs; ++epoch) {
    const auto start = std::chrono::steady_clock::now();
    model_->SetTraining(true);
    rng_.Shuffle(&order);
    double loss_sum = 0.0;
    int batches = 0;
    // Reused across batches: assign() reuses capacity, so the steady-state
    // epoch loop does not allocate for batch bookkeeping.
    std::vector<const Bag*> batch;
    batch.reserve(static_cast<size_t>(config_.batch_size));
    for (size_t begin = 0; begin < order.size();
         begin += static_cast<size_t>(config_.batch_size)) {
      const size_t end = std::min(
          order.size(), begin + static_cast<size_t>(config_.batch_size));
      batch.assign(order.begin() + static_cast<long>(begin),
                   order.begin() + static_cast<long>(end));
      model_->ZeroGrad();
      const int threads =
          config_.threads > 0 ? config_.threads : util::GlobalThreads();
      if (threads > 1 && batch.size() > 1) {
        loss_sum += ParallelBatchStep(batch, &adversarial_targets);
      } else {
        tensor::Tensor loss = model_->BatchLoss(batch, &rng_);
        loss.Backward();
        if (!adversarial_targets.empty()) {
          // FGSM: perturb the embedding tables along the loss gradient,
          // accumulate the adversarial gradients, then restore the tables
          // so the optimizer steps from the clean point.
          PerturbAdversarial(&adversarial_targets);
          model_->BatchLoss(batch, &rng_).Backward();
          RestoreAdversarial(&adversarial_targets);
        }
        loss_sum += loss.item();
      }
      optimizer.Step();
      ++batches;
    }
    optimizer.set_learning_rate(optimizer.learning_rate() *
                                config_.lr_decay);

    EpochStats stats;
    stats.epoch = epoch;
    stats.mean_loss = batches > 0 ? loss_sum / batches : 0.0;
    stats.seconds = std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - start)
                        .count();
    if (config_.verbose) {
      IMR_LOG(Info) << "epoch " << epoch << " loss=" << stats.mean_loss
                    << " (" << stats.seconds << "s)";
    }
    history.push_back(stats);
    if (on_epoch && !on_epoch(stats)) break;
  }
  // The chunk sinks' gradient buffers are not needed past this run.
  grad_sinks_.clear();
  // Bring lazily-updated optimizer state (Adam's deferred row decay for
  // row-sparse embedding tables) fully up to date before the model is read.
  optimizer.Finalize();
  model_->SetTraining(false);
  return history;
}

double Trainer::ParallelBatchStep(
    const std::vector<const Bag*>& batch,
    std::vector<tensor::Tensor>* adversarial_targets) {
  const int64_t n = static_cast<int64_t>(batch.size());
  const int64_t grain = (n + kTrainerChunks - 1) / kTrainerChunks;
  const int64_t chunks = util::ThreadPool::NumChunks(0, n, grain);

  // One data-parallel forward/backward over the batch. Chunk seeds are
  // drawn sequentially from the trainer rng up front (so its stream
  // advances identically at any worker count); each chunk builds its own
  // graph with a private rng (dropout) and its chunk's gradient sink
  // capturing its leaf gradients. One merge then adds the sinks into the
  // shared grads, each element in ascending chunk order. Each chunk loss is
  // scaled by chunk_size / batch_size before backward, so the merged
  // gradient equals the gradient of the global batch mean. Returns the
  // batch mean loss.
  //
  // The sinks live for the whole Train call (grad_sinks_), one per chunk
  // index, and are reset between passes: a chunk's gradient buffers are
  // reused batch after batch on whichever thread runs it, instead of being
  // acquired on a worker and released on this thread every batch.
  if (grad_sinks_.size() < static_cast<size_t>(chunks)) {
    grad_sinks_.resize(static_cast<size_t>(chunks));
  }
  auto run_pass = [&]() -> double {
    std::vector<uint64_t> seeds(static_cast<size_t>(chunks));
    for (uint64_t& s : seeds) s = rng_.Next();
    std::vector<double> losses(static_cast<size_t>(chunks), 0.0);
    util::GlobalPool().ParallelForChunks(
        0, n, grain, [&](int64_t lo, int64_t hi, int64_t chunk) {
          const auto c = static_cast<size_t>(chunk);
          util::Rng chunk_rng(seeds[c]);
          std::unique_ptr<tensor::internal::ScopedGradSink>& sink =
              grad_sinks_[c];
          if (sink == nullptr) {
            sink = std::make_unique<tensor::internal::ScopedGradSink>();
          } else {
            sink->Activate();
          }
          struct SinkGuard {
            tensor::internal::ScopedGradSink* sink;
            ~SinkGuard() { sink->Deactivate(); }
          } guard{sink.get()};
          std::vector<const Bag*> chunk_bags(
              batch.begin() + static_cast<long>(lo),
              batch.begin() + static_cast<long>(hi));
          tensor::Tensor loss = model_->BatchLoss(chunk_bags, &chunk_rng);
          const float weight =
              static_cast<float>(hi - lo) / static_cast<float>(n);
          tensor::Scale(loss, weight).Backward();
          losses[c] = static_cast<double>(loss.item()) *
                      static_cast<double>(hi - lo);
        });
    const std::span<const std::unique_ptr<tensor::internal::ScopedGradSink>>
        pass_sinks(grad_sinks_.data(), static_cast<size_t>(chunks));
    tensor::internal::ScopedGradSink::MergeIntoShared(pass_sinks);
    for (const auto& sink : pass_sinks) sink->Reset();
    double sum = 0.0;
    for (double l : losses) sum += l;
    return sum / static_cast<double>(n);
  };

  const double mean_loss = run_pass();
  if (!adversarial_targets->empty()) {
    // FGSM on the merged full-batch gradients, mirroring the sequential
    // path: perturb, run a second (parallel) pass that accumulates the
    // adversarial gradients on top, then restore the clean tables.
    PerturbAdversarial(adversarial_targets);
    run_pass();
    RestoreAdversarial(adversarial_targets);
  }
  return mean_loss;
}

void Trainer::PerturbAdversarial(std::vector<tensor::Tensor>* targets) {
  fgsm_saved_.resize(targets->size());
  for (size_t t = 0; t < targets->size(); ++t) {
    tensor::Tensor& table = (*targets)[t];
    FgsmSnapshot& snap = fgsm_saved_[t];
    const auto& grad = table.grad();
    if (grad.empty()) {
      snap.sparse = false;
      snap.rows.clear();
      snap.values.clear();
      continue;
    }
    auto& values = table.mutable_data();
    if (table.grad_is_row_sparse()) {
      // Snapshot and perturb only the touched rows. Rows with zero
      // gradient would receive sign(0) * eps == +0.0f, and the
      // adversarial pass gathers the same batch, so untouched rows are
      // never read while perturbed: skipping them is exact.
      const auto& rows = table.grad_touched_rows();
      const size_t cols = static_cast<size_t>(table.cols());
      snap.sparse = true;
      snap.rows.assign(rows.begin(), rows.end());
      snap.values.resize(rows.size() * cols);
      float* dst = snap.values.data();
      for (int r : rows) {
        const size_t off = static_cast<size_t>(r) * cols;
        std::copy_n(values.data() + off, cols, dst);
        dst += cols;
        for (size_t c = 0; c < cols; ++c) {
          const float gv = grad[off + c];
          const float sign = gv > 0 ? 1.0f : (gv < 0 ? -1.0f : 0.0f);
          values[off + c] += config_.adversarial_epsilon * sign;
        }
      }
      continue;
    }
    snap.sparse = false;
    snap.rows.clear();
    snap.values.assign(values.begin(), values.end());
    for (size_t i = 0; i < values.size(); ++i) {
      const float sign = grad[i] > 0 ? 1.0f : (grad[i] < 0 ? -1.0f : 0.0f);
      values[i] += config_.adversarial_epsilon * sign;
    }
  }
}

void Trainer::RestoreAdversarial(std::vector<tensor::Tensor>* targets) {
  for (size_t t = 0; t < targets->size(); ++t) {
    const FgsmSnapshot& snap = fgsm_saved_[t];
    if (snap.values.empty()) continue;
    // Copy back in place: keeps the parameter's (pooled) storage stable
    // instead of swapping in the snapshot's allocation.
    auto& values = (*targets)[t].mutable_data();
    if (snap.sparse) {
      const size_t cols = static_cast<size_t>((*targets)[t].cols());
      const float* src = snap.values.data();
      for (int r : snap.rows) {
        std::copy_n(src, cols, values.data() + static_cast<size_t>(r) * cols);
        src += cols;
      }
    } else {
      std::copy(snap.values.begin(), snap.values.end(), values.begin());
    }
  }
}

eval::HeldOutResult Trainer::Evaluate(const std::vector<Bag>& test_bags) {
  model_->SetTraining(false);
  util::Rng* rng = &rng_;
  PaModel* model = model_;
  return eval::Evaluate(
      [model, rng](const Bag& bag) { return model->Predict(bag, rng); },
      test_bags, model_->num_relations());
}

eval::HeldOutResult TrainAndEvaluate(PaModel* model,
                                     const std::vector<Bag>& train_bags,
                                     const std::vector<Bag>& test_bags,
                                     const TrainerConfig& config) {
  Trainer trainer(model, config);
  trainer.Train(train_bags);
  return trainer.Evaluate(test_bags);
}

}  // namespace imr::re
