#include "pa_step.h"

#include <algorithm>
#include <utility>

#include "graph/line.h"
#include "graph/proximity_graph.h"
#include "re/trainer.h"
#include "tensor/buffer_pool.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace imr::bench {

namespace {

constexpr int kBatchSize = 32;
constexpr int kMeasuredEpochs = 5;

}  // namespace

std::unique_ptr<PaStepSetup> MakePaStepSetup(double scale) {
  datagen::PresetOptions preset;
  preset.scale = scale;
  preset.seed = 7;
  auto s = std::make_unique<PaStepSetup>(datagen::MakeGdsLike(preset));
  s->bag_options.max_sentence_length = 40;
  s->bag_options.max_position = 20;
  s->bags = re::BagDataset::Build(s->dataset.world.graph,
                                  s->dataset.corpus.train,
                                  s->dataset.corpus.test, s->bag_options);
  graph::ProximityGraph proximity(s->dataset.world.graph.num_entities());
  proximity.AddCorpus(s->dataset.unlabeled.sentences);
  proximity.Finalize(2);
  graph::LineConfig line;
  line.dim = 16;
  line.samples_per_edge = 20;
  line.threads = 1;
  s->embeddings = graph::TrainLine(proximity, line);
  IMR_CHECK(s->bags.AttachMutualRelations(s->embeddings).ok());

  re::PaModelConfig& config = s->config;
  config.num_relations = s->bags.num_relations();
  config.encoder = "pcnn";
  config.aggregation = re::Aggregation::kAttention;
  config.use_mutual_relation = true;
  config.use_entity_type = true;
  config.mutual_relation_dim = s->embeddings.dim();
  config.type_dim = 8;
  config.encoder_config.vocab_size = s->bags.vocabulary().size();
  config.encoder_config.word_dim = 16;
  config.encoder_config.position_dim = 3;
  config.encoder_config.max_position = s->bag_options.max_position;
  config.encoder_config.filters = 32;

  const std::vector<re::Bag>& train = s->bags.train_bags();
  const auto shape = std::find_if(train.begin(), train.end(),
                                  [](const re::Bag& bag) {
                                    return bag.sentences.size() >= 3;
                                  });
  IMR_CHECK(shape != train.end());
  IMR_CHECK_GE(train.size(), static_cast<size_t>(kBatchSize));
  for (size_t i = 0; i < kBatchSize; ++i) {
    re::Bag bag = train[i];
    bag.sentences = shape->sentences;
    bag.head_types = shape->head_types;
    bag.tail_types = shape->tail_types;
    s->same_shape_batch.push_back(std::move(bag));
  }
  return s;
}

int64_t PaStepResult::pooled_growth() const {
  if (pooled_after.empty()) return 0;
  return static_cast<int64_t>(pooled_after.back()) -
         static_cast<int64_t>(pooled_at_warmup);
}

double PaStepResult::misses_per_batch() const {
  return batches > 0 ? static_cast<double>(misses) / batches : 0.0;
}

double PaStepResult::nodes_per_batch() const {
  return batches > 0 ? static_cast<double>(node_acquires) / batches : 0.0;
}

double PaStepResult::buffers_per_batch() const {
  return batches > 0 ? static_cast<double>(buffer_acquires) / batches : 0.0;
}

PaStepResult RunPaStep(const PaStepSetup& setup,
                       const std::vector<re::Bag>& bags, int warmup_epochs,
                       int threads) {
  IMR_CHECK_GE(threads, 1);
  IMR_CHECK_GE(bags.size(), static_cast<size_t>(2 * threads));
  const int saved_threads = util::GlobalThreads();
  util::SetGlobalThreads(threads);
  util::Rng init(3);
  re::PaModel model(setup.config, &init);
  model.SetTraining(true);
  {
    util::Rng rng(1);
    model.BatchLoss({&bags[0], &bags[1]}, &rng).Backward();
    model.ZeroGrad();
  }
  // One chunk's work: two bags' loss, scaled as the trainer scales it,
  // backward into a gradient sink.
  util::GlobalPool().RunOnEachThread([&](int thread) {
    tensor::internal::ScopedGradSink sink;
    util::Rng rng(static_cast<uint64_t>(thread));
    const std::vector<const re::Bag*> pair = {
        &bags[static_cast<size_t>(2 * thread)],
        &bags[static_cast<size_t>(2 * thread + 1)]};
    tensor::Scale(model.BatchLoss(pair, &rng), 2.0f / kBatchSize)
        .Backward();
  });

  re::TrainerConfig config;
  config.epochs = warmup_epochs + kMeasuredEpochs;
  config.batch_size = kBatchSize;
  config.optimizer = "adam";
  config.learning_rate = 0.01f;
  config.threads = threads;
  re::Trainer trainer(&model, config);
  PaStepResult result;
  result.threads = threads;
  const int batches_per_epoch =
      static_cast<int>((bags.size() + kBatchSize - 1) / kBatchSize);
  std::vector<double> epoch_ms;
  trainer.Train(bags, [&](const re::EpochStats& epoch) {
    const tensor::PoolStatsSnapshot pool = tensor::PoolStats();
    if (epoch.epoch + 1 == warmup_epochs) {
      tensor::ResetPoolStats();
      result.pooled_at_warmup = pool.pooled_bytes;
    } else if (epoch.epoch + 1 > warmup_epochs) {
      ++result.epochs;
      result.batches += batches_per_epoch;
      result.misses = pool.total_misses();
      result.acquires = pool.total_hits() + pool.total_misses();
      result.node_acquires = pool.node_hits + pool.node_misses;
      result.buffer_acquires = pool.buffer_hits + pool.buffer_misses;
      result.pooled_after.push_back(pool.pooled_bytes);
      epoch_ms.push_back(epoch.seconds * 1e3);
    }
    return true;
  });
  util::SetGlobalThreads(saved_threads);
  std::sort(epoch_ms.begin(), epoch_ms.end());
  if (!epoch_ms.empty()) result.ms_per_epoch = epoch_ms[epoch_ms.size() / 2];
  return result;
}

}  // namespace imr::bench
