#include "serve_setup.h"

#include <algorithm>

#include "graph/line.h"
#include "graph/proximity_graph.h"
#include "re/trainer.h"
#include "serve/snapshot.h"
#include "util/logging.h"
#include "util/rng.h"

namespace imr::bench {

namespace {

constexpr size_t kMaxUniquePairs = 128;
constexpr size_t kMaxSentencesPerQuery = 4;  // caps bag size for latency

serve::Query BagToQuery(const re::Bag& bag,
                        const std::vector<text::LabeledSentence>& corpus) {
  serve::Query query;
  query.head = bag.head;
  query.tail = bag.tail;
  query.head_types = bag.head_types;
  query.tail_types = bag.tail_types;
  for (const text::LabeledSentence& labeled : corpus) {
    if (labeled.sentence.head_entity == bag.head &&
        labeled.sentence.tail_entity == bag.tail) {
      query.sentences.push_back(labeled.sentence);
      if (query.sentences.size() >= kMaxSentencesPerQuery) break;
    }
  }
  return query;
}

}  // namespace

util::Status ServeSetup::Save(const std::string& path) const {
  return serve::SaveSnapshot(*model, bags.vocabulary(), embeddings,
                             dataset.world.graph, bag_options, epochs,
                             "bench_serve", path);
}

std::unique_ptr<ServeSetup> MakeServeSetup(bool smoke) {
  datagen::PresetOptions preset;
  preset.scale = smoke ? 0.3 : 0.5;
  preset.seed = 13;
  auto s = std::make_unique<ServeSetup>(datagen::MakeNytLike(preset));
  s->bag_options.max_sentence_length = 40;
  s->bag_options.max_position = 20;
  s->bags = re::BagDataset::Build(s->dataset.world.graph,
                                  s->dataset.corpus.train,
                                  s->dataset.corpus.test, s->bag_options);

  graph::ProximityGraph proximity(s->dataset.world.graph.num_entities());
  proximity.AddCorpus(s->dataset.unlabeled.sentences);
  proximity.Finalize(2);
  graph::LineConfig line;
  line.dim = 32;
  line.samples_per_edge = 100;
  line.threads = 1;
  s->embeddings = graph::TrainLine(proximity, line);
  IMR_CHECK(s->bags.AttachMutualRelations(s->embeddings).ok());

  re::PaModelConfig config;
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
  util::Rng rng(preset.seed);
  s->model = std::make_unique<re::PaModel>(config, &rng);

  s->epochs = smoke ? 2 : 6;
  re::TrainerConfig trainer_config;
  trainer_config.epochs = s->epochs;
  trainer_config.batch_size = 32;
  trainer_config.optimizer = "adam";
  trainer_config.learning_rate = 0.01f;
  re::Trainer trainer(s->model.get(), trainer_config);
  trainer.Train(s->bags.train_bags());

  for (const re::Bag& bag : s->bags.test_bags()) {
    serve::Query query = BagToQuery(bag, s->dataset.corpus.test);
    if (!query.sentences.empty()) s->unique_queries.push_back(std::move(query));
    if (s->unique_queries.size() >= kMaxUniquePairs) break;
  }
  IMR_CHECK(!s->unique_queries.empty());
  const size_t pairs = s->unique_queries.size();
  const size_t replay_size = smoke ? 256 : 768;
  util::Rng replay_rng(99);
  while (s->requests.size() < replay_size) {
    const size_t k = static_cast<size_t>(static_cast<double>(pairs) *
                                         replay_rng.Uniform() *
                                         replay_rng.Uniform());
    s->requests.push_back(s->unique_queries[std::min(k, pairs - 1)]);
  }
  return s;
}

}  // namespace imr::bench
