#include "bench_common.h"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "re/cnn_rl.h"
#include "re/mimlre.h"
#include "re/mintz.h"
#include "re/multir.h"
#include "re/pa_model.h"
#include "re/trainer.h"
#include "tensor/simd/dispatch.h"
#include "util/logging.h"
#include "util/string_util.h"
#include "util/thread_pool.h"
#include "util/tsv_writer.h"

namespace imr::bench {

double BenchContext::scale(const std::string& preset) const {
  return preset == "nyt" ? scale_nyt : scale_gds;
}

int BenchContext::epochs(const std::string& preset) const {
  return preset == "nyt" ? epochs_nyt : epochs_gds;
}

void RegisterCommonFlags(util::FlagParser* flags) {
  flags->AddString("results_dir", "bench_results",
                   "directory for TSV traces and the score cache");
  flags->AddDouble("scale_gds", 2.0, "GDS-preset size multiplier");
  flags->AddDouble("scale_nyt", 1.0, "NYT-preset size multiplier");
  flags->AddInt("epochs_gds", 60, "training epochs on the GDS preset");
  flags->AddInt("epochs_nyt", 40, "training epochs on the NYT preset");
  flags->AddInt("batch_size", 32, "SGD batch size");
  flags->AddBool("paper_dims", false,
                 "use the full Table III dimensions (slower)");
  flags->AddBool("no_cache", false, "ignore and overwrite cached scores");
  flags->AddInt("seed", 7, "master seed");
  flags->AddInt("imr_threads", 0,
                "worker threads for kernels/graph/trainer "
                "(0 = hardware concurrency, 1 = sequential bit-exact)");
  flags->AddString("imr_kernel_backend", "",
                   "pin the eval kernel backend: scalar|sse2|avx2|neon "
                   "(empty or auto = fastest the host supports)");
}

BenchContext ContextFromFlags(const util::FlagParser& flags) {
  BenchContext context;
  context.results_dir = flags.GetString("results_dir");
  context.scale_gds = flags.GetDouble("scale_gds");
  context.scale_nyt = flags.GetDouble("scale_nyt");
  context.epochs_gds = static_cast<int>(flags.GetInt("epochs_gds"));
  context.epochs_nyt = static_cast<int>(flags.GetInt("epochs_nyt"));
  context.batch_size = static_cast<int>(flags.GetInt("batch_size"));
  context.paper_dims = flags.GetBool("paper_dims");
  context.no_cache = flags.GetBool("no_cache");
  context.seed = static_cast<uint64_t>(flags.GetInt("seed"));
  util::SetGlobalThreads(static_cast<int>(flags.GetInt("imr_threads")));
  const std::string backend = flags.GetString("imr_kernel_backend");
  if (!backend.empty()) {
    const util::Status status = tensor::simd::SetBackendByName(backend);
    if (!status.ok()) {
      IMR_LOG(Error) << "--imr_kernel_backend: " << status.ToString();
      std::abort();
    }
  }
  return context;
}

namespace {

std::string CacheTag(const std::string& preset, const BenchContext& context) {
  return util::StrFormat("%s_s%.2f_e%d_b%d%s_seed%llu", preset.c_str(),
                         context.scale(preset), context.epochs(preset),
                         context.batch_size,
                         context.paper_dims ? "_paper" : "",
                         static_cast<unsigned long long>(context.seed));
}

re::BagDatasetOptions BagOptions(const BenchContext& context) {
  re::BagDatasetOptions options;
  if (context.paper_dims) {
    options.max_sentence_length = 120;
    options.max_position = 60;
  } else {
    options.max_sentence_length = 40;
    options.max_position = 20;
  }
  return options;
}

}  // namespace

PreparedData PrepareData(const std::string& preset,
                         const BenchContext& context) {
  PreparedData data;
  data.preset = preset;
  datagen::PresetOptions options;
  options.scale = context.scale(preset);
  options.seed = context.seed;
  data.dataset = std::make_unique<datagen::SyntheticDataset>(
      datagen::MakeDataset(preset, options));

  data.bags = std::make_unique<re::BagDataset>(re::BagDataset::Build(
      data.dataset->world.graph, data.dataset->corpus.train,
      data.dataset->corpus.test, BagOptions(context)));

  data.proximity = std::make_unique<graph::ProximityGraph>(
      data.dataset->world.graph.num_entities());
  data.proximity->AddCorpus(data.dataset->unlabeled.sentences);
  data.proximity->Finalize(/*min_cooccurrence=*/2);

  const std::string embedding_path = context.results_dir + "/cache/" +
                                     CacheTag(preset, context) +
                                     ".embeddings.bin";
  bool loaded = false;
  if (!context.no_cache) {
    auto cached = graph::EmbeddingStore::Load(embedding_path);
    if (cached.ok() &&
        cached->num_vertices() == data.proximity->num_vertices()) {
      data.embeddings = std::move(cached).value();
      loaded = true;
    }
  }
  if (!loaded) {
    graph::LineConfig line;
    line.dim = 128;
    line.samples_per_edge = 300;
    line.seed = context.seed + 1000;
    data.embeddings = graph::TrainLine(*data.proximity, line);
    (void)util::MakeDirectories(context.results_dir + "/cache");
    util::Status saved = data.embeddings.Save(embedding_path);
    if (!saved.ok()) {
      IMR_LOG(Warning) << "cannot cache embeddings: " << saved.ToString();
    }
  }
  util::Status attached = data.bags->AttachMutualRelations(data.embeddings);
  IMR_CHECK(attached.ok());
  return data;
}

std::vector<std::string> AllModelNames() {
  return {"Mintz",   "MultiR",     "MIMLRE",     "PCNN",
          "PCNN+ATT", "CNN+ATT",   "GRU+ATT",    "BGWA",
          "CNN+RL",  "PA-T",       "PA-MR",      "PA-TMR",
          "CNN+ATT+TMR", "GRU+ATT+TMR", "PCNN+TMR", "PCNN+ATT+TMR"};
}

namespace {

struct NeuralSpec {
  std::string encoder;
  re::Aggregation aggregation = re::Aggregation::kAttention;
  bool use_mr = false;
  bool use_type = false;
};

// Returns false for the non-neural / RL baselines that have their own path.
bool NeuralSpecFor(const std::string& name, NeuralSpec* spec) {
  if (name == "PCNN") {
    *spec = {"pcnn", re::Aggregation::kAverage, false, false};
  } else if (name == "PCNN+ATT") {
    *spec = {"pcnn", re::Aggregation::kAttention, false, false};
  } else if (name == "CNN+ATT") {
    *spec = {"cnn", re::Aggregation::kAttention, false, false};
  } else if (name == "GRU+ATT") {
    *spec = {"gru", re::Aggregation::kAttention, false, false};
  } else if (name == "BGWA") {
    *spec = {"bgwa", re::Aggregation::kAttention, false, false};
  } else if (name == "PA-T") {
    *spec = {"pcnn", re::Aggregation::kAttention, false, true};
  } else if (name == "PA-MR") {
    *spec = {"pcnn", re::Aggregation::kAttention, true, false};
  } else if (name == "PA-TMR" || name == "PCNN+ATT+TMR") {
    *spec = {"pcnn", re::Aggregation::kAttention, true, true};
  } else if (name == "CNN+ATT+TMR") {
    *spec = {"cnn", re::Aggregation::kAttention, true, true};
  } else if (name == "GRU+ATT+TMR") {
    *spec = {"gru", re::Aggregation::kAttention, true, true};
  } else if (name == "PCNN+TMR") {
    *spec = {"pcnn", re::Aggregation::kAverage, true, true};
  } else {
    return false;
  }
  return true;
}

re::PaModelConfig ModelConfig(const NeuralSpec& spec,
                              const PreparedData& data,
                              const BenchContext& context) {
  re::PaModelConfig config;
  config.num_relations = data.bags->num_relations();
  config.encoder = spec.encoder;
  config.aggregation = spec.aggregation;
  config.use_mutual_relation = spec.use_mr;
  config.use_entity_type = spec.use_type;
  config.mutual_relation_dim = data.embeddings.dim();
  config.encoder_config.vocab_size = data.bags->vocabulary().size();
  if (context.paper_dims) {
    config.encoder_config.word_dim = 50;
    config.encoder_config.position_dim = 5;
    config.encoder_config.max_position = 60;
    config.encoder_config.filters = 230;
    config.type_dim = 20;
  } else {
    config.encoder_config.word_dim = 16;
    config.encoder_config.position_dim = 3;
    config.encoder_config.max_position = 20;
    config.encoder_config.filters = 32;
    config.type_dim = 8;
  }
  config.encoder_config.dropout = 0.5f;
  // Word dropout counters bag memorisation on the generator-scaled corpora
  // (see DESIGN.md, "optimisation recipe").
  config.encoder_config.word_dropout = 0.25f;
  return config;
}

std::string ScoresPath(const std::string& model_name,
                       const PreparedData& data,
                       const BenchContext& context) {
  std::string sanitized = model_name;
  for (char& c : sanitized) {
    if (c == '+') c = 'p';
  }
  return context.results_dir + "/cache/" + CacheTag(data.preset, context) +
         "." + sanitized + ".scores.tsv";
}

bool LoadScores(const std::string& path, size_t num_bags, int num_relations,
                std::vector<std::vector<float>>* scores) {
  std::ifstream in(path);
  if (!in.is_open()) return false;
  scores->clear();
  std::string line;
  while (std::getline(in, line)) {
    std::vector<float> row;
    std::istringstream ss(line);
    float value;
    while (ss >> value) row.push_back(value);
    if (row.size() != static_cast<size_t>(num_relations)) return false;
    scores->push_back(std::move(row));
  }
  return scores->size() == num_bags;
}

void SaveScores(const std::string& path,
                const std::vector<std::vector<float>>& scores) {
  const size_t slash = path.find_last_of('/');
  if (slash != std::string::npos)
    (void)util::MakeDirectories(path.substr(0, slash));
  std::ofstream out(path);
  if (!out.is_open()) {
    IMR_LOG(Warning) << "cannot cache scores to " << path;
    return;
  }
  for (const auto& row : scores) {
    for (size_t i = 0; i < row.size(); ++i) {
      if (i > 0) out << ' ';
      out << row[i];
    }
    out << '\n';
  }
}

template <typename ScoreFn>
std::vector<std::vector<float>> ScoreAll(const PreparedData& data,
                                         const ScoreFn& score_one) {
  std::vector<std::vector<float>> scores;
  scores.reserve(data.bags->test_bags().size());
  for (const re::Bag& bag : data.bags->test_bags())
    scores.push_back(score_one(bag));
  return scores;
}

std::vector<std::vector<float>> ComputeScores(const std::string& model_name,
                                              const PreparedData& data,
                                              const BenchContext& context) {
  const int num_relations = data.bags->num_relations();
  util::Rng rng(context.seed + std::hash<std::string>{}(model_name));

  if (model_name == "Mintz") {
    re::MintzConfig config;
    re::MintzModel model(num_relations, config);
    model.Train(data.bags->train_bags());
    return ScoreAll(data,
                    [&](const re::Bag& bag) { return model.Predict(bag); });
  }
  if (model_name == "MultiR") {
    re::MultirConfig config;
    re::MultirModel model(num_relations, config);
    model.Train(data.bags->train_bags());
    return ScoreAll(data,
                    [&](const re::Bag& bag) { return model.Predict(bag); });
  }
  if (model_name == "MIMLRE") {
    re::MimlreConfig config;
    re::MimlreModel model(num_relations, config);
    model.Train(data.bags->train_bags());
    return ScoreAll(data,
                    [&](const re::Bag& bag) { return model.Predict(bag); });
  }
  if (model_name == "CNN+RL") {
    NeuralSpec spec{"cnn", re::Aggregation::kAverage, false, false};
    re::CnnRlConfig rl_config;
    // The classifier needs the full epoch budget to learn the text signal
    // before the selector episodes refine it.
    rl_config.pretrain_epochs = context.epochs(data.preset);
    rl_config.joint_epochs = std::max(1, context.epochs(data.preset) / 4);
    rl_config.batch_size = context.batch_size;
    rl_config.seed = context.seed + 31;
    re::CnnRlModel model(ModelConfig(spec, data, context), rl_config, &rng);
    model.Train(data.bags->train_bags());
    return ScoreAll(data,
                    [&](const re::Bag& bag) { return model.Predict(bag); });
  }

  NeuralSpec spec;
  IMR_CHECK(NeuralSpecFor(model_name, &spec));
  re::PaModel model(ModelConfig(spec, data, context), &rng);
  re::TrainerConfig trainer_config;
  trainer_config.epochs = context.epochs(data.preset);
  trainer_config.batch_size = context.batch_size;
  // Adam converges an order of magnitude faster than the paper's SGD on
  // the generator-scaled corpora; the paper schedule is available through
  // re::TrainerConfig for anyone running at full scale.
  trainer_config.optimizer = "adam";
  trainer_config.learning_rate = 0.01f;
  trainer_config.seed = context.seed + 17;
  re::Trainer trainer(&model, trainer_config);
  trainer.Train(data.bags->train_bags());
  model.SetTraining(false);
  return ScoreAll(data, [&](const re::Bag& bag) {
    return model.Predict(bag, &rng);
  });
}

}  // namespace

std::vector<std::vector<float>> GetOrComputeScores(
    const std::string& model_name, const PreparedData& data,
    const BenchContext& context) {
  const std::string path = ScoresPath(model_name, data, context);
  std::vector<std::vector<float>> scores;
  if (!context.no_cache &&
      LoadScores(path, data.bags->test_bags().size(),
                 data.bags->num_relations(), &scores)) {
    std::fprintf(stderr, "[bench] %-14s %s: cached\n", model_name.c_str(),
                 data.preset.c_str());
    return scores;
  }
  std::fprintf(stderr, "[bench] %-14s %s: training...\n", model_name.c_str(),
               data.preset.c_str());
  scores = ComputeScores(model_name, data, context);
  SaveScores(path, scores);
  return scores;
}

eval::HeldOutResult ResultFromScores(
    const std::vector<std::vector<float>>& scores,
    const PreparedData& data) {
  size_t index = 0;
  return eval::Evaluate(
      [&scores, &index](const re::Bag&) { return scores[index++]; },
      data.bags->test_bags(), data.bags->num_relations());
}

void WriteTsv(const BenchContext& context, const std::string& name,
              const std::vector<std::vector<std::string>>& rows) {
  util::TsvWriter writer(context.results_dir + "/" + name + ".tsv");
  for (const auto& row : rows) writer.WriteRow(row);
  util::Status status = writer.Close();
  if (!status.ok()) {
    IMR_LOG(Warning) << "failed writing " << name << ": "
                     << status.ToString();
  }
}

int BenchMain(int argc, char** argv, int (*run)(const BenchContext&)) {
  util::SetLogLevel(util::LogLevel::kWarning);
  util::FlagParser flags;
  RegisterCommonFlags(&flags);
  util::Status status = flags.Parse(argc, argv);
  if (!status.ok()) {
    if (status.code() == util::StatusCode::kNotFound) return 0;  // --help
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return 1;
  }
  return run(ContextFromFlags(flags));
}

}  // namespace imr::bench
