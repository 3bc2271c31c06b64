// imr_serve — the serving side of the library: package a trained pipeline
// into a single snapshot file, then answer relation queries from it in a
// fresh process with no training machinery loaded.
//
//   imr_serve train-demo --workdir DIR [--preset gds --scale 0.6
//                         --epochs 12 --seed 7]
//       synthesizes a corpus, trains PA-TMR end to end, writes
//       DIR/model.imrs (the snapshot) and DIR/queries.tsv (sample queries
//       drawn from the held-out split).
//
//   imr_serve query --workdir DIR [--queries FILE.tsv] [--top_k 3]
//                   [--replicas 1] [--workers 1] [--cache_shards 8]
//                   [--cache 4096]
//       loads DIR/model.imrs into a ServeRouter, answers every query in the
//       TSV as one batch, prints the top-k relations per entity pair and
//       the router's latency counters.
//
//   imr_serve serve --workdir DIR [--replicas 1] [--workers 1]
//                   [--cache_shards 8] [--cache 4096] [--max_queue 1024]
//                   [--deadline_us 0] [--watch_ms 0]
//       interactive serving loop over a sharded ServeRouter. Reads
//       commands from stdin, one per line:
//         <query TSV line>        answer one query (format below)
//         reload <snapshot.imrs>  hot-swap to a new snapshot generation
//         reload-delta <f.imrd>   apply a row-sparse delta generation
//         stats                   print latency/cache/admission counters
//         quit                    exit
//       --watch_ms N > 0 additionally polls DIR/model.imrs every N ms and
//       hot-swaps automatically when the file changes (SnapshotWatcher);
//       sibling *.imrd delta files are applied in base-hash chain order.
//
// Query TSV format (one sentence per line; consecutive lines with the same
// entity pair form one bag):
//   head_name <TAB> tail_name <TAB> head_index <TAB> tail_index <TAB> tokens
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "imr.h"
#include "util/string_util.h"

using namespace imr;  // example code; library code never does this

namespace {

constexpr const char* kUsage =
    "usage: imr_serve <train-demo|query|serve> [flags]\n"
    "  train-demo --workdir DIR [--preset nyt|gds] [--scale S]\n"
    "             [--epochs N] [--seed S]\n"
    "  query      --workdir DIR [--queries FILE.tsv] [--top_k K]\n"
    "             [--replicas R] [--workers W] [--cache_shards S]\n"
    "             [--cache C]\n"
    "  serve      --workdir DIR [--replicas R] [--workers W]\n"
    "             [--cache_shards S] [--cache C] [--max_queue Q]\n"
    "             [--deadline_us D] [--watch_ms N]\n";

int Fail(const util::Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

re::BagDatasetOptions DemoBagOptions() {
  re::BagDatasetOptions options;
  options.max_sentence_length = 40;
  options.max_position = 20;
  return options;
}

int TrainDemo(const util::FlagParser& flags) {
  const std::string dir = flags.GetString("workdir");
  auto made = util::MakeDirectories(dir);
  if (!made.ok()) return Fail(made);

  datagen::PresetOptions preset_options;
  preset_options.scale = flags.GetDouble("scale");
  preset_options.seed = static_cast<uint64_t>(flags.GetInt("seed"));
  datagen::SyntheticDataset dataset =
      datagen::MakeDataset(flags.GetString("preset"), preset_options);

  const re::BagDatasetOptions bag_options = DemoBagOptions();
  re::BagDataset bags = re::BagDataset::Build(
      dataset.world.graph, dataset.corpus.train, dataset.corpus.test,
      bag_options);

  graph::ProximityGraph proximity(dataset.world.graph.num_entities());
  proximity.AddCorpus(dataset.unlabeled.sentences);
  proximity.Finalize(2);
  graph::LineConfig line_config;
  line_config.dim = 32;
  line_config.samples_per_edge = 150;
  graph::EmbeddingStore embeddings = graph::TrainLine(proximity, line_config);
  auto attached = bags.AttachMutualRelations(embeddings);
  if (!attached.ok()) return Fail(attached);

  re::PaModelConfig config;
  config.num_relations = bags.num_relations();
  config.encoder = "pcnn";
  config.aggregation = re::Aggregation::kAttention;
  config.use_mutual_relation = true;
  config.use_entity_type = true;
  config.mutual_relation_dim = embeddings.dim();
  config.type_dim = 8;
  config.encoder_config.vocab_size = bags.vocabulary().size();
  config.encoder_config.word_dim = 16;
  config.encoder_config.position_dim = 3;
  config.encoder_config.max_position = bag_options.max_position;
  config.encoder_config.filters = 32;
  config.encoder_config.word_dropout = 0.25f;

  util::Rng rng(preset_options.seed);
  re::PaModel model(config, &rng);
  re::TrainerConfig trainer_config;
  trainer_config.epochs = static_cast<int>(flags.GetInt("epochs"));
  trainer_config.batch_size = 32;
  trainer_config.optimizer = "adam";
  trainer_config.learning_rate = 0.01f;
  re::Trainer trainer(&model, trainer_config);
  trainer.Train(bags.train_bags());

  const std::string snapshot_path = dir + "/model.imrs";
  auto saved = serve::SaveSnapshot(
      model, bags.vocabulary(), embeddings, dataset.world.graph, bag_options,
      static_cast<uint64_t>(trainer_config.epochs),
      "imr_serve train-demo (" + flags.GetString("preset") + ")",
      snapshot_path);
  if (!saved.ok()) return Fail(saved);

  // Sample queries: held-out sentences, one line each; the query command
  // groups consecutive lines with the same entity pair into one bag.
  const std::string queries_path = dir + "/queries.tsv";
  std::ofstream queries(queries_path);
  if (!queries) return Fail(util::IoError("cannot write " + queries_path));
  size_t written = 0;
  for (const text::LabeledSentence& labeled : dataset.corpus.test) {
    if (written >= 200) break;
    const text::Sentence& sentence = labeled.sentence;
    queries << dataset.world.graph.entity(sentence.head_entity).name << '\t'
            << dataset.world.graph.entity(sentence.tail_entity).name << '\t'
            << sentence.head_index << '\t' << sentence.tail_index << '\t'
            << util::Join(sentence.tokens, " ") << '\n';
    ++written;
  }
  queries.close();

  std::printf("trained %d-relation PA-TMR for %d epochs\n",
              config.num_relations, trainer_config.epochs);
  std::printf("snapshot: %s\nqueries:  %s (%zu sentences)\n",
              snapshot_path.c_str(), queries_path.c_str(), written);
  return 0;
}

struct QueryLine {
  std::string head;
  std::string tail;
  text::Sentence sentence;
};

util::StatusOr<std::vector<QueryLine>> ReadQueryFile(
    const std::string& path) {
  std::ifstream in(path);
  if (!in) return util::IoError("cannot open query file " + path);
  std::vector<QueryLine> lines;
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty()) continue;
    std::vector<std::string> fields = util::Split(line, '\t');
    if (fields.size() != 5) {
      return util::InvalidArgument(util::StrFormat(
          "%s:%d: expected 5 tab-separated fields, got %zu", path.c_str(),
          lineno, fields.size()));
    }
    QueryLine parsed;
    parsed.head = fields[0];
    parsed.tail = fields[1];
    parsed.sentence.head_index = std::atoi(fields[2].c_str());
    parsed.sentence.tail_index = std::atoi(fields[3].c_str());
    parsed.sentence.tokens = util::SplitWhitespace(fields[4]);
    lines.push_back(std::move(parsed));
  }
  return lines;
}

// Counter dump shared by `query` and `serve`: latency percentiles,
// per-shard cache traffic, and admission counters.
void PrintStats(const serve::EngineStats& stats) {
  std::printf(
      "gen=%llu requests=%llu; mr-cache %llu hit / %llu miss\n"
      "latency us: mean=%.0f p50=%.0f p99=%.0f p999=%.0f max=%.0f; "
      "qps=%.0f\n"
      "admission: queue depth=%llu peak=%llu admitted=%llu rejected=%llu "
      "shed=%llu\n",
      static_cast<unsigned long long>(stats.generation),
      static_cast<unsigned long long>(stats.requests),
      static_cast<unsigned long long>(stats.mr_cache_hits),
      static_cast<unsigned long long>(stats.mr_cache_misses),
      stats.mean_latency_us, stats.p50_latency_us, stats.p99_latency_us,
      stats.p999_latency_us, stats.max_latency_us, stats.qps,
      static_cast<unsigned long long>(stats.queue_depth),
      static_cast<unsigned long long>(stats.queue_peak),
      static_cast<unsigned long long>(stats.admitted),
      static_cast<unsigned long long>(stats.rejected_queue_full),
      static_cast<unsigned long long>(stats.shed_deadline));
  std::printf("cache shards:");
  for (size_t s = 0; s < stats.cache_shards.size(); ++s) {
    std::printf(" s%zu=%llu/%llu", s,
                static_cast<unsigned long long>(stats.cache_shards[s].hits),
                static_cast<unsigned long long>(stats.cache_shards[s].misses));
  }
  std::printf("  (hits/misses)\n");
}

// Router shape and engine options shared by `query` and `serve`.
serve::RouterOptions RouterOptionsFromFlags(const util::FlagParser& flags) {
  serve::RouterOptions options;
  options.replicas = static_cast<int>(flags.GetInt("replicas"));
  options.workers_per_replica = static_cast<int>(flags.GetInt("workers"));
  options.engine.top_k = static_cast<int>(flags.GetInt("top_k"));
  options.engine.cache_shards = static_cast<size_t>(
      flags.GetInt("cache_shards"));
  options.engine.mr_cache_capacity =
      static_cast<size_t>(flags.GetInt("cache"));
  return options;
}

int Query(const util::FlagParser& flags) {
  const std::string dir = flags.GetString("workdir");
  std::string queries_path = flags.GetString("queries");
  if (queries_path.empty()) queries_path = dir + "/queries.tsv";

  serve::RouterOptions options = RouterOptionsFromFlags(flags);
  // The whole file is one batch the caller waits on: admit all of it.
  options.admission.max_queue = 0;
  auto router = serve::ServeRouter::Open(dir + "/model.imrs", options);
  if (!router.ok()) return Fail(router.status());

  auto lines = ReadQueryFile(queries_path);
  if (!lines.ok()) return Fail(lines.status());

  // Group consecutive lines with the same entity pair into one bag.
  std::vector<serve::Query> queries;
  std::vector<std::pair<std::string, std::string>> pair_names;
  for (const QueryLine& parsed : *lines) {
    if (pair_names.empty() || pair_names.back().first != parsed.head ||
        pair_names.back().second != parsed.tail) {
      auto query =
          (*router)->MakeQuery(parsed.head, parsed.tail, {parsed.sentence});
      if (!query.ok()) return Fail(query.status());
      queries.push_back(std::move(*query));
      pair_names.emplace_back(parsed.head, parsed.tail);
    } else {
      text::Sentence sentence = parsed.sentence;
      sentence.head_entity = queries.back().head;
      sentence.tail_entity = queries.back().tail;
      queries.back().sentences.push_back(std::move(sentence));
    }
  }

  const std::vector<util::StatusOr<serve::Prediction>> results =
      (*router)->PredictBatch(queries);

  for (size_t i = 0; i < results.size(); ++i) {
    std::printf("(%s, %s)", pair_names[i].first.c_str(),
                pair_names[i].second.c_str());
    if (!results[i].ok()) {
      std::printf("  error: %s\n", results[i].status().ToString().c_str());
      continue;
    }
    for (const serve::ScoredRelation& scored : results[i]->top) {
      std::printf("  %s=%.3f", scored.name.c_str(), scored.probability);
    }
    std::printf("\n");
  }

  std::printf("\n");
  PrintStats((*router)->Stats().aggregate);
  return 0;
}

// Interactive serving loop over a ServeRouter: query lines, `reload`,
// `stats`, `quit`. With --watch_ms, a SnapshotWatcher additionally
// hot-swaps whenever workdir/model.imrs changes on disk.
int Serve(const util::FlagParser& flags) {
  const std::string dir = flags.GetString("workdir");
  const std::string snapshot_path = dir + "/model.imrs";

  serve::RouterOptions options = RouterOptionsFromFlags(flags);
  options.admission.max_queue =
      static_cast<size_t>(flags.GetInt("max_queue"));
  options.admission.deadline_us = flags.GetInt("deadline_us");
  auto router = serve::ServeRouter::Open(snapshot_path, options);
  if (!router.ok()) return Fail(router.status());

  std::unique_ptr<serve::SnapshotWatcher> watcher;
  const int watch_ms = static_cast<int>(flags.GetInt("watch_ms"));
  if (watch_ms > 0) {
    serve::WatcherOptions watcher_options;
    watcher_options.poll_interval_ms = watch_ms;
    watcher = std::make_unique<serve::SnapshotWatcher>(
        snapshot_path,
        [&router](const std::string& path) {
          util::Status swapped = (*router)->Reload(path);
          if (swapped.ok()) {
            std::printf("auto-reload: now serving generation %llu\n",
                        static_cast<unsigned long long>(
                            (*router)->generation()));
          }
          return swapped;
        },
        watcher_options);
    // Row-sparse generations: `*.imrd` files dropped next to model.imrs
    // are applied in base-hash chain order through ReloadDelta.
    serve::DeltaHooks delta_hooks;
    delta_hooks.serving_hash = [&router] { return (*router)->content_hash(); };
    delta_hooks.apply = [&router](const std::string& delta_path) {
      util::Status applied = (*router)->ReloadDelta(delta_path);
      if (applied.ok()) {
        std::printf("auto-delta: now serving generation %llu\n",
                    static_cast<unsigned long long>((*router)->generation()));
      }
      return applied;
    };
    watcher->WatchDeltas(std::move(delta_hooks));
    watcher->Start();
  }

  std::printf(
      "serving generation %llu (%d replicas x %d workers, %zu cache "
      "shards, max_queue=%zu, deadline_us=%lld)\n"
      "commands: <query TSV line> | reload <snapshot.imrs> | "
      "reload-delta <file.imrd> | stats | quit\n",
      static_cast<unsigned long long>((*router)->generation()),
      options.replicas, options.workers_per_replica,
      options.engine.cache_shards, options.admission.max_queue,
      static_cast<long long>(options.admission.deadline_us));

  std::string line;
  while (std::getline(std::cin, line)) {
    if (line.empty()) continue;
    if (line == "quit" || line == "exit") break;
    if (line == "stats") {
      PrintStats((*router)->Stats().aggregate);
      continue;
    }
    if (line.rfind("reload-delta ", 0) == 0) {
      const std::string path = line.substr(13);
      util::Status applied = (*router)->ReloadDelta(path);
      if (!applied.ok()) {
        std::printf(
            "delta reload failed (still serving generation %llu): %s\n",
            static_cast<unsigned long long>((*router)->generation()),
            applied.ToString().c_str());
      } else {
        std::printf("now serving generation %llu (delta, hash %016llx)\n",
                    static_cast<unsigned long long>((*router)->generation()),
                    static_cast<unsigned long long>(
                        (*router)->content_hash()));
      }
      continue;
    }
    if (line.rfind("reload ", 0) == 0 || line == "reload") {
      std::string path = line.size() > 7 ? line.substr(7) : snapshot_path;
      if (path.empty()) path = snapshot_path;
      util::Status swapped = (*router)->Reload(path);
      if (!swapped.ok()) {
        std::printf("reload failed (still serving generation %llu): %s\n",
                    static_cast<unsigned long long>((*router)->generation()),
                    swapped.ToString().c_str());
      } else {
        std::printf("now serving generation %llu\n",
                    static_cast<unsigned long long>((*router)->generation()));
      }
      continue;
    }
    std::vector<std::string> fields = util::Split(line, '\t');
    if (fields.size() != 5) {
      std::printf("expected 5 tab-separated fields (or a command), got "
                  "%zu\n", fields.size());
      continue;
    }
    text::Sentence sentence;
    sentence.head_index = std::atoi(fields[2].c_str());
    sentence.tail_index = std::atoi(fields[3].c_str());
    sentence.tokens = util::SplitWhitespace(fields[4]);
    auto query = (*router)->MakeQuery(fields[0], fields[1], {sentence});
    if (!query.ok()) {
      std::printf("error: %s\n", query.status().ToString().c_str());
      continue;
    }
    auto prediction = (*router)->Predict(*query);
    if (!prediction.ok()) {
      std::printf("error: %s\n", prediction.status().ToString().c_str());
      continue;
    }
    std::printf("(%s, %s) gen=%llu", fields[0].c_str(), fields[1].c_str(),
                static_cast<unsigned long long>(prediction->generation));
    for (const serve::ScoredRelation& scored : prediction->top) {
      std::printf("  %s=%.3f", scored.name.c_str(), scored.probability);
    }
    std::printf("\n");
  }

  if (watcher != nullptr) watcher->Stop();
  PrintStats((*router)->Stats().aggregate);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  util::SetLogLevel(util::LogLevel::kWarning);
  if (argc < 2) {
    std::fputs(kUsage, stderr);
    return 1;
  }
  const std::string command = argv[1];
  util::FlagParser flags;
  flags.AddString("workdir", "imr_serve_demo", "working directory");
  flags.AddString("preset", "gds", "nyt | gds (train-demo)");
  flags.AddDouble("scale", 0.6, "dataset size multiplier (train-demo)");
  flags.AddInt("seed", 7, "generator + init seed (train-demo)");
  flags.AddInt("epochs", 12, "training epochs (train-demo)");
  flags.AddString("queries", "", "query TSV (default workdir/queries.tsv)");
  flags.AddInt("top_k", 3, "relations printed per pair (query, serve)");
  flags.AddInt("cache", 4096,
               "mutual-relation LRU capacity per replica (query, serve)");
  flags.AddInt("replicas", 1, "engine replicas behind the router");
  flags.AddInt("workers", 1, "worker threads per replica");
  flags.AddInt("cache_shards", 8, "MR-cache shard count per replica");
  flags.AddInt("max_queue", 1024,
               "per-replica queue bound; 0 = unbounded (serve)");
  flags.AddInt("deadline_us", 0,
               "queue-wait budget before shedding; 0 = none (serve)");
  flags.AddInt("watch_ms", 0,
               "poll model.imrs and auto-reload every N ms; 0 = off (serve)");
  util::Status status = flags.Parse(argc - 1, argv + 1);
  if (!status.ok()) {
    if (status.code() == util::StatusCode::kNotFound) return 0;
    std::fprintf(stderr, "%s\n%s", status.ToString().c_str(), kUsage);
    return 1;
  }
  if (command == "train-demo") return TrainDemo(flags);
  if (command == "query") return Query(flags);
  if (command == "serve") return Serve(flags);
  std::fputs(kUsage, stderr);
  return 1;
}
