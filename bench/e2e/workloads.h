// The three workloads of imr_e2e and the pieces they share with the traced
// layer replays: set-up products, the single-thread reference forward, and
// the publisher that pushes model updates to the serve tier.
#ifndef IMR_BENCH_E2E_WORKLOADS_H_
#define IMR_BENCH_E2E_WORKLOADS_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "harness.h"
#include "imr.h"
#include "traffic.h"

namespace imr::e2e {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 25.0;
  bool trace = false;
  /// Result JSON, trace JSONL and scratch snapshots go here.
  std::string out_dir = "bench_results/e2e";
};

/// serve-gds-knn, swap-nyt, train-nyt.
const std::vector<std::string>& WorkloadNames();

/// Runs one workload in this process and prints its report; returns the
/// process exit code (nonzero when any output check fails).
int RunWorkload(const Options& options);

/// The serve path rebuilt from public calls, single-threaded: featurize
/// with re::MakeEncoderInput, MR(head, tail) from `embeddings`,
/// PaModel::Predict, then the snapshot's kNN blend when it carries one.
/// Served responses must match it bit for bit. Each stage is a span under
/// one `replay.request` root in `spans` (pass a disabled buffer to record
/// nothing); `stage_us`, when not null, receives the summed stage time.
std::vector<float> ReferencePredict(const serve::Snapshot& snapshot,
                                    const graph::EmbeddingStore& embeddings,
                                    const serve::Query& query,
                                    SpanBuffer* spans, uint64_t request,
                                    double* stage_us);

/// Trainer settings of every training run here: batch 32, Adam at 0.01,
/// the data-parallel step, which is bit-reproducible at any worker count.
re::TrainerConfig TrainerConfigFor(int epochs);

/// What a full snapshot of the served model is written from.
struct ModelParts {
  const re::PaModel* model = nullptr;
  const text::Vocabulary* vocab = nullptr;
  const std::vector<std::string>* relation_names = nullptr;
  const std::vector<serve::EntityRecord>* entities = nullptr;
  re::BagDatasetOptions bag_options;
  const re::KnnPredictor* knn = nullptr;
};

/// Pushes model updates to a live router the way an online trainer would.
/// Every update perturbs max(1, rows / 500) seeded embedding rows (0.2%);
/// every 8th is a full v2 snapshot (SaveSnapshot to a temp file, rename,
/// ServeRouter::Reload), the others are chained IMRD deltas (SaveDelta,
/// ServeRouter::ReloadDelta).
class Publisher {
 public:
  /// Rows changed by one update and their values afterwards.
  struct Edit {
    std::vector<int> rows;
    std::vector<float> values;  // rows.size() x dim
  };

  Publisher(serve::ServeRouter* router, ModelParts parts,
            const graph::EmbeddingStore& base, std::string dir, uint64_t seed,
            SpanBuffer* spans);
  Publisher(const Publisher&) = delete;
  Publisher& operator=(const Publisher&) = delete;

  /// Performs the next update. After the first failure every call returns
  /// false without publishing.
  bool PublishNext();

  uint64_t attempted() const { return attempted_; }
  uint64_t published() const { return published_; }
  const std::string& error() const { return error_; }
  /// Generation serving after the last publish that returned.
  const std::atomic<uint64_t>& published_generation() const {
    return published_generation_;
  }
  /// edits()[u] is what update u changed; generation u + 2 serves it.
  const std::vector<Edit>& edits() const { return edits_; }

  // Per-update timings in milliseconds.
  std::vector<double> delta_publish_ms;  // SaveDelta start -> ReloadDelta return
  std::vector<double> delta_save_ms;
  std::vector<double> delta_reload_ms;
  std::vector<double> full_save_ms;  // SaveSnapshot + rename
  std::vector<double> full_reload_ms;

 private:
  serve::ServeRouter* router_;
  ModelParts parts_;
  graph::EmbeddingStore working_;
  std::string dir_;
  util::Rng rng_;
  SpanBuffer* spans_;
  uint64_t attempted_ = 0;
  uint64_t published_ = 0;
  std::string error_;
  std::atomic<uint64_t> published_generation_{1};
  std::vector<Edit> edits_;
};

/// Traced serve replay of the first picks of the workload's stream: a
/// 1-worker router pass (service, submit, handoff), the buffer-pool count
/// of the stages alone, then each request through the public calls
/// (featurize, MR lookup, predict, kNN) on this thread alternating with a
/// 1-worker router on the same CPU for the stage-coverage reference, then
/// probe calls. `knn_probe` stands in for the kNN stage's probes when the
/// snapshot carries no ANNI section.
void RunServeReplay(const serve::Snapshot& snapshot,
                    const std::string& snapshot_path,
                    const std::vector<PairText>& pairs,
                    const std::vector<Pick>& picks,
                    const re::KnnPredictor& knn_probe, Report* report,
                    SpanBuffer* spans);

/// Traced train replay over the first 20 batches of `train_bags`: one
/// epoch replayed call for call as Trainer::Train's threads=1 path
/// (ZeroGrad, BatchLoss, Backward, Step on a fresh Adam), alternating with
/// real Trainer::Train epochs over the same bags that give the per-batch
/// reference time. `model` returns a fresh copy of the starting weights.
void RunTrainReplay(const std::function<std::unique_ptr<re::PaModel>()>& model,
                    const std::vector<re::Bag>& train_bags, Report* report,
                    SpanBuffer* spans);

}  // namespace imr::e2e

#endif  // IMR_BENCH_E2E_WORKLOADS_H_
